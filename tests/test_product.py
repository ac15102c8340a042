import dataclasses

import pytest

from kocover import (CoverError, ProductComplex, ProductCoverBundle,
                     assemble_product_cover, builtin, lemma_bound,
                     product_skeleton, verify_product_cover)


def test_product_skeleton_counts():
    s1 = builtin("s1")
    full = product_skeleton(s1, s1, 2)
    # independent double loop
    expected = [(a, b) for a in s1.cells() for b in s1.cells()
                if (len(a) - 1) + (len(b) - 1) <= 2]
    assert sorted(full) == sorted(expected)
    assert len(full) == len(s1.cells()) ** 2  # n equals the total dimension

    verts = product_skeleton(s1, s1, 0)
    assert all(len(a) == 1 and len(b) == 1 for a, b in verts)
    assert len(verts) == 9

    with pytest.raises(CoverError):
        product_skeleton(s1, s1, 3)


def test_lemma_bound_values():
    assert lemma_bound(2, 1) == 1
    assert lemma_bound(3, 3) == 3
    for n in range(6):
        assert lemma_bound(n, 0) == n // 2
    with pytest.raises(CoverError):
        lemma_bound(1, 2)


@pytest.mark.parametrize("xname,bname", [
    ("boundary-delta-3", "point"),
    ("boundary-delta-3", "s1"),
    ("torus-7", "s1"),
    ("s1-x-s1", "s1"),
    ("s1", "point"),
])
def test_assemble_and_verify(xname, bname):
    x, b = builtin(xname), builtin(bname)
    pcb = assemble_product_cover(x, b)
    assert pcb.m == (x.dim + b.dim) // 2 + 1
    report = verify_product_cover(pcb)
    assert report.ok, [c for c in report.checks if not c.passed]


def test_dimension_precondition():
    with pytest.raises(CoverError):
        assemble_product_cover(builtin("s1"), builtin("boundary-delta-3"))


def test_removed_element_fails_direct_check():
    pcb = assemble_product_cover(builtin("boundary-delta-3"), builtin("s1"))
    pcb.x_bundle.elements = pcb.x_bundle.elements[:1]
    pcb.b_bundle.elements = pcb.b_bundle.elements[:1]
    pcb.m = 1
    report = verify_product_cover(pcb)
    assert not report.ok
    failing = {c.name for c in report.checks if not c.passed}
    assert "element-count" in failing or "coverage-direct" in failing


@pytest.mark.parametrize("factor,check", [("b_bundle", "b-filtration"),
                                          ("x_bundle", "x-deformability")])
def test_stripped_factor_certificates_fail(factor, check):
    pcb = assemble_product_cover(builtin("torus-7"), builtin("s1"))
    bundle = getattr(pcb, factor)
    bundle.certificates = [dataclasses.replace(c, steps=()) for c in bundle.certificates]
    report = verify_product_cover(pcb)
    failing = {c.name for c in report.checks if not c.passed}
    assert failing == {f"{check}-{i}" for i in range(pcb.m)}


def test_arithmetic_guard_identity():
    # with m = floor((d+n)/2) + 1 the guard holds for every pair
    for n in range(5):
        for d in range(n + 1):
            m = (d + n) // 2 + 1
            assert all(2 * (m - j) - 1 >= n - j for j in range(d + 1))


def test_product_bundle_json_round_trip():
    pcb = assemble_product_cover(builtin("boundary-delta-3"), builtin("s1"))
    again = ProductCoverBundle.from_json(pcb.to_json())
    assert again.m == pcb.m
    assert verify_product_cover(again).ok


def test_b_filtration_reported():
    pcb = assemble_product_cover(builtin("boundary-delta-3"), builtin("s1"))
    report = verify_product_cover(pcb)
    names = [c.name for c in report.checks]
    assert any(n.startswith("b-filtration") for n in names)
    assert any(n == "assumption" for n in names)


def test_product_complex_dim():
    pc = ProductComplex(builtin("torus-7"), builtin("s1"))
    assert pc.dim == 3
    assert len(pc.skeleton_cells(0)) == 7 * 3
