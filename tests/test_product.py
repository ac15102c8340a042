import dataclasses

import pytest

from kocover import (CoverError, ProductCoverBundle,
                     assemble_product_cover, builtin, cover_signatures,
                     lemma_bound, product_skeleton, verify_product_cover)
from kocover.product import coverage_direct, coverage_replay

CRITERION_4_PAIRS = [(x, b) for x in ("boundary-delta-3", "torus-7", "s1-x-s1")
                     for b in ("point", "s1")]


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


def test_product_complex_dim():
    x, b = builtin("torus-7"), builtin("s1")
    # the product has dimension 3: its 3-skeleton is every product cell
    assert len(product_skeleton(x, b, 3)) == len(x.cells()) * len(b.cells())
    with pytest.raises(CoverError):
        product_skeleton(x, b, 4)
    assert len(product_skeleton(x, b, 0)) == 7 * 3


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


@pytest.mark.parametrize("xname,bname", [
    ("boundary-delta-3", "s2"),
    ("torus-7", "s2"),
    ("torus-7", "torus-7"),
    ("s1-x-s1", "delta-2"),
    ("s1-x-s2", "s2"),
    ("s1-x-s2", "torus-7"),
])
def test_assemble_and_verify_with_a_surface_second_factor(xname, bname):
    # m = 3 needs a third element of the r = 1 cover of the first factor
    pcb = assemble_product_cover(builtin(xname), builtin(bname))
    assert pcb.m == 3 and pcb.x_bundle.construction == "staggered-duals"
    checks = {c.name: c.passed for c in verify_product_cover(pcb).checks}
    expected = {"element-count", "arithmetic-guard", "coverage-direct", "coverage-replay",
                "coverage-agreement", *(f"b-filtration-{i}" for i in range(3)),
                *(f"x-deformability-{i}" for i in range(3))}
    assert expected <= checks.keys()
    assert all(checks[name] for name in expected), checks


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


def test_emptied_factor_certificate_lists_fail():
    pcb = assemble_product_cover(builtin("torus-7"), builtin("s1"))
    pcb.x_bundle.certificates = []
    pcb.b_bundle.certificates = []
    report = verify_product_cover(pcb)
    assert not report.ok
    assert [(c.name, c.passed) for c in report.checks] == [("element-count", False)]


def cell_loop_coverage(n, m, xb, bb):
    """Reference verdicts (direct, replay): the product verifier's former
    loops over every pair of refined factor cells."""
    xt, bt = xb.tower, bb.tower
    lx = max(el.level for el in xb.elements)
    lb = max(el.level for el in bb.elements)
    x_cells = list(xt.iter_cells(lx))
    b_cells = list(bt.iter_cells(lb))
    x_cov = {s: frozenset(i for i, el in enumerate(xb.elements) if el.contains_at(lx, s))
             for s in x_cells}
    b_cov = {t: frozenset(i for i, el in enumerate(bb.elements) if el.contains_at(lb, t))
             for t in b_cells}
    x_dim = {s: xt.carrier0_dim(lx, s) for s in x_cells}
    b_dim = {t: bt.carrier0_dim(lb, t) for t in b_cells}
    direct = all(x_cov[s] & b_cov[t] for s in x_cells for t in b_cells
                 if x_dim[s] + b_dim[t] <= n)
    replay = True
    for t in b_cells:
        j, idxs = b_dim[t], b_cov[t]
        if len(idxs) < m - j or any(x_dim[s] <= 2 * (m - j) - 1 and not x_cov[s] & idxs
                                    for s in x_cells):
            replay = False
            break
    return direct, replay


@pytest.mark.parametrize("variant", ["as-built", "one-element-dropped", "x-reversed"])
@pytest.mark.parametrize("xname,bname", CRITERION_4_PAIRS)
def test_signature_coverage_equals_cell_loops(xname, bname, variant):
    pcb = assemble_product_cover(builtin(xname), builtin(bname))
    xb, bb, m = pcb.x_bundle, pcb.b_bundle, pcb.m
    if variant == "one-element-dropped":
        m -= 1
        xb = dataclasses.replace(xb, elements=xb.elements[:m], m=m)
        bb = dataclasses.replace(bb, elements=bb.elements[:m], m=m)
    elif variant == "x-reversed":
        xb = dataclasses.replace(xb, elements=xb.elements[::-1])
    x_sigs = cover_signatures(xb.tower, xb.elements)
    b_sigs = cover_signatures(bb.tower, bb.elements)
    got = (coverage_direct(pcb.n, x_sigs, b_sigs)[0], coverage_replay(m, x_sigs, b_sigs)[0])
    assert got == cell_loop_coverage(pcb.n, m, xb, bb)


def test_arithmetic_guard_identity():
    # with m = floor((d+n)/2) + 1 the guard holds for every pair
    for n in range(5):
        for d in range(n + 1):
            m = (d + n) // 2 + 1
            assert all(2 * (m - j) - 1 >= n - j for j in range(d + 1))


def test_product_bundle_json_round_trip():
    pcb = assemble_product_cover(builtin("boundary-delta-3"), builtin("s1"))
    data = pcb.to_json()
    assert all("start" not in c for factor in ("x_bundle", "b_bundle")
               for c in data[factor]["certificates"])
    again = ProductCoverBundle.from_json(data)
    assert again.m == pcb.m
    assert verify_product_cover(again) == verify_product_cover(pcb)
    assert verify_product_cover(again).ok


def test_b_filtration_reported():
    pcb = assemble_product_cover(builtin("boundary-delta-3"), builtin("s1"))
    report = verify_product_cover(pcb)
    names = [c.name for c in report.checks]
    assert any(n.startswith("b-filtration") for n in names)
    assert any(n == "assumption" for n in names)

