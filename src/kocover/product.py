"""Product CW skeleta and assembled product covers.

The product of two simplicial complexes carries the CW structure whose
cells are pairs of open cells, filtered by total dimension. A product
cover pairs an m-element 1-deformable cover of the first factor with an
m-element monotone 0-deformable cover of the second, m = (d+n)//2 + 1;
the index-matching count shows the paired sets cover the whole product
n-skeleton, which bounds its category by m - 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

from .complexes import Complex
from .cover import (BUNDLE_FORMAT, CoverBundle, CoverError, CoverReport,
                    build_cover, check_certificate, check_format, cover_signatures)
from .tower import CellT, json_field, json_object

Signatures = dict[int, set[frozenset[int]]]


def product_skeleton(x: Complex, b: Complex, n: int) -> list[tuple[CellT, CellT]]:
    """All product cells, pairs of base cells, of total dimension at most n."""
    if n > x.dim + b.dim:
        raise CoverError("skeleton dimension exceeds the product dimension")
    return [(s, t) for s in x.cells() for t in b.cells()
            if (len(s) - 1) + (len(t) - 1) <= n]


def lemma_bound(n: int, d: int) -> int:
    """Category bound for the product n-skeleton: floor((d+n)/2)."""
    if not 0 <= d <= n:
        raise CoverError("the bound needs 0 <= d <= n")
    return (d + n) // 2


@dataclass
class ProductCoverBundle:
    x: Complex
    b: Complex
    n: int
    d: int
    m: int
    x_bundle: CoverBundle  # 1-deformable cover of the x factor
    b_bundle: CoverBundle  # monotone 0-deformable cover of the b factor

    def iter_json(self) -> Iterator[str]:
        """The bundle's compact sorted-key JSON text, in pieces, the factor
        bundles streamed as CoverBundle.iter_json gives them."""
        return json_object({
            "format": BUNDLE_FORMAT,
            "params": {"n": self.n, "d": self.d, "m": self.m},
            "x_bundle": self.x_bundle.iter_json(),
            "b_bundle": self.b_bundle.iter_json(),
        })

    def to_json(self) -> dict:
        """The bundle as JSON data, read back from its text."""
        return json.loads("".join(self.iter_json()))

    @classmethod
    def from_json(cls, data: dict) -> "ProductCoverBundle":
        check_format(data)
        xb = CoverBundle.from_json(json_field(data, "x_bundle", dict, CoverError))
        bb = CoverBundle.from_json(json_field(data, "b_bundle", dict, CoverError))
        params = json_field(data, "params", dict, CoverError)
        n, d, m = (json_field(params, name, int, CoverError) for name in ("n", "d", "m"))
        # n and d follow from the factors, so a claim is refused, not trusted
        for name, value, factor, cx in (("n", n, "x", xb.complex), ("d", d, "b", bb.complex)):
            if value != cx.dim:
                raise CoverError(f"bundle field {name!r} is {value}, but the {factor} "
                                 f"factor is a {cx.dim}-complex")
        return cls(xb.complex, bb.complex, n, d, m, xb, bb)


def assemble_product_cover(x: Complex, b: Complex) -> ProductCoverBundle:
    """Build the paired covers behind the halved-dimension bound.

    Requires dim b <= dim x. The number of elements is (d+n)//2 + 1; the
    paired sets are the products of same-index elements.
    """
    n, d = x.dim, b.dim
    if d > n:
        raise CoverError("the second factor must not exceed the first in dimension")
    m = (d + n) // 2 + 1
    b_bundle = build_cover(b, 0, m)
    x_bundle = build_cover(x, 1, m)
    return ProductCoverBundle(x, b, n, d, m, x_bundle, b_bundle)


def verify_product_cover(pcb: ProductCoverBundle) -> CoverReport:
    """Three checks: direct coverage of the product n-skeleton, the
    index-matching replay, and the factor certificates, each replayed by
    the cover verifier's per-certificate check. The final contractibility
    of each paired set also uses simple connectivity of the first factor,
    which is recorded as an explicit assumption rather than verified."""
    report = CoverReport()
    n, d, m = pcb.n, pcb.d, pcb.m

    if m != (d + n) // 2 + 1 or len(pcb.x_bundle.elements) != m \
            or len(pcb.b_bundle.elements) != m:
        report.add("element-count", False,
                   f"expected m={(d + n) // 2 + 1} paired elements")
        return report
    if len(pcb.x_bundle.certificates) != m or len(pcb.b_bundle.certificates) != m:
        report.add("element-count", False, f"expected m={m} certificates per factor")
        return report
    report.add("element-count", True, f"m={m}")

    guard = all(2 * (m - j) - 1 >= n - j for j in range(d + 1))
    report.add("arithmetic-guard", guard,
               "2(m-j)-1 >= n-j for all j <= d" if guard else
               "index-matching arithmetic fails for some j")

    xt, bt = pcb.x_bundle.tower, pcb.b_bundle.tower
    x_sigs = cover_signatures(xt, pcb.x_bundle.elements)
    b_sigs = cover_signatures(bt, pcb.b_bundle.elements)
    direct_ok, direct_detail = coverage_direct(n, x_sigs, b_sigs)
    report.add("coverage-direct", direct_ok, direct_detail)
    replay_ok, replay_detail = coverage_replay(m, x_sigs, b_sigs)
    report.add("coverage-replay", replay_ok, replay_detail)
    agree = direct_ok == replay_ok
    report.add("coverage-agreement", agree,
               "" if agree else "direct check and replay disagree")

    # filtration: b certificates are monotone into the 0-skeleton, so
    # no track raises the b-carrier dimension; x certificates witness
    # 1-deformability
    for i, (el, cert) in enumerate(zip(pcb.b_bundle.elements, pcb.b_bundle.certificates)):
        report.add(f"b-filtration-{i}", *check_certificate(bt, el, cert, 0))
    for i, (el, cert) in enumerate(zip(pcb.x_bundle.elements, pcb.x_bundle.certificates)):
        report.add(f"x-deformability-{i}", *check_certificate(xt, el, cert, 1))
    report.add("assumption", True,
               "final contractibility of each paired set additionally uses "
               "simple connectivity of the first factor (not verified here)")
    return report


def _ordered(sigs: Signatures) -> list[tuple[int, frozenset[int]]]:
    return sorted(((d, s) for d, ss in sigs.items() for s in ss),
                  key=lambda p: (p[0], sorted(p[1])))


def coverage_direct(n: int, x_sigs: Signatures, b_sigs: Signatures) -> tuple[bool, str]:
    """Every refined product cell of total base dim <= n lies in a paired
    set: its two factor cells share a cover index. Both depend only on
    each factor cell's (base-carrier dim, cover index set), so this and the
    replay run over the factors' exact signatures, not their cells."""
    bs = _ordered(b_sigs)
    for dx, sx in _ordered(x_sigs):
        for db, sb in bs:
            if dx + db <= n and not sx & sb:
                return False, (f"uncovered product cells: x over a {dx}-cell in "
                               f"elements {sorted(sx)}, b over a {db}-cell in "
                               f"elements {sorted(sb)}")
    return True, ""


def coverage_replay(m: int, x_sigs: Signatures, b_sigs: Signatures) -> tuple[bool, str]:
    """The index-matching replay: the b-part of a cell over the j-skeleton
    is covered by at least m-j elements, and those indices restricted to
    the x cover form an (m-j)-cover of the x (2(m-j)-1)-skeleton, which
    contains the (n-j)-skeleton by the arithmetic guard."""
    xs = _ordered(x_sigs)
    for j, idxs in _ordered(b_sigs):
        if len(idxs) < m - j:
            return False, f"b-cell over the {j}-skeleton covered {len(idxs)} < {m - j} times"
        sk = 2 * (m - j) - 1
        if any(dx <= sk and not sx & idxs for dx, sx in xs):
            return False, (f"indices covering a {j}-dim b-cell miss an x-cell "
                           f"of the {sk}-skeleton")
    return True, ""
