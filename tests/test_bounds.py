import pytest
from hypothesis import given, settings, strategies as st

from kocover import (BoundProfile, BoundsError, FibrationProfile, NotApplicable,
                     best_upper, betti_mod2, builtin, corollary_bound,
                     cuplength_mod2, fibration_bound, main_bound, random_complex,
                     rconn_bound)
from kocover.cohomology import Gf2Span, coboundary_columns, cohomology, cup_product


def test_main_bound_examples():
    assert main_bound(3, 1) == 2
    for n in range(8):
        assert main_bound(n, 0) == n // 2
    for d in range(5):
        assert main_bound(d, d) == d
    with pytest.raises(NotApplicable):
        main_bound(3, "unknown")
    with pytest.raises(BoundsError):
        main_bound(2, 3)


def test_corollary_bound_examples():
    assert corollary_bound(2, 2) == 2
    with pytest.raises(NotApplicable):
        corollary_bound(2, "inf")
    for m in (1, 2):
        for n in (1, 2):
            assert corollary_bound(m + 2 * n, m) == m + n


def test_rconn_bound_examples():
    for n in range(11):
        for r in range(1, 4):
            assert rconn_bound(n, 0, r) == n // (r + 1)
    assert rconn_bound(9, 3, 2) == 5
    # r = 1 agrees with the plain average on every input
    for n in range(8):
        for c in range(n + 1):
            assert rconn_bound(n, c, 1) == main_bound(n, c)
    assert rconn_bound(5, 1, 0) == main_bound(5, 1)


def test_fibration_bound_examples():
    assert fibration_bound(4, 3) == 5
    for k in range(4):
        assert fibration_bound(0, 2 * k) == k
    for m in range(3):
        for n in range(3):
            assert fibration_bound(m, 2 * n) == m + n
    with pytest.raises(NotApplicable):
        fibration_bound(4, 3, fiber_simply_connected=False)


def test_bounds_monotone():
    for n in range(6):
        for c in range(n):
            assert main_bound(n + 1, c) >= main_bound(n, c)
            assert main_bound(n, c + 1) >= main_bound(n, c) if c + 1 <= n else True
            assert corollary_bound(n + 1, c) >= corollary_bound(n, c)


def test_corollary_dominates_main_when_consistent():
    for n in range(6):
        for cat_u in range(n + 1):
            for cd in range(cat_u, 6):
                assert corollary_bound(n, cd) >= main_bound(n, cat_u)


def test_profile_validation():
    with pytest.raises(BoundsError):
        BoundProfile(dim=3, cat_u=2, cd_pi=1)


# each rule's value from the rule function that owns its formula; the two
# bundle comparisons have no function of their own
_RULE_VALUES = {
    "dimension": lambda i: i["dim"],
    "halved-dimension": lambda i: main_bound(i["dim"], 0),
    "connectivity-fraction": lambda i: rconn_bound(i["dim"], 0, i["r"]),
    "classifying-average": lambda i: main_bound(i["dim"], i["cat_u"]),
    "weighted-classifying-average": lambda i: rconn_bound(i["dim"], i["cat_u"], i["r"]),
    "group-dimension-average": lambda i: corollary_bound(i["dim"], i["cd_pi"]),
    "fibration": lambda i: fibration_bound(i["dim_base"], i["dim_fiber"]),
    "bundle-product-comparison": lambda i: (i["cat_base"] + 1) * (i["cat_fiber"] + 1) - 1,
    "bundle-sum": lambda i: i["cat_base"] + i["cat_fiber"],
}


def test_best_upper_values_come_from_the_rule_functions():
    fibrations = [None, FibrationProfile(2, 3, True, True),
                  FibrationProfile(2, 2, True, True, cat_base=2, cat_fiber=1),
                  FibrationProfile(1, 4, False, True, cat_base=1, cat_fiber=2)]
    for dim in range(7):
        for r in range(3):
            for cd in ["unknown", "inf", *range(7)]:
                top = min(dim, cd) if isinstance(cd, int) else dim
                for cat_u in ["unknown", *range(top + 1)]:
                    for simply in (False, True):
                        for fib in fibrations:
                            prof = BoundProfile(dim=dim, r=r, cd_pi=cd, cat_u=cat_u,
                                                simply_connected=simply, fibration=fib)
                            res = best_upper(prof)
                            for t in res.trace:
                                assert t.value == _RULE_VALUES[t.rule](t.inputs), (prof, t)
                            rules = {t.rule for t in res.trace}
                            assert ("classifying-average" in rules) == isinstance(cat_u, int)
                            assert ("group-dimension-average" in rules) == isinstance(cd, int)
                            assert ("connectivity-fraction" in rules) == (r >= 1)
                            assert res.value == min(t.value for t in res.trace)


def test_best_upper_examples():
    res = best_upper(BoundProfile(dim=2, cd_pi=2))
    assert res.value == 2
    assert any(t.rule == "group-dimension-average" for t in res.trace)

    assert best_upper(BoundProfile(dim=2, simply_connected=True)).value == 1
    assert best_upper(BoundProfile(dim=0)).value == 0
    # infinite cd leaves only the dimension rules applicable
    res = best_upper(BoundProfile(dim=2, cd_pi="inf"))
    assert res.value == 2
    assert all(t.rule != "group-dimension-average" for t in res.trace)

    fib = FibrationProfile(4, 3, fiber_simply_connected=True, base_aspherical=True)
    res = best_upper(BoundProfile(dim=7, fibration=fib))
    assert res.value == 5
    fib = FibrationProfile(2, 2, True, True, cat_base=2, cat_fiber=1)
    res = best_upper(BoundProfile(dim=4, fibration=fib))
    assert any(t.rule == "bundle-product-comparison" for t in res.trace)
    assert any(t.rule == "bundle-sum" for t in res.trace)
    assert res.value == 3


# -- cohomology oracle ---------------------------------------------------------


def _oracle_rank_gf2(mat):
    """Independent pure-python row reduction over the two-element field."""
    rows = [list(map(int, r)) for r in mat]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _bitmask(bits):
    return sum(bit << i for i, bit in enumerate(bits))


def _apply(mat, v):
    """The product of a 0/1 matrix with the vector whose entry j is bit j of
    the int v, mod 2, as a 0/1 list."""
    return [sum(entry & v >> j for j, entry in enumerate(row)) % 2 for row in mat]


def _coboundary_matrices(cx):
    """The degree-p coboundary, rows the (p+1)-cells, columns the p-cells,
    as dense 0/1 matrices whose column j has the bits of int column j."""
    return [[[c >> i & 1 for c in columns] for i in range(len(cx.cells(p + 1)))]
            for p, columns in enumerate(coboundary_columns(cx))]


def _span_of_columns(columns):
    span = Gf2Span()
    for column in columns:
        span.add(column)
    return span


@pytest.mark.parametrize("name,betti", [
    ("boundary-delta-3", [1, 0, 1]),
    ("torus-7", [1, 2, 1]),
    ("rp2-6", [1, 1, 1]),
    ("s1-x-s1", [1, 2, 1]),
    ("s1-x-s2", [1, 1, 1, 1]),
    ("delta-3", [1, 0, 0, 0]),
    ("s1", [1, 1]),
])
def test_betti_numbers_with_oracle(name, betti):
    cx = builtin(name)
    assert betti_mod2(cx) == betti
    # dual-route check: the span's rank of every coboundary matrix agrees
    # with the oracle
    for columns, mat in zip(coboundary_columns(cx), _coboundary_matrices(cx)):
        assert _span_of_columns(columns).rank == _oracle_rank_gf2(mat)


@given(dim=st.integers(1, 3), extra=st.integers(0, 5), seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_betti_numbers_are_rank_nullity_of_the_oracle(dim, extra, seed):
    cx = random_complex(dim, dim + 1 + extra, seed)
    ranks = [_oracle_rank_gf2(mat) for mat in _coboundary_matrices(cx)]
    # dim H^p = dim C^p - rank of the coboundary out of C^p - rank into it
    assert betti_mod2(cx) == [len(cx.cells(p)) - ranks[p] - (ranks[p - 1] if p else 0)
                              for p in range(cx.dim + 1)]


@given(data=st.data(), rows=st.integers(0, 12), cols=st.integers(0, 20))
@settings(max_examples=150, deadline=None)
def test_span_kernel_is_a_null_space_basis(data, rows, cols):
    bits = st.lists(st.integers(0, 1), min_size=rows * cols, max_size=rows * cols)
    flat = data.draw(bits)
    mat = [flat[i * cols:(i + 1) * cols] for i in range(rows)]
    columns = [_bitmask(row[j] for row in mat) for j in range(cols)]
    kernel = _span_of_columns(columns).kernel()
    assert len(kernel) == cols - _oracle_rank_gf2(mat)
    for v in kernel:
        assert 0 <= v < 1 << cols and not any(_apply(mat, v))
    # independent: the kernel vectors, stacked, have full rank
    assert _oracle_rank_gf2([[v >> j & 1 for j in range(cols)] for v in kernel]) \
        == len(kernel)


def test_cocycle_conditions():
    cx = builtin("torus-7")
    mats = _coboundary_matrices(cx)
    reps = cohomology(cx).representatives
    for p in (1, 2):
        for v in reps[p]:
            assert not any(_apply(mats[p], v))


def test_cup_product_bilinear_and_graded():
    cx = builtin("torus-7")
    co = cohomology(cx)
    a, b = co.representatives[1]
    ab = cup_product(cx, 1, 1, a, b)
    ba = cup_product(cx, 1, 1, b, a)
    # mod-2 classes commute in cohomology: both products are nonzero here
    assert co.images[2].reduce(ab) == co.images[2].reduce(ba) != 0
    mats = _coboundary_matrices(cx)
    assert not any(_apply(mats[2], ab)) if cx.dim > 2 else True
    s = cup_product(cx, 1, 1, a ^ b, b)
    assert s == ab ^ cup_product(cx, 1, 1, b, b)


@given(name=st.sampled_from(["torus-7", "rp2-6", "s1-x-s1", "boundary-delta-3"]),
       p=st.integers(1, 2), data=st.data())
@settings(max_examples=60, deadline=None)
def test_span_reduction_is_constant_on_cosets(name, p, data):
    # cup-length dedup keys products by this reduction, so it must not see
    # which coset representative it was given
    cx = builtin(name)
    mat = _coboundary_matrices(cx)[p - 1]
    span = _span_of_columns(coboundary_columns(cx)[p - 1])
    rows, cols = len(cx.cells(p)), len(cx.cells(p - 1))
    v = _bitmask(data.draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows)))
    x = _bitmask(data.draw(st.lists(st.integers(0, 1), min_size=cols, max_size=cols)))
    w = _bitmask(_apply(mat, x))  # a coboundary
    assert span.reduce(v) == span.reduce(v ^ w)


@pytest.mark.parametrize("name,length", [
    ("boundary-delta-3", 1),
    ("torus-7", 2),
    ("rp2-6", 2),
    ("s1-x-s2", 2),
    ("s1-x-s1", 2),
    ("s1", 1),
    ("delta-2", 0),
    ("delta-3", 0),
    ("boundary-delta-4", 1),
])
def test_cuplength_values(name, length):
    assert cuplength_mod2(builtin(name)) == length


def test_sandwich_on_catalog():
    """Cup length never exceeds the best upper bound on a truthful profile."""
    profiles = {
        "boundary-delta-3": BoundProfile(dim=2, simply_connected=True),
        "torus-7": BoundProfile(dim=2, cd_pi=2),
        "rp2-6": BoundProfile(dim=2, cd_pi="inf"),
        "s1-x-s1": BoundProfile(dim=2, cd_pi=2),
        "s1-x-s2": BoundProfile(dim=3, cd_pi=1),
        "s1": BoundProfile(dim=1, cd_pi=1),
        "boundary-delta-4": BoundProfile(dim=3, simply_connected=True),
    }
    for name, prof in profiles.items():
        low = cuplength_mod2(builtin(name))
        high = best_upper(prof).value
        assert low <= high, name
