"""Closed-form category upper bounds with provenance traces.

All bounds use the reduced convention (a contractible space has category
0) and floor their half-integer values, category being an integer. The
integer inputs cat_u (category of a classifying map) and cd_pi (the
cohomological dimension of the fundamental group) are supplied by the
caller, never computed. Inputs no space can have (negative, or a cat_u
above the dimension or cd_pi) raise BoundsError instead of giving a bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import UsageError
# the cup-length lower bound lives in cohomology; bench/tracing.py times it
# as bounds.cuplength_mod2
from .cohomology import cuplength_mod2  # noqa: F401


class BoundsError(UsageError):
    """Invalid bound inputs."""


class NotApplicable(BoundsError):
    """The rule's preconditions are not met for these inputs."""


INF = "inf"
UNKNOWN = "unknown"


def _nonnegative(**inputs: int) -> None:
    for name, value in inputs.items():
        if value < 0:
            raise BoundsError(f"{name} must be nonnegative, got {value}")


def main_bound(dim: int, cat_u) -> int:
    """Average of the classifying-map category with the dimension."""
    if not isinstance(cat_u, int):
        raise NotApplicable("cat_u is unknown")
    _nonnegative(dim=dim, cat_u=cat_u)
    if cat_u > dim:
        raise BoundsError(f"cat_u {cat_u} cannot exceed the dimension {dim}")
    return (cat_u + dim) // 2


def corollary_bound(dim: int, cd_pi) -> int:
    """Average of the fundamental group's cohomological dimension with the
    dimension. The cd = 2 case needs a three-dimensional classifying
    complex with a retraction in the construction, but the arithmetic is
    unchanged."""
    if not isinstance(cd_pi, int):
        raise NotApplicable("cd is infinite or unknown")
    _nonnegative(dim=dim, cd_pi=cd_pi)
    return (cd_pi + dim) // 2


def rconn_bound(dim: int, cat_u, r: int) -> int:
    """Weighted average for an r-connected universal cover, r >= 1."""
    if r == 0:
        return main_bound(dim, cat_u)
    _nonnegative(r=r)
    if not isinstance(cat_u, int):
        raise NotApplicable("cat_u is unknown")
    _nonnegative(dim=dim, cat_u=cat_u)
    return (r * cat_u + dim) // (r + 1)


def fibration_bound(dim_base: int, dim_fiber: int,
                    fiber_simply_connected: bool = True,
                    base_aspherical: bool = True) -> int:
    """Bundle bound: base dimension plus half the fiber dimension."""
    _nonnegative(dim_base=dim_base, dim_fiber=dim_fiber)
    if not (fiber_simply_connected and base_aspherical):
        raise NotApplicable(
            "needs a simply connected fiber over an aspherical base")
    return dim_base + dim_fiber // 2


@dataclass(frozen=True)
class FibrationProfile:
    dim_base: int
    dim_fiber: int
    fiber_simply_connected: bool = False
    base_aspherical: bool = False
    cat_base: int | None = None
    cat_fiber: int | None = None

    def __post_init__(self):
        # the bundle rules have no rule function to refuse these
        _nonnegative(cat_base=self.cat_base or 0, cat_fiber=self.cat_fiber or 0)


@dataclass(frozen=True)
class BoundProfile:
    dim: int
    r: int = 0  # connectivity of the universal cover; 0 means only connected
    cd_pi: int | str = UNKNOWN
    cat_u: int | str = UNKNOWN
    simply_connected: bool = False
    fibration: FibrationProfile | None = None

    def __post_init__(self):
        _nonnegative(dim=self.dim, r=self.r)
        if isinstance(self.cat_u, int) and isinstance(self.cd_pi, int) \
                and self.cat_u > self.cd_pi:
            raise BoundsError(
                "cat_u cannot exceed cd: the classifying map deforms into the "
                "cd-skeleton of the classifying complex")


@dataclass
class TraceEntry:
    rule: str
    anchor: str
    inputs: dict
    value: int


@dataclass
class BoundResult:
    value: int | None
    trace: list[TraceEntry] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"value": self.value,
                "trace": [{"rule": t.rule, "anchor": t.anchor,
                           "inputs": t.inputs, "value": t.value}
                          for t in self.trace]}


def best_upper(profile: BoundProfile) -> BoundResult:
    """Minimum over every applicable rule, with one trace entry per rule.
    Each value comes from the rule's function; a NotApplicable rule is left
    out, and a BoundsError (inputs no space can have) reaches the caller."""
    n, r, cat_u, fib = profile.dim, profile.r, profile.cat_u, profile.fibration
    trace = [TraceEntry("dimension", "upper.dim", {"dim": n}, n)]

    def rule(name: str, anchor: str, inputs: dict, bound, *args) -> None:
        try:
            trace.append(TraceEntry(name, anchor, inputs, bound(*args)))
        except NotApplicable:
            pass

    if profile.simply_connected or r >= 1:
        rule("halved-dimension", "upper.dim-half", {"dim": n}, main_bound, n, 0)
    if r >= 1:
        rule("connectivity-fraction", "upper.dim-over-r", {"dim": n, "r": r},
             rconn_bound, n, 0, r)
    rule("classifying-average", "upper.cat-u-average", {"dim": n, "cat_u": cat_u},
         main_bound, n, cat_u)
    if r >= 1:
        rule("weighted-classifying-average", "upper.cat-u-weighted",
             {"dim": n, "cat_u": cat_u, "r": r}, rconn_bound, n, cat_u, r)
    rule("group-dimension-average", "upper.cd-average",
         {"dim": n, "cd_pi": profile.cd_pi}, corollary_bound, n, profile.cd_pi)
    if fib is not None:
        rule("fibration", "upper.fibration",
             {"dim_base": fib.dim_base, "dim_fiber": fib.dim_fiber},
             fibration_bound, fib.dim_base, fib.dim_fiber,
             fib.fiber_simply_connected, fib.base_aspherical)
        if fib.cat_base is not None and fib.cat_fiber is not None:
            cats = {"cat_base": fib.cat_base, "cat_fiber": fib.cat_fiber}
            trace.append(TraceEntry(
                "bundle-product-comparison", "upper.bundle-product", cats,
                (fib.cat_base + 1) * (fib.cat_fiber + 1) - 1))
            if fib.fiber_simply_connected and fib.cat_fiber == fib.dim_fiber // 2:
                trace.append(TraceEntry("bundle-sum", "upper.bundle-sum", cats,
                                        fib.cat_base + fib.cat_fiber))
    return BoundResult(min(t.value for t in trace), trace)


_REQUIRED = object()
_INT = ("an integer", lambda v: type(v) is int)
_BOOL = ("true or false", lambda v: type(v) is bool)
_COUNT = (f'an integer, "{INF}" or "{UNKNOWN}"',
          lambda v: type(v) is int or v in (INF, UNKNOWN))


def _profile_field(data, name: str, kind: tuple, default=_REQUIRED):
    """data[name] when kind accepts it, default when it is absent (or null,
    for a field whose default is None); anything else raises BoundsError
    naming the field."""
    if not isinstance(data, dict):
        raise BoundsError(f"expected an object with the profile field {name!r}, "
                          f"got {type(data).__name__}")
    if name not in data or (data[name] is None and default is None):
        if default is _REQUIRED:
            raise BoundsError(f"profile field {name!r} is required")
        return default
    what, accepts = kind
    if not accepts(data[name]):
        raise BoundsError(f"profile field {name!r} must be {what}, got {data[name]!r}")
    return data[name]


def profile_from_json(data: dict) -> BoundProfile:
    """The profile a JSON object describes. Every field is type-checked
    (integers are never bools); a mistyped, missing or out-of-range field
    raises BoundsError naming it. An absent, null or empty "fibration"
    means none."""
    fib = None
    f = _profile_field(data, "fibration", ("an object", lambda v: type(v) is dict), None)
    if f:
        fib = FibrationProfile(
            _profile_field(f, "dim_base", _INT), _profile_field(f, "dim_fiber", _INT),
            _profile_field(f, "fiber_simply_connected", _BOOL, False),
            _profile_field(f, "base_aspherical", _BOOL, False),
            _profile_field(f, "cat_base", _INT, None),
            _profile_field(f, "cat_fiber", _INT, None))
    return BoundProfile(
        dim=_profile_field(data, "dim", _INT), r=_profile_field(data, "r", _INT, 0),
        cd_pi=_profile_field(data, "cd_pi", _COUNT, UNKNOWN),
        cat_u=_profile_field(data, "cat_u", _COUNT, UNKNOWN),
        simply_connected=_profile_field(data, "simply_connected", _BOOL, False),
        fibration=fib)
