"""Geometry descriptions: warped-product metrics over an interval.

The metric under study is

    g = ds^2 + sum_j h_j(s)^2 g_j

on I x F_1 x ... x F_B, where each fiber (F_j, g_j) is a circle/line
(dim 1), a space form of curvature k, or an abstract Einstein space whose
Einstein constant is (dim - 1) * k.  A WarpedProductSpec bundles the fiber
blocks with the interval and an evaluation grid; a LapseFunction is the
scalar factor paired with the metric by the verification routines.

Positivity of the warpings is a property of the pair (function, domain),
so it is checked by validate_spec over the margin-shrunk grid rather than
at construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    BadRange,
    DerivativeOrderUnavailable,
    OutOfDomain,
    UnsupportedKind,
    ZeroScale,
)
from .profiles import (
    HyperbolicProfile,
    PolynomialProfile,
    Profile,
    SampledProfile,
    ScaledDerivativeProfile,
    ScaledProfile,
    SumProfile,
    TrigProfile,
)

__all__ = [
    "DEFAULT_GRID_POINTS",
    "GRID_MARGIN_STEPS",
    "WARPING_KINDS",
    "LAPSE_KINDS",
    "WarpingFunction",
    "FiberBlock",
    "WarpedProductSpec",
    "LapseFunction",
    "ValidationReport",
    "make_analytic_warping",
    "make_sampled_warping",
    "make_lapse",
    "perturbed_lapse",
    "validate_spec",
    "spec_from_dict",
    "load_problem",
]

DEFAULT_GRID_POINTS = 1024
# Residuals are never evaluated on the outermost grid points; two steps are
# trimmed from each side so derivative stencils and near-boundary zeros of
# analytic warpings stay out of the evaluation window.
GRID_MARGIN_STEPS = 2
# Most grid points a spec may ask for (256 default grids), refused before
# any grid-sized array is allocated.
_MAX_GRID_POINTS = 2**18

_WARPING, _LAPSE, _BOTH = ("warping",), ("lapse",), ("warping", "lapse")

# Every kind a document can name: the roles it plays, the fewest and the
# most parameters it takes (None: no upper bound), the parameters that carry
# its value (c * f multiplies them by c; None: no such slice), and the
# profile it builds from them.  The parsers below build the kinds that also
# need the document's domain or blocks (ode-backed, derived) and send
# sampled warpings through make_sampled_warping, which checks their
# positivity.
_ALL, _FIRST, _FIRST_TWO = slice(None), slice(0, 1), slice(0, 2)
_KINDS = {
    "constant": (_BOTH, 1, 1, _ALL, PolynomialProfile),  # (value,)
    "linear": (_BOTH, 2, 2, _ALL, PolynomialProfile),  # (intercept, slope)
    "poly": (_LAPSE, 1, None, _ALL, PolynomialProfile),  # (c0, c1, c2, ...)
    # (amplitude, frequency[, phase]): A sin(w s + phase), and so on
    "sin-scaled": (_WARPING, 2, 3, _FIRST, lambda p: TrigProfile(p[0], 0.0, *p[1:])),
    "cos-scaled": (_WARPING, 2, 3, _FIRST, lambda p: TrigProfile(0.0, *p)),
    "sinh-scaled": (_WARPING, 2, 3, _FIRST, lambda p: HyperbolicProfile(p[0], 0.0, *p[1:])),
    "cosh-scaled": (_WARPING, 2, 3, _FIRST, lambda p: HyperbolicProfile(0.0, *p)),
    # (c_sin, c_cos, frequency[, phase]), (c_sinh, c_cosh, frequency[, phase])
    "sin-cos": (_LAPSE, 3, 4, _FIRST_TWO, lambda p: TrigProfile(*p)),
    "sinh-cosh": (_LAPSE, 3, 4, _FIRST_TWO, lambda p: HyperbolicProfile(*p)),
    # (s_start, step, v0, v1, ...); SampledProfile asks for nine samples
    "sampled": (_BOTH, 3, None, slice(2, None), lambda p: SampledProfile(p[0], p[1], p[2:])),
    # (power, linear_coeff, forcing, h0, h0_prime[, step]); see ode_solver
    "ode-backed": (_WARPING, 5, 6, None, None),
    # (scale[, block]): f = scale * h' for the warping h of that block
    "derived": (_LAPSE, 1, 2, _FIRST, None),
}
_UNKNOWN_KIND = ((), 0, 0, None, None)

WARPING_KINDS = frozenset(k for k, row in _KINDS.items() if "warping" in row[0])
LAPSE_KINDS = frozenset(k for k, row in _KINDS.items() if "lapse" in row[0])


@dataclass(frozen=True)
class _Function:
    """A profile tagged with the kind and parameters it was built from.

    params echoes the construction parameters (for serialization and
    reports); derivative_order is the highest order a reader may ask for,
    enforced on every read: value and derivative both go through
    derivative, so every warping and lapse reader refuses the same orders.
    """

    kind: str
    params: tuple[float, ...]
    derivative_order: int
    profile: Profile = field(repr=False, compare=False)

    def value(self, s):
        return self.derivative(s, 0)

    def derivative(self, s, order: int):
        if order > self.derivative_order:
            raise DerivativeOrderUnavailable(
                f"derivative order {order} not available "
                f"(max {self.derivative_order} for this {self.kind} function)"
            )
        return self.profile.derivative(s, order)


class WarpingFunction(_Function):
    """One warping factor h_j(s); kind is one of WARPING_KINDS."""


class LapseFunction(_Function):
    """Scalar factor f(s) paired with a spec by the verification routines."""

    def rescaled(self, c: float) -> "LapseFunction":
        """The lapse c * f, rebuilt through its own kind; c must be nonzero.

        The parameters that carry the value are multiplied by c, so the
        result compares unequal to f (for c != 1) and writes and reloads as
        c * f.  A lapse that no kind builds (see perturbed_lapse) is scaled
        as a profile and keeps its tag; it has no document either.
        """
        if c == 0.0:
            raise ZeroScale("lapse rescaling factor must be nonzero")
        c = float(c)
        amplitude = _KINDS.get(self.kind, _UNKNOWN_KIND)[3]
        if amplitude is None or not _has_document(self):
            return replace(self, profile=ScaledProfile(self.profile, c))
        params = list(self.params)
        params[amplitude] = [c * p for p in params[amplitude]]
        if self.kind == "derived":
            profile = ScaledDerivativeProfile(self.profile.base, c * self.profile.factor)
        else:
            params, build = _checked("lapse", self.kind, params)
            profile = build(params)
        return replace(self, params=tuple(params), profile=profile)


def _has_document(fn: _Function) -> bool:
    """False for a function whose profile no kind builds (a sum or a scaled copy)."""
    return not isinstance(fn.profile, (SumProfile, ScaledProfile))


def _checked(role: str, kind, params):
    """params as floats and kind's profile builder, once role, count and finiteness pass."""
    roles, fewest, most, _, build = (
        _KINDS.get(kind, _UNKNOWN_KIND) if isinstance(kind, str) else _UNKNOWN_KIND
    )
    if role not in roles:
        raise UnsupportedKind(f"unknown {role} kind {kind!r}")
    try:
        params = tuple(map(float, params))
    except OverflowError:
        for i, p in enumerate(params):
            _finite(f"{kind} {role} parameter {i}", p)
        raise
    if not fewest <= len(params) <= (most or len(params)):
        wanted = f"{fewest}" + ("" if most == fewest else f" to {most}" if most else " or more")
        raise BadRange(f"{kind} {role} takes {wanted} parameters, got {len(params)}")
    # A sum of floats is finite whenever every term is, unless it overflows;
    # the sum is the cheap test for a sampled function's thousand parameters.
    if not math.isfinite(sum(params)) and not all(map(math.isfinite, params)):
        bad = next(i for i, p in enumerate(params) if not math.isfinite(p))
        raise BadRange(f"{kind} {role} parameter {bad} is {params[bad]}, not finite")
    return params, build


def _function(cls, role: str, kind, params):
    params, build = _checked(role, kind, params)
    if build is None:
        raise UnsupportedKind(f"a {kind} {role} needs its document's domain or blocks")
    profile = build(params)
    return cls(kind, params, profile.max_order, profile)


def make_analytic_warping(kind: str, params) -> WarpingFunction:
    """Build a closed-form warping; _KINDS lists the kinds and their parameters."""
    if kind == "sampled":
        raise UnsupportedKind("sampled warpings are built by make_sampled_warping")
    return _function(WarpingFunction, "warping", kind, params)


def make_sampled_warping(s_start: float, step: float, samples) -> WarpingFunction:
    """Warping from uniform samples; needs at least 9 finite, strictly positive values."""
    samples = np.asarray(samples, dtype=float)
    params, _ = _checked("warping", "sampled", (s_start, step, *samples.ravel().tolist()))
    profile = SampledProfile(params[0], params[1], samples)
    profile.require_positive()
    return WarpingFunction("sampled", params, profile.max_order, profile)


def make_lapse(kind: str, params) -> LapseFunction:
    """Build a lapse; _KINDS lists the kinds and their parameters.

    The "derived" kind (f = c h') is built by ode_solver.lapse_from_warping
    from a warping function rather than from raw parameters.
    """
    return _function(LapseFunction, "lapse", kind, params)


def perturbed_lapse(f: LapseFunction, extra: Profile) -> LapseFunction:
    """f plus an additive analytic term (used by negative tests).

    No kind builds the sum, so the result keeps f's kind and parameters: it
    compares equal to f (function equality ignores the profile), and
    _problem_dict refuses to write it rather than write f.
    """
    return LapseFunction(
        f.kind, f.params, min(f.derivative_order, extra.max_order),
        SumProfile(f.profile, extra),
    )


def _finite(name: str, value) -> float:
    """value as a float; a string, a boolean, NaN, infinities and overflow are refused."""
    if isinstance(value, (str, bool)):
        raise BadRange(f"{name} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise BadRange(f"{name} is too large for a float") from None
    if not math.isfinite(value):
        raise BadRange(f"{name} must be finite, got {value}")
    return value


def _interval(domain) -> tuple[float, float]:
    """domain as a pair of floats; anything but two finite, increasing numbers is refused."""
    if len(domain) != 2:
        raise BadRange(f"domain must be two numbers, got {len(domain)}")
    lo, hi = _finite("domain start", domain[0]), _finite("domain end", domain[1])
    if hi <= lo:
        raise BadRange(f"empty domain {(lo, hi)}")
    return lo, hi


def _whole(value, what: str) -> int:
    """value as an int, read by _finite; a fractional value is refused, not truncated."""
    value = _finite(what, value)
    if not value.is_integer():
        raise BadRange(f"{what} must be an integer, got {value}")
    return int(value)


@dataclass(frozen=True)
class FiberBlock:
    """One fiber factor: dimension, model, curvature constant, warping.

    model is "line" (dim 1, no curvature constant), "space_form"
    (constant curvature k), or "abstract_einstein" (Einstein constant
    (dim - 1) * k, full curvature unknown).  Blocks of dimension 1 always
    normalize to the line model with k = 0.
    """

    dim: int
    warping: WarpingFunction
    model: str = "space_form"
    k: float = 0.0

    def __post_init__(self):
        if self.model not in ("line", "space_form", "abstract_einstein"):
            raise UnsupportedKind(f"unknown fiber model {self.model!r}")
        object.__setattr__(self, "dim", _whole(self.dim, "block dimension"))
        object.__setattr__(self, "k", _finite("curvature constant k", self.k))
        if self.dim == 1:
            object.__setattr__(self, "model", "line")
            object.__setattr__(self, "k", 0.0)
        elif self.model == "line":
            raise BadRange(f"line model requires dim 1, got dim {self.dim}")


@dataclass(frozen=True)
class WarpedProductSpec:
    """A multiply warped product over an interval, plus its grid."""

    blocks: tuple[FiberBlock, ...]
    domain: tuple[float, float]
    grid_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "domain", _interval(self.domain))
        object.__setattr__(self, "grid_points", _whole(self.grid_points, "grid"))
        if self.grid_points < 9:
            raise BadRange(f"grid needs at least 9 points, got {self.grid_points}")
        if self.grid_points > _MAX_GRID_POINTS:
            raise BadRange(f"grid takes at most {_MAX_GRID_POINTS} points, got {self.grid_points}")

    @property
    def n(self) -> int:
        """Total manifold dimension, 1 + sum of fiber dimensions."""
        return 1 + sum(b.dim for b in self.blocks)

    @property
    def step(self) -> float:
        return (self.domain[1] - self.domain[0]) / (self.grid_points - 1)

    @property
    def evaluation_domain(self) -> tuple[float, float]:
        """The domain shrunk by GRID_MARGIN_STEPS steps at each end."""
        margin = GRID_MARGIN_STEPS * self.step
        return self.domain[0] + margin, self.domain[1] - margin

    def evaluation_grid(self) -> np.ndarray:
        """grid_points points evenly spaced over evaluation_domain, both ends included."""
        return np.linspace(*self.evaluation_domain, self.grid_points)

    def block_offsets(self) -> tuple[int, ...]:
        """First frame index of each block (index 0 is the interval direction)."""
        offsets = []
        pos = 1
        for b in self.blocks:
            offsets.append(pos)
            pos += b.dim
        return tuple(offsets)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_spec: ok iff violations is empty.

    Each violation is (grid index, constraint name, offending value);
    grid index is -1 for constraints not tied to a grid point.
    """

    ok: bool
    violations: tuple[tuple[int, str, float], ...]


def validate_spec(spec: WarpedProductSpec) -> ValidationReport:
    """Check a spec is usable: dimensions sane, warpings positive.

    Positivity is tested on the margin-shrunk grid, which is exactly
    where every downstream residual is evaluated.
    """
    violations: list[tuple[int, str, float]] = []
    if spec.n < 3:
        violations.append((-1, "total_dim", float(spec.n)))
    for j, b in enumerate(spec.blocks):
        if b.dim < 1:
            violations.append((-1, f"block[{j}].dim", float(b.dim)))
    grid = spec.evaluation_grid()
    for j, b in enumerate(spec.blocks):
        if b.dim < 1:
            continue
        try:
            h = np.asarray(b.warping.value(grid), dtype=float)
        except OutOfDomain:
            violations.append((-1, f"block[{j}].coverage", float("nan")))
            continue
        bad = np.nonzero(~(h > 0.0))[0]
        for idx in bad[:16]:
            violations.append((int(idx), f"block[{j}].positivity", float(h[idx])))
    return ValidationReport(ok=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# JSON wire format.  Field names here are the stable external interface used
# by the command line driver; see README for a complete example.
# ---------------------------------------------------------------------------


def _json(value, shape: type, where: str):
    """value, once it has the JSON shape (dict: object, list: list) that `where` needs."""
    if not isinstance(value, shape):
        name = "an object" if shape is dict else "a list"
        raise BadRange(f"{where} must be {name}, got {type(value).__name__}")
    return value


def _kind_params(d: dict, role: str):
    """A document function's kind and params, refused if a parameter is a string or a boolean.

    _checked's float() would read either as a number; the check is made here,
    not there, because library callers reach _checked with thousands of samples.
    """
    kind = d.get("kind")
    params = _json(d.get("params", []), list, f"{kind} {role} params")
    if any(issubclass(t, (str, bool)) for t in set(map(type, params))):
        bad = next(i for i, p in enumerate(params) if isinstance(p, (str, bool)))
        raise BadRange(f"{kind} {role} parameter {bad} must be a number, got {params[bad]!r}")
    return kind, params


def _warping_from_dict(d: dict, domain: tuple[float, float]) -> WarpingFunction:
    kind, params = _kind_params(d, "warping")
    if kind == "sampled":
        params, _ = _checked("warping", kind, params)
        return make_sampled_warping(params[0], params[1], params[2:])
    if kind == "ode-backed":
        # Deferred import: ode_solver depends on this module for its types.
        from .ode_solver import WarpingODEParams, integrate_warping

        params, _ = _checked("warping", kind, params)
        return integrate_warping(WarpingODEParams(*params[:5], domain, *params[5:]))
    return make_analytic_warping(kind, params)


def _lapse_from_dict(d: dict, blocks: tuple[FiberBlock, ...]) -> LapseFunction:
    kind, params = _kind_params(d, "lapse")
    if kind != "derived":
        return make_lapse(kind, params)
    from .ode_solver import lapse_from_warping

    params, _ = _checked("lapse", kind, params)
    index = params[1] if len(params) == 2 else 0.0
    if not (index.is_integer() and 0 <= index < len(blocks)):
        raise BadRange(f"derived lapse block index {index:g} is not a block index")
    f = lapse_from_warping(blocks[int(index)].warping, params[0])
    # A nonzero block index stays in the tag, so the lapse writes back to its block.
    return replace(f, params=params) if index else f


def spec_from_dict(d: dict, default_grid: int = DEFAULT_GRID_POINTS) -> WarpedProductSpec:
    """Build a WarpedProductSpec from the JSON wire format (without lapse)."""
    domain = _interval(d["domain"])
    grid = d.get("grid", default_grid)
    blocks = []
    for j, bd in enumerate(_json(d["blocks"], list, "blocks")):
        bd = _json(bd, dict, f"block {j}")
        warping = _warping_from_dict(_json(bd["warping"], dict, f"block {j} warping"), domain)
        blocks.append(
            FiberBlock(
                dim=bd["dim"],
                warping=warping,
                model=bd.get("model", "space_form"),
                k=bd.get("k", 0.0),
            )
        )
    spec = WarpedProductSpec(tuple(blocks), domain, grid)
    declared = _whole(d["n"], "n")
    if declared != spec.n:
        raise BadRange(
            f"declared dimension n={declared} but blocks give n={spec.n}"
        )
    return spec


def load_problem(
    d: dict, default_grid: int = DEFAULT_GRID_POINTS
) -> tuple[WarpedProductSpec, LapseFunction]:
    """Spec plus lapse from one JSON document."""
    spec = spec_from_dict(d, default_grid)
    lapse = _lapse_from_dict(_json(d["lapse"], dict, "lapse"), spec.blocks)
    return spec, lapse


def _problem_dict(spec: WarpedProductSpec, lapse: LapseFunction) -> dict:
    """The document that load_problem reads back as (spec, lapse)."""

    def function(fn: _Function) -> dict:
        if not _has_document(fn):
            raise BadRange(f"a {fn.kind} function over a sum or scaled profile has no document")
        return {"kind": fn.kind, "params": list(fn.params)}

    blocks = [
        {"dim": b.dim, "warping": function(b.warping), "model": b.model, "k": b.k}
        for b in spec.blocks
    ]
    return {
        "n": spec.n,
        "domain": list(spec.domain),
        "grid": spec.grid_points,
        "blocks": blocks,
        "lapse": function(lapse),
    }
