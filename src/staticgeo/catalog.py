"""Named reference geometries with their lapses and expected labels.

Each builder returns a CatalogEntry pairing a warped-product spec with a
lapse that solves the static equation, plus the label the classifier is
expected to produce.  The entries double as regression anchors: the test
suite verifies every entry end to end, and the command line exposes them
through `staticgeo catalog`.

Families covered:

  round_sphere  sphere slice written as a warped product (Einstein)
  flat          flat product with a linear lapse (Einstein)
  example1/2    rigid space form fiber, oscillating lapse (open / closed)
  example3/4    single fiber driven by the warping equation (open / closed)
  example5      scalar-flat variant of the same family
  type_ii/iii   circle direction warped over a rigid fiber, R positive
                resp. negative
  type_iv       warped factor plus rigid factor, both of dimension >= 2
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import BadRange, NonPositiveInput, WrongSign, ZeroK
from .ode_solver import (
    WarpingODEParams,
    find_periodic,
    integrate_warping,
    lapse_from_warping,
    turning_point,
)
from .warped_geometry import (
    FiberBlock,
    LapseFunction,
    WarpedProductSpec,
    _problem_dict,
    make_analytic_warping,
    make_lapse,
)

__all__ = [
    "CatalogEntry",
    "BUILDERS",
    "EXPECTED_LABELS",
    "CATALOG_NAMES",
    "default_catalog",
    "build_entry",
    "build_round_sphere",
    "build_flat",
    "build_example1",
    "build_example2",
    "build_example3",
    "build_example4",
    "build_example5",
    "build_type_ii",
    "build_type_iii",
    "build_type_iv",
]


@dataclass(frozen=True)
class CatalogEntry:
    """A verified reference pair (spec, lapse) with metadata."""

    name: str
    spec: WarpedProductSpec
    lapse: LapseFunction
    expected_label: str
    compact: bool = False
    period: float | None = None
    params: dict = field(default_factory=dict, compare=False)

    def to_problem_dict(self) -> dict:
        """Wire-format document accepted by load_problem."""
        return _problem_dict(self.spec, self.lapse)


def _entry(
    name: str, blocks: tuple, domain, lapse: LapseFunction, params: dict,
    period: float | None = None,
) -> CatalogEntry:
    """The entry's spec and expected label; it is compact iff it has a period."""
    spec = WarpedProductSpec(blocks=blocks, domain=domain)
    return CatalogEntry(name, spec, lapse, EXPECTED_LABELS[name],
                        compact=period is not None, period=period, params=params)


def _trajectory(proto: WarpingODEParams, k: float, branch: str, length: float):
    """Warping on (0, length) from the turning point of conserved value k."""
    h0 = turning_point(proto, k, branch)
    return integrate_warping(replace(proto, h0=h0, domain=(0.0, length)))


def build_round_sphere(n: int = 5) -> CatalogEntry:
    """Unit sphere slice as a warped product: h = sin s over (0, pi)."""
    if n < 3:
        raise BadRange(f"need n >= 3, got {n}")
    block = FiberBlock(n - 1, make_analytic_warping("sin-scaled", (1.0, 1.0)),
                       "space_form", 1.0)
    return _entry("round_sphere", (block,), (0.15, math.pi - 0.15),
                  make_lapse("sin-cos", (0.0, 1.0, 1.0)), {"n": n})


def build_flat(n: int = 4) -> CatalogEntry:
    """Flat product with a linear lapse."""
    if n < 3:
        raise BadRange(f"need n >= 3, got {n}")
    block = FiberBlock(n - 1, make_analytic_warping("constant", (1.0,)), "space_form", 0.0)
    return _entry("flat", (block,), (0.0, 1.0), make_lapse("linear", (1.0, 0.5)), {"n": n})


def _rigid_fiber_entry(
    name: str, n: int, k: float, c1: float, c2: float, compact: bool
) -> CatalogEntry:
    if k == 0.0:
        raise ZeroK("fiber curvature must be nonzero for this family")
    omega = math.sqrt((n - 2.0) * abs(k))
    lapse = make_lapse("sin-cos" if k > 0.0 else "sinh-cosh", (c1, c2, omega))
    period = 2.0 * math.pi / omega
    block = FiberBlock(n - 1, make_analytic_warping("constant", (1.0,)), "space_form", k)
    return _entry(name, (block,), (0.0, period), lapse,
                  {"n": n, "k": k, "c1": c1, "c2": c2}, period if compact else None)


def build_example1(
    n: int = 5, k: float = 1.0 / 3.0, c1: float = 0.3, c2: float = 1.0
) -> CatalogEntry:
    """Rigid space-form fiber with an oscillating lapse.

    With h constant the static equation collapses to f'' = -(n-2) k f, so
    f is a sine/cosine combination for k > 0 and a sinh/cosh combination
    for k < 0; k = 0 is rejected since the lapse degenerates.
    """
    return _rigid_fiber_entry("example1", n, k, c1, c2, compact=False)


def build_example2(
    n: int = 5, k: float = 0.5, c1: float = 0.25, c2: float = 1.0
) -> CatalogEntry:
    """Closed-up variant of example1 on a circle; needs k > 0."""
    if k < 0.0:
        raise WrongSign(f"closed variant needs k > 0, got {k}")
    return _rigid_fiber_entry("example2", n, k, c1, c2, compact=True)


def build_example3(
    n: int = 5, R: float = 20.0, a: float = 1.0, k: float = 2.0
) -> CatalogEntry:
    """Single fiber driven by the warping equation, open interval.

    The fiber curvature equals the conserved quantity k of the warping
    trajectory, and the lapse is the derivative of the warping; with that
    pairing the static identities hold up to integration error only.
    """
    proto = WarpingODEParams.single_fiber(n, R, a, 1.0, 0.0, (0.0, 1.0))
    warping = _trajectory(proto, k, "outer", 1.0)
    return _entry("example3", (FiberBlock(n - 1, warping, "space_form", k),), (0.0, 1.0),
                  lapse_from_warping(warping, 1.0), {"n": n, "R": R, "a": a, "k": k})


def build_example4(
    n: int = 5, R: float = 20.0, a: float = 1.0, k: float = 2.0
) -> CatalogEntry:
    """Closed-up variant of example3 over one full period of the warping."""
    proto = WarpingODEParams.single_fiber(n, R, a, 1.0, 0.0, (0.0, 1.0))
    sol = find_periodic(proto, k)
    if sol is None:
        raise BadRange(
            f"no closed orbit at conserved value {k}; it must exceed the "
            "potential minimum"
        )
    return _entry("example4", (FiberBlock(n - 1, sol.warping, "space_form", k),),
                  (0.0, sol.period), lapse_from_warping(sol.warping, 1.0),
                  {"n": n, "R": R, "a": a, "k": k}, sol.period)


def build_example5(
    n: int = 5, a: float = 1.0, k: float = 1.0, length: float = 1.2
) -> CatalogEntry:
    """Scalar-flat single-fiber entry (the linear term drops out)."""
    proto = WarpingODEParams.single_fiber(n, 0.0, a, 1.0, 0.0, (0.0, length))
    warping = _trajectory(proto, k, "inner", length)
    return _entry("example5", (FiberBlock(n - 1, warping, "space_form", k),), (0.0, length),
                  lapse_from_warping(warping, 1.0),
                  {"n": n, "a": a, "k": k, "length": length})


def _circle_over_fiber_entry(name: str, n: int, R: float) -> CatalogEntry:
    """Shared construction for the type_ii / type_iii pair."""
    if n < 4:
        raise BadRange(f"need n >= 4, got {n}")
    omega = math.sqrt(abs(R) / (2.0 * (n - 1.0)))
    fiber_k = R / ((n - 1.0) * (n - 3.0))
    if R > 0.0:
        circle = make_analytic_warping("sin-scaled", (1.0, omega))
        lapse = make_lapse("sin-cos", (0.0, 1.0, omega))
        domain = (0.2, math.pi / omega - 0.2)
    else:
        circle = make_analytic_warping("sinh-scaled", (1.0, omega))
        lapse = make_lapse("sinh-cosh", (0.0, 1.0, omega))
        domain = (0.2, 2.2)
    blocks = (
        FiberBlock(1, circle),
        FiberBlock(n - 2, make_analytic_warping("constant", (1.0,)), "space_form", fiber_k),
    )
    return _entry(name, blocks, domain, lapse, {"n": n, "R": R})


def build_type_ii(n: int = 5, R: float = 8.0) -> CatalogEntry:
    """One warped circle direction over a rigid fiber, R > 0."""
    if R <= 0.0:
        raise WrongSign(f"this family needs R > 0, got {R}")
    return _circle_over_fiber_entry("type_ii", n, R)


def build_type_iii(n: int = 5, R: float = -8.0) -> CatalogEntry:
    """One warped circle direction over a rigid fiber, R < 0."""
    if R >= 0.0:
        raise WrongSign(f"this family needs R < 0, got {R}")
    return _circle_over_fiber_entry("type_iii", n, R)


def build_type_iv(
    n: int = 6, r: int = 4, R: float = 5.0, c0: float = 1.0, k: float = 3.0
) -> CatalogEntry:
    """Warped factor of dimension r-1 times a rigid factor of dimension n-r.

    The warped factor follows the product-family equation with
    linear coefficient R/((n-1) r) and carries fiber curvature equal to
    the conserved quantity k; the rigid factor's curvature is pinned by
    the static equation.  r = n-1 leaves a one-dimensional rigid factor,
    which forces R = 0.
    """
    if not 3 <= r <= n - 1:
        raise BadRange(f"need 3 <= r <= n-1, got r={r} at n={n}")
    if c0 <= 0.0:
        raise NonPositiveInput(f"forcing must be positive, got {c0}")
    r1, r2 = r - 1, n - r
    if r2 == 1:
        if R != 0.0:
            raise BadRange("a one-dimensional rigid factor forces R = 0")
        rigid = FiberBlock(1, make_analytic_warping("constant", (1.0,)))
    else:
        rigid = FiberBlock(
            r2, make_analytic_warping("constant", (1.0,)),
            "space_form", R / ((n - 1.0) * (n - r - 1.0)),
        )

    proto = WarpingODEParams.warped_factor(n, R, r1, c0, 1.0, 0.0, (0.0, 1.0))
    sol = find_periodic(proto, k) if R > 0.0 else None
    if sol is not None:
        warping, domain, period = sol.warping, (0.0, sol.period), sol.period
    else:
        warping = _trajectory(proto, k, "outer" if R > 0.0 else "inner", 1.2)
        domain, period = (0.0, 1.2), None
    return _entry("type_iv", (FiberBlock(r1, warping, "space_form", k), rigid), domain,
                  lapse_from_warping(warping, 1.0),
                  {"n": n, "r": r, "R": R, "c0": c0, "k": k}, period)


# Name -> (builder, the label the classifier is expected to give).
_ENTRIES = {
    "round_sphere": (build_round_sphere, "Einstein"),
    "flat": (build_flat, "Einstein"),
    "example1": (build_example1, "DFlat_TypeI"),
    "example2": (build_example2, "DFlat_TypeI"),
    "example3": (build_example3, "DFlat_TypeI"),
    "example4": (build_example4, "DFlat_TypeI"),
    "example5": (build_example5, "DFlat_TypeI"),
    "type_ii": (build_type_ii, "TypeII"),
    "type_iii": (build_type_iii, "TypeIII"),
    "type_iv": (build_type_iv, "TypeIV"),
}
BUILDERS = {name: build for name, (build, _) in _ENTRIES.items()}
EXPECTED_LABELS = {name: label for name, (_, label) in _ENTRIES.items()}

CATALOG_NAMES = tuple(BUILDERS)


def build_entry(name: str, **overrides) -> CatalogEntry:
    """Build one catalog entry by name, passing overrides to its builder."""
    if name not in BUILDERS:
        raise KeyError(f"unknown catalog entry {name!r}; know {sorted(BUILDERS)}")
    return BUILDERS[name](**overrides)


def default_catalog() -> tuple[CatalogEntry, ...]:
    """All reference entries with their default parameters."""
    return tuple(BUILDERS[name]() for name in CATALOG_NAMES)
