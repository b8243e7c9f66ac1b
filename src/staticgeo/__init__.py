"""Verification toolkit for static warped-product geometries.

The package builds multiply warped product metrics over an interval,
computes their curvature in an adapted orthonormal frame, checks the
static vacuum equation and harmonic-curvature conditions as residuals,
classifies the structure of verified pairs, and ships a catalog of
reference geometries plus a command line front end.
"""

from types import ModuleType as _ModuleType

import numpy as _np
# Freeing one mmapped 24 MiB block raises glibc's dynamic mmap threshold
# to 24 MiB and its trim threshold to 48 MiB, so a request's temporaries
# (an answer at 16384 points touches about 24 MB of them) stay in the heap
# instead of being unmapped and faulted back in on every request.  Blocks
# above 32 MiB leave both thresholds where they are.
_np.empty(3 << 20)

from .catalog import (
    BUILDERS,
    CATALOG_NAMES,
    CatalogEntry,
    EXPECTED_LABELS,
    build_entry,
    default_catalog,
)
from .curvature_engine import (
    DiagonalTwoTensor,
    MixedThreeTensor,
    RicciSpectrum,
    RiemannClasses,
    SpectrumDerivatives,
    bach_spectrum,
    cotton_classes,
    cotton_from_weyl_divergence,
    d_tensor_classes,
    d_tensor_derivatives,
    eigenvalue_derivatives,
    frame_connection,
    materialize_full,
    ricci_spectrum,
    riemann_classes,
    scalar_profile,
    schouten_spectrum,
    weyl_classes,
    xi_profile,
)
from .errors import (
    BadRange,
    BlowUp,
    DerivativeOrderUnavailable,
    InsufficientFiberData,
    NonPositiveInput,
    NonPositiveSample,
    OutOfDomain,
    StaticGeoError,
    TooFewSamples,
    UnsupportedKind,
    WrongBlockCount,
    WrongSign,
    ZeroK,
    ZeroScale,
)
from .ode_solver import (
    FirstIntegralValue,
    PeriodicSolution,
    WarpingODEParams,
    find_periodic,
    first_integral,
    integrate_warping,
    k0_threshold,
    lapse_from_warping,
    turning_point,
)
from .static_verifier import (
    ANALYTIC,
    LABELS,
    ODE_BACKED,
    Channel,
    ResidualReport,
    ToleranceProfile,
    TypeLabel,
    check_lemma41,
    classify,
    harmonic_residual,
    identity_db,
    identity_dcw,
    integrability_residual,
    static_residual,
    tier_for,
    verify_pair,
)
from .warped_geometry import (
    DEFAULT_GRID_POINTS,
    FiberBlock,
    LapseFunction,
    ValidationReport,
    WarpedProductSpec,
    WarpingFunction,
    load_problem,
    make_analytic_warping,
    make_lapse,
    make_sampled_warping,
    perturbed_lapse,
    spec_from_dict,
    validate_spec,
)

__version__ = "0.1.0"

# The public surface is exactly what the import block above binds.
__all__ = ["__version__"] + [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
