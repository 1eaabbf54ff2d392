"""Exact calculus and recipe search for volume densities of fully augmented links.

The package evaluates the hyperbolic volume constants v_oct and v_tet to
arbitrary precision, composes catalogued links under belted sum with exact
volume bookkeeping, searches for recipes realizing any density in the dense
window [2*v_oct, 10*v_tet), and issues finiteness certificates for density
thresholds in the discrete window [v_oct, 2*v_oct).
"""

from .approx import Recipe, approximate_vd, approximate_vd_mod, best_rational_approximations
from .bounds import (
    Certificate,
    ScanRow,
    WindowClass,
    classify,
    euler_characteristic,
    max_augmentations_below,
    miyamoto_volume_lower_bound,
    spectrum_scan,
    vd_lower_bound,
)
from .calculus import (
    Composition,
    DensityValue,
    belted_sum,
    composition,
    format_recipe,
    parse_recipe,
    replicate,
    replication_error,
    self_sum,
    vd,
    vd_mod,
    volume,
)
from .catalog import (
    BaseLink,
    Catalog,
    Diagnostic,
    ExactVolume,
    builtin_catalog,
    builtin_links,
    load_catalog,
    validate_entry,
)
from .errors import (
    CapExceededError,
    CatalogError,
    ConfigurationError,
    DegeneratePairError,
    DomainError,
    FalSpectrumError,
    TargetRangeError,
)
from .numerics import (
    PrecisionContext,
    lobachevsky,
    pi,
    ten_v_tet,
    two_v_oct,
    v_oct,
    v_tet,
)

__version__ = "0.1.0"
