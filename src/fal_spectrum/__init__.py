"""Exact calculus and recipe search for volume densities of fully augmented links.

The package evaluates the hyperbolic volume constants v_oct and v_tet to
arbitrary precision, composes catalogued links under belted sum with exact
volume bookkeeping, searches for recipes realizing any density in the dense
window [2*v_oct, 10*v_tet), and issues finiteness certificates for density
thresholds in the discrete window [v_oct, 2*v_oct).
"""

# Each layer and the names the package exports from it.  A layer is imported
# when it or one of its names is first read (PEP 562), so importing the
# package, or running one subcommand, loads no layer it does not use.
_LAYERS = {
    "approx": ("Recipe", "approximate_vd", "approximate_vd_mod", "best_rational_approximations"),
    "bounds": (
        "Certificate",
        "ScanRow",
        "WindowClass",
        "classify",
        "euler_characteristic",
        "max_augmentations_below",
        "miyamoto_volume_lower_bound",
        "spectrum_scan",
        "vd_lower_bound",
    ),
    "calculus": (
        "Composition",
        "DensityValue",
        "belted_sum",
        "composition",
        "format_recipe",
        "parse_recipe",
        "replicate",
        "replication_error",
        "self_sum",
        "vd",
        "vd_mod",
        "volume",
    ),
    "catalog": (
        "BaseLink",
        "Catalog",
        "Diagnostic",
        "ExactVolume",
        "builtin_catalog",
        "builtin_links",
        "load_catalog",
        "validate_entry",
    ),
    "errors": (
        "CapExceededError",
        "CatalogError",
        "ConfigurationError",
        "DegeneratePairError",
        "DomainError",
        "FalSpectrumError",
        "TargetRangeError",
    ),
    "numerics": ("PrecisionContext", "lobachevsky", "pi", "ten_v_tet", "two_v_oct", "v_oct", "v_tet"),
}
_SOURCE = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    layer = name if name in _LAYERS else _SOURCE.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ with a fromlist returns the layer itself, and unlike
    # importlib.import_module it is the import statement's own path, which
    # -X importtime reports
    module = __import__(f"{__name__}.{layer}", fromlist=["*"])
    return module if layer == name else getattr(module, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | _LAYERS.keys() | _SOURCE.keys())
