"""Real-linear maps on C^n, unitary-quotient canonical forms, and lattices.

The package is organized around a few small value types (matrix
representations of real-linear maps, Gram forms, lattice bases, torus
points) plus free functions acting on them.  Everything takes an optional
Tolerance; defaults are rel=1e-9, abs=1e-12.

Each public name loads its home module on first use (PEP 562), so a
process compiles and runs only the modules it touches: ``cxlattices.gram``
loads polar, ``cxlattices.lattice_equivalent`` loads equivalence (and the
lattices and gaussian it uses).  polar alone is imported here, eagerly:
the first import of the submodule ``cxlattices.polar`` binds the package
attribute ``polar`` to the module, and the import below rebinds it to the
function, once and for all, so ``cxlattices.polar`` is always the function.
"""

import importlib

from .polar import polar

# home module -> the public names it defines; __all__ keeps this order
_EXPORTS = {
    "errors": (
        "AmbiguousIntegrality", "CxlatError", "DeterminantNotOne", "DimensionMismatch",
        "DimensionTooLarge", "FirstBlockSingular", "HeightTooLarge", "InternalCheckError",
        "LatticeMismatch", "MajorizationFails", "NonIntegralEntry", "NotInSL", "NotInSplitClass",
        "NotPositiveDefinite", "NotSelfAdjoint", "NumericOverflow", "RadiusBudgetExceeded",
        "RankDeficient", "SingularM", "SingularMatrix",
    ),
    "kernel": (
        "DEFAULT_TOL", "Tolerance", "adjoint", "det", "hermitian_eig", "inverse",
        "invertibility_margin", "matmul", "operator_norm", "singular_values", "solve",
    ),
    "realmaps": (
        "BlockForm", "ConjugatePairForm", "NormalizedForm", "RealLinearMap", "SplitForm", "apply",
        "contraction_check", "convert", "domination_ratio", "is_invertible", "kind_of",
        "majorizes", "normalize_post_composition", "realify",
    ),
    "polar": (
        "GramForm", "GroupMembership", "classify", "gram", "polar", "sl_normalize", "spd_sqrt",
        "su_sl_canonical", "unitarily_equivalent",
    ),
    "lattices": (
        "GaussianUnimodular", "LatticeBasis", "PeriodMatrix", "covolume", "from_generators",
        "gaussian_lattice", "normalize_to_Lstarstar", "permute_to_L1", "rank_margin",
        "same_lattice", "sigma_membership", "standard_lattice", "to_split_form",
    ),
    "equivalence": (
        "EquivalenceVerdict", "ShortVectorSpectrum", "lattice_equivalent", "short_vectors",
        "sigma_candidates", "sigma_orbit_equal",
    ),
    "torus": ("TorusPoint", "reduce", "torus_add", "torus_eq", "torus_neg"),
    "dim1": ("ScalarForms", "evaluate", "from_ab", "is_invertible_1d", "to_thetamu"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    # a public name is read from its home module once, then kept as a global
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
