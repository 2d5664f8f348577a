"""Exact weight-enumerator invariants of linear codes.

Complete weight enumerators, Jacobi polynomials, joint variants,
their duality transforms, closed-form permutation averages, average
intersection numbers, and support-design checks, all in exact
arithmetic over prime-power fields and modular integer rings.

Names and submodules load on first use (PEP 562): ``import jacweight``
compiles no submodule, and ``jacweight.delta`` imports ``averages`` alone
(with what it imports) and keeps the function as a global of the package.
"""

from importlib import import_module

# each submodule and the public names it gives the package
EXPORTS = {
    "averages": (
        "AverageResult",
        "avg_jacobi",
        "avg_joint_jacobi",
        "avg_joint_jacobi_value",
        "brute_avg_jacobi",
        "brute_avg_joint_jacobi",
        "brute_delta",
        "delta",
        "delta_closed",
        "intersection_point",
        "intersection_size",
        "monte_carlo_delta",
    ),
    "codes": (
        "BudgetExceeded",
        "CodeFormatError",
        "LinearCode",
        "code_from_json",
        "code_to_json",
        "load_code",
    ),
    "designs": (
        "BlockMultiset",
        "DesignReport",
        "is_t_design",
        "is_t_homogeneous",
        "supports",
    ),
    "enumerators": (
        "collapse",
        "cwe",
        "cwe_genus",
        "jacobi",
        "joint_cwe",
        "joint_jacobi",
        "macwilliams_both",
        "macwilliams_first",
        "macwilliams_second",
        "macwilliams_single",
    ),
    "exactnum": ("Cyclotomic", "NonRationalValue", "root_of_unity", "simplify"),
    "polynomials": ("SparsePolynomial",),
    "rings": ("RingSpec", "field_ring", "make_ring", "modular_ring"),
}
SUBMODULES = (*EXPORTS, "budget", "cli", "refvalues")
_OWNER = {name: module for module, names in EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _OWNER:
        value = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    elif name in SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *SUBMODULES})
