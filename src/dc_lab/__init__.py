"""Toolkit for deterministic dense coding over non-maximally entangled qudits.

Builds the explicit encoding-unitary families, verifies weighted
orthogonality against a Schmidt state, computes entropy and capacity bounds,
and searches numerically for the largest family size a given state supports.
"""

from .analysis import (
    KcReport,
    VerificationReport,
    bns_excluded,
    kc_span_check,
    shift_family_obstructed,
    verify_family,
    wcsg_bound,
)
from .families import (
    EncodingFamily,
    family_2dm1,
    family_dp2,
    phase,
    qutrit_five_family,
    shift,
    shift_diag_family,
    weyl_family,
)
from .linalg import complete_to_unitary, unitarity_residual
from .search import (
    RegionCell,
    RegionMap,
    SearchConfig,
    SearchResult,
    estimate_nmax,
    find_family,
    objective,
    objective_and_gradient,
    region_sweep,
    triangle_grid,
)
from .states import SchmidtState, entropy_bits, make_state, message_vectors

__all__ = [
    "EncodingFamily",
    "KcReport",
    "RegionCell",
    "RegionMap",
    "SchmidtState",
    "SearchConfig",
    "SearchResult",
    "VerificationReport",
    "bns_excluded",
    "complete_to_unitary",
    "entropy_bits",
    "estimate_nmax",
    "family_2dm1",
    "family_dp2",
    "find_family",
    "kc_span_check",
    "make_state",
    "message_vectors",
    "objective",
    "objective_and_gradient",
    "phase",
    "qutrit_five_family",
    "region_sweep",
    "shift",
    "shift_diag_family",
    "shift_family_obstructed",
    "triangle_grid",
    "unitarity_residual",
    "verify_family",
    "wcsg_bound",
    "weyl_family",
]

__version__ = "0.1.0"
