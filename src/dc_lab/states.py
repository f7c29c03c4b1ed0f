"""Schmidt states of a two-qudit pair and quantities derived from them.

A state is stored as its vector of squared Schmidt coefficients (the weights
lambda_0 >= lambda_1 >= ... >= lambda_{d-1} >= 0 summing to one).  The joint
space uses the basis ordering |m>_A |n>_B  ->  index m*d + n, which every
message-vector and span computation in the package relies on.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SchmidtState:
    """Weights of a bipartite pure state, sorted nonincreasing, summing to 1."""

    d: int
    lambdas: np.ndarray

    @property
    def lambda0(self) -> float:
        return float(self.lambdas[0])


def _is_int(value) -> bool:
    """True for an integer of any integral type other than bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def make_state(d: int, lambdas) -> SchmidtState:
    """Validate, sort, and normalize a weight vector into a SchmidtState.

    Weights are sorted into nonincreasing order.  A total within 1e-9 of one
    is renormalized exactly; anything further off is rejected, as is any
    weight outside [0, 1], before summing, so huge weights cannot overflow.
    """
    if not _is_int(d):
        raise ValueError(f"dimension d must be an integer, got {d!r}")
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    lam = np.asarray(lambdas, dtype=float).reshape(-1)
    if lam.shape != (d,):
        raise ValueError(f"expected {d} weights, got {lam.shape[0]}")
    if not np.all(np.isfinite(lam)):
        raise ValueError("weights must be finite")
    if np.any(lam < 0) or np.any(lam > 1 + NORMALIZATION_TOL):
        raise ValueError(f"weights must lie in [0, 1], got {lam.tolist()}")
    total = float(lam.sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"weights sum to {total!r}, more than {NORMALIZATION_TOL} from 1")
    lam = np.sort(lam)[::-1] / total
    lam.flags.writeable = False
    return SchmidtState(d=d, lambdas=lam)


def entropy_bits(state: SchmidtState) -> float:
    """Entanglement entropy -sum lambda_j log2 lambda_j, with 0 log 0 = 0."""
    lam = state.lambdas[state.lambdas > 0.0]
    return float(-(lam * np.log2(lam)).sum())


def _member_stack(family, d: int) -> np.ndarray:
    """(K, d, d) complex stack of an EncodingFamily, a member sequence or an array."""
    # np.asarray raises ValueError itself for members of different shapes
    stack = np.asarray(getattr(family, "members", family), dtype=np.complex128)
    if stack.ndim != 3 or stack.shape[1:] != (d, d):
        raise ValueError(f"family members have shape {stack.shape[1:]}, state has d={d}")
    return stack


def message_vectors(family, state: SchmidtState) -> np.ndarray:
    """Joint-space message vectors (U_i x I)|psi> as rows of a (K, d^2) array.

    Row i holds sum_j sqrt(lambda_j) (U_i|j>) x |j> in the m*d + n basis
    ordering.  Rows have unit norm whenever the members are unitary.
    """
    stack = _member_stack(family, state.d)
    return (stack * np.sqrt(state.lambdas)).reshape(stack.shape[0], -1)
