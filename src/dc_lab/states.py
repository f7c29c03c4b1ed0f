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


def _check_state(state) -> None:
    """Refuse a `state` that is not a SchmidtState."""
    if not isinstance(state, SchmidtState):
        raise ValueError(f"state must be a SchmidtState, got {type(state).__name__}")


def _is_int(value) -> bool:
    """True for an integer of any integral type other than bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_int(value, name: str, low: int) -> None:
    """Refuse a `value` that is not an integer (see `_is_int`) of at least low."""
    if not _is_int(value) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_dimension(d) -> None:
    """Refuse a dimension d that is not an integer of at least 2."""
    _check_int(d, "dimension d", 2)


def _check_count(k: int, d: int, name: str = "family") -> None:
    """Refuse a member count k outside [d, d^2], naming its family `name`."""
    if not d <= k <= d * d:
        raise ValueError(f"{name} has {k} members, outside [{d}, {d * d}]")


def _check_shape(shape: tuple, i: int, d: int, name: str) -> None:
    """Refuse member i of family `name` unless its shape is (d, d)."""
    if shape != (d, d):
        raise ValueError(f"member {i} of {name} has shape {shape}, expected ({d}, {d})")


def make_state(d: int, lambdas) -> SchmidtState:
    """Validate, sort, and normalize a weight vector into a SchmidtState.

    Weights are sorted into nonincreasing order.  A total within 1e-9 of one
    is renormalized exactly; anything further off is rejected, as is any
    weight outside [0, 1], before summing, so huge weights cannot overflow.
    """
    _check_dimension(d)
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
    _check_state(state)
    lam = state.lambdas[state.lambdas > 0.0]
    return float(-(lam * np.log2(lam)).sum())


def _members(family, d: int):
    """The members of an EncodingFamily, a member list or tuple, or an array,
    checked to be at least one and (d, d) by `_check_shape`, as members of
    "family"; a stack's one member shape is judged as member 0's.

    A list or tuple becomes a list, its members converted one at a time, so
    an EncodingFamily's complex members are not copied; anything else
    becomes a complex (K, d, d) stack.
    """
    members = getattr(family, "members", family)
    if isinstance(members, (list, tuple)):
        members = [np.asarray(m, dtype=np.complex128) for m in members]
        empty, shapes = not members, [m.shape for m in members]
    else:
        members = np.asarray(members, dtype=np.complex128)
        empty, shapes = members.shape[:1] == (0,), [members.shape[1:]]
    if empty:
        raise ValueError("family has no members")
    for i, shape in enumerate(shapes):
        _check_shape(shape, i, d, "family")
    return members


def _message_block(block: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Message vectors of a (K, d, c) block of member columns, c columns to
    the c weights of lam, as rows of a (K, d c) array: row i holds
    sqrt(lambda_j) U_i|j> x |j> in the m*c + j ordering."""
    return (block * np.sqrt(lam)).reshape(len(block), -1)


def message_vectors(family, state: SchmidtState) -> np.ndarray:
    """Joint-space message vectors (U_i x I)|psi> as rows of a (K, d^2) array.

    Row i holds sum_j sqrt(lambda_j) (U_i|j>) x |j> in the m*d + n basis
    ordering.  Rows have unit norm whenever the members are unitary.
    """
    _check_state(state)
    return _message_block(np.asarray(_members(family, state.d)), state.lambdas)
