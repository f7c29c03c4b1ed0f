"""Verification, capacity bounds, and obstruction predicates.

Two unitaries M, U are Lambda-orthogonal for the diagonal weight matrix
Lambda when tr(Lambda M^dag U) = 0; a family is valid for a state exactly
when its members are pairwise Lambda-orthogonal, which is the same as the
encoded joint-space messages being pairwise orthogonal.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import _gram_residual
from .states import SchmidtState, _check_state, _members, _message_block

VERIFY_TOL = 1e-10
KC_RESIDUAL_TOL = 1e-8
# Slack on the weight bound lambda0 <= d/K (`wcsg_bound`), on the strict d+1
# bound lambda0 >= d/(d+1), and on the saturation point lambda0 = d/K
# (`saturates`).  Kept at roundoff scale: at 1e-9 it would label reachable
# states "excluded (proven)", allow K = 5 at lambda0 = 3/5 + 1e-10, beyond the
# bound, and call states up to 1e-9 below d/K saturated, where the span
# property fails.
STRICT_BOUND_TOL = 1e-12
# Matrix entries per block of the unitarity check: U^dag U is formed for this
# many entries' worth of members at a time, a whole small family at once.
# Kept apart from the completion's block (`families._BLOCK_ENTRIES`, 2^17)
# for memory: checking a family must cost a fraction of it
# (`test_checking_a_family_costs_a_fraction_of_it`).  At 2^17, verify_family
# on the 2d-1 family at d = 32 peaked at 3,678,976 bytes against that test's
# bound of 0.5 x 1,032,192.
_BLOCK_ENTRIES = 1 << 12


def _weighted_gram(stack: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Matrix of tr(Lambda U_i^dag U_j) over all member pairs.

    Takes a (..., K, d, c) stack, c columns to the c weights of lam, and
    returns (..., K, K): each member is flattened row-major, so Lambda weights
    column a of every row.
    """
    flat = stack.shape[:-2] + (-1,)
    return (stack.conj() * lam).reshape(flat) @ stack.reshape(flat).swapaxes(-1, -2)


def _max_pairwise_residual(stack: np.ndarray, lam: np.ndarray) -> float:
    """Largest |tr(Lambda U_i^dag U_j)| over member pairs i != j (0 for K = 1)."""
    gram = _weighted_gram(stack, lam)
    off = gram - np.diag(np.diag(gram))
    return float(np.max(np.abs(off))) if len(stack) > 1 else 0.0


@dataclass(frozen=True)
class VerificationReport:
    """Residual summary for one family checked against one state."""

    max_pairwise_residual: float
    max_unitarity_residual: float
    max_norm_deviation: float
    tol: float
    passed: bool


def _support(lam: np.ndarray) -> np.ndarray:
    """The mask of the member columns U|j> kept for the weights lam: those of
    weight lambda_j > 0, and column 0.

    A column of zero weight adds exact zeros to the weighted Gram matrix and
    to the message vectors, so both are the same on the (K, d, c) block of
    kept columns as on the whole stack; it is (K, d, 2) for every d+2 and
    2d-1 target.  Column 0 is always kept, so each |m0> lies in the block's
    coordinates: row-major, |m0> is coordinate m*c.
    """
    keep = lam > 0
    keep[0] = True
    return keep


def _reduce(u: np.ndarray, keep: np.ndarray):
    """The kept columns of an (n, d, d) block of members, and the largest
    entry of |U^dag U - I| over them."""
    return u[..., keep], float(np.max(_gram_residual(u)))


def _support_block(parts, lam: np.ndarray):
    """The (K, d, c) support block (see `_support`), its c weights and the
    members' largest unitarity residual, NaN when any block's is, from
    parts: each the kept columns of a block of members and their largest
    residual, as `_reduce` gives them."""
    return np.concatenate([block for block, _ in parts]), lam[_support(lam)], float(np.max([u for _, u in parts]))


def _parts(family, state: SchmidtState):
    """`_reduce` over the members of family, a block of _BLOCK_ENTRIES entries
    at a time, so no (K, d, d) temporary is formed for a large family, nor a
    stack of an EncodingFamily's members."""
    members, keep = _members(family, state.d), _support(state.lambdas)
    step = max(1, _BLOCK_ENTRIES // state.d**2)
    return [_reduce(np.asarray(members[i : i + step]), keep) for i in range(0, len(members), step)]


def _check_tol(tol, name: str = "tolerance") -> None:
    """Refuse a tolerance `name` that is not a finite nonnegative real number (a bool is not one)."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 <= tol < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {tol!r}")


def _verification(block: np.ndarray, lam: np.ndarray, max_unit: float, tol: float) -> VerificationReport:
    """`verify_family`'s report from the support block, its weights and the
    members' largest unitarity residual."""
    max_pair = _max_pairwise_residual(block, lam)
    norms = np.linalg.norm(_message_block(block, lam), axis=1)
    max_norm = float(np.max(np.abs(norms - 1.0)))
    passed = max_pair <= tol and max_unit <= tol and max_norm <= tol
    return VerificationReport(
        max_pairwise_residual=max_pair,
        max_unitarity_residual=max_unit,
        max_norm_deviation=max_norm,
        tol=tol,
        passed=passed,
    )


def verify_family(family, state: SchmidtState, tol: float = VERIFY_TOL) -> VerificationReport:
    """Check pairwise weighted orthogonality, unitarity, and message norms.

    The pairwise residuals and the norms come from the support block, and
    unitarity is checked in the same pass over the members (`_parts`).
    Raises ValueError unless state is a SchmidtState and tol a finite
    nonnegative real number (not a bool).
    """
    _check_state(state)
    _check_tol(tol)
    return _verification(*_support_block(_parts(family, state), state.lambdas), tol)


def wcsg_bound(state: SchmidtState) -> int:
    """Largest message count K not excluded by lambda0 <= d/K.

    The equality is tested as `saturates` tests it, to STRICT_BOUND_TOL in
    lambda0, so every K at which the state saturates is within the bound.
    The bound is capped at d^2.
    """
    _check_state(state)
    d = state.d
    return int(min(math.floor(d / (state.lambda0 - STRICT_BOUND_TOL)), d * d))


def bns_excluded(state: SchmidtState, k: int) -> bool:
    """True when K messages are impossible for proven reasons.

    Covers K beyond the weight bound and the strict d+1 case: no state with
    lambda0 >= d/(d+1) supports d+1 messages (equality included).
    """
    _check_state(state)
    d = state.d
    if k > wcsg_bound(state):
        return True
    return k == d + 1 and state.lambda0 >= d / (d + 1) - STRICT_BOUND_TOL


def saturates(state: SchmidtState, k: int) -> bool:
    """True when lambda0 = d/K to roundoff, the equality of the weight bound.

    Every valid K-family there puts each |m0> in the message span.  That
    holds only at equality, so the test is at STRICT_BOUND_TOL, at roundoff
    scale: a valid K = 5 family for (3/5 - 1e-10, 2/5 + 1e-10, 0) misses the
    span by 1.8e-5.
    """
    return abs(state.lambda0 - state.d / k) <= STRICT_BOUND_TOL


@dataclass(frozen=True)
class KcReport:
    """Span diagnostic at the saturation point lambda0 = d/K.

    residuals[m] is || P_S |m0> - |m0> || for the projector P_S onto the span
    of the message vectors, and span_dim is the dimension of that span: the
    rank of the message vectors, at np.linalg.matrix_rank's tolerance for
    their (K, d^2) matrix, so a family with a repeated member spans fewer
    than K dimensions.  Under exact saturation every residual vanishes;
    `saturated` records whether the hypothesis held (the residuals are still
    computed, as an advisory, when it does not).
    """

    residuals: tuple[float, ...]
    span_dim: int
    saturated: bool

    @property
    def max_residual(self) -> float:
        return max(self.residuals)


def _span_check(block: np.ndarray, lam: np.ndarray, state: SchmidtState, max_pair: float) -> KcReport:
    """`kc_span_check`'s report from the support block, its weights and its largest pair residual.

    A family whose pairwise residual exceeds KC_RESIDUAL_TOL is projected
    onto the right singular vectors of its message vectors above the rank
    tolerance, an orthonormal basis of their span; a valid family is
    projected on its message vectors as they are.
    """
    d = state.d
    k, c = block.shape[0], block.shape[2]
    msgs = _message_block(block, lam)
    near_miss = max_pair > KC_RESIDUAL_TOL
    if near_miss:
        _, sv, basis = np.linalg.svd(msgs, full_matrices=False)
    else:
        sv, basis = np.linalg.svd(msgs, compute_uv=False), msgs
    span_dim = int(np.count_nonzero(sv > sv.max() * max(k, d * d) * np.finfo(float).eps))
    if near_miss:
        basis = basis[:span_dim]
    residuals = []
    for m in range(d):
        idx = m * c
        projected = basis.T @ basis[:, idx].conj()
        projected[idx] -= 1.0
        residuals.append(float(np.linalg.norm(projected)))
    return KcReport(residuals=tuple(residuals), span_dim=span_dim, saturated=saturates(state, k))


def kc_span_check(family, state: SchmidtState) -> KcReport:
    """Measure how far each |m0> basis vector is from the message span.

    Works on the support block (see `_support`), from the same pass over the
    members as `verify_family` (`_parts`): its message vectors are the full
    ones without their zero coordinates, which changes neither the span nor
    any |m0>'s distance from it.
    """
    _check_state(state)
    block, lam, _ = _support_block(_parts(family, state), state.lambdas)
    return _span_check(block, lam, state, _max_pairwise_residual(block, lam))


def shift_family_obstructed(state: SchmidtState) -> bool:
    """True when lambda0 > 1/2, which rules out two kinds of family.

    No shift-times-diagonal family extends by another member, and no valid
    family contains both I and another diagonal unitary D: the triangle
    inequality forces |tr(Lambda D)| >= lambda0 - (1 - lambda0) > 0.
    """
    _check_state(state)
    return state.lambda0 > 0.5
