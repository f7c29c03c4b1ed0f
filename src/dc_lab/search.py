"""Seeded random-restart search for weighted-orthogonal unitary families.

For a state with weight vector lambda and a requested family size K, the
search fixes U_0 = I (any valid family can be rotated so one member is the
identity) and drives to zero the pair traces tr(Lambda U_i^dag U_j), i < j,
whose squared moduli sum to the objective
    f = sum_{i<j} |tr(Lambda U_i^dag U_j)|^2,
which vanishes exactly on valid families.  The iterate is the members
themselves.  Each is moved in its own body frame, U -> U cay(H), where H is
Hermitian with d^2 real coordinates and cay(H) = (I - iH/2)^{-1} (I + iH/2)
is the Cayley transform, so the members stay unitary with no matrix
exponential, and a step costs one batched linear solve.

Each restart starts from the Cayley transform of a random H drawn from a
generator seeded by the configured base seed, and a Levenberg-Marquardt
(LM) polish in the same coordinates does the whole search.  It stops once
every pair residual is within accept_tol, or once LM_HALVING_ITERS
iterations pass without halving the objective, as they do when no family
lies near.  At saturation, lambda_0 = d/K to roundoff with K < d^2, the LM
also drives the span blocks to zero (see `_residuals`), so a witness found
there passes `kc_span_check`.  A restart is accepted exactly when
`verify_family` passes its members at accept_tol, the same check
`dc-lab verify --tol` makes.

Restarts run one after another, and the first that verifies wins; every run
with the same configuration is bit-for-bit reproducible.  `estimate_nmax`
takes its cap, the weight bound or a lower max_k, first: the first k members
of a valid K-family are a valid k-family, so when the cap is found, every
smaller K is certified by a subset of that one witness, each verified on its
own.  When the state saturates the cap and the paper constructs a family of
that size, the Weyl family, F_d/(d+2) or the 2d-1 family, that family is
judged before any search, and when it verifies it is the cap's witness.
When the cap is refused, or a subset fails verification, it searches
K = d+1, d+2, ... in turn, reusing the verdict at the cap.  A sweep hands
its cells to the workers one at a time.

A failed search is evidence, not proof: results label such outcomes
"not found (heuristic)".  Only the closed-form exclusion predicates from
:mod:`dc_lab.analysis` justify the label "excluded (proven)".
"""

from __future__ import annotations

import dataclasses
import functools
import os
from dataclasses import dataclass

import numpy as np

from .analysis import (
    VERIFY_TOL,
    _check_tol,
    _support,
    _weighted_gram,
    bns_excluded,
    saturates,
    verify_family,
    wcsg_bound,
)
from .families import EncodingFamily, _checked_member, family_2dm1, family_dp2, shift_diag_family, weyl_family
from .states import SchmidtState, entropy_bits, make_state
from .states import _check_count, _check_int, _check_state, _is_int, _members

# Levenberg-Marquardt polish: initial damping, its lower limit, the stop on
# the objective, and the progress stop: the polish ends once this many
# iterations, accepted or rejected, pass without the objective falling to half
# its value at the last halving.  Random starts have objectives of about 1-12
# (d <= 6), so from there to LM_F_STOP that bounds a polish at about
# 20 log2(12 / 1e-28) = 1,900 iterations, and it ends early a polish that
# crawls toward a plateau with no root nearby.  The damping is mu times the
# identity, a trust region in the body-frame coordinates, whose basis rows
# have norm 1 or sqrt(2).  With the span blocks the saturated roots are
# regular: at base_seeds 1-79 the first polish verifies within 12 iterations
# at (4/6, 2/6, 0, 0), K = 6.
LM_MU_START = 1e-3
LM_MU_MIN = 1e-14
LM_F_STOP = 1e-28
LM_HALVING_ITERS = 20


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the restart search; defaults suit d <= 5 desk-scale runs.

    Frozen, so every config has passed the checks below: derive a variant
    with `dataclasses.replace`, which checks it again.
    """

    max_k: int | None = None
    restarts: int = 50
    accept_tol: float = VERIFY_TOL
    base_seed: int = 42

    def __post_init__(self):
        _check_int(self.restarts, "restarts", 1)
        _check_int(self.base_seed, "base_seed", 0)
        if self.max_k is not None and not _is_int(self.max_k):
            raise ValueError(f"max_k must be an integer or None, got {self.max_k!r}")
        _check_tol(self.accept_tol, "accept_tol")
        if self.accept_tol == 0:
            raise ValueError(f"accept_tol must be positive, got {self.accept_tol!r}")


def _check_config(cfg) -> None:
    """Refuse a `cfg` that is not a SearchConfig."""
    if not isinstance(cfg, SearchConfig):
        raise ValueError(f"cfg must be a SearchConfig, got {type(cfg).__name__}")


@dataclass(frozen=True)
class KAttempt:
    """Outcome of the search at one family size.  The objective and the
    largest pair residual are the witness's when found, those of the restart
    that came closest when not found, and None when excluded."""

    k: int
    status: str  # "found" | "not found (heuristic)" | "excluded (proven)"
    best_objective: float | None
    max_pair_residual: float | None


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Per-K outcomes for one state, plus the largest certified family size."""

    d: int
    lambdas: tuple[float, ...]
    seed: int
    attempts: tuple[KAttempt, ...]
    witnesses: dict[int, EncodingFamily]
    n_max_estimate: int


# ---------------------------------------------------------------------------
# per-search context and batched kernel


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=64)
def _pairs(n: int):
    """Row and column indices of the strict upper triangle of an (n, n) matrix,
    and their flat indices; cached and read-only."""
    iu, ju = np.nonzero(np.less.outer(np.arange(n), np.arange(n)))
    return _read_only(iu, ju, iu * n + ju)


@functools.lru_cache(maxsize=64)
def _hermitian_basis(d: int):
    """The (d^2, d^2) Hermitian basis of a parameter block and its adjoint;
    cached and read-only.

    Row a of `basis` is the flattened Hermitian matrix dH/dtheta_a of one
    block, so H = theta_block @ basis and the coefficients of the parameters
    in tr(Z dH) are Z_flat @ basis^dag.  Each entry of either product has at
    most two nonzero terms, so both are exact.
    """
    iu0, iu1, upper_flat = _pairs(d)
    unit = np.eye(d * d)
    upper, lower = unit[upper_flat], unit[iu1 * d + iu0]
    basis = np.concatenate([unit[np.arange(d) * (d + 1)], upper + lower, 1j * (upper - lower)])
    return _read_only(basis, np.ascontiguousarray(basis.conj().T))


class _Problem:
    """Constants of one search: weights, fixed prefix, sizes and index arrays.

    Batched methods take the free members of R rows as an (R, n_free, d, d)
    stack and treat every row independently.  A coordinate row holds n_free
    blocks of d^2 reals, one Hermitian H per free member: d diagonal entries,
    then the real and imaginary parts of the strict upper triangle in
    row-major order.  It moves each member U to U cay(H).
    """

    def __init__(self, state: SchmidtState, k: int, fixed_stack: np.ndarray):
        d = state.d
        self.lam = state.lambdas
        self.d = d
        self.k = k
        self.fixed = fixed_stack
        self.nf = fixed_stack.shape[0]
        self.n_free = k - self.nf
        self.nparam = self.n_free * d * d
        iu, ju, self.pair_flat = _pairs(k)
        self.basis, self.dual = _hermitian_basis(d)
        self.eye = np.eye(d)
        # (pair row, free member, other member) of the pairs (i, j) whose
        # first member is free, then of those whose second is: a pair row
        # touches only members i and j
        pair, first, second = np.arange(iu.size), iu >= self.nf, ju >= self.nf
        self.first_free = pair[first], iu[first] - self.nf, ju[first]
        self.second_free = pair[second], ju[second] - self.nf, iu[second]
        # At lambda_0 = d/K no family is a regular root of the pair equations
        # alone, so LM converges only linearly there; the span blocks, which
        # every family there satisfies, make the root regular.  At K = d^2
        # the pair equations imply them.  They hold only at equality, so the
        # test is `saturates`, at roundoff scale: a family at
        # lambda_0 = d/K - eps misses them by about eps, and at a tolerance of
        # 1e-9 the blocks would keep LM from the families of states up to
        # 1e-9 below d/K.
        self.span = None
        if k < d * d and saturates(state, k):
            cols = np.flatnonzero(_support(self.lam))
            self.span = cols, np.sqrt(self.lam[0] * self.lam[cols])
            blocks = self.basis.reshape(d * d, d, d)[:, :, cols]
            self.span_basis = blocks.transpose(1, 0, 2).reshape(d, -1)

    def hermitian(self, theta: np.ndarray) -> np.ndarray:
        """The (R, n_free, d, d) Hermitian blocks of (R, nparam) coordinates."""
        h = np.asarray(theta, dtype=float).reshape(-1, self.d * self.d) @ self.basis
        return h.reshape(-1, self.n_free, self.d, self.d)

    def cayley(self, theta: np.ndarray) -> np.ndarray:
        """cay(H) = (I - iH/2)^{-1} (I + iH/2) of every block, by one batched solve."""
        h = 0.5j * self.hermitian(theta)
        return np.linalg.solve(self.eye - h, self.eye + h)

    def members(self, ufree: np.ndarray) -> np.ndarray:
        """(R, k, d, d) member stacks: the fixed prefix, then the free members."""
        stack = np.empty((ufree.shape[0], self.k, self.d, self.d), dtype=np.complex128)
        stack[:, : self.nf] = self.fixed
        stack[:, self.nf :] = ufree
        return stack

    def trace_layout(self, z: np.ndarray) -> np.ndarray:
        """Coefficients of the parameters in tr(Z dH), for (..., d, d) Z -> (..., d^2)."""
        return z.reshape(z.shape[:-2] + (-1,)) @ self.dual


def objective(state: SchmidtState, family) -> float:
    """Sum of squared pairwise weighted traces; zero iff the family is valid."""
    _check_state(state)
    t = _weighted_gram(np.asarray(_members(family, state.d)), state.lambdas)
    iu, ju, _ = _pairs(t.shape[0])
    return float(np.sum(np.abs(t[iu, ju]) ** 2))


def objective_and_gradient(state: SchmidtState, theta, k: int):
    """Public wrapper exposing the pair objective and its exact gradient.

    `theta`, a finite 1-D vector of (k - 1) d^2 reals, parametrizes the
    k - 1 free members appended after the identity, d^2 reals each, for an
    integer k in [d, d^2]: each is the Cayley transform
    cay(H) = (I - iH/2)^{-1} (I + iH/2) of a Hermitian H, the chart the
    search steps in around each member.

    The gradient is the LM's body-frame Jacobian of the pair traces, pulled
    back through the chart: d cay(H) = U i A^-dag dH A^-1 with A = I - iH/2.
    """
    _check_state(state)
    _check_k(state.d, k, 1)
    prob = _Problem(state, k, _prepare_fixed(state, None))
    theta = np.asarray(theta)
    if theta.shape != (prob.nparam,) or theta.dtype.kind not in "iuf" or not np.all(np.isfinite(theta)):
        raise ValueError(f"theta must be a finite 1-D vector of {prob.nparam} reals, got shape {theta.shape}")
    a = np.eye(state.d) - 0.5j * prob.hermitian(theta)
    chart = np.linalg.inv(a)
    stack, t = _residuals(prob, chart @ a.conj().swapaxes(-1, -2))
    jac = _jacobian(prob, stack)
    pairs = prob.pair_flat.size  # the span-block rows, if any, follow the pairs
    t, jac = t[:pairs], jac[:pairs]
    g = 2.0 * (jac.real.T @ t.real + jac.imag.T @ t.imag)
    # df = tr(Y dK) for the body-frame step dK = A^-dag dH A^-1, with
    # Y = sum_b g_b B_b / tr(B_b B_b), so df = tr(A^-1 Y A^-dag dH)
    y = prob.hermitian(g.reshape(-1, state.d**2) / np.sum(np.abs(prob.basis) ** 2, axis=1))
    grad = prob.trace_layout(chart @ y @ chart.conj().swapaxes(-1, -2)).real
    return float(np.vdot(t, t).real), grad.ravel()


# ---------------------------------------------------------------------------
# Levenberg-Marquardt polish


def _residuals(prob: _Problem, ufree: np.ndarray):
    """The member stack (k, d, d) of one row of free members, shape
    (1, n_free, d, d), and its complex residuals: the pair traces
    tr(Lambda U_i^dag U_j), i < j, then the entries of the span blocks when
    the problem has them.

    Span block j, for each weight lambda_j > 0, is R_j = w_j sum_i U_i|0><j|
    U_i^dag - delta_j0 I with w_j = sqrt(lambda_0 lambda_j).  Row m of R_j
    holds, conjugated, the components of P|m0> - |m0> along C^d x |j>, for P
    the projector onto the span of the (orthonormal) message vectors, so the
    blocks vanish exactly when every |m0> lies in the span: what
    `kc_span_check` measures.
    """
    d = prob.d
    stack = prob.members(ufree)[0]
    t = _weighted_gram(stack, prob.lam).ravel()[prob.pair_flat]
    if prob.span is None:
        return stack, t
    cols, w = prob.span
    # blocks[p, q, j] = w_j sum_i U_i[p, 0] conj(U_i[q, j]): one product gives every R_j
    blocks = (stack[:, :, 0].T @ stack.conj().reshape(prob.k, d * d)).reshape(d, d, d)[:, :, cols] * w
    blocks[:, :, 0] -= prob.eye
    return stack, np.concatenate([t, blocks.ravel()])


def _jacobian(prob: _Problem, stack: np.ndarray) -> np.ndarray:
    """The complex Jacobian of `_residuals`' residuals at the member stack
    (k, d, d) it gave, in the body-frame coordinates of the free members:
    rows as the residuals, columns n_free blocks of d^2.  Pair row (i, j) is
    zero outside the blocks of members i and j."""
    nf, d, dd = prob.nf, prob.d, prob.d * prob.d
    # s[m, q] = -i tr(B_a U_m^dag U_q Lambda) is d tr(Lambda U_m^dag U_q) /
    # d theta_m for free member m on the dagger side; on the other side the
    # derivative is its conjugate.
    s = -1j * prob.trace_layout(stack[nf:, None].conj().swapaxes(-1, -2) @ (stack * prob.lam)[None])
    jac = np.zeros((prob.pair_flat.size, prob.n_free, dd), dtype=np.complex128)
    p, m, q = prob.first_free
    jac[p, m] = s[m, q]
    p, m, q = prob.second_free
    jac[p, m] = s[m, q].conj()
    jac = jac.reshape(-1, prob.nparam)
    if prob.span is None:
        return jac
    cols, w = prob.span
    u = stack[nf:]
    # d R_j[p, q] / d theta_{m,a} = i w_j (U_m [B_a, |0><j|] U_m^dag)[p, q]
    # = i w_j (x[m, p, a, 0] conj(U_m[q, j]) - U_m[p, 0] conj(x[m, q, a, j])),
    # where x[m, p, a, c] = (U_m B_a)[p, cols[c]]; rows (p, q, j), columns (m, a)
    x = (u.reshape(-1, d) @ prob.span_basis).reshape(prob.n_free, d, dd, cols.size)
    iw = 1j * w
    first = x[:, :, :, 0].transpose(1, 0, 2)[:, None, None] * (u.conj()[:, :, cols] * iw).transpose(1, 2, 0)[..., None]
    second = u[:, :, 0].T[:, None, None, :, None] * (x.conj() * iw).transpose(1, 3, 0, 2)
    return np.concatenate([jac, (first - second).reshape(-1, prob.nparam)])


def _normal_equations(t: np.ndarray, jac: np.ndarray):
    """J^T J and J^T r of the real residuals r, the real and imaginary parts
    of the complex residuals t: one real product of the stacked parts of the
    complex Jacobian gives Re(J^dag J) in half the arithmetic."""
    real = np.concatenate([jac.real, jac.imag])
    return real.T @ real, real.T @ np.concatenate([t.real, t.imag])


def _lm_polish(prob: _Problem, ufree: np.ndarray, tol: float):
    """Polish one row of free members until every pair residual is within
    tol, f reaches LM_F_STOP, or LM_HALVING_ITERS iterations pass without
    halving f; returns the member stack (k, d, d) that `_residuals` built at
    the last accepted point, or at the start, and its sum of squared
    residuals, span blocks included.
    Each step solves (J^T J + mu I) delta = -J^T r: in the body frame, mu
    bounds the step alike in every direction, flat ones included.  J is formed
    only at points a step leaves; the progress stop bounds the iterations."""
    n, diagonal = prob.pair_flat.size, slice(None, None, prob.nparam + 1)
    stack, t = _residuals(prob, ufree)
    f = float(np.vdot(t, t).real)
    mu = LM_MU_START
    halved, since = f, 0  # the value at the last halving, and iterations since
    done = f <= LM_F_STOP or np.max(np.abs(t[:n])) <= tol
    while not done and since < LM_HALVING_ITERS:
        a, g = _normal_equations(t, _jacobian(prob, stack))
        while since < LM_HALVING_ITERS:  # damped steps from this point until one lowers f
            since += 1
            damped = a.copy()
            damped.flat[diagonal] += mu
            try:
                delta = np.linalg.solve(damped, -g)
            except np.linalg.LinAlgError:
                delta = np.linalg.lstsq(damped, -g, rcond=None)[0]
            trial = ufree @ prob.cayley(delta)
            trial_stack, trial_t = _residuals(prob, trial)
            ft = float(np.vdot(trial_t, trial_t).real)
            if ft < f:
                ufree, stack, t, f = trial, trial_stack, trial_t, ft
                mu = max(mu / 3.0, LM_MU_MIN)
                if f <= halved / 2:
                    halved, since = f, 0
                done = f <= LM_F_STOP or np.max(np.abs(t[:n])) <= tol
                break
            mu *= 4.0
    return stack, f


# ---------------------------------------------------------------------------
# public search operations


def _prepare_fixed(state: SchmidtState, fixed) -> np.ndarray:
    """The fixed prefix as an (n, d, d) stack, each member checked once by `_checked_member`."""
    if fixed is None:
        return np.eye(state.d, dtype=np.complex128)[None]
    stack = [_checked_member(m, i, state.d, "fixed") for i, m in enumerate(getattr(fixed, "members", fixed))]
    if not stack:
        raise ValueError("family has no members")
    return np.asarray(stack)


def _check_k(d: int, k, n_fixed: int) -> None:
    """Refuse a family size k that is not an integer in [d, d^2] or is below
    the number of fixed members."""
    if not _is_int(k):
        raise ValueError(f"family size k must be an integer, got {k!r}")
    _check_count(k, d)
    if n_fixed > k:
        raise ValueError(f"{n_fixed} fixed members exceed family size {k}")


def _judge(state: SchmidtState, k: int, stack: np.ndarray, tol: float, label: str | None = None):
    """The verdict on k members: their attempt at k and, when `verify_family`
    passes them at tol, their witness (else None), labelled `label`, or
    search-K{k} when it is None.  The status and the largest pair residual
    are that report's, the objective is `objective`'s."""
    report = verify_family(stack, state, tol=tol)
    status = "found" if report.passed else "not found (heuristic)"
    attempt = KAttempt(k, status, objective(state, stack), report.max_pairwise_residual)
    if not report.passed:
        return attempt, None
    label = f"search-K{k}" if label is None else label
    return attempt, EncodingFamily(d=state.d, members=tuple(stack), label=label, target_lambda0=state.lambda0)


def _find(state: SchmidtState, k: int, cfg: SearchConfig, fixed=None):
    """find_family's search: returns the verdict (attempt, witness or None)
    and the members (k, d, d) of the accepted restart, or else of the one
    that came closest, as one triple.

    Restarts run in order, each drawing its start from one generator seeded
    by cfg.base_seed, and the first whose polished members verify wins.  The
    closest restart is the first of least pair objective, the value a
    refusal reports.  With all k members fixed, they are the one candidate.
    """
    fixed_stack = _prepare_fixed(state, fixed)
    _check_k(state.d, k, fixed_stack.shape[0])
    if fixed_stack.shape[0] == k:
        return (*_judge(state, k, fixed_stack, cfg.accept_tol), fixed_stack)
    prob = _Problem(state, k, fixed_stack)
    rng = np.random.default_rng(cfg.base_seed)
    closest = None
    for _ in range(cfg.restarts):
        start = prob.cayley(rng.standard_normal((1, prob.nparam)))
        stack = _lm_polish(prob, start, cfg.accept_tol)[0]
        attempt, witness = _judge(state, k, stack, cfg.accept_tol)
        if witness is not None:
            return attempt, witness, stack
        if closest is None or attempt.best_objective < closest[0].best_objective:
            closest = attempt, None, stack
    return closest


def find_family(state: SchmidtState, k: int, cfg: SearchConfig, fixed=None):
    """Search for k weighted-orthogonal unitaries for the given state.

    Returns (objective, witness).  The witness is the first restart whose
    members pass `verify_family` at cfg.accept_tol, or None when no restart
    does; the objective is the witness's, or else that of the restart that
    came closest.  With all k members fixed, they are the one candidate.
    """
    _check_state(state)
    _check_config(cfg)
    attempt, witness, _ = _find(state, k, cfg, fixed)
    return attempt.best_objective, witness


def _check_max_k(cfg: SearchConfig, d: int) -> None:
    if cfg.max_k is not None and cfg.max_k < d:
        raise ValueError(f"max_k={cfg.max_k} is below d={d}; K=d is always achievable")


@functools.lru_cache(maxsize=16)
def _shift_witness(d: int) -> tuple[EncodingFamily, KAttempt]:
    """The K = d witness {X^k}, valid for every state, and its attempt;
    cached, the members read-only.  The members have disjoint supports, so
    every pair trace is exactly 0 whatever the weights, and the attempt is
    the same for every state of dimension d."""
    return shift_diag_family(d, [np.ones(d)] * d), KAttempt(d, "found", 0.0, 0.0)


def _constructed(state: SchmidtState, k: int, tol: float):
    """The paper's family of exactly k members for a state at lambda0 = d/k,
    as a verdict (attempt, witness, members) like `_find`'s, labelled with
    the family's label; None when there is no such family or its members do
    not pass `verify_family` at tol.

    The families are the Weyl family at k = d^2, F_d/(d+2) at k = d+2 and
    the 2d-1 family at k = 2d-1 for d >= 4.  Each is built for its one
    target state, so at another state of the same lambda0, such as psi_H
    (3/5, 1/5, 1/5) at k = 5, F_3/5 fails verification.
    """
    d = state.d
    if not saturates(state, k):
        return None
    if k == d * d:
        family = weyl_family(d)
    elif k == d + 2:
        family = family_dp2(d)
    elif k == 2 * d - 1 and d >= 4:
        family = family_2dm1(d)
    else:
        return None
    stack = np.asarray(family.members)
    attempt, witness = _judge(state, k, stack, tol, family.label)
    return None if witness is None else (attempt, witness, stack)


def estimate_nmax(state: SchmidtState, cfg: SearchConfig) -> SearchResult:
    """Estimate the largest K the state supports, from K = d up to the cap:
    the weight bound, or cfg.max_k when that is lower.

    K = d needs no search: the shift family {X^k} is valid for every state,
    so it is recorded as found with that witness.  The cap is taken first,
    unless it is provably excluded, because the first k members of a valid
    K-family are a valid k-family (their pair traces are some of its own).
    When the state saturates the cap and the paper has a family of exactly
    that size (see `_constructed`) that passes `verify_family` at
    cfg.accept_tol, that family is the cap's witness, with the family's
    label; otherwise the cap is searched.  When the cap is found and, for
    each k between d and the cap, the first k members of its witness pass
    `verify_family` at cfg.accept_tol on their own, those verdicts stand
    for every K and nothing else is searched.  Then one scan runs over
    K = d+1, d+2, ..., the cap: each K that is provably excluded is
    recorded so, and ends the scan; any other takes the verdict judged
    above, or else a search of its own.  The scan stops at the first K that
    is not found.  The estimate is the last certified K; a failed K is
    heuristic evidence only.
    """
    _check_state(state)
    _check_config(cfg)
    d = state.d
    _check_max_k(cfg, d)
    cap = min(cfg.max_k if cfg.max_k is not None else d * d, wcsg_bound(state))
    shifts, shift_attempt = _shift_witness(d)
    attempts = [shift_attempt]
    witnesses: dict[int, EncodingFamily] = {d: shifts}
    judged = {}
    if cap > d and not bns_excluded(state, cap):
        constructed = _constructed(state, cap, cfg.accept_tol)
        attempt, witness, stack = constructed or _find(state, cap, cfg)
        judged[cap] = attempt, witness
        if witness is not None:
            label = witness.label if constructed else None
            subsets = {k: _judge(state, k, stack[:k], cfg.accept_tol, label) for k in range(d + 1, cap)}
            if all(w is not None for _, w in subsets.values()):
                judged |= subsets
    for k in range(d + 1, cap + 1):
        if bns_excluded(state, k):
            attempts.append(
                KAttempt(k=k, status="excluded (proven)", best_objective=None, max_pair_residual=None)
            )
            break
        attempt, witness = judged[k] if k in judged else _find(state, k, cfg)[:2]
        attempts.append(attempt)
        if witness is None:
            break
        witnesses[k] = witness
    return SearchResult(
        d=d,
        lambdas=tuple(float(x) for x in state.lambdas),
        seed=cfg.base_seed,
        attempts=tuple(attempts),
        witnesses=witnesses,
        n_max_estimate=max(witnesses),
    )


# ---------------------------------------------------------------------------
# region sweep over the qutrit weight triangle


_TRIANGLE_CORNERS = (
    (1 / 3, 1 / 3, 1 / 3),
    (1 / 2, 1 / 2, 0.0),
    (1.0, 0.0, 0.0),
)
MANDATORY_SWEEP_STATES = (
    (1 / 3, 1 / 3, 1 / 3),
    (3 / 5, 2 / 5, 0.0),
    (3 / 5, 1 / 5, 1 / 5),
)


@dataclass(frozen=True)
class RegionCell:
    """One sweep sample: a weight triple plus its search summary."""

    index: int
    lambda0: float
    lambda1: float
    lambda2: float
    entropy_bits: float
    wcsg_bound: int
    n_max_estimate: int
    best_objective_at_refusal: float | None
    seed: int


@dataclass(frozen=True, eq=False)
class RegionMap:
    d: int
    resolution: int
    base_seed: int
    cells: tuple[RegionCell, ...]


def triangle_grid(resolution: int) -> list[tuple[float, float, float]]:
    """Weight triples sampling the sorted qutrit triangle.

    Takes the centroids of the upward sub-triangles of a barycentric
    subdivision (all strictly inside the region), then appends the three
    proven target states (uniform, (3/5, 2/5, 0), (3/5, 1/5, 1/5)).  No
    centroid is a target: each centroid's barycentric coordinates are at
    least 1/(3n), and each target has one equal to 0.
    """
    _check_int(resolution, "resolution", 4)
    n = resolution
    corners = np.asarray(_TRIANGLE_CORNERS)
    pts: list[tuple[float, float, float]] = []
    for a in range(n):
        for b in range(n - a):
            c = n - 1 - a - b
            bary = np.array([a + 1 / 3, b + 1 / 3, c + 1 / 3]) / n
            lam = bary @ corners
            pts.append((float(lam[0]), float(lam[1]), float(lam[2])))
    return pts + list(MANDATORY_SWEEP_STATES)


def _refusal_objective(result: SearchResult) -> float | None:
    for attempt in result.attempts:
        if attempt.status != "found":
            return attempt.best_objective
    return None


def _sweep_cell(task) -> RegionCell:
    """One sweep cell: the estimate_nmax of its state under its seed."""
    index, lam3, cfg = task
    state = make_state(3, lam3)
    result = estimate_nmax(state, cfg)
    return RegionCell(
        index=index,
        lambda0=lam3[0],
        lambda1=lam3[1],
        lambda2=lam3[2],
        entropy_bits=entropy_bits(state),
        wcsg_bound=wcsg_bound(state),
        n_max_estimate=result.n_max_estimate,
        best_objective_at_refusal=_refusal_objective(result),
        seed=cfg.base_seed,
    )


def _worker_count(tasks: int) -> int:
    """Worker processes for `tasks` cells: DC_LAB_THREADS, or the CPU count
    when it is unset or empty, clamped to at least one and at most the task
    and CPU counts.  The CPU count is that of the CPUs this process may run
    on, its affinity set, or os.cpu_count() where the OS has no such call."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    env = os.environ.get("DC_LAB_THREADS")
    try:
        workers = int(env) if env else cpus
    except ValueError:
        raise ValueError(f"DC_LAB_THREADS must be an integer, got {env!r}") from None
    return max(1, min(workers, tasks, cpus))


def sweep_grid(resolution: int, cfg: SearchConfig) -> list[tuple[float, float, float]]:
    """The weight triples a sweep visits, once its inputs are checked.

    Raises ValueError for a cfg that is not a SearchConfig, a max_k below 3
    or a resolution that is not an integer >= 4, so a caller can refuse a
    sweep before it starts anything.
    """
    _check_config(cfg)
    _check_max_k(cfg, 3)
    return triangle_grid(resolution)


def region_sweep(resolution: int, cfg: SearchConfig) -> RegionMap:
    """Estimate N_max over the qutrit weight triangle (d = 3), one
    estimate_nmax per cell.

    Cell i carries seed base_seed XOR i.  The cells run on n workers, where
    n is DC_LAB_THREADS (or the CPU count) clamped to the cell and CPU counts;
    with n > 1 each worker is a process.  Cells are handed to the workers
    one at a time, in index order, as they come free, so a worker that
    draws slow cells leaves the rest to the others.  A cell's result is the
    one estimate_nmax gives for it whatever the worker count, and cells are
    returned in index order, so the map is reproducible for a fixed seed.
    """
    pts = sweep_grid(resolution, cfg)
    tasks = [
        (idx, lam3, dataclasses.replace(cfg, base_seed=cfg.base_seed ^ idx))
        for idx, lam3 in enumerate(pts)
    ]
    nworkers = _worker_count(len(tasks))
    if nworkers > 1:
        # imported here: the pool pulls in multiprocessing, which nothing
        # else needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            cells = tuple(pool.map(_sweep_cell, tasks))
    else:
        cells = tuple(map(_sweep_cell, tasks))
    return RegionMap(d=3, resolution=resolution, base_seed=cfg.base_seed, cells=cells)
