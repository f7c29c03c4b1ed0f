"""Seeded random-restart search for weighted-orthogonal unitary families.

For a state with weight vector lambda and a requested family size K, the
search fixes U_0 = I (any valid family can be rotated so one member is the
identity) and minimizes
    f = sum_{i<j} |tr(Lambda U_i^dag U_j)|^2
over the remaining members, which vanishes exactly on valid families.  The
iterate is the members themselves.  Each is moved in its own body frame,
U -> U cay(H), where H is Hermitian with d^2 real coordinates and
cay(H) = (I - iH/2)^{-1} (I + iH/2) is the Cayley transform, so the members
stay unitary with no matrix exponential.  At H = 0 the gradient costs a few
matrix products and a step costs one batched linear solve.

Each restart starts from the Cayley transform of a random H drawn from a
generator seeded by the configured base seed and runs Adam on that gradient.
A restart whose Adam value falls below HANDOFF_TOL is handed to a
Levenberg-Marquardt polish in the same coordinates, which stops once every
pair residual is within accept_tol; a restart that stalls above it is not
polished.  A restart is accepted exactly when `verify_family` passes its
members at accept_tol, the same check `dc-lab verify --tol` makes.

Adam runs in a lockstep engine.  A search submits its restarts in batches of
1, 2, 4, ... rows, and the rows of every search that shares d, K, the fixed
prefix, max_iters and stall_window form one group: a few stacked matrix
products and one batched solve per step serve all of them, whichever search
they belong to, and rows join and leave at any step.  A batch does not wait
for the one before it to finish: it joins at that batch's first stall test,
step 2 stall_window (a row still in Adam then is in a hard search), or once
every earlier row has left, whichever comes first.  Rows are polished and
verified in restart order as they leave, a row that leaves early waiting for
every lower restart, and the lowest-index accepted restart wins, as in a
one-at-a-time loop; the search's rows still in Adam are then dropped.  Each
row carries its own weights, step count and stall window, so its arithmetic
is that of a run on that row alone: results do not depend on which rows
share a step, and every run with the same configuration is bit-for-bit
reproducible.  `dc-lab search` and each sweep cell run one scan generator
through the engine, which searches K = d+1, d+2, ... in turn, and a sweep
worker runs all of its cells through one engine.

A failed search is evidence, not proof: results label such outcomes
"not found (heuristic)".  Only the closed-form exclusion predicates from
:mod:`dc_lab.analysis` justify the label "excluded (proven)".
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .analysis import (
    VERIFY_TOL,
    _diagonal_of,
    _max_pairwise_residual,
    _weighted_gram,
    bns_excluded,
    verify_family,
    wcsg_bound,
)
from .families import EncodingFamily, shift_diag_family
from .linalg import UNITARITY_TOL, unitarity_residual
from .states import SchmidtState, _is_int, _member_stack, entropy_bits, make_state

# Adam: step size, moment decay rates and epsilon, scale of the random start,
# the objective below which a restart hands off to the polish, and the
# relative improvement a stall window must make.
STEP_SIZE = 0.15
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
INIT_SCALE = 1.0
HANDOFF_TOL = 1e-6
STALL_RTOL = 1e-3

# Levenberg-Marquardt polish: initial damping, its lower and upper limits,
# the stops on the objective and on the largest gradient entry, and the
# ceiling on its iterations.  The damping is mu times the identity, a trust
# region in the body-frame coordinates, whose basis rows have norm 1 or
# sqrt(2).  Saturated states have singular Jacobians, yet at base_seeds 1-60
# the first polish verifies within 308 iterations at (4/6, 2/6, 0, 0), K = 6.
LM_MU_START = 1e-3
LM_MU_MIN = 1e-14
LM_MU_MAX = 1e12
LM_F_STOP = 1e-28
LM_GRAD_STOP = 1e-15
LM_MAX_ITERS = 2000

# A grid point within this of a mandatory sweep state stands for it.
GRID_MATCH_TOL = 1e-12


@dataclass
class SearchConfig:
    """Knobs for the restart search; defaults suit d <= 5 desk-scale runs."""

    max_k: int | None = None
    restarts: int = 50
    max_iters: int = 2000
    accept_tol: float = VERIFY_TOL
    stall_window: int = 200
    base_seed: int = 42

    def __post_init__(self):
        lows = {"restarts": 1, "max_iters": 1, "stall_window": 1, "base_seed": 0}
        for name, low in lows.items():
            value = getattr(self, name)
            if not _is_int(value) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.max_k is not None and not _is_int(self.max_k):
            raise ValueError(f"max_k must be an integer or None, got {self.max_k!r}")
        if not 0 < self.accept_tol < math.inf:
            raise ValueError(f"accept_tol must be positive and finite, got {self.accept_tol!r}")


@dataclass(frozen=True)
class KAttempt:
    """Outcome of the search at one family size."""

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
        self.pairs = (iu, ju)
        self.basis, self.dual = _hermitian_basis(d)
        self.eye = np.eye(d)

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

    def _objective(self, stack: np.ndarray, lam: np.ndarray):
        """Per-row objective and the weighted Gram matrices."""
        t = _weighted_gram(stack, lam)
        # Each row's value must not depend on the row count.  So: squares of
        # the real and imaginary parts (complex np.abs rounds differently in
        # its vector and scalar loops), summed along C-ordered rows (a plain
        # fancy index returns columns, which np.sum adds in another order).
        tp = t.reshape(t.shape[0], -1).take(self.pair_flat, axis=1)
        return np.sum(tp.real * tp.real + tp.imag * tp.imag, axis=1), t

    def objective(self, ufree: np.ndarray) -> np.ndarray:
        """Objective of every row of free members, shape (R,)."""
        return self._objective(self.members(ufree), self.lam)[0]

    def objective_and_gradient(self, ufree: np.ndarray, lam: np.ndarray, chart=None):
        """Objective (R,) and gradient (R, nparam) of every row of free members
        under weights `lam`: this search's (d,), or one (R, 1, 1, d) row each.

        The gradient is in the body-frame coordinates at H = 0, where
        d cay(H) = i dH: with Omega_m = U_m^dag G_m and
        G_m = sum_j conj(T_mj) U_j Lambda, it is 2 Im tr(Omega_m dH/dtheta).
        For members U = cay(H) away from H = 0, where d cay(H) = i A^-1 dH A^-1
        with A = I - iH/2, `chart` = A^-1 gives the gradient in H instead.
        """
        d, k = self.d, self.k
        stack = self.members(ufree)
        rows = stack.shape[0]
        f, t = self._objective(stack, lam)
        c = t.conj()
        c.reshape(rows, k * k)[:, :: k + 1] = 0.0
        g = (c[:, self.nf :] @ stack.reshape(rows, k, d * d)).reshape(ufree.shape) * lam
        omega = ufree.conj().swapaxes(-1, -2) @ g
        if chart is not None:
            omega = chart @ omega @ chart.conj().swapaxes(-1, -2)
        return f, 2.0 * self.trace_layout(omega).imag.reshape(rows, self.nparam)

    def trace_layout(self, z: np.ndarray) -> np.ndarray:
        """Coefficients of the parameters in tr(Z dH), for (..., d, d) Z -> (..., d^2)."""
        return z.reshape(z.shape[:-2] + (-1,)) @ self.dual


def objective(weights, family) -> float:
    """Sum of squared pairwise weighted traces; zero iff the family is valid."""
    lam = _diagonal_of(weights)
    t = _weighted_gram(_member_stack(family, lam.shape[0]), lam)
    iu, ju, _ = _pairs(t.shape[0])
    return float(np.sum(np.abs(t[iu, ju]) ** 2))


def objective_and_gradient(state: SchmidtState, theta, k: int, fixed=None):
    """Public wrapper exposing the search objective and analytic gradient.

    `theta`, a finite 1-D vector of (k - len(fixed)) d^2 reals, parametrizes
    the free members appended after the fixed prefix (the identity by
    default), d^2 reals each, for an integer k in [d, d^2]: each is the
    Cayley transform cay(H) = (I - iH/2)^{-1} (I + iH/2) of a Hermitian H,
    the chart the search steps in around each member.
    """
    fixed_stack = _prepare_fixed(state, fixed)
    _check_k(state.d, k, fixed_stack.shape[0])
    if k == fixed_stack.shape[0]:
        raise ValueError("no free members to differentiate")
    prob = _Problem(state, k, fixed_stack)
    theta = np.asarray(theta)
    if theta.shape != (prob.nparam,) or theta.dtype.kind not in "iuf" or not np.all(np.isfinite(theta)):
        raise ValueError(f"theta must be a finite 1-D vector of {prob.nparam} reals, got shape {theta.shape}")
    a = np.eye(state.d) - 0.5j * prob.hermitian(theta)
    chart = np.linalg.inv(a)
    f, grad = prob.objective_and_gradient(chart @ a.conj().swapaxes(-1, -2), prob.lam, chart)
    return float(f[0]), grad[0]


# ---------------------------------------------------------------------------
# Levenberg-Marquardt polish


def _residuals_and_jacobian(prob: _Problem, ufree: np.ndarray):
    """Real and imaginary parts of every pair trace for one row of free
    members (1, n_free, d, d), with their Jacobian in its coordinates."""
    nf, dd = prob.nf, prob.d * prob.d
    stack = prob.members(ufree)[0]
    iu, ju = prob.pairs
    tvals = _weighted_gram(stack, prob.lam)[iu, ju]
    # s[m, q] = -i tr(B_a U_m^dag U_q Lambda) is d tr(Lambda U_m^dag U_q) /
    # d theta_m for free member m on the dagger side; on the other side the
    # derivative is its conjugate.
    s = -1j * prob.trace_layout(stack[nf:, None].conj().swapaxes(-1, -2) @ (stack * prob.lam)[None])
    jc = np.zeros((iu.size, prob.n_free, dd), dtype=np.complex128)
    left = np.nonzero(iu >= nf)[0]
    jc[left, iu[left] - nf] = s[iu[left] - nf, ju[left]]
    right = np.nonzero(ju >= nf)[0]
    jc[right, ju[right] - nf] = s[ju[right] - nf, iu[right]].conj()
    jc = jc.reshape(iu.size, prob.nparam)
    return np.concatenate([tvals.real, tvals.imag]), np.concatenate([jc.real, jc.imag])


def _lm_polish(prob: _Problem, ufree: np.ndarray, tol: float):
    """Polish one row of free members until every pair residual is within tol
    or one of LM's own stops is reached; returns the members and objective.
    Each step solves (J^T J + mu I) delta = -J^T r: in the body frame, mu
    bounds the step alike in every direction, flat ones included."""
    r, jac = _residuals_and_jacobian(prob, ufree)
    f = float(r @ r)
    a, g = jac.T @ jac, jac.T @ r
    mu = LM_MU_START
    n = r.size // 2
    eye = np.eye(prob.nparam)
    for _ in range(LM_MAX_ITERS):
        if f <= LM_F_STOP or np.max(np.abs(r[:n] + 1j * r[n:])) <= tol or np.max(np.abs(g)) < LM_GRAD_STOP:
            break
        try:
            delta = np.linalg.solve(a + mu * eye, -g)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(a + mu * eye, -g, rcond=None)[0]
        trial = ufree @ prob.cayley(delta)
        ft = float(prob.objective(trial)[0])
        if ft < f:
            ufree = trial
            f = ft
            mu = max(mu / 3.0, LM_MU_MIN)
            r, jac = _residuals_and_jacobian(prob, ufree)
            a, g = jac.T @ jac, jac.T @ r
        else:
            mu *= 4.0
            if mu > LM_MU_MAX:
                break
    return ufree, f


# ---------------------------------------------------------------------------
# lockstep Adam engine


class _Batch:
    """Rows of one search that joined a group together, at group step
    `joined`: `restarts` are the restart indices of those still in Adam, in
    row order, and `end` is one past the batch's last restart."""

    def __init__(self, search: int, prob: _Problem, group: _Group, first: int, size: int):
        self.search, self.prob, self.group, self.joined = search, prob, group, group.clock
        self.restarts = list(range(first, first + size))
        self.end = first + size


class _Group:
    """The Adam rows of every search that shares d, K, the fixed prefix,
    max_iters and stall_window, stepped in lockstep.

    Each step moves every member U to U cay(H), with H from the Adam step in
    body-frame coordinates.  A row leaves once its best value is below
    HANDOFF_TOL, at the end of one of its stall windows that improved it by
    less than STALL_RTOL, or after max_iters steps.  Each row has its own
    weights, moments and stall mark, and each batch its own step count, so
    what a row leaves with is what a run on that row alone gives.  A batch's
    rows are contiguous, in the order the batches joined.  Each batch's stall
    tests, its max_iters stop and its first stall test sit in tables keyed
    by the group's step count, so a step looks them up instead of testing
    every batch.
    """

    def __init__(self, prob: _Problem, cfg: SearchConfig):
        self.prob = prob
        self.max_iters, self.window = cfg.max_iters, cfg.stall_window
        self.clock = 0
        self.batches: list[_Batch] = []
        self.rows = None  # members, weights, moments, stall marks, best members and values
        self.tests: dict[int, list[_Batch]] = {}  # step -> batches with a stall test or max_iters then
        self.firsts: dict[int, list[_Batch]] = {}  # step -> batches at their first stall test then

    def join(self, search: int, prob: _Problem, first: int, start: np.ndarray) -> _Batch:
        """Add (R, n_free, d, d) starting members of `search` under prob's
        weights, as its restarts first, first + 1, ..."""
        n, lam = start.shape[0], prob.lam
        new = (
            np.array(start, dtype=np.complex128),
            np.broadcast_to(lam.reshape(1, 1, 1, -1), (n, 1, 1, lam.size)),
            np.zeros((n, self.prob.nparam)),
            np.zeros((n, self.prob.nparam)),
            np.full(n, np.inf),
            np.array(start, dtype=np.complex128),
            np.full(n, np.inf),
        )
        self.rows = new if self.rows is None else tuple(np.concatenate(pair) for pair in zip(self.rows, new))
        batch = _Batch(search, prob, self, first, n)
        self.batches.append(batch)
        self._schedule(batch, min(self.window, self.max_iters))
        # at step stall_window the stall mark is still inf, so no row can stall
        self.firsts.setdefault(self.clock + 2 * self.window, []).append(batch)
        return batch

    def _schedule(self, batch: _Batch, t: int) -> None:
        self.tests.setdefault(batch.joined + t, []).append(batch)

    def _spans(self):
        """Each batch with the slice of its rows."""
        row = 0
        for batch in self.batches:
            n = len(batch.restarts)
            yield batch, slice(row, row + n)
            row += n

    def drop(self, search: int) -> None:
        """Take every row of `search` out of Adam."""
        keep = np.ones(self.rows[0].shape[0], dtype=bool)
        for batch, rows in self._spans():
            if batch.search == search:
                keep[rows] = False
                batch.restarts = []
        self.batches = [batch for batch in self.batches if batch.restarts]
        self.rows = tuple(a[keep] for a in self.rows) if self.batches else None

    def step(self):
        """One Adam step of every row.  Returns the rows that left, in row
        order, as (batch, (restart, members (1, n_free, d, d), value)) at
        each row's best value, and the batches at their first stall test."""
        u, lam, mom, vel, mark, best_u, best_f = self.rows
        f, g = self.prob.objective_and_gradient(u, lam)
        better = f < best_f
        np.copyto(best_f, f, where=better)
        np.copyto(best_u, u, where=better[:, None, None, None])
        self.clock += 1
        leave = best_f < HANDOFF_TOL
        tests = self.tests.pop(self.clock, None)
        if tests:
            spans = dict(self._spans())
            for batch in tests:
                rows = spans.get(batch)
                if rows is None:  # every row of the batch has left
                    continue
                t = self.clock - batch.joined
                if t == self.max_iters:
                    leave[rows] = True
                else:
                    leave[rows] |= best_f[rows] > mark[rows] * (1 - STALL_RTOL)
                    mark[rows] = best_f[rows]
                    self._schedule(batch, min(t + self.window, self.max_iters))
        firsts = self.firsts.pop(self.clock, [])
        left = []
        if leave.any():
            for batch, rows in self._spans():
                gone = leave[rows]
                if gone.any():
                    for j in np.flatnonzero(gone):
                        r = rows.start + j
                        left.append((batch, (batch.restarts[j], best_u[r : r + 1].copy(), best_f[r])))
                    batch.restarts = [restart for restart, out in zip(batch.restarts, gone) if not out]
            self.batches = [batch for batch in self.batches if batch.restarts]
            if not self.batches:
                self.rows = None
                return left, firsts
            keep = ~leave
            u, lam, mom, vel, mark, best_u, best_f, g = (
                a[keep] for a in (u, lam, mom, vel, mark, best_u, best_f, g)
            )
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        steps = [self.clock - batch.joined for batch in self.batches]
        if len(steps) == 1:  # a batch by itself: no column to build
            c1, c2 = 1 - b1 ** steps[0], 1 - b2 ** steps[0]
        else:
            # the same Python floats as a column, one entry per row; division
            # by either rounds alike
            sizes = [len(batch.restarts) for batch in self.batches]
            c1, c2 = np.repeat([[1 - b**t for t in steps] for b in (b1, b2)], sizes, axis=1)[:, :, None]
        mom = b1 * mom + (1 - b1) * g
        vel = b2 * vel + (1 - b2) * g * g
        mhat = mom / c1
        vhat = vel / c2
        u = u @ self.prob.cayley(-STEP_SIZE * mhat / (np.sqrt(vhat) + ADAM_EPS))
        self.rows = (u, lam, mom, vel, mark, best_u, best_f)
        return left, firsts


def _run(searches: list) -> list:
    """Drive search generators through one lockstep engine; returns what each
    returns, in order.

    A search yields a batch (prob, start, cfg), where start holds (R,
    n_free, d, d) starting members, or None, and is sent (left, due) when
    rows of it leave Adam or its next batch falls due.  `left` lists
    (restart, members, value) for each row that left, at its best value,
    with rows numbered in the order they joined; `due` says that it may
    submit its next batch now.  That is at the first stall test of its
    latest batch, or once every row it has in Adam has left, whichever comes
    first.  A batch under another `_Problem` starts a new search, and the
    rows of the last one still in Adam are dropped, as are a search's rows
    when it returns.  Every search reaches the engine here: `find_family`
    runs one `_find`, and `estimate_nmax` and each sweep cell one
    `_estimate`, whose K scan runs one `_find` after another.
    """
    groups: dict = {}
    results = [None] * len(searches)
    latest = [None] * len(searches)  # each search's last batch
    pending = [0] * len(searches)  # its rows in Adam

    def drop(i):
        if pending[i]:
            latest[i].group.drop(i)
            pending[i] = 0

    def advance(i, sent):
        try:
            request = searches[i].send(sent)
        except StopIteration as stop:
            results[i] = stop.value
            drop(i)
            latest[i] = None
            return
        if request is None:
            return
        prob, start, cfg = request
        first = 0
        if latest[i] is not None and latest[i].prob is prob:
            first = latest[i].end
        else:
            drop(i)
        key = (prob.d, prob.k, prob.fixed.tobytes(), cfg.max_iters, cfg.stall_window)
        if key not in groups:
            groups[key] = _Group(prob, cfg)
        latest[i] = groups[key].join(i, prob, first, start)
        pending[i] += start.shape[0]

    for i in range(len(searches)):
        advance(i, None)
    while groups:
        for group in list(groups.values()):
            left, firsts = group.step()
            woken: dict[int, list] = {}
            for batch, row in left:
                woken.setdefault(batch.search, []).append(row)
                pending[batch.search] -= 1
            due = {batch.search for batch in firsts if batch is latest[batch.search]}
            for i in due:
                woken.setdefault(i, [])
            for i, rows in woken.items():
                advance(i, (rows, i in due or not pending[i]))
        for key in [key for key, group in groups.items() if not group.batches]:
            del groups[key]
    return results


def _one_batch(prob: _Problem, start: np.ndarray, cfg: SearchConfig):
    """One batch of rows as a search for `_run`: returns each row's best
    members (R, n_free, d, d) and value (R,) once every row has left."""
    members, values = np.empty_like(start), np.empty(start.shape[0])
    request, waiting = (prob, start, cfg), start.shape[0]
    while waiting:
        left, _ = yield request
        request = None
        for restart, ufree, f in left:
            members[restart], values[restart] = ufree[0], f
        waiting -= len(left)
    return members, values


def _adam(prob: _Problem, start: np.ndarray, cfg: SearchConfig):
    """Adam on the rows of one batch by themselves: each row's best members
    (R, n_free, d, d) and value (R,).  The tests' one-search reference."""
    return _run([_one_batch(prob, start, cfg)])[0]


# ---------------------------------------------------------------------------
# public search operations


def _prepare_fixed(state: SchmidtState, fixed) -> np.ndarray:
    if fixed is None:
        return np.eye(state.d, dtype=np.complex128)[None]
    stack = _member_stack(fixed, state.d)
    for i, m in enumerate(stack):
        res = unitarity_residual(m)
        if res > UNITARITY_TOL:
            raise ValueError(f"fixed member {i} is not unitary: residual {res:.3e}")
    return stack


def _check_k(d: int, k, n_fixed: int) -> None:
    """Refuse a family size k that is not an integer in [d, d^2] or is below
    the number of fixed members."""
    if not _is_int(k):
        raise ValueError(f"family size k must be an integer, got {k!r}")
    if not d <= k <= d * d:
        raise ValueError(f"family size {k} outside [{d}, {d * d}]")
    if n_fixed > k:
        raise ValueError(f"{n_fixed} fixed members exceed family size {k}")


def _witness(state: SchmidtState, k: int, stack: np.ndarray, tol: float):
    """The members as a search witness when `verify_family` passes them at tol, else None."""
    if not verify_family(stack, state, tol=tol).passed:
        return None
    return EncodingFamily(d=state.d, members=tuple(stack), label=f"search-K{k}", target_lambda0=state.lambda0)


def _find(state: SchmidtState, k: int, cfg: SearchConfig, fixed=None):
    """find_family as a search generator for `_run`.

    Restarts run in batches of 1, 2, 4, ... rows, one random draw per batch,
    and each batch joins Adam when `_run` says it is due, so a batch need not
    wait for the one before it to finish.  Rows are resolved in restart order
    as they leave: a row whose Adam value is below HANDOFF_TOL is polished,
    then verified, and the search stops at the first that passes, dropping
    the rows it still has in Adam.  A search whose first restart hands off
    and verifies before its first stall test steps that restart only.
    """
    fixed_stack = _prepare_fixed(state, fixed)
    _check_k(state.d, k, fixed_stack.shape[0])
    if fixed_stack.shape[0] == k:
        return objective(state.lambdas, fixed_stack), _witness(state, k, fixed_stack, cfg.accept_tol)
    prob = _Problem(state, k, fixed_stack)
    rng = np.random.default_rng(cfg.base_seed)
    best, closest = np.inf, None
    waiting = {}  # restart -> (members, value) of rows that left before a lower restart
    drawn, resolved, size, due = 0, 0, 1, True
    while resolved < cfg.restarts:
        batch = None
        if due and drawn < cfg.restarts:
            size = min(size, cfg.restarts - drawn)
            # one (size, nparam) draw yields the numbers of size one-row draws
            batch = prob, prob.cayley(INIT_SCALE * rng.standard_normal((size, prob.nparam))), cfg
            drawn += size
            size *= 2
        left, due = yield batch
        waiting.update((restart, (ufree, f)) for restart, ufree, f in left)
        while resolved in waiting:
            ufree, f = waiting.pop(resolved)
            resolved += 1
            if f < HANDOFF_TOL:
                ufree, f = _lm_polish(prob, ufree, cfg.accept_tol)
            stack = prob.members(ufree)[0]
            witness = _witness(state, k, stack, cfg.accept_tol)
            if witness is not None:
                return objective(state.lambdas, stack), witness
            if closest is None or f < best:
                best, closest = f, stack
    return objective(state.lambdas, closest), None


def find_family(state: SchmidtState, k: int, cfg: SearchConfig, fixed=None):
    """Search for k weighted-orthogonal unitaries for the given state.

    Returns (objective, witness).  The witness is the first restart whose
    members pass `verify_family` at cfg.accept_tol, or None when no restart
    does; the objective is the witness's, or else that of the restart that
    came closest.  With all k members fixed, they are the one candidate.
    """
    return _run([_find(state, k, cfg, fixed)])[0]


def _check_max_k(cfg: SearchConfig, d: int) -> None:
    if cfg.max_k is not None and cfg.max_k < d:
        raise ValueError(f"max_k={cfg.max_k} is below d={d}; K=d is always achievable")


@functools.lru_cache(maxsize=16)
def _shift_witness(d: int) -> EncodingFamily:
    """The K = d witness {X^k}, valid for every state; cached, its members read-only."""
    return shift_diag_family(d, [np.ones(d)] * d)


def _found(state: SchmidtState, k: int, best: float, fam: EncodingFamily) -> KAttempt:
    residual = _max_pairwise_residual(_member_stack(fam, state.d), state.lambdas)
    return KAttempt(k=k, status="found", best_objective=best, max_pair_residual=residual)


def _estimate(state: SchmidtState, cfg: SearchConfig):
    """estimate_nmax as a search generator for `_run`: each K it must search
    runs as `_find` batches.  Returns the SearchResult."""
    d = state.d
    _check_max_k(cfg, d)
    cap = min(cfg.max_k if cfg.max_k is not None else d * d, wcsg_bound(state))
    shifts = _shift_witness(d)
    attempts = [_found(state, d, objective(state, shifts), shifts)]
    witnesses: dict[int, EncodingFamily] = {d: shifts}
    for k in range(d + 1, cap + 1):
        if bns_excluded(state, k):
            attempts.append(
                KAttempt(k=k, status="excluded (proven)", best_objective=None, max_pair_residual=None)
            )
            break
        best, fam = yield from _find(state, k, cfg)
        if fam is None:
            attempts.append(
                KAttempt(k=k, status="not found (heuristic)", best_objective=best, max_pair_residual=None)
            )
            break
        witnesses[k] = fam
        attempts.append(_found(state, k, best, fam))
    return SearchResult(
        d=d,
        lambdas=tuple(float(x) for x in state.lambdas),
        seed=cfg.base_seed,
        attempts=tuple(attempts),
        witnesses=witnesses,
        n_max_estimate=max(witnesses),
    )


def estimate_nmax(state: SchmidtState, cfg: SearchConfig) -> SearchResult:
    """Estimate the largest K the state supports, scanning K = d, d+1, ...

    K = d needs no search: the shift family {X^k} is valid for every state,
    so it is recorded as found with that witness.  The scan never queries K
    beyond the weight bound, stops at the first K that is neither found nor
    provably excluded, and reports the last certified K.  A failed K is
    heuristic evidence only.  The scan is one search generator run through
    the lockstep engine, as each cell of `region_sweep` is.
    """
    return _run([_estimate(state, cfg)])[0]


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
    proven target states (uniform, (3/5, 2/5, 0), (3/5, 1/5, 1/5)).
    """
    if not _is_int(resolution):
        raise ValueError(f"resolution must be an integer, got {resolution!r}")
    if resolution < 4:
        raise ValueError(f"resolution must be at least 4, got {resolution}")
    n = resolution
    corners = np.asarray(_TRIANGLE_CORNERS)
    pts: list[tuple[float, float, float]] = []
    for a in range(n):
        for b in range(n - a):
            c = n - 1 - a - b
            bary = np.array([a + 1 / 3, b + 1 / 3, c + 1 / 3]) / n
            lam = bary @ corners
            pts.append((float(lam[0]), float(lam[1]), float(lam[2])))
    for target in MANDATORY_SWEEP_STATES:
        if not any(max(abs(p[i] - target[i]) for i in range(3)) <= GRID_MATCH_TOL for p in pts):
            pts.append(target)
    return pts


def _cell_state(d: int, lam3: tuple[float, float, float]) -> SchmidtState:
    padded = list(lam3) + [0.0] * (d - 3)
    return make_state(d, padded)


def _refusal_objective(result: SearchResult) -> float | None:
    for attempt in result.attempts:
        if attempt.status != "found":
            return attempt.best_objective
    return None


def _sweep_share(tasks: list) -> list[RegionCell]:
    """One worker's cells, each one estimate_nmax generator, all run through
    one engine."""
    cells = [(index, lam3, _cell_state(d, lam3), cfg) for index, lam3, d, cfg in tasks]
    results = _run([_estimate(state, cfg) for _, _, state, cfg in cells])
    return [
        RegionCell(
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
        for (index, lam3, state, cfg), result in zip(cells, results)
    ]


def _worker_count(workers: int | None, tasks: int) -> int:
    """Worker processes for `tasks` cells: the request (or DC_LAB_THREADS),
    clamped to at least one and at most the task and CPU counts."""
    cpus = os.cpu_count() or 1
    if workers is None:
        env = os.environ.get("DC_LAB_THREADS")
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(f"DC_LAB_THREADS must be an integer, got {env!r}") from None
    elif not _is_int(workers):
        raise ValueError(f"workers must be an integer or None, got {workers!r}")
    if workers is None:
        workers = cpus
    return max(1, min(workers, tasks, cpus))


def sweep_grid(resolution: int, cfg: SearchConfig, d: int = 3) -> list[tuple[float, float, float]]:
    """The weight triples a sweep visits, once its inputs are checked.

    Raises ValueError for a d or resolution that is not an integer, d < 3, a
    max_k below d or a resolution below 4, so a caller can refuse a sweep
    before it starts anything.
    """
    if not _is_int(d):
        raise ValueError(f"dimension d must be an integer, got {d!r}")
    if d < 3:
        raise ValueError("the sweep needs at least three weights; use d >= 3")
    _check_max_k(cfg, d)
    return triangle_grid(resolution)


def region_sweep(
    resolution: int, cfg: SearchConfig, d: int = 3, workers: int | None = None
) -> RegionMap:
    """Estimate N_max over the weight triangle, one estimate_nmax per cell.

    Cell i carries seed base_seed XOR i and goes to worker i mod n, where n
    is `workers` (or DC_LAB_THREADS) clamped to the cell and CPU counts; with
    n > 1 each worker is a process.  A worker runs all of its cells through
    one lockstep engine, so the Adam rows of different cells share kernel
    calls.  A cell's result is the one estimate_nmax gives for it alone,
    whatever the worker count, and cells are returned in index order, so the
    map is reproducible for a fixed seed.  For d > 3 the triangle states are
    padded with zero weights.
    """
    pts = sweep_grid(resolution, cfg, d)
    if d != 3:
        warnings.warn(f"sweep triangle is defined for d=3; padding zeros up to d={d}")
    tasks = [
        (idx, lam3, d, dataclasses.replace(cfg, base_seed=cfg.base_seed ^ idx))
        for idx, lam3 in enumerate(pts)
    ]
    nworkers = _worker_count(workers, len(tasks))
    if nworkers > 1:
        # imported here: the pool pulls in multiprocessing, which nothing
        # else needs
        from concurrent.futures import ProcessPoolExecutor

        shares = [tasks[w::nworkers] for w in range(nworkers)]
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            cells = [cell for share in pool.map(_sweep_share, shares) for cell in share]
    else:
        cells = _sweep_share(tasks)
    cells.sort(key=lambda cell: cell.index)
    return RegionMap(d=d, resolution=resolution, base_seed=cfg.base_seed, cells=tuple(cells))
