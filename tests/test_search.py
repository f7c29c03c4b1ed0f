import dataclasses
import functools
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import random_sorted_weights
from dc_lab import search
from dc_lab.analysis import verify_family, wcsg_bound
from dc_lab.families import qutrit_five_family, shift, shift_diag_family
from dc_lab.linalg import unitarity_residual
from dc_lab.search import (
    SearchConfig,
    _adam,
    _cell_state,
    _lm_polish,
    _prepare_fixed,
    _Problem,
    _residuals_and_jacobian,
    _run,
    _worker_count,
    estimate_nmax,
    find_family,
    objective,
    objective_and_gradient,
    region_sweep,
    triangle_grid,
)
from dc_lab.states import entropy_bits, make_state

PSI_L = make_state(3, [3 / 5, 2 / 5, 0])
PSI_H = make_state(3, [3 / 5, 1 / 5, 1 / 5])
UNIFORM3 = make_state(3, [1 / 3] * 3)


def test_objective_zero_for_five_family():
    assert objective(PSI_L, qutrit_five_family()) <= 1e-20


def test_objective_duplicate_identity():
    st = make_state(3, [0.5, 0.3, 0.2])
    assert objective(st, [np.eye(3), np.eye(3)]) == pytest.approx(1.0)


def test_objective_identity_and_shift_at_uniform():
    assert objective(UNIFORM3, [np.eye(3), shift(3)]) <= 1e-30


def test_objective_nonnegative_and_matches_verification(rng):
    st = make_state(3, random_sorted_weights(rng, 3))
    fam = qutrit_five_family()
    val = objective(PSI_L, fam)
    assert val >= 0.0
    # zero objective corresponds to verification at the square-root tolerance
    assert verify_family(fam, PSI_L, tol=1e-5).passed
    assert objective(st, [np.eye(3), np.eye(3)]) > 0


def test_gradient_matches_central_differences(rng):
    st = make_state(3, [0.5, 0.3, 0.2])
    k, d = 3, 3
    nparam = (k - 1) * d * d
    for _ in range(5):
        theta = rng.standard_normal(nparam)
        _, grad = objective_and_gradient(st, theta, k)
        step = 1e-6
        fd = np.zeros(nparam)
        for p in range(nparam):
            plus = theta.copy()
            plus[p] += step
            minus = theta.copy()
            minus[p] -= step
            fd[p] = (
                objective_and_gradient(st, plus, k)[0] - objective_and_gradient(st, minus, k)[0]
            ) / (2 * step)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel <= 1e-6


def test_find_family_finds_five_at_psi_l():
    cfg = SearchConfig(restarts=10, base_seed=7)
    best, fam = find_family(PSI_L, 5, cfg)
    assert fam is not None
    assert best <= cfg.accept_tol
    assert np.array_equal(fam.members[0], np.eye(3))
    assert verify_family(fam, PSI_L, tol=1e-5).passed


def test_find_family_range_checks():
    cfg = SearchConfig(restarts=1)
    with pytest.raises(ValueError):
        find_family(PSI_L, 2, cfg)
    with pytest.raises(ValueError):
        find_family(PSI_L, 10, cfg)


def test_find_family_with_fixed_prefix_cannot_extend_shift_family(rng):
    d = 3
    state = make_state(d, [0.62, 0.23, 0.15])
    diags = [np.ones(d)] + [np.exp(2j * np.pi * rng.random(d)) for _ in range(d - 1)]
    prefix = shift_diag_family(d, diags)
    cfg = SearchConfig(restarts=2, max_iters=250, base_seed=11)
    best, fam = find_family(state, d + 1, cfg, fixed=prefix)
    assert fam is None
    assert best > 1e-6


def test_find_family_all_fixed_members():
    cfg = SearchConfig(restarts=1)
    fam = shift_diag_family(3, [np.ones(3)] * 3)
    best, witness = find_family(UNIFORM3, 3, cfg, fixed=fam)
    assert witness is not None
    assert best <= 1e-20


@pytest.mark.parametrize(
    "fixed, error",
    [
        ([np.eye(4)], "shape"),
        ([np.eye(3), np.eye(4)], None),
        ([np.full((3, 3), np.nan)], "finite"),
        ([2 * np.eye(3)], "not unitary"),
    ],
    ids=["wrong-d", "mixed-shapes", "nan", "not-unitary"],
)
def test_find_family_rejects_a_bad_fixed_prefix(fixed, error):
    with pytest.raises(ValueError, match=error):
        find_family(PSI_L, 4, SearchConfig(restarts=1), fixed=fixed)


def test_estimate_nmax_small_cases():
    cfg = SearchConfig(restarts=6, base_seed=5)
    res = estimate_nmax(make_state(2, [0.5, 0.5]), cfg)
    assert res.n_max_estimate == 4
    res2 = estimate_nmax(make_state(2, [0.9, 0.1]), cfg)
    assert res2.n_max_estimate == 2
    assert [a.k for a in res2.attempts] == [2]


def test_estimate_nmax_marks_proven_exclusion():
    state = make_state(3, [3 / 4, 1 / 8, 1 / 8])
    cfg = SearchConfig(restarts=4, base_seed=1)
    res = estimate_nmax(state, cfg)
    assert res.n_max_estimate == 3
    statuses = {a.k: a.status for a in res.attempts}
    assert statuses[3] == "found"
    assert statuses[4] == "excluded (proven)"
    assert res.attempts[-1].best_objective is None


def test_estimate_nmax_never_exceeds_weight_bound(rng):
    cfg = SearchConfig(restarts=2, max_iters=200, base_seed=0)
    for _ in range(5):
        state = make_state(2, random_sorted_weights(rng, 2))
        res = estimate_nmax(state, cfg)
        assert res.n_max_estimate <= wcsg_bound(state)


def test_search_determinism_bit_stable():
    cfg = SearchConfig(restarts=4, base_seed=123)
    first = estimate_nmax(make_state(2, [0.6, 0.4]), cfg)
    second = estimate_nmax(make_state(2, [0.6, 0.4]), cfg)
    assert first.n_max_estimate == second.n_max_estimate
    assert first.attempts == second.attempts
    for k in first.witnesses:
        for a, b in zip(first.witnesses[k].members, second.witnesses[k].members):
            assert np.array_equal(a, b)


def test_restart_monotonicity_on_refused_search():
    small = SearchConfig(restarts=5, max_iters=120, base_seed=9)
    large = dataclasses.replace(small, restarts=50)
    best_small, _ = find_family(PSI_H, 5, small)
    best_large, _ = find_family(PSI_H, 5, large)
    assert best_large <= best_small + 1e-18


def test_triangle_grid_counts_and_membership():
    pts = triangle_grid(4)
    assert len(pts) == 4 * 5 // 2 + 3
    for lam0, lam1, lam2 in pts:
        assert lam0 >= lam1 >= lam2 >= -1e-15
        assert abs(lam0 + lam1 + lam2 - 1) <= 1e-12
    pts12 = triangle_grid(12)
    assert len(pts12) == 78 + 3
    for target in ((1 / 3, 1 / 3, 1 / 3), (0.6, 0.4, 0.0), (0.6, 0.2, 0.2)):
        assert any(max(abs(p[i] - target[i]) for i in range(3)) <= 1e-12 for p in pts12)


def test_triangle_grid_rejects_low_resolution():
    with pytest.raises(ValueError):
        triangle_grid(3)


def test_region_sweep_sequential_deterministic():
    cfg = SearchConfig(restarts=2, max_iters=150, base_seed=17)
    first = region_sweep(4, cfg, workers=1)
    second = region_sweep(4, cfg, workers=1)
    assert first.cells == second.cells
    assert [c.index for c in first.cells] == list(range(13))
    for cell in first.cells:
        assert cell.seed == 17 ^ cell.index
        assert abs(cell.lambda0 + cell.lambda1 + cell.lambda2 - 1) <= 1e-12
        assert cell.n_max_estimate <= cell.wcsg_bound


def test_a_sweep_cell_is_its_own_estimate_nmax():
    cfg = SearchConfig(restarts=2, max_iters=150, base_seed=17)
    cells = region_sweep(4, cfg, workers=1).cells
    assert len(cells) == 13
    refusals = 0
    for cell in cells:
        state = _cell_state(3, (cell.lambda0, cell.lambda1, cell.lambda2))
        alone = estimate_nmax(state, dataclasses.replace(cfg, base_seed=17 ^ cell.index))
        refusal = next((a.best_objective for a in alone.attempts if a.status != "found"), None)
        assert cell.n_max_estimate == alone.n_max_estimate
        assert cell.best_objective_at_refusal == refusal
        assert cell.entropy_bits == entropy_bits(state)
        assert cell.wcsg_bound == wcsg_bound(state)
        refusals += refusal is not None
    assert refusals > 0


@pytest.mark.parametrize("workers", [2, 3])
def test_region_sweep_parallel_matches_sequential(workers, monkeypatch):
    # three workers get uneven shares of the 13 cells: 5, 4 and 4
    monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
    cfg = SearchConfig(restarts=1, max_iters=100, base_seed=2)
    seq = region_sweep(4, cfg, workers=1)
    par = region_sweep(4, cfg, workers=workers)
    assert seq.cells == par.cells


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda cfg: make_state(3.0, [0.5, 0.3, 0.2]), "dimension d"),
        (lambda cfg: make_state(True, [1.0]), "dimension d"),
        (lambda cfg: region_sweep(4.5, cfg), "resolution"),
        (lambda cfg: region_sweep(True, cfg), "resolution"),
        (lambda cfg: region_sweep(4, cfg, workers=1.5), "workers"),
        (lambda cfg: region_sweep(4, cfg, workers=True), "workers"),
        (lambda cfg: region_sweep(4, cfg, d=3.0), "dimension d"),
        (lambda cfg: region_sweep(4, cfg, d=True), "dimension d"),
        (lambda cfg: find_family(PSI_L, 5.0, cfg), "family size k"),
        (lambda cfg: find_family(PSI_L, True, cfg), "family size k"),
        (lambda cfg: objective_and_gradient(PSI_L, np.zeros(36), 5.0), "family size k"),
        (lambda cfg: objective_and_gradient(PSI_L, np.zeros(36), True), "family size k"),
    ],
    ids=[
        "state-d-float",
        "state-d-bool",
        "resolution-float",
        "resolution-bool",
        "workers-float",
        "workers-bool",
        "sweep-d-float",
        "sweep-d-bool",
        "k-float",
        "k-bool",
        "gradient-k-float",
        "gradient-k-bool",
    ],
)
def test_sizes_must_be_integers(call, name):
    with pytest.raises(ValueError, match=name):
        call(SearchConfig(restarts=1, max_iters=10))


@pytest.mark.parametrize(
    "theta",
    [
        np.zeros(72),
        np.zeros(35),
        np.zeros((1, 36)),
        np.zeros(()),
        np.full(36, np.nan),
        np.r_[np.zeros(35), np.inf],
        np.zeros(36, dtype=complex),
        ["0"] * 36,
    ],
    ids=["two-rows", "short", "2-d", "scalar", "nan", "inf", "complex", "strings"],
)
def test_gradient_theta_must_be_a_finite_vector_of_the_right_length(theta):
    # PSI_L at K = 5 has four free members of 9 coordinates each
    with pytest.raises(ValueError, match="theta .* 36 reals"):
        objective_and_gradient(PSI_L, theta, 5)


@pytest.mark.parametrize(
    "k, fixed, message",
    [(2, None, "outside"), (10, None, "outside"), (3, [np.eye(3)] * 4, "exceed"), (3, [np.eye(3)] * 3, "no free")],
)
def test_gradient_family_size_is_checked_as_the_search_checks_it(k, fixed, message):
    with pytest.raises(ValueError, match=message):
        objective_and_gradient(UNIFORM3, np.zeros(9), k, fixed=fixed)


def test_region_sweep_dimension_validation():
    cfg = SearchConfig(restarts=1)
    with pytest.raises(ValueError):
        region_sweep(4, cfg, d=2)
    with pytest.raises(ValueError):
        region_sweep(3, cfg)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(restarts=0)
    for tol in (0.0, -1e-10, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="accept_tol"):
            SearchConfig(accept_tol=tol)
    with pytest.raises(ValueError):
        SearchConfig(base_seed=-1)


@pytest.mark.parametrize(
    "field,value",
    [
        ("restarts", 2.5),
        ("restarts", True),
        ("restarts", "3"),
        ("max_iters", 0),
        ("max_iters", -5),
        ("max_iters", 100.0),
        ("stall_window", 0),
        ("stall_window", None),
        ("base_seed", 1.0),
        ("base_seed", False),
        ("max_k", 4.0),
        ("max_k", True),
        ("max_k", "5"),
    ],
)
def test_search_config_requires_integer_knobs(field, value):
    with pytest.raises(ValueError, match=field):
        SearchConfig(**{field: value})


def test_search_config_accepts_integer_knobs_at_their_limits():
    cfg = SearchConfig(restarts=1, max_iters=1, stall_window=1, base_seed=0, max_k=np.int64(5))
    assert estimate_nmax(PSI_L, cfg).attempts[0].status == "found"
    assert SearchConfig(restarts=np.int64(2)).restarts == 2


def _reference_basis(d):
    """The parameter-block basis and its adjoint, built as _Problem once built them inline."""
    iu0, iu1 = np.triu_indices(d, 1)
    unit = np.eye(d * d)
    upper, lower = unit[iu0 * d + iu1], unit[iu1 * d + iu0]
    basis = np.concatenate([unit[np.arange(d) * (d + 1)], upper + lower, 1j * (upper - lower)])
    return basis, np.ascontiguousarray(basis.conj().T)


@pytest.mark.parametrize("d,k", [(3, 5), (4, 7)])
def test_index_tables_are_built_once_and_read_only(d, k):
    state = make_state(d, [1 / d] * d)
    theta = np.random.default_rng(d).standard_normal((k - 1) * d * d)
    search._pairs.cache_clear()
    search._hermitian_basis.cache_clear()
    cold = objective_and_gradient(state, theta, k)
    warm = objective_and_gradient(state, theta, k)
    assert cold[0] == warm[0] and np.array_equal(cold[1], warm[1])
    first, second = _problem(state, k), _problem(state, k)
    assert first.basis is second.basis and first.dual is second.dual and first.pair_flat is second.pair_flat
    for got, want in zip((first.basis, first.dual), _reference_basis(d)):
        assert np.array_equal(got, want)
    iu, ju = np.triu_indices(k, 1)
    assert np.array_equal(first.pairs[0], iu) and np.array_equal(first.pairs[1], ju)
    assert np.array_equal(first.pair_flat, iu * k + ju)
    for table in (first.basis, first.dual, first.pair_flat, *first.pairs):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


def test_import_leaves_the_process_pool_out():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys, dc_lab; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _problem(state, k, fixed=None):
    return _Problem(state, k, _prepare_fixed(state, fixed))


@pytest.mark.parametrize("states", [[PSI_H], [PSI_L], [PSI_H, PSI_L]], ids=["stalls", "hands-off", "mixed"])
def test_adam_batch_matches_one_row_runs(states, monkeypatch):
    # Short stall windows make the rows leave the batch at different steps.
    # In the mixed case the psi_L rows join the psi_H rows' group 150 steps
    # after them: their search first holds one psi_H row in a group of its
    # own for exactly 150 steps (psi_H never hands off at K = 5, and the
    # psi_H rows of the main group cannot stall before step 200).
    cfg = SearchConfig(max_iters=600, stall_window=100)
    wait = SearchConfig(max_iters=150, stall_window=151)
    probs = [_problem(state, 5) for state in states]
    starts = [prob.cayley(np.random.default_rng(3 + i).standard_normal((5, prob.nparam))) for i, prob in enumerate(probs)]

    def batch_after_wait(i):
        if i:
            yield from search._one_batch(probs[0], starts[0][:1], wait)
        return (yield from search._one_batch(probs[i], starts[i], cfg))

    shared = []
    step = search._Group.step
    monkeypatch.setattr(search._Group, "step", lambda group: shared.append({b.search for b in group.batches}) or step(group))
    results = _run([batch_after_wait(i) for i in range(len(states))])
    monkeypatch.undo()
    assert (len(states) > 1) == ({0, 1} in shared)
    for prob, start, (best_members, best_f) in zip(probs, starts, results):
        for row in range(start.shape[0]):
            one_members, one_f = _adam(prob, start[row : row + 1], cfg)
            assert np.array_equal(one_members[0], best_members[row])
            assert one_f[0] == best_f[row]


@pytest.mark.parametrize(
    "weights, k", [((3 / 5, 1 / 5, 1 / 5), 5), ((0.6, 0.2, 0.1, 0.1), 7)], ids=["d3-k5", "d4-k7"]
)
def test_members_stay_unitary_through_a_full_adam_run(weights, k):
    # neither state supports k, so no row hands off and each takes 2000 Cayley steps
    state = make_state(len(weights), weights)
    prob = _problem(state, k)
    start = prob.cayley(np.random.default_rng(k).standard_normal((2, prob.nparam)))
    members, f = _adam(prob, start, SearchConfig(max_iters=2000, stall_window=2000))
    assert np.all(f > search.HANDOFF_TOL)
    assert max(unitarity_residual(m) for m in members.reshape(-1, state.d, state.d)) <= 1e-12


def _one_restart_at_a_time(state, k, cfg):
    """The search as a plain loop: one draw and Adam run per restart, a polish
    when Adam hands off, and acceptance when verify_family passes.  Returns
    every restart's members, objective, and whether it was polished and passed."""
    prob = _problem(state, k)
    rng = np.random.default_rng(cfg.base_seed)
    runs = []
    for _ in range(cfg.restarts):
        start = prob.cayley(search.INIT_SCALE * rng.standard_normal((1, prob.nparam)))
        members, values = _adam(prob, start, cfg)
        f, polished = values[0], values[0] < search.HANDOFF_TOL
        if polished:
            members, f = _lm_polish(prob, members, cfg.accept_tol)
        members = prob.members(members)[0]
        runs.append((members, f, polished, verify_family(members, state, tol=cfg.accept_tol).passed))
    return runs


@pytest.mark.parametrize(
    "weights, k, cfg, accepted, polished",
    [
        # restart 0 stops short of the hand-off in 300 Adam steps (at the
        # default budget restart 0 verifies at every base_seed 1-79);
        # restarts 1 and 2 both pass verification in the second batch (rows
        # 1-2), and 2 reaches the lower objective: restart 1 must win
        ((4 / 6, 2 / 6, 0, 0), 6, SearchConfig(restarts=3, max_iters=300, base_seed=17), 1, [False, True, True]),
        # refused: lambda0 > d/K, so no valid family exists; both restarts
        # hand off near 1e-7, are polished and fail verification
        ((0.6001, 0.3999, 0), 5, SearchConfig(restarts=2, base_seed=1), None, [True, True]),
        # refused: every restart stalls, and none is polished
        ((3 / 5, 1 / 5, 1 / 5), 5, SearchConfig(restarts=4, max_iters=200, base_seed=9), None, [False] * 4),
    ],
    ids=["found-late", "refused-after-polish", "refused"],
)
def test_find_family_matches_one_restart_at_a_time(weights, k, cfg, accepted, polished):
    state = make_state(len(weights), weights)
    runs = _one_restart_at_a_time(state, k, cfg)
    assert [run[2] for run in runs] == polished
    passed = [i for i, run in enumerate(runs) if run[3]]
    best, fam = find_family(state, k, cfg)
    if accepted is None:
        assert passed == [] and fam is None
        ref_members = min(runs, key=lambda run: run[1])[0]
    else:
        assert passed[:2] == [accepted, accepted + 1] and runs[accepted + 1][1] < runs[accepted][1]
        ref_members = runs[accepted][0]
        assert all(np.array_equal(a, b) for a, b in zip(fam.members, ref_members))
    assert best == objective(state, ref_members)


def _schedule(monkeypatch):
    """Log the engine's joins as (step, first restart, rows), the rows that
    leave Adam as (step, restart), and the number of rows in every step."""
    joins, leaves, rows = [], [], []
    join, step = search._Group.join, search._Group.step

    def logged_join(group, i, prob, first, start):
        joins.append((group.clock, first, start.shape[0]))
        return join(group, i, prob, first, start)

    def logged_step(group):
        rows.append(group.rows[0].shape[0])
        left, firsts = step(group)
        leaves.extend((group.clock, restart) for _, (restart, _, _) in left)
        return left, firsts

    monkeypatch.setattr(search._Group, "join", logged_join)
    monkeypatch.setattr(search._Group, "step", logged_step)
    return joins, leaves, rows


def test_next_batch_joins_at_the_first_stall_test(monkeypatch):
    # restart 0 survives its first stall test, at step 2 * stall_window = 400,
    # so restarts 1-2 join then, not when restart 0 stalls; restart 3 joins at
    # their first stall test
    joins, leaves, _ = _schedule(monkeypatch)
    _, fam = find_family(PSI_H, 5, SearchConfig(restarts=4, base_seed=42))
    assert fam is None
    assert joins == [(0, 0, 1), (400, 1, 2), (800, 3, 1)]
    assert sorted(restart for _, restart in leaves) == [0, 1, 2, 3]
    assert dict((restart, at) for at, restart in leaves)[0] > 800


def test_a_first_restart_that_verifies_before_its_stall_test_steps_alone(monkeypatch):
    # restart 0 hands off at step 128 and verifies, so no other restart joins;
    # at psi_L, K = 5 and base_seed 1, restart 0 runs past step 400 instead
    joins, _, rows = _schedule(monkeypatch)
    _, fam = find_family(make_state(3, [0.51, 0.30, 0.19]), 5, SearchConfig(base_seed=1))
    assert fam is not None
    assert joins == [(0, 0, 1)]
    assert set(rows) == {1} and len(rows) < 400


def test_acceptance_joins_no_later_batch(monkeypatch):
    # restart 0 stops at max_iters = 300 unpolished, and restarts 1-2 join
    # then; restart 2 leaves first but waits for restart 1, which verifies, so
    # restart 2 is never polished and restarts 3-6 (due at step 700) never join
    state = make_state(4, [4 / 6, 2 / 6, 0, 0])
    cfg = SearchConfig(restarts=50, max_iters=300, base_seed=17)
    runs = _one_restart_at_a_time(state, 6, dataclasses.replace(cfg, restarts=2))
    assert [(run[2], run[3]) for run in runs] == [(False, False), (True, True)]
    joins, leaves, _ = _schedule(monkeypatch)
    polished = []
    polish = search._lm_polish
    monkeypatch.setattr(search, "_lm_polish", lambda *args: polished.append(1) or polish(*args))
    best, fam = find_family(state, 6, cfg)
    assert joins == [(0, 0, 1), (300, 1, 2)]
    assert leaves[0] == (300, 0) and [restart for _, restart in leaves[1:]] == [2, 1]
    assert len(polished) == 1
    assert all(np.array_equal(a, b) for a, b in zip(fam.members, runs[1][0]))
    assert best == objective(state, runs[1][0])


def test_acceptance_drops_the_rows_still_in_adam(monkeypatch):
    # restart 0 verifies when it leaves Adam, with restarts 1 and 3-6 still in
    # Adam: the engine takes no further step
    joins, leaves, rows = _schedule(monkeypatch)
    _, fam = find_family(PSI_L, 5, SearchConfig(base_seed=1))
    assert fam is not None
    assert joins == [(0, 0, 1), (400, 1, 2), (800, 3, 4)]
    assert [restart for _, restart in leaves] == [2, 0]
    assert len(rows) == leaves[-1][0] and rows[-1] == 6


@pytest.mark.parametrize(
    "weights, k, fixed",
    [
        ((0.5, 0.3, 0.2), 5, None),
        ((0.5, 0.3, 0.2), 5, [np.eye(3), shift(3)]),
    ],
    ids=["identity-prefix", "two-member-prefix"],
)
def test_jacobian_matches_central_differences(weights, k, fixed, rng):
    # the Jacobian is taken at theta = 0 of the moves U_m -> U_m cay(H(theta))
    state = make_state(3, weights)
    prob = _problem(state, k, fixed)
    members = prob.cayley(rng.standard_normal((1, prob.nparam)))
    r, jac = _residuals_and_jacobian(prob, members)
    assert jac.shape == (r.size, prob.nparam)
    step = 1e-6
    fd = np.empty_like(jac)
    for p, e in enumerate(step * np.eye(prob.nparam)):
        plus, minus = members @ prob.cayley(e), members @ prob.cayley(-e)
        fd[:, p] = (_residuals_and_jacobian(prob, plus)[0] - _residuals_and_jacobian(prob, minus)[0]) / (2 * step)
    assert np.linalg.norm(jac - fd) <= 1e-6 * np.linalg.norm(fd)


def test_worker_count_clamps_to_tasks_and_cpus(monkeypatch):
    monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
    monkeypatch.delenv("DC_LAB_THREADS", raising=False)
    assert _worker_count(None, 13) == 4
    assert _worker_count(None, 2) == 2
    assert _worker_count(64, 13) == 4
    assert _worker_count(0, 13) == 1
    monkeypatch.setenv("DC_LAB_THREADS", "1000")
    assert _worker_count(None, 13) == 4
    assert _worker_count(None, 3) == 3
    monkeypatch.setenv("DC_LAB_THREADS", "two")
    with pytest.raises(ValueError, match="DC_LAB_THREADS"):
        _worker_count(None, 13)


def test_estimate_nmax_takes_k_equal_d_from_the_shift_family(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("K = d must not be searched")

    monkeypatch.setattr(search, "_find", no_search)
    # K = 4 is excluded by the strict bound, so nothing here needs a search
    state = make_state(3, [3 / 4, 1 / 8, 1 / 8])
    res = estimate_nmax(state, SearchConfig(base_seed=1))
    assert [(a.k, a.status) for a in res.attempts] == [(3, "found"), (4, "excluded (proven)")]
    assert res.n_max_estimate == 3
    assert res.attempts[0].best_objective == 0.0
    assert verify_family(res.witnesses[3], state).passed
    # the witness is built once per d and shared by every result
    assert estimate_nmax(UNIFORM3, SearchConfig(max_k=3)).witnesses[3] is res.witnesses[3]


def test_estimate_nmax_rejects_max_k_below_d():
    with pytest.raises(ValueError, match="max_k"):
        estimate_nmax(PSI_L, SearchConfig(max_k=2))
    assert estimate_nmax(PSI_L, SearchConfig(max_k=3)).n_max_estimate == 3


# Each attempt's (k, status, repr(best_objective)) and the sha256 of the
# witness members' complex128 bytes (in increasing K), for a default search
# at base_seed=1, as recorded with numpy 2.4 and its bundled OpenBLAS on
# x86-64.  Another LAPACK may round the Cayley solves differently and change them.
RECORDED_SEARCHES = {
    (3 / 5, 2 / 5, 0.0): (
        [(3, "found", "0.0"), (4, "found", "1.076599320412877e-21"), (5, "found", "1.023627907735352e-20")],
        "f20c8ded654466e9a05901380e88ec8606a4593a76c27a70810e782b4daa1eed",
    ),
    (3 / 5, 1 / 5, 1 / 5): (
        [(3, "found", "0.0"), (4, "found", "1.3010163974877347e-24"), (5, "not found (heuristic)", "0.001463609440482416")],
        "243be263605a6639f0742f79b34cd42d62467ba046c001b8004a7a0e52335910",
    ),
    (4 / 6, 2 / 6, 0.0, 0.0): (
        [(4, "found", "0.0"), (5, "found", "1.07389107210931e-23"), (6, "found", "5.650863026832261e-20")],
        "5034757455ef24a8bdfc561b3d8a01859e75213454418207b95092617bd98122",
    ),
}


@functools.lru_cache(maxsize=None)
def _search_at_seed_1(weights):
    """The recorded search, and the family size of every LM polish it ran.
    It runs with np.linalg.eigh raising, so it completes only without eigh."""
    state = make_state(len(weights), weights)
    polished = []
    polish = search._lm_polish

    def counted(prob, *args):
        polished.append(prob.k)
        return polish(prob, *args)

    def no_eigh(*args, **kwargs):
        raise AssertionError("the search must not call eigh")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_lm_polish", counted)
        mp.setattr(np.linalg, "eigh", no_eigh)
        result = estimate_nmax(state, SearchConfig(base_seed=1))
    return state, result, polished


@pytest.mark.parametrize("weights", list(RECORDED_SEARCHES), ids=["psi-l", "psi-h", "d4-k6"])
def test_search_outputs_match_the_recording(weights):
    _, result, _ = _search_at_seed_1(weights)
    attempts, digest = RECORDED_SEARCHES[weights]
    assert [(a.k, a.status, repr(a.best_objective)) for a in result.attempts] == attempts
    h = hashlib.sha256()
    for k in sorted(result.witnesses):
        for m in result.witnesses[k].members:
            h.update(np.ascontiguousarray(m, dtype=np.complex128).tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("weights", list(RECORDED_SEARCHES), ids=["psi-l", "psi-h", "d4-k6"])
def test_found_pair_residual_is_the_one_verify_reports(weights):
    state, result, _ = _search_at_seed_1(weights)
    found = [a for a in result.attempts if a.status == "found"]
    assert found
    for attempt in found:
        report = verify_family(result.witnesses[attempt.k], state)
        assert report.passed
        assert attempt.max_pair_residual == report.max_pairwise_residual


@pytest.mark.parametrize("weights, n_max", [((3 / 5, 2 / 5, 0.0), 5), ((3 / 5, 1 / 5, 1 / 5), 4)], ids=["psi-l", "psi-h"])
def test_search_runs_without_eigh(weights, n_max):
    # _search_at_seed_1 makes np.linalg.eigh raise
    _, result, _ = _search_at_seed_1(weights)
    assert result.n_max_estimate == n_max


def test_headline_refusal_polishes_no_restart():
    # all 50 restarts at K = 5 stall near 1.46e-3, far above the hand-off
    _, result, polished = _search_at_seed_1((3 / 5, 1 / 5, 1 / 5))
    assert result.attempts[-1].k == 5 and result.attempts[-1].status == "not found (heuristic)"
    assert 4 in polished
    assert polished.count(5) == 0


@pytest.mark.parametrize("seed", range(1, 7))
def test_saturated_rank_deficient_witnesses_verify(seed, monkeypatch):
    # (4/6, 2/6, 0, 0) saturates K = 6, where the LM Jacobian is singular.
    # The first polished restart must verify: with damping scaled by
    # diag(J^T J), the first polish ended at pair residuals 4.8e-6 (seed 1)
    # and 3.1e-10 (seed 6), and a second restart had to be polished
    state = make_state(4, [4 / 6, 2 / 6, 0, 0])
    polished = []
    polish = search._lm_polish
    monkeypatch.setattr(search, "_lm_polish", lambda *args: polished.append(1) or polish(*args))
    _, witness = find_family(state, 6, SearchConfig(base_seed=seed))
    assert len(polished) == 1
    assert witness is not None
    assert verify_family(witness, state).passed
