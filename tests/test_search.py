import dataclasses
import functools
import hashlib
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import random_sorted_weights
from dc_lab import search
from dc_lab.analysis import KC_RESIDUAL_TOL, VERIFY_TOL, kc_span_check, verify_family, wcsg_bound
from dc_lab.families import family_2dm1, family_dp2, qutrit_five_family, shift, shift_diag_family
from dc_lab.linalg import unitarity_residual
from dc_lab.search import (
    KAttempt,
    SearchConfig,
    _lm_polish,
    _prepare_fixed,
    _Problem,
    _jacobian,
    _residuals,
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


@pytest.mark.parametrize(
    "weights, k",
    [((0.5, 0.3, 0.2), 3), ((3 / 5, 2 / 5, 0), 5), ((3 / 5, 1 / 5, 1 / 5), 5), ((4 / 7, 3 / 7, 0, 0), 7)],
    ids=["unsaturated-k3", "psi-l-k5", "psi-h-k5", "d4-k7"],
)
def test_gradient_matches_central_differences(rng, weights, k):
    # the saturated cases carry span blocks in the search, which the pair
    # objective leaves out
    st = make_state(len(weights), weights)
    d = st.d
    nparam = (k - 1) * d * d
    for _ in range(5):
        theta = rng.standard_normal(nparam)
        f, grad = objective_and_gradient(st, theta, k)
        h = (theta.reshape(-1, d * d) @ _reference_basis(d)[0]).reshape(-1, d, d)
        free = np.linalg.solve(np.eye(d) - 0.5j * h, np.eye(d) + 0.5j * h)
        assert f == pytest.approx(objective(st, [np.eye(d), *free]), rel=1e-12)
        step = 1e-6
        fd = np.zeros(nparam)
        for p in range(nparam):
            plus = theta.copy()
            plus[p] += step
            minus = theta.copy()
            minus[p] -= step
            fd[p] = (objective_and_gradient(st, plus, k)[0] - objective_and_gradient(st, minus, k)[0]) / (2 * step)
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
    with pytest.raises(ValueError, match=re.escape("family has 2 members, outside [3, 9]")):
        find_family(PSI_L, 2, cfg)
    with pytest.raises(ValueError, match=re.escape("family has 10 members, outside [3, 9]")):
        find_family(PSI_L, 10, cfg)


def test_find_family_with_fixed_prefix_cannot_extend_shift_family(rng):
    d = 3
    state = make_state(d, [0.62, 0.23, 0.15])
    diags = [np.ones(d)] + [np.exp(2j * np.pi * rng.random(d)) for _ in range(d - 1)]
    prefix = shift_diag_family(d, diags)
    cfg = SearchConfig(restarts=2, base_seed=11)
    best, fam = find_family(state, d + 1, cfg, fixed=prefix)
    assert fam is None
    assert best > 1e-6


def test_find_family_refuses_more_fixed_members_than_the_family_size():
    fixed = [np.linalg.matrix_power(shift(3), j) for j in range(4)]
    with pytest.raises(ValueError, match="4 fixed members exceed family size 3"):
        find_family(UNIFORM3, 3, SearchConfig(restarts=1), fixed=fixed)


def test_find_family_all_fixed_members():
    cfg = SearchConfig(restarts=1)
    fam = shift_diag_family(3, [np.ones(3)] * 3)
    best, witness = find_family(UNIFORM3, 3, cfg, fixed=fam)
    assert witness is not None
    assert best <= 1e-20


@pytest.mark.parametrize(
    "fixed, error",
    [
        ([np.eye(4)], "member 0 of fixed has shape (4, 4), expected (3, 3)"),
        ([np.eye(3), np.eye(4)], "member 1 of fixed has shape (4, 4), expected (3, 3)"),
        (np.eye(3), "expected a 2-D matrix, got shape (3,)"),
        ([np.full((3, 3), np.nan)], "matrix entries must be finite"),
        ([2 * np.eye(3)], "member 0 of fixed is not unitary: residual 3.000e+00"),
        ([np.eye(3), 2 * np.eye(3)], "member 1 of fixed is not unitary: residual 3.000e+00"),
    ],
    ids=["wrong-d", "mixed-shapes", "one-matrix", "nan", "not-unitary", "second-not-unitary"],
)
def test_find_family_rejects_a_bad_fixed_prefix(fixed, error):
    """Each fixed member is checked once, in the constructors' words
    (`families._checked_member`); a shape check in the words of
    `states._members` ran first and made theirs unreachable."""
    with pytest.raises(ValueError, match=re.escape(error)):
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
    cfg = SearchConfig(restarts=2, base_seed=0)
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
    small = SearchConfig(restarts=5, base_seed=9)
    large = dataclasses.replace(small, restarts=50)
    best_small, _ = find_family(PSI_H, 5, small)
    best_large, _ = find_family(PSI_H, 5, large)
    assert best_large <= best_small + 1e-18


@pytest.mark.parametrize("n", [4, 5, 12, 40])
def test_triangle_grid_counts_and_membership(n):
    # the centroids' barycentric coordinates are at least 1/(3n) and each
    # target has one equal to 0, so no centroid comes within 1/(12n) of a
    # target: the targets are always appended
    pts = triangle_grid(n)
    assert len(pts) == n * (n + 1) // 2 + 3
    assert tuple(pts[-3:]) == search.MANDATORY_SWEEP_STATES
    for lam0, lam1, lam2 in pts:
        assert lam0 >= lam1 >= lam2 >= -1e-15
        assert abs(lam0 + lam1 + lam2 - 1) <= 1e-12
    for p in pts[:-3]:
        for target in search.MANDATORY_SWEEP_STATES:
            assert max(abs(p[i] - target[i]) for i in range(3)) >= 1 / (12 * n)


def test_triangle_grid_rejects_low_resolution():
    with pytest.raises(ValueError):
        triangle_grid(3)


def test_region_sweep_sequential_deterministic(monkeypatch):
    monkeypatch.setenv("DC_LAB_THREADS", "1")
    cfg = SearchConfig(restarts=2, base_seed=17)
    first = region_sweep(4, cfg)
    second = region_sweep(4, cfg)
    assert first.cells == second.cells
    assert [c.index for c in first.cells] == list(range(13))
    for cell in first.cells:
        assert cell.seed == 17 ^ cell.index
        assert abs(cell.lambda0 + cell.lambda1 + cell.lambda2 - 1) <= 1e-12
        assert cell.n_max_estimate <= cell.wcsg_bound


def test_a_sweep_cell_is_its_own_estimate_nmax(monkeypatch):
    monkeypatch.setenv("DC_LAB_THREADS", "1")
    cfg = SearchConfig(restarts=2, base_seed=17)
    cells = region_sweep(4, cfg).cells
    assert len(cells) == 13
    refusals = 0
    for cell in cells:
        state = make_state(3, [cell.lambda0, cell.lambda1, cell.lambda2])
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
    # the pool hands out the 13 cells one at a time, so which worker runs
    # which cell depends on timing; the map must not
    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    cfg = SearchConfig(restarts=1, base_seed=2)
    monkeypatch.setenv("DC_LAB_THREADS", "1")
    seq = region_sweep(4, cfg)
    monkeypatch.setenv("DC_LAB_THREADS", str(workers))
    par = region_sweep(4, cfg)
    assert seq.cells == par.cells


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda cfg: make_state(3.0, [0.5, 0.3, 0.2]), "dimension d"),
        (lambda cfg: make_state(True, [1.0]), "dimension d"),
        (lambda cfg: region_sweep(4.5, cfg), "resolution"),
        (lambda cfg: region_sweep(True, cfg), "resolution"),
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
        "k-float",
        "k-bool",
        "gradient-k-float",
        "gradient-k-bool",
    ],
)
def test_sizes_must_be_integers(call, name):
    with pytest.raises(ValueError, match=name):
        call(SearchConfig(restarts=1))


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


@pytest.mark.parametrize("k", [2, 10], ids=["2-outside", "10-outside"])
def test_gradient_family_size_is_checked_as_the_search_checks_it(k):
    with pytest.raises(ValueError, match=re.escape(f"family has {k} members, outside [3, 9]")):
        objective_and_gradient(UNIFORM3, np.zeros(9), k)


def test_region_sweep_is_the_qutrit_triangle(monkeypatch):
    monkeypatch.setenv("DC_LAB_THREADS", "1")
    cfg = SearchConfig(restarts=1)
    with pytest.raises(ValueError):
        region_sweep(3, cfg)
    with pytest.raises(TypeError, match="'d'"):
        region_sweep(4, cfg, d=3)
    assert region_sweep(4, SearchConfig(restarts=1, max_k=4)).d == 3


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(restarts=0)
    # stall_window and max_iters are no longer fields: a caller that still
    # passes one fails loudly
    for field in ("stall_window", "max_iters"):
        with pytest.raises(TypeError, match=field):
            SearchConfig(**{field: 200})
    for tol in (0.0, -1e-10, float("nan"), float("inf"), True, "x"):
        with pytest.raises(ValueError, match="accept_tol"):
            SearchConfig(accept_tol=tol)
    with pytest.raises(ValueError):
        SearchConfig(base_seed=-1)


def test_search_config_is_frozen():
    # a field set after construction would skip the checks: with restarts = 0
    # a search would return no members at all
    cfg = SearchConfig(restarts=1, max_k=4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.restarts = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.accept_tol = "x"
    with pytest.raises(ValueError, match="restarts"):
        dataclasses.replace(cfg, restarts=0)
    with pytest.raises(ValueError, match="accept_tol"):
        dataclasses.replace(cfg, accept_tol="x")
    assert dataclasses.replace(cfg, base_seed=7) == SearchConfig(restarts=1, max_k=4, base_seed=7)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: estimate_nmax([0.6, 0.4, 0.0], SearchConfig()), "state"),
        (lambda: find_family([0.6, 0.4, 0.0], 5, SearchConfig()), "state"),
        (lambda: objective_and_gradient([0.6, 0.4, 0.0], np.zeros(36), 5), "state"),
        (lambda: estimate_nmax(PSI_L, {"restarts": 1}), "cfg"),
        (lambda: region_sweep(4, {"restarts": 1}), "cfg"),
    ],
    ids=["estimate-state", "find-state", "gradient-state", "estimate-cfg", "sweep-cfg"],
)
def test_search_entry_points_check_argument_types(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be a"):
        call()


@pytest.mark.parametrize(
    "field,value",
    [
        ("restarts", 2.5),
        ("restarts", True),
        ("restarts", "3"),
        ("base_seed", 1.0),
        ("base_seed", False),
        ("max_k", 4.0),
        ("max_k", True),
        ("max_k", "5"),
        # only max_k may be None
        ("restarts", None),
        ("base_seed", None),
    ],
)
def test_search_config_requires_integer_knobs(field, value):
    with pytest.raises(ValueError, match=field):
        SearchConfig(**{field: value})


def test_search_config_accepts_integer_knobs_at_their_limits():
    cfg = SearchConfig(restarts=1, base_seed=0, max_k=np.int64(5))
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
    pairs = search._pairs(k)
    assert np.array_equal(pairs[0], iu) and np.array_equal(pairs[1], ju)
    assert np.array_equal(first.pair_flat, iu * k + ju)
    for table in (first.basis, first.dual, first.pair_flat, *pairs):
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


@pytest.mark.parametrize(
    "weights, k", [((3 / 5, 1 / 5, 1 / 5), 7), ((0.6, 0.2, 0.1, 0.1), 9)], ids=["d3-k7", "d4-k9"]
)
def test_members_stay_unitary_through_a_refused_polish(weights, k):
    # neither state supports k, so each polish runs until its halving stop,
    # a Cayley step per iteration
    state = make_state(len(weights), weights)
    prob = _problem(state, k)
    for row in np.random.default_rng(k).standard_normal((2, prob.nparam)):
        stack, _ = _lm_polish(prob, prob.cayley(row), VERIFY_TOL)
        assert not verify_family(stack, state).passed
        assert max(unitarity_residual(m) for m in stack[prob.nf :]) <= 1e-12


def _one_restart_at_a_time(state, k, cfg):
    """The search as a plain loop: one draw and one polish per restart, and
    acceptance when verify_family passes.  Returns every restart's members,
    pair objective, and whether it passed."""
    prob = _problem(state, k)
    rng = np.random.default_rng(cfg.base_seed)
    runs = []
    for _ in range(cfg.restarts):
        start = prob.cayley(rng.standard_normal((1, prob.nparam)))
        members = search._lm_polish(prob, start, cfg.accept_tol)[0]
        runs.append((members, objective(state, members), verify_family(members, state, tol=cfg.accept_tol).passed))
    return runs


@pytest.mark.parametrize(
    "weights, k, cfg, unpolished, accepted",
    [
        # restart 0 is left at its random start and fails verification, so
        # restart 1, polished from the second draw, is accepted before
        # restart 2 is drawn (at the default budget restart 0 verifies at
        # every base_seed 1-20)
        ((4 / 6, 2 / 6, 0, 0), 6, SearchConfig(restarts=3, base_seed=78), 1, 1),
        # refused: lambda0 > d/K, so no valid family exists; the closest of
        # the two polished restarts is reported
        ((0.6001, 0.3999, 0), 5, SearchConfig(restarts=2, base_seed=1), 0, None),
        # refused: K = 7 lies beyond the weight bound
        ((3 / 5, 1 / 5, 1 / 5), 7, SearchConfig(restarts=4, base_seed=9), 0, None),
    ],
    ids=["found-late", "refused-near-saturation", "refused"],
)
def test_find_family_matches_one_restart_at_a_time(weights, k, cfg, unpolished, accepted, monkeypatch):
    polish, calls = search._lm_polish, []

    def leave_the_first_unpolished(prob, start, tol):
        calls.append(1)
        return (prob.members(start)[0], None) if len(calls) <= unpolished else polish(prob, start, tol)

    monkeypatch.setattr(search, "_lm_polish", leave_the_first_unpolished)
    state = make_state(len(weights), weights)
    runs = _one_restart_at_a_time(state, k, cfg)
    passed = [i for i, run in enumerate(runs) if run[2]]
    calls.clear()
    best, fam = find_family(state, k, cfg)
    if accepted is None:
        assert passed == [] and fam is None
        ref_members = min(runs, key=lambda run: run[1])[0]
    else:
        assert passed[0] == accepted and len(calls) == accepted + 1
        ref_members = runs[accepted][0]
        assert all(np.array_equal(a, b) for a, b in zip(fam.members, ref_members))
    assert best == objective(state, ref_members)


@pytest.mark.parametrize(
    "weights, k, fixed",
    [
        ((0.5, 0.3, 0.2), 5, None),
        ((0.5, 0.3, 0.2), 5, [np.eye(3), shift(3)]),
        ((3 / 5, 1 / 5, 1 / 5), 5, None),
        ((3 / 5, 1 / 5, 1 / 5), 5, [np.eye(3), shift(3)]),
        ((3 / 5, 2 / 5, 0), 5, None),
        ((4 / 7, 3 / 7, 0, 0), 7, [np.eye(4), shift(4)]),
    ],
    ids=["identity-prefix", "two-member-prefix", "saturated", "saturated-prefix", "saturated-zero-weight", "saturated-d4"],
)
def test_jacobian_matches_central_differences(weights, k, fixed, rng):
    # the Jacobian is taken at theta = 0 of the moves U_m -> U_m cay(H(theta));
    # at lambda0 = d/K the residuals carry a span block per nonzero weight
    state = make_state(len(weights), weights)
    prob = _problem(state, k, fixed)
    blocks = 0 if prob.span is None else np.count_nonzero(state.lambdas) * state.d**2
    assert (blocks > 0) == (abs(state.lambda0 - state.d / k) < 1e-12)
    members = prob.cayley(rng.standard_normal((1, prob.nparam)))
    stack, r = _residuals(prob, members)
    jac = _jacobian(prob, stack)
    assert r.shape == (k * (k - 1) // 2 + blocks,)
    assert jac.shape == (r.size, prob.nparam)
    step = 1e-6
    fd = np.empty_like(jac)
    for p, e in enumerate(step * np.eye(prob.nparam)):
        plus, minus = members @ prob.cayley(e), members @ prob.cayley(-e)
        fd[:, p] = (_residuals(prob, plus)[1] - _residuals(prob, minus)[1]) / (2 * step)
    assert np.linalg.norm(jac - fd) <= 1e-6 * np.linalg.norm(fd)


@pytest.mark.parametrize(
    "weights, k, fixed",
    [
        ((0.5, 0.3, 0.2), 5, None),
        ((0.5, 0.3, 0.2), 5, [np.eye(3), shift(3)]),
        ((3 / 5, 1 / 5, 1 / 5), 5, None),
        ((4 / 7, 3 / 7, 0, 0), 7, [np.eye(4), shift(4), shift(4) @ shift(4)]),
    ],
    ids=["identity-prefix", "two-member-prefix", "saturated", "saturated-d4-three-member-prefix"],
)
def test_a_pair_row_touches_only_the_blocks_of_its_free_members(weights, k, fixed, rng):
    state = make_state(len(weights), weights)
    prob = _problem(state, k, fixed)
    assert (prob.span is not None) == (weights[0] == state.d / k)
    stack, _ = _residuals(prob, prob.cayley(rng.standard_normal((1, prob.nparam))))
    jac = _jacobian(prob, stack)[: prob.pair_flat.size].reshape(-1, prob.n_free, state.d**2)
    iu, ju = np.triu_indices(k, 1)
    for row, i, j in zip(jac, iu, ju):
        touched = [m - prob.nf for m in (i, j) if m >= prob.nf]
        assert all(np.any(row[m] != 0) for m in touched)
        assert np.all(np.delete(row, touched, axis=0) == 0)


def _target(fam):
    """The state a constructed family saturates: (lambda0, 1 - lambda0, 0, ...)."""
    return make_state(fam.d, [fam.target_lambda0, 1 - fam.target_lambda0] + [0.0] * (fam.d - 2))


@pytest.mark.parametrize(
    "fam",
    [family_dp2(d) for d in range(3, 9)]
    + [family_2dm1(d) for d in range(4, 9)],
    ids=lambda fam: f"{fam.label}-d{fam.d}",
)
def test_span_blocks_vanish_on_exact_saturated_families(fam):
    state = _target(fam)
    k = len(fam.members)
    stack = np.asarray(fam.members)
    prob = _problem(state, k, fixed=stack[:1])
    assert prob.span is not None
    _, r = _residuals(prob, stack[None, 1:])
    assert r.size == k * (k - 1) // 2 + 2 * state.d**2
    assert np.max(np.abs(r)) <= 1e-12


def test_a_state_just_below_saturation_is_searched_without_the_span_blocks():
    # lambda0 = 3/5 - 5e-10 lies within 1e-9 of d/K = 3/5, but its
    # families miss the span blocks by about 5e-10: with the blocks, the LM
    # ended between the two, and none of these restarts verified
    state = make_state(3, [3 / 5 - 5e-10, 2 / 5 + 5e-10, 0])
    assert _problem(state, 5).span is None
    _, witness = find_family(state, 5, SearchConfig(restarts=5, base_seed=1))
    assert witness is not None


@pytest.mark.parametrize(
    "weights, k",
    [((1 / 3, 1 / 3, 1 / 3), 9), ((1 / 2, 1 / 2), 4), ((0.5, 0.3, 0.2), 5), ((3 / 5, 2 / 5, 0), 4), ((0.6001, 0.3999, 0), 5)],
    ids=["uniform-d3-k9", "uniform-d2-k4", "unsaturated", "psi-l-k4", "near-saturation"],
)
def test_no_span_blocks_at_k_equal_d_squared_or_off_saturation(weights, k):
    state = make_state(len(weights), weights)
    prob = _problem(state, k)
    assert prob.span is None
    members = prob.cayley(np.random.default_rng(k).standard_normal((1, prob.nparam)))
    assert _residuals(prob, members)[1].shape == (k * (k - 1) // 2,)


def test_worker_count_clamps_to_tasks_and_cpus(monkeypatch):
    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    monkeypatch.delenv("DC_LAB_THREADS", raising=False)
    assert _worker_count(13) == 4
    assert _worker_count(2) == 2
    monkeypatch.setenv("DC_LAB_THREADS", "")
    assert _worker_count(13) == 4
    monkeypatch.setenv("DC_LAB_THREADS", "0")
    assert _worker_count(13) == 1
    monkeypatch.setenv("DC_LAB_THREADS", "1000")
    assert _worker_count(13) == 4
    assert _worker_count(3) == 3
    monkeypatch.setenv("DC_LAB_THREADS", "two")
    with pytest.raises(ValueError, match="DC_LAB_THREADS"):
        _worker_count(13)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
@pytest.mark.parametrize("threads", [None, "2"], ids=["unset", "two"])
def test_worker_count_clamps_to_the_cpus_of_the_affinity_set(threads):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
        "from dc_lab.search import _worker_count; print(_worker_count(100))"
    )
    env = {key: value for key, value in os.environ.items() if key != "DC_LAB_THREADS"}
    env["PYTHONPATH"] = src
    if threads is not None:
        env["DC_LAB_THREADS"] = threads
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "1"


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


def _count_finds(monkeypatch):
    """Wrap search._find so each call records its family size; returns the list."""
    find, sizes = search._find, []

    def counted(state, k, *args):
        sizes.append(k)
        return find(state, k, *args)

    monkeypatch.setattr(search, "_find", counted)
    return sizes


@pytest.mark.parametrize(
    "weights, cap",
    [((1 / 3, 1 / 3, 1 / 3), 9), ((3 / 5, 2 / 5, 0), 5), ((4 / 7, 3 / 7, 0, 0), 7), ((0.51, 0.30, 0.19), 5)],
    ids=["uniform", "psi-l", "d4-k7", "unsaturated"],
)
def test_a_cap_found_first_certifies_every_smaller_k(weights, cap, monkeypatch):
    state = make_state(len(weights), weights)
    sizes = _count_finds(monkeypatch)
    res = estimate_nmax(state, SearchConfig(base_seed=1))
    assert sizes == [cap]
    assert [(a.k, a.status) for a in res.attempts] == [(k, "found") for k in range(state.d, cap + 1)]
    top = res.witnesses[cap].members
    for attempt in res.attempts[1:-1]:
        members = res.witnesses[attempt.k].members
        assert len(members) == attempt.k
        assert all(a.tobytes() == b.tobytes() for a, b in zip(members, top))
        assert verify_family(members, state).passed
        assert attempt.best_objective == objective(state, members)


def _scan_from_d_plus_1(state, cfg):
    """The scan without the cap first: _find at K = d+1, d+2, ... until a K
    is refused or the weight bound is reached."""
    attempts, witnesses = [], {}
    for k in range(state.d + 1, wcsg_bound(state) + 1):
        _, fam, stack = search._find(state, k, cfg)
        found = fam is not None
        status = "found" if found else "not found (heuristic)"
        attempts.append((k, status, objective(state, stack), verify_family(stack, state).max_pairwise_residual))
        if not found:
            break
        witnesses[k] = fam
    return attempts, witnesses


@pytest.mark.parametrize("seed", [42, 1, 2, 3])
def test_a_cap_refused_first_falls_back_to_the_scan(seed, monkeypatch):
    # psi_H is refused at its bound K = 5; the scan then searches K = 4 and
    # takes the K = 5 search as it stands, so the result is the plain scan's
    cfg = SearchConfig(base_seed=seed)
    attempts, witnesses = _scan_from_d_plus_1(PSI_H, cfg)
    sizes = _count_finds(monkeypatch)
    res = estimate_nmax(PSI_H, cfg)
    assert sizes == [5, 4]
    assert [(a.k, a.status, a.best_objective, a.max_pair_residual) for a in res.attempts[1:]] == attempts
    assert res.n_max_estimate == 4 and sorted(res.witnesses) == [3, 4]
    assert all(np.array_equal(a, b) for a, b in zip(res.witnesses[4].members, witnesses[4].members))


def test_a_subset_that_fails_verification_falls_back_to_the_scan(monkeypatch):
    # the first K = 4 candidate, the cap witness's first four members, is
    # turned down; the scan then searches K = 4 and reuses the K = 5 witness
    judge, turned_down = search._judge, []

    def refuse_the_first_subset(state, k, stack, tol):
        attempt, witness = judge(state, k, stack, tol)
        if k == 4 and not turned_down:
            turned_down.append(stack)
            return attempt, None
        return attempt, witness

    cfg = SearchConfig(base_seed=1)
    attempts, witnesses = _scan_from_d_plus_1(PSI_L, cfg)
    monkeypatch.setattr(search, "_judge", refuse_the_first_subset)
    sizes = _count_finds(monkeypatch)
    res = estimate_nmax(PSI_L, cfg)
    assert sizes == [5, 4]
    assert [(a.k, a.status, a.best_objective, a.max_pair_residual) for a in res.attempts[1:]] == attempts
    for k in (4, 5):
        assert all(np.array_equal(a, b) for a, b in zip(res.witnesses[k].members, witnesses[k].members))
    # the K = 4 witness is the K = 4 search's, not the subset that was turned down
    assert not np.array_equal(np.asarray(res.witnesses[4].members), turned_down[0])


@pytest.mark.parametrize("d", range(2, 9))
def test_the_cached_k_equal_d_attempt_is_every_states_own(d):
    shifts, attempt = search._shift_witness(d)
    assert attempt == KAttempt(k=d, status="found", best_objective=0.0, max_pair_residual=0.0)
    stack = np.asarray(shifts.members)
    rng = np.random.default_rng(d)
    for _ in range(50):
        state = make_state(d, rng.dirichlet(np.ones(d)))
        assert search._judge(state, d, stack, VERIFY_TOL)[0] == attempt


@pytest.mark.parametrize("d", range(2, 7))
def test_k_equal_d_plus_1_at_its_strict_bound_is_excluded_without_a_search(d, monkeypatch):
    state = make_state(d, [d / (d + 1), 1 / (d + 1)] + [0.0] * (d - 2))
    assert wcsg_bound(state) == d + 1
    sizes = _count_finds(monkeypatch)
    res = estimate_nmax(state, SearchConfig(base_seed=1))
    assert sizes == []
    assert [(a.k, a.status) for a in res.attempts] == [(d, "found"), (d + 1, "excluded (proven)")]


@pytest.mark.parametrize(
    "weights, max_k, statuses",
    [((1 / 3, 1 / 3, 1 / 3), 6, ["found"] * 4), ((3 / 5, 1 / 5, 1 / 5), 4, ["found"] * 2)],
    ids=["uniform-max-k-6", "psi-h-max-k-4"],
)
def test_a_max_k_below_the_bound_is_searched_first(weights, max_k, statuses, monkeypatch):
    state = make_state(len(weights), weights)
    assert wcsg_bound(state) > max_k
    sizes = _count_finds(monkeypatch)
    res = estimate_nmax(state, SearchConfig(max_k=max_k, base_seed=1))
    assert sizes == [max_k]
    assert [(a.k, a.status) for a in res.attempts] == list(zip(range(state.d, max_k + 1), statuses))
    assert res.n_max_estimate == max_k


# Each attempt's (k, status, repr(best_objective)) and the sha256 of the
# witness members' complex128 bytes (in increasing K), for a default search
# at base_seed=1, as recorded with numpy 2.4 and its bundled OpenBLAS on
# x86-64.  Another LAPACK may round the Cayley solves differently and change them.
RECORDED_SEARCHES = {
    (3 / 5, 2 / 5, 0.0): (
        [(3, "found", "0.0"), (4, "found", "4.407129635975174e-22"), (5, "found", "7.063944165720826e-22")],
        "283efb420c30faeb4445fe5f13ca6cd9842e7fbcb0cc21f2b33b1570e625b1e8",
    ),
    (3 / 5, 1 / 5, 1 / 5): (
        [(3, "found", "0.0"), (4, "found", "1.0178089228339292e-24"), (5, "not found (heuristic)", "0.0015036158035837467")],
        "eecc4bbc03ed27ea266ace7bc7dbd5229192c4cc0ebda50cab9898638f283afa",
    ),
    (4 / 6, 2 / 6, 0.0, 0.0): (
        [(4, "found", "0.0"), (5, "found", "5.540844414764034e-28"), (6, "found", "7.367160814872251e-28")],
        "ea1ba984f47b76a22c6e954af4ab433ba344b1bd945b7147026d23ab9600befe",
    ),
}


@functools.lru_cache(maxsize=None)
def _search_at_seed_1(weights):
    """The recorded search, and the family size and residual call count of
    every LM polish it ran: one at its start, and one per LM iteration.  It
    runs with np.linalg.eigh raising, so it completes only without eigh."""
    state = make_state(len(weights), weights)
    polished, calls = [], []
    polish, residuals_of = search._lm_polish, search._residuals

    def counted(prob, *args):
        calls.clear()
        out = polish(prob, *args)
        polished.append((prob.k, len(calls)))
        return out

    def no_eigh(*args, **kwargs):
        raise AssertionError("the search must not call eigh")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_lm_polish", counted)
        mp.setattr(search, "_residuals", lambda *args: calls.append(1) or residuals_of(*args))
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


def test_headline_refusal_polishes_every_restart():
    # LM takes each of the 50 restarts at K = 5 from its random start to the
    # same plateau, pair objective near 1.5036e-3, where the halving stop
    # ends it: within 24-46 residual calls each
    _, result, polished = _search_at_seed_1((3 / 5, 1 / 5, 1 / 5))
    assert [(a.k, a.status) for a in result.attempts[1:]] == [(4, "found"), (5, "not found (heuristic)")]
    at_5 = [n for k, n in polished if k == 5]
    assert len(at_5) == 50
    assert max(at_5) <= 60
    assert result.attempts[-1].best_objective == pytest.approx(1.5036e-3, rel=1e-3)


def test_a_refusal_reports_the_pair_residual_of_its_closest_restart():
    # the quantity acceptance tests, of the restart that came closest
    _, result, _ = _search_at_seed_1((3 / 5, 1 / 5, 1 / 5))
    refusal = result.attempts[-1]
    attempt, witness, closest = search._find(PSI_H, 5, SearchConfig(base_seed=1))
    assert witness is None and attempt == refusal
    assert refusal.best_objective == objective(PSI_H, closest)
    assert refusal.max_pair_residual == verify_family(closest, PSI_H).max_pairwise_residual
    assert refusal.max_pair_residual > SearchConfig().accept_tol
    # the objective sums the 10 squared pair residuals
    assert refusal.best_objective / 10 <= refusal.max_pair_residual**2 <= refusal.best_objective


@pytest.mark.parametrize("seed", range(1, 21))
def test_saturated_rank_deficient_witnesses_verify(seed, monkeypatch):
    # (4/6, 2/6, 0, 0) saturates K = 6, where the Jacobian of the pair
    # equations alone is singular.  The first polished restart must verify
    # and pass kc_span_check: without the span blocks, LM converged only
    # linearly there, and its witnesses missed kc_span_check at about 1e-5
    state = make_state(4, [4 / 6, 2 / 6, 0, 0])
    polished = []
    polish = search._lm_polish
    monkeypatch.setattr(search, "_lm_polish", lambda *args: polished.append(1) or polish(*args))
    _, witness = find_family(state, 6, SearchConfig(base_seed=seed))
    assert len(polished) == 1
    assert witness is not None
    assert verify_family(witness, state).passed
    assert kc_span_check(witness, state).max_residual <= KC_RESIDUAL_TOL


@pytest.mark.parametrize("seed", range(1, 9))
@pytest.mark.parametrize(
    "weights, k",
    [((3 / 5, 2 / 5, 0), 5), ((4 / 6, 2 / 6, 0, 0), 6), ((4 / 7, 3 / 7, 0, 0), 7)],
    ids=["psi-l-k5", "d4-k6", "d4-k7"],
)
def test_saturated_witnesses_pass_kc_span_check(weights, k, seed):
    # search-find's three rank-deficient saturated states; without the span
    # blocks their witnesses missed KC_RESIDUAL_TOL by 1.1e-5 to 1.4e-5
    state = make_state(len(weights), weights)
    _, witness = find_family(state, k, SearchConfig(base_seed=seed))
    assert witness is not None
    report = kc_span_check(witness, state)
    assert report.saturated
    assert report.max_residual <= KC_RESIDUAL_TOL


def test_a_polish_without_a_root_nearby_stops_early(monkeypatch):
    # Sweep cell 12 at resolution 6 refuses K = 4, and no family lies near
    # this start.  With a ceiling of 2,000 iterations and no halving stop, a
    # polish there once ran all of them, creeping to 9.36e-6.  Each halving
    # of the objective restarts the count of LM_HALVING_ITERS iterations, so a
    # polish that halves it h times ends within LM_HALVING_ITERS (h + 1)
    # iterations, one residual call each after the first, and
    # h <= log2(f_start / f_end): here at most 20 * 17 = 340.  It ends after
    # 62, at 1.11e-5.
    state = make_state(3, triangle_grid(6)[12])
    prob = _problem(state, 4)
    start = prob.cayley(np.random.default_rng(4).standard_normal((1, prob.nparam)))
    f_start = objective(state, prob.members(start)[0])
    calls = []
    residuals_of = search._residuals
    monkeypatch.setattr(search, "_residuals", lambda *args: calls.append(1) or residuals_of(*args))
    stack, f = _lm_polish(prob, start, VERIFY_TOL)
    assert len(calls) - 1 <= search.LM_HALVING_ITERS * (1 + math.floor(math.log2(f_start / f)))
    assert f > VERIFY_TOL
    assert not verify_family(stack, state).passed


def test_a_polish_whose_every_step_fails_ends_after_the_halving_window(monkeypatch):
    # No trial step lowers the objective, so the damping only grows and f
    # never halves: the window alone ends the polish, after exactly
    # LM_HALVING_ITERS trial steps, at the members it started from.
    state = make_state(3, [0.5, 0.3, 0.2])  # unsaturated at K = 4: f is the pair objective
    prob = _problem(state, 4)
    start = prob.cayley(np.random.default_rng(7).standard_normal((1, prob.nparam)))
    f_start = objective(state, prob.members(start)[0])
    trials, at_start, residuals_of = [], [], search._residuals

    def never_lower(prob, ufree):
        stack, t = residuals_of(prob, ufree)
        if ufree is start:  # the polish's own start, not a trial
            at_start.append(stack)
            return stack, t
        trials.append(1)
        return stack, np.full_like(t, 1e3)

    monkeypatch.setattr(search, "_residuals", never_lower)
    stack, f = _lm_polish(prob, start, VERIFY_TOL)
    assert len(trials) == search.LM_HALVING_ITERS
    assert len(at_start) == 1 and stack is at_start[0]
    assert np.array_equal(stack[prob.nf :], start[0])
    assert f == pytest.approx(f_start, rel=1e-12)


def test_a_singular_lm_step_falls_back_to_least_squares(monkeypatch):
    # np.linalg.solve raises on the third LM step of the polish (the Cayley
    # transforms' batched solves pass through): that step is taken by lstsq,
    # and the polish still ends at a witness that verifies
    state = make_state(4, [4 / 6, 2 / 6, 0, 0])
    prob = _problem(state, 6)
    start = prob.cayley(np.random.default_rng(1).standard_normal((1, prob.nparam)))
    solve, lstsq, steps, fallbacks = np.linalg.solve, np.linalg.lstsq, [], []

    def failing_solve(a, b):
        if b.ndim == 1:
            steps.append(1)
            if len(steps) == 3:
                raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kwargs: fallbacks.append(1) or lstsq(*args, **kwargs))
    stack, _ = _lm_polish(prob, start, VERIFY_TOL)
    assert len(fallbacks) == 1 and len(steps) > 3
    assert verify_family(stack, state).passed
    assert kc_span_check(stack, state).max_residual <= KC_RESIDUAL_TOL


@pytest.mark.parametrize(
    "d, j",
    [(d, j) for d in range(5, 9) for j in range(2, d)],
    ids=[f"d{d}-j{j}" for d in range(5, 9) for j in range(2, d)],
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_saturated_d_plus_j_families_are_found_above_d_4(d, j, seed):
    # claim (ii) at d >= 5 for every d+j with 2 <= j <= d-1: lambda0 = d/K,
    # K = d+j, with two nonzero weights; j = 2 and j = d-1 are the d+2 and
    # 2d-1 targets, and the constructions reach none of the others
    k = d + j
    state = make_state(d, [d / k, j / k] + [0] * (d - 2))
    _, witness = find_family(state, k, SearchConfig(restarts=8, base_seed=seed))
    assert witness is not None
    assert verify_family(witness, state).passed
    assert kc_span_check(witness, state).max_residual <= KC_RESIDUAL_TOL
