"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Search-based criteria use the documented budget:
SearchConfig defaults (restarts=50, base_seed=42, accept_tol=1e-10) unless a
criterion states its own smaller probe budget.
"""

import math
import time

import numpy as np
import pytest

from conftest import gram_equivalence_residual, haar_unitary, random_sorted_weights
from dc_lab.analysis import (
    bns_excluded,
    kc_span_check,
    shift_family_obstructed,
    verify_family,
    wcsg_bound,
)
from dc_lab.families import (
    family_2dm1,
    family_dp2,
    qutrit_five_family,
    shift_diag_family,
    weyl_family,
)
from dc_lab.search import SearchConfig, estimate_nmax, find_family, objective_and_gradient
from dc_lab.states import entropy_bits, make_state

PSI_L = make_state(3, [3 / 5, 2 / 5, 0])
PSI_H = make_state(3, [3 / 5, 1 / 5, 1 / 5])


def _report(name, ok, detail=""):
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def _uniform(d):
    return make_state(d, [1 / d] * d)


def _two_weight(d, lam0):
    return make_state(d, [lam0, 1 - lam0] + [0.0] * (d - 2))


@pytest.fixture(scope="module")
def golden_families():
    fams = []
    for d in range(2, 9):
        fams.append((weyl_family(d), _uniform(d), False))
    fams.append((qutrit_five_family(), PSI_L, True))
    fams.append((family_dp2(4), _two_weight(4, 2 / 3), True))
    fams.append((family_2dm1(4), _two_weight(4, 4 / 7), True))
    for d in range(4, 26):
        fams.append((family_2dm1(d), _two_weight(d, d / (2 * d - 1)), True))
    for d in range(2, 21):
        fams.append((family_dp2(d), _two_weight(d, d / (d + 2)), True))
    return fams


def test_criterion_1_construction_verification(golden_families):
    start = time.time()
    worst_pair = worst_unit = 0.0
    for fam, state, _ in golden_families:
        report = verify_family(fam, state, tol=1e-10)
        worst_pair = max(worst_pair, report.max_pairwise_residual)
        worst_unit = max(worst_unit, report.max_unitarity_residual)
        assert report.passed, f"{fam.label} failed at its target state"
    elapsed = time.time() - start
    _report(
        "criterion 1 (golden construction verification)",
        worst_pair <= 1e-10 and worst_unit <= 1e-10,
        f"worst pair {worst_pair:.2e}, worst unitarity {worst_unit:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_kc_saturation_diagnostics(golden_families):
    worst = 0.0
    checked = 0
    for fam, state, saturating in golden_families:
        if not saturating:
            continue
        report = kc_span_check(fam, state)
        assert report.saturated, f"{fam.label} expected to sit at lambda0 = d/K"
        worst = max(worst, report.max_residual)
        checked += 1
    _report(
        "criterion 2 (span diagnostics at saturation)",
        worst <= 1e-8,
        f"{checked} families, worst |m0> residual {worst:.2e}",
    )


def test_criterion_3_gram_equivalence():
    start = time.time()
    rng = np.random.default_rng(314159)
    worst = 0.0
    for d in (2, 3, 4, 5):
        for _ in range(50):
            state = make_state(d, random_sorted_weights(rng, d))
            k = int(rng.integers(2, d + 3))
            fam = [haar_unitary(rng, d) for _ in range(k)]
            worst = max(worst, gram_equivalence_residual(fam, state))
    elapsed = time.time() - start
    _report(
        "criterion 3 (message/trace equivalence, 200 random pairs)",
        worst <= 1e-12,
        f"worst residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_entropy_values():
    worst = max(
        abs(entropy_bits(_uniform(d)) - math.log2(d)) for d in range(2, 11)
    )
    psi_l_entropy = entropy_bits(PSI_L)
    oracle = -(0.6 * math.log2(0.6) + 0.4 * math.log2(0.4))
    ok = worst <= 1e-12 and abs(psi_l_entropy - oracle) <= 1e-12
    ok = ok and abs(psi_l_entropy - 0.9709505945) <= 1e-9
    _report(
        "criterion 4 (entropy values)",
        ok,
        f"uniform worst {worst:.2e}, low-state entropy {psi_l_entropy:.12f}",
    )


def test_criterion_5_entropy_inversion_headline():
    start = time.time()
    cfg = SearchConfig()  # restarts=50, base_seed=42: the documented budget
    low = estimate_nmax(PSI_L, cfg)
    high = estimate_nmax(PSI_H, cfg)
    refusal = next(a for a in high.attempts if a.k == 5)
    ok = (
        low.n_max_estimate == 5
        and high.n_max_estimate == 4
        and entropy_bits(PSI_L) < entropy_bits(PSI_H)
        and refusal.status == "not found (heuristic)"
        and refusal.best_objective > cfg.accept_tol
        and not bns_excluded(PSI_H, 5)
        and wcsg_bound(PSI_H) >= 5
    )
    elapsed = time.time() - start
    _report(
        "criterion 5 (lower entropy supports more messages)",
        ok,
        f"N_max(low)={low.n_max_estimate}, N_max(high)={high.n_max_estimate}, "
        f"refused-K5 objective {refusal.best_objective:.2e}, {elapsed:.0f}s",
    )


def test_criterion_6_region_spot_checks():
    start = time.time()
    cfg = SearchConfig()
    apex = estimate_nmax(_uniform(3), cfg)
    mid = estimate_nmax(make_state(3, [0.51, 0.30, 0.19]), cfg)
    skew = estimate_nmax(make_state(3, [0.80, 0.15, 0.05]), cfg)
    half_best, half_witness = find_family(make_state(3, [0.5, 0.25, 0.25]), 6, cfg)
    ok = (
        apex.n_max_estimate == 9
        and mid.n_max_estimate == 5
        and skew.n_max_estimate == 3
        and half_witness is not None
    )
    elapsed = time.time() - start
    _report(
        "criterion 6 (region spot checks)",
        ok,
        f"apex={apex.n_max_estimate}, mid={mid.n_max_estimate}, skew={skew.n_max_estimate}, "
        f"K=6-at-half objective {half_best:.2e}, {elapsed:.0f}s",
    )


def test_criterion_7_bound_consistency():
    rng = np.random.default_rng(271828)
    worst_product = -np.inf
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        state = make_state(d, random_sorted_weights(rng, d))
        worst_product = max(worst_product, wcsg_bound(state) * state.lambda0 - d)
    equality_ok = True
    for d in range(2, 7):
        lam0 = d / (d + 1)
        state = make_state(d, [lam0] + [(1 - lam0) / (d - 1)] * (d - 1))
        equality_ok = equality_ok and bns_excluded(state, d + 1)
    cfg = SearchConfig(restarts=3, base_seed=5)
    nmax_ok = True
    for _ in range(10):
        d = int(rng.integers(2, 4))
        state = make_state(d, random_sorted_weights(rng, d))
        result = estimate_nmax(state, cfg)
        nmax_ok = nmax_ok and result.n_max_estimate <= wcsg_bound(state)
    _report(
        "criterion 7 (bound consistency on 1000 states)",
        worst_product <= 1e-9 and equality_ok and nmax_ok,
        f"max(K*lambda0 - d) = {worst_product:.2e}",
    )


def test_criterion_8_shift_family_obstruction():
    start = time.time()
    rng = np.random.default_rng(987)
    worst = 0.0
    for _ in range(25):
        d = int(rng.integers(2, 7))
        diags = [np.exp(2j * np.pi * rng.random(d)) for _ in range(d)]
        fam = shift_diag_family(d, diags)
        state = make_state(d, random_sorted_weights(rng, d))
        worst = max(worst, verify_family(fam, state).max_pairwise_residual)
    assert worst <= 1e-12

    cfg = SearchConfig(restarts=3, base_seed=99)
    refused = 0
    total = 100
    for _ in range(total):
        d = int(rng.integers(2, 5))
        lam = random_sorted_weights(rng, d)
        if lam[0] <= 0.5:
            lam[0] = 0.51 + 0.4 * rng.random()
            lam[1:] = (1 - lam[0]) * lam[1:] / lam[1:].sum()
            lam = np.sort(lam)[::-1]
        state = make_state(d, lam)
        assert shift_family_obstructed(state)
        diags = [np.ones(d)] + [np.exp(2j * np.pi * rng.random(d)) for _ in range(d - 1)]
        prefix = shift_diag_family(d, diags)
        best, witness = find_family(state, d + 1, cfg, fixed=prefix)
        if witness is None and best > cfg.accept_tol:
            refused += 1
    elapsed = time.time() - start
    _report(
        "criterion 8 (shift-family non-extendability, 100 states)",
        refused == total,
        f"shift-diag worst residual {worst:.2e}; {refused}/{total} extension searches refused, {elapsed:.0f}s",
    )


def test_criterion_9_determinism_and_gradient():
    cfg = SearchConfig()
    state = make_state(3, [0.51, 0.30, 0.19])
    first = estimate_nmax(state, cfg)
    second = estimate_nmax(state, cfg)
    stable = first.attempts == second.attempts and first.n_max_estimate == second.n_max_estimate
    for k in first.witnesses:
        for a, b in zip(first.witnesses[k].members, second.witnesses[k].members):
            stable = stable and np.array_equal(a, b)

    rng = np.random.default_rng(55)
    probe = make_state(3, [0.5, 0.3, 0.2])
    worst_rel = 0.0
    nparam = 2 * 9
    for _ in range(3):
        theta = rng.standard_normal(nparam)
        _, grad = objective_and_gradient(probe, theta, 3)
        step = 1e-6
        fd = np.zeros(nparam)
        for p in range(nparam):
            plus, minus = theta.copy(), theta.copy()
            plus[p] += step
            minus[p] -= step
            fd[p] = (
                objective_and_gradient(probe, plus, 3)[0]
                - objective_and_gradient(probe, minus, 3)[0]
            ) / (2 * step)
        worst_rel = max(worst_rel, np.linalg.norm(grad - fd) / np.linalg.norm(fd))
    _report(
        "criterion 9 (determinism and gradient sanity)",
        stable and worst_rel <= 1e-6,
        f"bit-stable={stable}, worst FD relative error {worst_rel:.2e}",
    )
