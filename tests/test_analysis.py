from fractions import Fraction

import numpy as np
import pytest

from conftest import gram_equivalence_residual, haar_unitary, lambda_inner, random_sorted_weights
from dc_lab.analysis import (
    KC_RESIDUAL_TOL,
    _weighted_gram,
    bns_excluded,
    kc_span_check,
    saturates,
    shift_family_obstructed,
    verify_family,
    wcsg_bound,
)
from dc_lab.families import (
    family_2dm1,
    family_dp2,
    qutrit_five_family,
    shift,
    weyl_family,
)
from dc_lab.search import SearchConfig, find_family, objective
from dc_lab.states import SchmidtState, entropy_bits, make_state, message_vectors

PSI_L = make_state(3, [3 / 5, 2 / 5, 0])
PSI_H = make_state(3, [3 / 5, 1 / 5, 1 / 5])
UNIFORM3 = make_state(3, [1 / 3] * 3)
SWAP3 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)


def test_lambda_inner_identity_pair(rng):
    for d in (2, 3, 5):
        lam = random_sorted_weights(rng, d)
        assert lambda_inner(lam, np.eye(d), np.eye(d)) == pytest.approx(1.0)


def test_lambda_inner_examples():
    assert lambda_inner(PSI_L, np.eye(3), SWAP3) == pytest.approx(0.0, abs=1e-15)
    assert lambda_inner(UNIFORM3, np.eye(3), shift(3)) == pytest.approx(0.0, abs=1e-15)


def test_objective_refuses_a_weight_vector():
    for weights, kind in (([1, 1, 1], "list"), (PSI_H.lambdas, "ndarray")):
        with pytest.raises(ValueError, match=f"^state must be a SchmidtState, got {kind}$"):
            objective(weights, qutrit_five_family())


def test_objective_dimension_mismatch():
    with pytest.raises(ValueError, match="shape"):
        objective(PSI_L, [np.eye(4), np.eye(4)])


def test_verify_family_passes_f46():
    report = verify_family(family_dp2(4), make_state(4, [2 / 3, 1 / 3, 0, 0]), tol=1e-10)
    assert report.passed
    assert report.max_pairwise_residual <= 1e-10


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, True, "x", 1e-10j])
def test_verify_family_rejects_a_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance"):
        verify_family(family_dp2(4), make_state(4, [2 / 3, 1 / 3, 0, 0]), tol=tol)


STATE_TAKERS = {
    "verify_family": lambda state: verify_family(weyl_family(2), state),
    "kc_span_check": lambda state: kc_span_check(weyl_family(2), state),
    "wcsg_bound": wcsg_bound,
    "bns_excluded": lambda state: bns_excluded(state, 3),
    "shift_family_obstructed": shift_family_obstructed,
    "entropy_bits": entropy_bits,
    "message_vectors": lambda state: message_vectors(weyl_family(2), state),
    "objective": lambda state: objective(state, weyl_family(2)),
}


FAMILY_TAKERS = {
    "verify_family": lambda family: verify_family(family, PSI_L),
    "kc_span_check": lambda family: kc_span_check(family, PSI_L),
    "objective": lambda family: objective(PSI_L, family),
    "message_vectors": lambda family: message_vectors(family, PSI_L),
    "find_family": lambda family: find_family(PSI_L, 3, SearchConfig(restarts=1), fixed=family),
}


@pytest.mark.parametrize("empty", [[], np.zeros((0, 3, 3))], ids=["list", "array"])
@pytest.mark.parametrize("call", list(FAMILY_TAKERS.values()), ids=list(FAMILY_TAKERS))
def test_an_empty_family_is_refused(call, empty):
    with pytest.raises(ValueError, match="^family has no members$"):
        call(empty)


@pytest.mark.parametrize("call", list(STATE_TAKERS.values()), ids=list(STATE_TAKERS))
def test_functions_of_a_state_refuse_a_weight_list(call):
    # this died with "AttributeError: 'list' object has no attribute 'd'"
    with pytest.raises(ValueError, match="^state must be a SchmidtState, got list$"):
        call([0.5, 0.5])


def test_verify_family_accepts_a_zero_tolerance():
    report = verify_family(weyl_family(2), make_state(2, [0.5, 0.5]), tol=0.0)
    assert report.tol == 0.0


def test_verify_family_detects_duplicate_identity():
    fam = family_2dm1(4)
    members = list(fam.members)
    members[3] = np.eye(4, dtype=complex)  # duplicates the leading identity
    report = verify_family(members, make_state(4, [4 / 7, 3 / 7, 0, 0]), tol=1e-10)
    assert not report.passed
    assert report.max_pairwise_residual == pytest.approx(1.0)


def test_verify_family_weyl_tight_tolerance():
    assert verify_family(weyl_family(3), UNIFORM3, tol=1e-12).passed


def test_verify_family_pass_invariant_under_common_rotation(rng):
    fam = qutrit_five_family()
    w = haar_unitary(rng, 3)
    rotated = [w @ m for m in fam.members]
    report = verify_family(rotated, PSI_L, tol=1e-10)
    assert report.passed
    assert report.max_pairwise_residual <= 1e-10


def test_gram_equivalence_on_known_families():
    assert gram_equivalence_residual(weyl_family(3), UNIFORM3) <= 1e-12
    assert gram_equivalence_residual(qutrit_five_family(), PSI_L) <= 1e-12


def test_gram_equivalence_on_random_draws(rng):
    for d in (2, 3, 4, 5):
        for _ in range(10):
            state = make_state(d, random_sorted_weights(rng, d))
            fam = [haar_unitary(rng, d) for _ in range(int(rng.integers(2, d + 2)))]
            assert gram_equivalence_residual(fam, state) <= 1e-12


def test_weighted_gram_on_stacked_families(rng):
    d, k = 3, 4
    lam = random_sorted_weights(rng, d)
    stack = np.array([[[haar_unitary(rng, d) for _ in range(k)] for _ in range(3)] for _ in range(2)])
    gram = _weighted_gram(stack, lam)
    assert gram.shape == (2, 3, k, k)
    for idx in np.ndindex(2, 3):
        for i in range(k):
            for j in range(k):
                assert abs(gram[idx][i, j] - lambda_inner(lam, stack[idx][i], stack[idx][j])) <= 1e-14


def test_wcsg_bound_examples():
    assert wcsg_bound(make_state(3, [0.51, 0.30, 0.19])) == 5
    assert wcsg_bound(UNIFORM3) == 9
    assert wcsg_bound(make_state(4, [4 / 7, 3 / 7, 0, 0])) == 7


def test_wcsg_bound_of_a_zero_largest_weight_is_the_maximally_entangled_cap():
    # make_state refuses such weights; only a SchmidtState built directly has them
    assert wcsg_bound(SchmidtState(d=3, lambdas=np.zeros(3))) == 9


def test_wcsg_bound_product_of_bound_and_weight(rng):
    for _ in range(100):
        d = int(rng.integers(2, 7))
        state = make_state(d, random_sorted_weights(rng, d))
        assert wcsg_bound(state) * state.lambda0 <= d + 1e-9


@pytest.mark.parametrize(
    "lambda0, bound",
    [(0.6000000001, 4), (3 / 5 + 5e-13, 5), (3 / 5, 5), (0.5999999999, 5)],
    ids=["1e-10-above", "roundoff-above", "at", "1e-10-below"],
)
def test_wcsg_bound_on_each_side_of_three_fifths(lambda0, bound):
    # 5 lambda0 = 3.0000000005 > d at 0.6000000001, so K = 5 is beyond the
    # bound; within roundoff of 3/5 the state saturates at K = 5, which must
    # then be within the bound
    state = make_state(3, [lambda0, 1 - lambda0, 0])
    assert wcsg_bound(state) == bound
    assert bns_excluded(state, 5) == (bound < 5)
    if saturates(state, 5):
        assert bound == 5


def test_bns_excluded_examples():
    assert bns_excluded(make_state(3, [3 / 4, 1 / 8, 1 / 8]), 4)
    assert not bns_excluded(make_state(3, [0.74, 0.13, 0.13]), 4)
    assert bns_excluded(make_state(4, [4 / 5, 0.1, 0.05, 0.05]), 5)


def test_bns_excluded_at_exact_equality():
    for d in (2, 3, 4, 5):
        lam0 = d / (d + 1)
        state = make_state(d, [lam0] + [(1 - lam0) / (d - 1)] * (d - 1))
        assert bns_excluded(state, d + 1)
        below = lam0 - 1e-6
        state2 = make_state(d, [below] + [(1 - below) / (d - 1)] * (d - 1))
        assert not bns_excluded(state2, d + 1)


def test_bns_excluded_beyond_weight_bound():
    assert bns_excluded(make_state(3, [0.8, 0.1, 0.1]), 5)


def test_kc_span_check_saturated_families():
    for fam, state in (
        (qutrit_five_family(), PSI_L),
        (family_2dm1(4), make_state(4, [4 / 7, 3 / 7, 0, 0])),
    ):
        report = kc_span_check(fam, state)
        assert report.saturated
        assert report.max_residual <= 1e-8
        assert report.span_dim == len(fam.members)


def test_kc_span_check_full_space_case():
    report = kc_span_check(weyl_family(2), make_state(2, [0.5, 0.5]))
    assert report.saturated
    assert report.max_residual <= 1e-12
    assert report.span_dim == 4


def test_kc_span_check_advisory_when_not_saturated():
    report = kc_span_check(qutrit_five_family(), UNIFORM3)
    assert not report.saturated
    assert len(report.residuals) == 3


def _fraction_target(d, k):
    """(d/k, 1 - d/k, 0, ...) with both weights written as exact fractions,
    as `dc-lab verify --lambdas` reads them."""
    return make_state(d, [float(Fraction(d, k)), float(Fraction(k - d, k))] + [0.0] * (d - 2))


SATURATED_CASES = {
    "five": (qutrit_five_family(), PSI_L),
    "f46": (family_dp2(4), _fraction_target(4, 6)),
    "f47": (family_2dm1(4), _fraction_target(4, 7)),
    **{f"d-plus-two-d{d}": (family_dp2(d), _fraction_target(d, d + 2)) for d in range(3, 13)},
    **{f"two-d-minus-one-d{d}": (family_2dm1(d), _fraction_target(d, 2 * d - 1)) for d in range(4, 13)},
}


@pytest.mark.parametrize("fam, state", list(SATURATED_CASES.values()), ids=list(SATURATED_CASES))
def test_saturated_families_are_saturated(fam, state):
    assert saturates(state, len(fam.members))
    report = kc_span_check(fam, state)
    assert report.saturated
    assert report.max_residual <= KC_RESIDUAL_TOL


def test_a_valid_family_just_below_saturation_is_not_saturated():
    # lambda0 lies 1e-10 below d/K = 3/5, within 1e-9 of it: the search's
    # K = 5 witness is valid there but misses the span, which only equality
    # guarantees, so the check must not call the state saturated
    state = make_state(3, [3 / 5 - 1e-10, 2 / 5 + 1e-10, 0])
    _, witness = find_family(state, 5, SearchConfig(base_seed=1))
    assert verify_family(witness, state).passed
    report = kc_span_check(witness, state)
    assert report.max_residual > KC_RESIDUAL_TOL
    assert not saturates(state, 5)
    assert not report.saturated


def test_kc_span_check_orthonormalizes_near_misses(rng):
    fam = [np.eye(3), SWAP3, haar_unitary(rng, 3)]
    report = kc_span_check(fam, PSI_L)
    assert report.span_dim <= 3
    assert all(np.isfinite(r) for r in report.residuals)


def test_kc_span_check_counts_a_repeated_member_once():
    # member 4 replaced by member 3: the five message vectors span four
    # dimensions, and the near-miss projector is onto those four
    members = list(qutrit_five_family().members)
    members[4] = members[3]
    report = kc_span_check(members, PSI_L)
    msgs = message_vectors(members, PSI_L)
    assert report.span_dim == np.linalg.matrix_rank(msgs) == 4
    assert report.saturated
    # members 0-3 are a valid family, so their message vectors are an
    # orthonormal basis of the span
    basis = msgs[:4]
    expected = [np.linalg.norm(basis.T @ basis[:, 3 * m].conj() - np.eye(9)[3 * m]) for m in range(3)]
    assert np.allclose(report.residuals, expected, rtol=0, atol=1e-12)


def test_span_checks_on_the_support_block_match_the_full_message_vectors(rng):
    # near-miss families at states with zero weights: the rank, the
    # projection and the verify residuals on the support block equal those
    # of the whole stack and its (K, d^2) message matrix, up to roundoff
    for d, lam in ((3, [3 / 5, 2 / 5, 0]), (4, [0.5, 0.3, 0.2, 0]), (5, [0.6, 0.4, 0, 0, 0])):
        state = make_state(d, lam)
        for k in (d, d + 2):
            members = [haar_unitary(rng, d) for _ in range(k)]
            members[-1] = members[0]
            msgs = message_vectors(members, state)
            report = kc_span_check(members, state)
            assert report.span_dim == np.linalg.matrix_rank(msgs) == k - 1
            basis = np.linalg.svd(msgs, full_matrices=False)[2][: report.span_dim]
            expected = [np.linalg.norm(basis.T @ basis[:, m * d].conj() - np.eye(d * d)[m * d]) for m in range(d)]
            assert np.allclose(report.residuals, expected, rtol=0, atol=1e-12)
            gram = _weighted_gram(np.array(members), state.lambdas)
            checked = verify_family(members, state)
            assert abs(checked.max_pairwise_residual - np.max(np.abs(gram - np.diag(np.diag(gram))))) <= 1e-14
            assert abs(checked.max_norm_deviation - np.max(np.abs(np.linalg.norm(msgs, axis=1) - 1))) <= 1e-14


def test_verify_family_checks_unitarity_outside_the_support():
    # column 2 carries no weight at psi_L, so only the unitarity check sees it
    members = list(qutrit_five_family().members)
    members[0] = members[0] * [1, 1, 2]
    report = verify_family(members, PSI_L)
    assert report.max_pairwise_residual <= 1e-15
    assert report.max_norm_deviation <= 1e-15
    assert report.max_unitarity_residual == pytest.approx(3.0)
    assert not report.passed


@pytest.mark.parametrize("i", [0, 15, 16, 17])
def test_verify_family_checks_every_unitarity_block(i):
    # 18 members of d = 16 are checked in blocks of 16 and 2
    members = list(family_dp2(16).members)
    members[i] = 1.5 * members[i]
    report = verify_family(members, _fraction_target(16, 18))
    assert report.max_unitarity_residual == pytest.approx(1.25)
    assert not report.passed


@pytest.mark.parametrize("i", [0, 20])
def test_a_nan_member_makes_the_unitarity_residual_nan_in_any_block(i):
    # the 256 Weyl members of d = 16 are checked in blocks of 16, and a NaN
    # in any block must reach the report: Python's max keeps the value it
    # holds when the next is NaN
    members = list(weyl_family(16).members)
    members[i] = members[i].copy()
    members[i][0, 0] = np.nan
    report = verify_family(members, make_state(16, [1 / 16] * 16))
    assert np.isnan(report.max_unitarity_residual)
    assert not report.passed


def test_obstruction_predicates():
    assert shift_family_obstructed(make_state(3, [0.6, 0.2, 0.2]))
    assert not shift_family_obstructed(make_state(3, [0.5, 0.25, 0.25]))
    assert shift_family_obstructed(make_state(3, [0.51, 0.49, 0]))
    assert shift_family_obstructed(PSI_H)
    assert not shift_family_obstructed(UNIFORM3)
    assert shift_family_obstructed(make_state(2, [0.7, 0.3]))


def test_diagonal_obstruction_is_quantitative(rng):
    for _ in range(50):
        d = int(rng.integers(2, 6))
        lam = random_sorted_weights(rng, d)
        if lam[0] <= 0.5:
            lam = np.array([0.6] + list(0.4 * lam[1:] / max(lam[1:].sum(), 1e-12)))
            lam = np.sort(lam / lam.sum())[::-1]
        state = make_state(d, lam)
        if not shift_family_obstructed(state):
            continue
        diag = np.exp(2j * np.pi * rng.random(d))
        inner = lambda_inner(state, np.eye(d), np.diag(diag))
        bound = state.lambda0 - (1 - state.lambda0) - 1e-12
        assert abs(inner) >= bound > 0
