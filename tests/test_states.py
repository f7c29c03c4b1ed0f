import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary, random_sorted_weights
from dc_lab.families import qutrit_five_family
from dc_lab.states import entropy_bits, make_state, message_vectors

# Independent one-line oracle for the entropy of (3/5, 2/5, 0), frozen here.
PSI_L_ENTROPY = -(0.6 * math.log2(0.6) + 0.4 * math.log2(0.4))


def test_make_state_uniform_qutrit():
    s = make_state(3, [1 / 3, 1 / 3, 1 / 3])
    assert s.d == 3
    assert np.allclose(s.lambdas, [1 / 3] * 3)


def test_make_state_sorts_weights():
    s = make_state(3, [0.4, 0.6, 0.0])
    assert np.array_equal(s.lambdas, np.array([0.6, 0.4, 0.0]))


def test_make_state_f47_target():
    s = make_state(4, [4 / 7, 3 / 7, 0, 0])
    assert s.lambda0 == pytest.approx(4 / 7, abs=1e-15)


def test_make_state_rejects_negative():
    with pytest.raises(ValueError):
        make_state(3, [0.7, 0.4, -0.1])


@pytest.mark.parametrize("weights", [[1e308, 1e308], [1 + 2e-9, 0.0], [np.finfo(float).max, -1.0]])
def test_make_state_rejects_weights_above_one_without_a_warning(weights):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            make_state(2, weights)


def test_make_state_rejects_bad_normalization():
    with pytest.raises(ValueError):
        make_state(2, [0.6, 0.5])
    with pytest.raises(ValueError):
        make_state(2, [0.5, 0.5 + 2e-9])


def test_make_state_renormalizes_tiny_drift():
    s = make_state(2, [0.5, 0.5 + 5e-10])
    assert float(s.lambdas.sum()) == 1.0


def test_make_state_rejects_wrong_length_and_dimension():
    with pytest.raises(ValueError):
        make_state(3, [0.5, 0.5])
    with pytest.raises(ValueError):
        make_state(1, [1.0])


@pytest.mark.parametrize("d", range(2, 11))
def test_entropy_uniform_is_log2_d(d):
    s = make_state(d, [1 / d] * d)
    assert abs(entropy_bits(s) - math.log2(d)) <= 1e-12


def test_entropy_psi_l_matches_oracle():
    s = make_state(3, [3 / 5, 2 / 5, 0])
    assert abs(entropy_bits(s) - PSI_L_ENTROPY) <= 1e-12
    assert abs(entropy_bits(s) - 0.9709505945) <= 1e-9


def test_entropy_product_state_is_zero():
    s = make_state(4, [1, 0, 0, 0])
    assert entropy_bits(s) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3))
def test_entropy_permutation_invariant(raw):
    total = sum(raw)
    weights = [w / total for w in raw]
    values = {
        entropy_bits(make_state(3, [weights[i], weights[j], weights[k]]))
        for i, j, k in ((0, 1, 2), (2, 0, 1), (1, 2, 0))
    }
    assert max(values) - min(values) <= 1e-12


def test_entropy_maximized_at_uniform(rng):
    for d in (2, 3, 5):
        uniform = entropy_bits(make_state(d, [1 / d] * d))
        for _ in range(30):
            s = make_state(d, random_sorted_weights(rng, d))
            assert entropy_bits(s) <= uniform + 1e-12


def test_entropy_minimized_by_two_term_tail(rng):
    # for fixed lambda0 >= 1/2, (lambda0, 1-lambda0, 0, ...) minimizes entropy
    d = 4
    for lam0 in (0.5, 0.6, 0.75, 0.9):
        floor = entropy_bits(make_state(d, [lam0, 1 - lam0, 0, 0]))
        rest = 1 - lam0
        for _ in range(60):
            tail = np.sort(rng.dirichlet(np.ones(d - 1)))[::-1] * rest
            if tail[0] > lam0:
                continue
            s = make_state(d, [lam0, *tail])
            assert entropy_bits(s) >= floor - 1e-12


def test_message_vector_of_identity_on_psi_l():
    s = make_state(3, [3 / 5, 2 / 5, 0])
    vec = message_vectors([np.eye(3)], s)[0]
    expected = np.zeros(9, dtype=complex)
    expected[0] = np.sqrt(0.6)  # |00>
    expected[4] = np.sqrt(0.4)  # |11>
    assert np.allclose(vec, expected)


def test_message_vector_of_swap_on_psi_l():
    s = make_state(3, [3 / 5, 2 / 5, 0])
    swap = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    vec = message_vectors([swap], s)[0]
    expected = np.zeros(9, dtype=complex)
    expected[3] = np.sqrt(0.6)  # |10>
    expected[1] = np.sqrt(0.4)  # |01>
    assert np.allclose(vec, expected)


def test_message_vector_on_product_state(rng):
    d = 4
    s = make_state(d, [1, 0, 0, 0])
    u = haar_unitary(rng, d)
    vec = message_vectors([u], s)[0].reshape(d, d)
    assert np.allclose(vec[:, 0], u[:, 0])
    assert np.allclose(vec[:, 1:], 0)


def test_message_norms_unit_for_unitary_members(rng):
    for d in (2, 3, 5):
        s = make_state(d, random_sorted_weights(rng, d))
        fam = [haar_unitary(rng, d) for _ in range(d)]
        norms = np.linalg.norm(message_vectors(fam, s), axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-10


def test_message_vectors_accepts_family_object():
    fam = qutrit_five_family()
    s = make_state(3, [3 / 5, 2 / 5, 0])
    assert message_vectors(fam, s).shape == (5, 9)


def test_message_vectors_same_bytes_for_family_list_and_stack():
    fam = qutrit_five_family()
    s = make_state(3, [3 / 5, 2 / 5, 0])
    got = message_vectors(fam, s)
    # each row is the member times the root weights of its columns, flattened
    rows = [(np.asarray(u) * np.sqrt(s.lambdas)[None, :]).reshape(9) for u in fam.members]
    assert got.tobytes() == np.stack(rows).tobytes()
    assert message_vectors(list(fam.members), s).tobytes() == got.tobytes()
    assert message_vectors(np.stack(fam.members), s).tobytes() == got.tobytes()


def test_message_vectors_dimension_mismatch():
    s = make_state(3, [0.5, 0.3, 0.2])
    for members in ([np.eye(4)], [np.eye(3), np.eye(4)], np.eye(3), 1.0):
        with pytest.raises(ValueError):
            message_vectors(members, s)
