import inspect
import re
import sys

import numpy as np
import pytest

from conftest import haar_unitary, random_sorted_weights
from dc_lab.analysis import verify_family
from dc_lab.families import (
    _2dm1_columns,
    _block_shift,
    _dp2_columns,
    _root_of_unity,
    family_2dm1,
    family_dp2,
    phase,
    qutrit_five_family,
    shift,
    shift_diag_family,
    weyl_family,
)
from dc_lab.linalg import COMPLETION_RESIDUAL_TOL, _gram_residual
from dc_lab.states import make_state


def target_state(fam):
    lam0 = fam.target_lambda0
    if abs(lam0 - 1 / fam.d) < 1e-12:
        return make_state(fam.d, [1 / fam.d] * fam.d)
    return make_state(fam.d, [lam0, 1 - lam0] + [0.0] * (fam.d - 2))


def test_shift_qutrit_matrix():
    expected = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    assert np.array_equal(shift(3), expected)


@pytest.mark.parametrize("d", range(2, 7))
def test_shift_has_cyclic_order_d(d):
    assert np.allclose(np.linalg.matrix_power(shift(d), d), np.eye(d))


def test_shift_wraparound_d4():
    ket3 = np.zeros(4)
    ket3[3] = 1.0
    assert np.allclose(shift(4) @ ket3, np.eye(4)[:, 0])


def test_phase_qutrit_matrix():
    z = phase(3)
    assert np.allclose(np.diag(z), [1, np.exp(2j * np.pi / 3), np.exp(4j * np.pi / 3)])


@pytest.mark.parametrize("d", range(2, 7))
def test_phase_has_order_d(d):
    assert np.allclose(np.linalg.matrix_power(phase(d), d), np.eye(d))


@pytest.mark.parametrize("d", range(2, 31))
def test_phase_trace_vanishes(d):
    assert abs(np.trace(phase(d))) <= 1e-12


@pytest.mark.parametrize("n", range(2, 31))
def test_root_of_unity_sums_vanish(n):
    # sum of all n-th roots of unity generated by any non-unit root
    for k in range(1, n):
        total = sum(_root_of_unity(n, j * k) for j in range(n))
        assert abs(total) <= 1e-12


def test_weyl_qutrit_matches_explicit_products():
    x, z = shift(3), phase(3)
    expected = [
        np.eye(3),
        x,
        x @ x,
        z,
        z @ x,
        z @ x @ x,
        z @ z,
        z @ z @ x,
        z @ z @ x @ x,
    ]
    fam = weyl_family(3)
    assert len(fam) == 9
    for got, want in zip(fam.members, expected):
        assert np.allclose(got, want, atol=1e-14)


def test_weyl_d2_is_pauli_equivalent_set():
    fam = weyl_family(2)
    assert len(fam) == 4
    assert np.array_equal(fam.members[0], np.eye(2))
    assert np.allclose(fam.members[1], [[0, 1], [1, 0]])
    assert np.allclose(fam.members[2], [[1, 0], [0, -1]])
    assert np.allclose(fam.members[3], [[0, 1], [-1, 0]])


@pytest.mark.parametrize("d", range(2, 7))
def test_weyl_counts_and_verification(d):
    fam = weyl_family(d)
    assert len(fam) == d * d
    report = verify_family(fam, make_state(d, [1 / d] * d), tol=1e-12)
    assert report.passed


@pytest.mark.parametrize("d", range(2, 7))
def test_each_weyl_block_is_a_shift_diag_family(d, rng):
    """Z^a X^b for fixed a are the shifts X^b times diagonals, so each block of
    d consecutive members is valid for every state, not only the uniform one."""
    members = weyl_family(d).members
    for a in range(d):
        block = members[a * d : (a + 1) * d]
        for _ in range(5):
            state = make_state(d, random_sorted_weights(rng, d))
            assert verify_family(block, state, tol=1e-12).passed


def test_five_family_entries():
    fam = qutrit_five_family()
    assert len(fam) == 5
    assert fam.target_lambda0 == pytest.approx(3 / 5)
    labels = [np.eye(3), None, None, None, None]
    assert np.array_equal(fam.members[0], labels[0])
    u = fam.members[4]
    assert u[0, 0] == pytest.approx(-2 / 3)
    assert u[0, 2] == pytest.approx(np.sqrt(5) / 3)
    m, mstar = fam.members[2], fam.members[3]
    assert m[1, 0] == pytest.approx(1j / np.sqrt(3))
    assert mstar[1, 0] == pytest.approx(-1j / np.sqrt(3))
    assert np.array_equal(mstar, m.conj())
    for member in fam.members:
        assert member[2, 1] == 0


def test_five_family_verifies_at_low_state():
    report = verify_family(qutrit_five_family(), make_state(3, [3 / 5, 2 / 5, 0]), tol=1e-12)
    assert report.passed


def test_f46_entries():
    fam = family_dp2(4)
    assert len(fam) == 6 and fam.target_lambda0 == pytest.approx(2 / 3)
    u1 = fam.members[2]
    h = np.sqrt(3) / 2
    assert u1[0, 0] == pytest.approx(-0.5)
    assert u1[0, 2] == pytest.approx(h)
    assert u1[2, 0] == pytest.approx(-h)
    assert u1[2, 2] == pytest.approx(-0.5)
    assert u1[1, 1] == 1 and u1[3, 3] == 1


def test_f47_entries():
    fam = family_2dm1(4)
    assert len(fam) == 7 and fam.target_lambda0 == pytest.approx(4 / 7)
    u = fam.members[3]
    s7 = np.sqrt(7)
    assert u[0, 0] == pytest.approx(-3 / 4)
    assert u[0, 3] == pytest.approx(s7 / 4)
    assert u[3, 0] == pytest.approx(-s7 / 4)
    assert u[3, 3] == pytest.approx(-3 / 4)
    for j in range(3):
        assert fam.members[4 + j][3, 0] == pytest.approx(s7 / 4)


def test_a_family_iterates_over_its_members():
    fam = family_dp2(4)
    assert len(fam) == 6
    assert [id(m) for m in fam] == [id(m) for m in fam.members]


def test_2dm1_d4_delegates_to_f47():
    assert family_2dm1(4).label == "F_4/7"


@pytest.mark.parametrize("d", range(4, 9))
def test_2dm1_starts_with_the_block_shifts(d):
    """A_j is X_{d-1}^j over [1], also at d = 4, where the family is F_4/7."""
    members = family_2dm1(d).members
    for j in range(d - 1):
        expected = np.zeros((d, d))
        expected[d - 1, d - 1] = 1.0
        expected[: d - 1, : d - 1] = np.linalg.matrix_power(shift(d - 1), j).real
        assert np.array_equal(members[j], _block_shift(d, j))
        assert np.array_equal(members[j], expected)


def test_2dm1_d5_columns():
    fam = family_2dm1(5)
    assert len(fam) == 9
    u = fam.members[-1]
    assert np.allclose(u[:, 0], [-4 / 5, 0, 0, 0, -3 / 5])
    m0 = fam.members[4]  # A_0..A_3 then M_0
    assert m0[0, 0] == pytest.approx(-1 / 5)
    assert m0[4, 0] == pytest.approx(3 / 5)


def test_2dm1_d7_m_entry():
    fam = family_2dm1(7)
    m0 = fam.members[6]
    assert m0[1, 0] == pytest.approx(-1j / np.sqrt(7))


@pytest.mark.parametrize("d", [5, 6, 7, 8, 9])
def test_2dm1_second_column_relation(d):
    fam = family_2dm1(d)
    factor = -d / (d - 1)
    for j in range(d - 1):
        mj = fam.members[(d - 1) + j]
        col1, col2 = mj[:, 0], mj[:, 1]
        assert col2[0] == pytest.approx(factor * col1[d - 2], abs=1e-14)
        for k in range(d - 2):
            assert col2[k + 1] == pytest.approx(factor * col1[k], abs=1e-14)
        assert col2[d - 1] == 0


@pytest.mark.parametrize("d", range(4, 13))
def test_2dm1_verifies_at_target(d):
    fam = family_2dm1(d)
    report = verify_family(fam, target_state(fam), tol=1e-10)
    assert len(fam) == 2 * d - 1
    assert report.passed


def test_2dm1_rejects_small_d():
    with pytest.raises(ValueError):
        family_2dm1(3)


# The printed F_4/6 members I, A, U_1, U_2, V_1, V_2 (all real).
H = np.sqrt(3.0) / 2
PRINTED_F46 = [
    np.eye(4),
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[-0.5, 0, H, 0], [0, 1, 0, 0], [-H, 0, -0.5, 0], [0, 0, 0, 1]],
    [[-0.5, 0, H, 0], [0, 1, 0, 0], [H, 0, 0.5, 0], [0, 0, 0, 1]],
    [[0, 1, 0, 0], [-0.5, 0, H, 0], [0, 0, 0, 1], [-H, 0, -0.5, 0]],
    [[0, 1, 0, 0], [-0.5, 0, H, 0], [0, 0, 0, 1], [H, 0, 0.5, 0]],
]


def test_dp2_small_dimensions():
    f2 = family_dp2(2)
    assert f2.label == "F_2/4" and len(f2) == 4
    assert verify_family(f2, make_state(2, [0.5, 0.5]), tol=1e-12).passed
    f3 = family_dp2(3)
    assert f3.label == "F_3/5" and len(f3) == 5
    f4 = family_dp2(4)
    assert f4.label == "F_4/6" and len(f4) == 6
    for got, printed in zip(f4.members, PRINTED_F46, strict=True):
        assert np.abs(got - np.asarray(printed)).max() <= 4.4e-16


def test_dp2_columns_need_no_frame_per_dimension():
    # building the columns must not take a Python frame per two dimensions: at
    # the default recursion limit that fails for every d >= 1998
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        columns = _dp2_columns(201)
    finally:
        sys.setrecursionlimit(limit)
    assert columns.shape == (200, 201, 2)  # M, U_1..U_100, V_1..V_99
    assert _gram_residual(columns).max() <= COMPLETION_RESIDUAL_TOL


def test_dp2_d6_new_column():
    fam = family_dp2(6)
    # order: I, A, U1, U2, U3, V1, V2, V3
    u3 = fam.members[4]
    assert np.allclose(u3[:, 0], [-1 / 3, 0, np.sqrt(8) / 3, 0, 0, 0])


def test_dp2_d6_matches_displayed_columns():
    fam = family_dp2(6)
    s8 = np.sqrt(8) / 3
    expected_u1 = np.array([-1 / 3, 0, s8 * (-1 / 2), s8 * (-np.sqrt(3) / 2), 0, 0])
    expected_u2 = np.array([-1 / 3, 0, s8 * (-1 / 2), s8 * (np.sqrt(3) / 2), 0, 0])
    expected_v1 = np.array([0, -1 / 3, 0, 0, s8 * (-np.sqrt(3) / 2), s8 * (-1 / 2)])
    expected_v2 = np.array([0, -1 / 3, 0, 0, s8 * (np.sqrt(3) / 2), s8 * (-1 / 2)])
    assert np.allclose(fam.members[2][:, 0], expected_u1)
    assert np.allclose(fam.members[3][:, 0], expected_u2)
    assert np.allclose(fam.members[5][:, 0], expected_v1)
    assert np.allclose(fam.members[6][:, 0], expected_v2)
    for idx in (2, 3, 4):
        assert np.allclose(fam.members[idx][:, 1], np.eye(6)[:, 1])
    for idx in (5, 6, 7):
        assert np.allclose(fam.members[idx][:, 1], np.eye(6)[:, 0])


def test_dp2_d5_m_entries():
    fam = family_dp2(5)
    m = fam.members[2]
    assert m[0, 1] == pytest.approx((np.sqrt(3) / 2) * 1j)
    assert m[1, 1] == pytest.approx(1 / 2)
    assert np.array_equal(fam.members[3], m.conj())


def test_dp2_d8_leading_entry():
    fam = family_dp2(8)
    for j in range(4):
        assert fam.members[2 + j][0, 0] == pytest.approx(-1 / 4)


@pytest.mark.parametrize("d", [6, 8, 10])
def test_dp2_even_recursion_reconstruction(d):
    prev = family_dp2(d - 2)
    fam = family_dp2(d)
    scale = np.sqrt(1 - (2 / d) ** 2)
    n_prev = (d - 2) // 2
    for j in range(n_prev):
        prev_col = prev.members[2 + j][:, 0]
        rotated = np.concatenate([prev_col[:1], prev_col[2:], prev_col[1:2]])
        expected = np.concatenate([[-2 / d, 0], scale * rotated])
        assert np.allclose(fam.members[2 + j][:, 0], expected, atol=1e-14)


@pytest.mark.parametrize("d", range(2, 13))
def test_dp2_verifies_at_target(d):
    fam = family_dp2(d)
    assert len(fam) == d + 2
    assert verify_family(fam, target_state(fam), tol=1e-10).passed


@pytest.mark.parametrize("d", [5, 7, 8])
def test_completion_is_irrelevant_to_orthogonality(rng, d):
    # only the first two columns matter once lambda2.. vanish: randomize the rest
    fam = family_dp2(d)
    state = target_state(fam)
    scrambled = []
    for member in fam.members:
        block = member[:, 2:] @ haar_unitary(rng, d - 2)
        scrambled.append(np.concatenate([member[:, :2], block], axis=1))
    report = verify_family(scrambled, state, tol=1e-10)
    assert report.passed


def test_completed_columns_are_orthonormal_to_the_completion_tolerance():
    # complete_to_unitary refuses columns off orthonormal by more than
    # COMPLETION_RESIDUAL_TOL; both constructions' columns stay well within it
    for d in (*range(5, 17), 31, 32, 63, 64, 96, 127, 128):
        for columns in (_dp2_columns(d), _2dm1_columns(d)):
            assert np.max(_gram_residual(columns)) <= COMPLETION_RESIDUAL_TOL


def test_shift_diag_identity_diagonals():
    fam = shift_diag_family(3, [np.ones(3)] * 3)
    x = shift(3)
    assert np.array_equal(fam.members[0], np.eye(3))
    assert np.allclose(fam.members[1], x)
    assert np.allclose(fam.members[2], x @ x)
    assert fam.target_lambda0 is None


def test_shift_diag_with_phase_diagonal():
    fam = shift_diag_family(2, [np.ones(2), [1.0, -1.0]])
    assert np.allclose(fam.members[1], [[0, -1], [1, 0]])


def test_shift_diag_verifies_for_arbitrary_states(rng):
    for d in (2, 3, 4, 6):
        diags = [np.exp(2j * np.pi * rng.random(d)) for _ in range(d)]
        fam = shift_diag_family(d, diags)
        for _ in range(5):
            state = make_state(d, random_sorted_weights(rng, d))
            assert verify_family(fam, state, tol=1e-12).max_pairwise_residual <= 1e-12


def test_shift_diag_rejects_bad_input():
    # a diagonal off the unit circle is refused by the unitarity check of the member it makes
    with pytest.raises(ValueError, match=re.escape("member 1 of shift-diag is not unitary: residual 7.500e-01")):
        shift_diag_family(2, [np.ones(2), np.array([1.0, 0.5])])
    # a diagonal is a vector: a (d, d) matrix, even a diagonal one, has the wrong length
    with pytest.raises(ValueError, match=re.escape("diagonal 1 has length (2, 2), expected 2")):
        shift_diag_family(2, [np.ones(2), np.eye(2)])
    with pytest.raises(ValueError, match=re.escape("diagonal 0 has length (3,), expected 2")):
        shift_diag_family(2, [np.ones(3), np.ones(2)])
    with pytest.raises(ValueError, match="expected 3 diagonals, got 2"):
        shift_diag_family(3, [np.ones(3)] * 2)


@pytest.mark.parametrize("d", [-1, 0, 1])
def test_constructors_reject_dimensions_below_two(d):
    for build in (weyl_family, family_dp2, lambda d: shift_diag_family(d, [np.ones(max(d, 0))] * max(d, 0))):
        with pytest.raises(ValueError, match=f"dimension d must be an integer >= 2, got {d}"):
            build(d)


CONSTRUCTORS = {
    "shift": shift,
    "phase": phase,
    "weyl": weyl_family,
    "dp2": family_dp2,
    "2dm1": family_2dm1,
    "shift-diag": lambda d: shift_diag_family(d, [np.ones(5)] * 5),
}


@pytest.mark.parametrize("build", list(CONSTRUCTORS.values()), ids=list(CONSTRUCTORS))
@pytest.mark.parametrize("d", [2.5, 3.0])
def test_constructors_refuse_a_dimension_that_is_not_an_integer(build, d):
    # family_dp2(2.5) recursed until RecursionError, and the others died in numpy
    with pytest.raises(ValueError, match=f"dimension d must be an integer >= 2, got {d}"):
        build(d)


@pytest.mark.parametrize("build", list(CONSTRUCTORS.values()), ids=list(CONSTRUCTORS))
def test_constructors_accept_a_numpy_integer_dimension(build):
    got, want = build(np.int64(5)), build(5)
    for a, b in zip(getattr(got, "members", [got]), getattr(want, "members", [want]), strict=True):
        assert np.array_equal(a, b)
