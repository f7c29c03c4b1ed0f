import numpy as np
import pytest

from conftest import haar_unitary
from dc_lab import linalg
from dc_lab.linalg import complete_to_unitary, unitarity_residual


def _complete(columns, d):
    """The completion of one matrix, from its list of length-d columns."""
    return complete_to_unitary(np.stack(columns, axis=-1)[None], d)[0]


def test_unitarity_residual_rejects_nonfinite():
    bad = np.array([[np.nan, 0], [0, 1]])
    with pytest.raises(ValueError, match="finite"):
        unitarity_residual(bad)


def test_unitarity_residual_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        unitarity_residual(np.ones((2, 3)))
    with pytest.raises(ValueError, match="2-D"):
        unitarity_residual(np.ones(3))


def test_complete_single_column_d2_gives_identity():
    e0 = np.array([1.0, 0.0])
    assert np.array_equal(_complete([e0], 2), np.eye(2))


def test_complete_two_columns_from_five_dim_family():
    col1 = np.array([-2 / 5, 0, np.sqrt(21) / 5, 0, 0], dtype=complex)
    col2 = np.array([0, 1, 0, 0, 0], dtype=complex)
    u = _complete([col1, col2], 5)
    assert np.array_equal(u[:, 0], col1)
    assert np.array_equal(u[:, 1], col2)
    assert unitarity_residual(u) <= 1e-12


def test_complete_random_inputs_meet_residual_contract(rng):
    for d in range(2, 9):
        k = int(rng.integers(1, d + 1))
        source = haar_unitary(rng, d)
        cols = [source[:, i] for i in range(k)]
        u = _complete(cols, d)
        assert unitarity_residual(u) <= 1e-12
        assert np.allclose(u[:, :k], np.column_stack(cols), atol=1e-12)


def test_complete_idempotent_on_full_unitary(rng):
    u = haar_unitary(rng, 5)
    out = _complete([u[:, i] for i in range(5)], 5)
    assert np.array_equal(out, u)


def test_complete_is_deterministic(rng):
    source = haar_unitary(rng, 6)
    cols = [source[:, i] for i in range(2)]
    a = _complete(cols, 6)
    b = _complete(cols, 6)
    assert np.array_equal(a, b)


def test_completed_columns_phase_fixed(rng):
    source = haar_unitary(rng, 5)
    cols = [source[:, i] for i in range(2)]
    u = _complete(cols, 5)
    for j in range(2, 5):
        col = u[:, j]
        anchor = col[np.abs(col) > 1e-12][0]
        assert abs(anchor.imag) < 1e-12
        assert anchor.real > 0


def test_complete_rejects_nonorthonormal():
    c1 = np.array([1.0, 0.0, 0.0])
    c2 = np.array([0.8, 0.6, 0.0])
    with pytest.raises(ValueError):
        _complete([c1, c2], 3)


def test_complete_rejects_too_many_columns():
    with pytest.raises(ValueError):
        _complete([np.eye(2)[:, i] for i in range(2)], 1)
    with pytest.raises(ValueError, match="cannot fit 3 columns in dimension 2"):
        _complete([np.eye(2)[:, 0]] * 3, 2)
    with pytest.raises(ValueError, match="cannot fit 3 columns in dimension 2"):
        complete_to_unitary(np.zeros((1, 2, 3)), 2)


def _stacked_cases(rng, d):
    """(d, 2) partial matrices that take different paths through completion."""
    source = haar_unitary(rng, d)
    skipping = np.zeros((d, 2), dtype=complex)
    skipping[0, 0] = -1.0  # e_0 and e_2 are in the span: both candidates skipped
    skipping[2, 1] = 1j
    signed_zero = np.full((d, 2), complex(-0.0, -0.0))
    signed_zero[1, 0] = 1.0
    signed_zero[3, 1] = -1.0
    signed_zero[0, 1] = complex(0.0, -0.0)
    return [source[:, 2:4], skipping, signed_zero, source[:, :2]]


def _reference_completion(cols: np.ndarray) -> np.ndarray:
    """One matrix at a time, one numpy call per projection: the loop the
    stacked completion replaced, for exactly orthonormal input."""
    d = cols.shape[0]
    basis = [cols[:, i] for i in range(cols.shape[1])]
    for idx in range(d):
        if len(basis) == d:
            break
        v = np.zeros(d, dtype=np.complex128)
        v[idx] = 1.0
        for _ in range(2):
            for b in basis:
                v = v - (b.conj() @ v) * b
        nrm = np.linalg.norm(v)
        if nrm <= 1e-6:
            continue
        v = v / nrm
        anchor = v[np.abs(v) > 1e-12][0]
        basis.append(v * (anchor.conjugate() / abs(anchor)))
    return np.column_stack(basis)


def test_stacked_completion_equals_one_call_per_matrix(rng):
    for d in (4, 5, 7):
        cases = _stacked_cases(rng, d)
        stacked = complete_to_unitary(np.stack(cases), d)
        assert stacked.shape == (len(cases), d, d)
        for cols, got in zip(cases, stacked):
            alone = _complete([cols[:, 0], cols[:, 1]], d)
            assert got.tobytes() == alone.tobytes()
            assert got.tobytes() == _reference_completion(cols).tobytes()
            assert unitarity_residual(got) <= 1e-12
        skipping, signed_zero = stacked[1], stacked[2]
        assert np.array_equal(skipping[:, 2], np.eye(d)[:, 1])  # e_0 skipped, e_1 kept
        assert np.array_equal(skipping[:, 3], np.eye(d)[:, 3])  # e_2 skipped
        assert signed_zero[:, :2].tobytes() == cases[2].tobytes()


def test_stacked_completion_of_no_columns():
    assert np.array_equal(complete_to_unitary(np.zeros((3, 4, 0)), 4), np.broadcast_to(np.eye(4), (3, 4, 4)))


def test_stacked_completion_rejects_bad_stacks():
    with pytest.raises(ValueError, match="not orthonormal"):
        complete_to_unitary(np.stack([np.eye(3)[:, :2], np.ones((3, 2))]), 3)
    with pytest.raises(ValueError, match="length 4"):
        complete_to_unitary(np.zeros((2, 3, 1)), 4)
    with pytest.raises(ValueError, match="finite"):
        complete_to_unitary(np.full((1, 3, 1), np.nan), 3)
    with pytest.raises(ValueError, match=r"\(n, d, k\) stack"):
        complete_to_unitary(np.eye(3)[:, :2], 3)


def test_completion_refuses_columns_off_orthonormal_by_more_than_1e_12(rng):
    # columns within UNITARITY_TOL (1e-10) of orthonormal are refused when
    # they are not within COMPLETION_RESIDUAL_TOL
    for d in (4, 5, 7):
        near = haar_unitary(rng, d)[:, :2] + 3e-12 * rng.standard_normal((d, 2))
        assert 1e-12 < linalg._gram_residual(near) <= 1e-10
        with pytest.raises(ValueError, match="not orthonormal"):
            complete_to_unitary(near[None], d)


def test_unitary_product_closure(rng):
    for d in range(2, 9):
        u = haar_unitary(rng, d)
        v = haar_unitary(rng, d)
        assert unitarity_residual(u @ v) <= 1e-10
