"""Constructors for explicit families of encoding unitaries.

Each constructor returns an EncodingFamily whose members are plain (d, d)
complex arrays in a fixed documented order, together with a provenance label
and the largest Schmidt weight lambda0 the family is designed for (None when
the family works for every state).

Several constructions pin down only the first two columns of a member; that is
all that matters for weighted orthogonality when only lambda0 and lambda1 are
nonzero, and the remaining columns come from the deterministic completion in
:func:`dc_lab.linalg.complete_to_unitary`.

Behind each constructor is a private function of d that returns the label,
the target lambda0 and an iterable of the members, which a generator builds
only as they are taken: the constructor collects them through `_family`, and
`dc-lab construct` writes them one at a time, so it never holds the family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import VERIFY_TOL
from .linalg import as_matrix, complete_to_unitary, unitarity_residual
from .states import _check_count, _check_dimension, _check_shape


@dataclass(frozen=True, eq=False)
class EncodingFamily:
    """An ordered family of same-dimension encoding unitaries."""

    d: int
    members: tuple[np.ndarray, ...]
    label: str
    target_lambda0: float | None = None

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


# Matrix entries per block of the orthonormal completion: 32 members at
# d = 64.  Completing the 64 matrices of the 2d-1 family at d = 64 took
# 0.066 s in one stack, 0.063 s in blocks of 32, 0.064 s in blocks of 16,
# 0.081 s in blocks of 8 and 0.26-0.30 s one at a time: each call has a
# fixed cost of one step per candidate.
_BLOCK_ENTRIES = 1 << 17


def _checked_member(m, k: int, d: int, name: str) -> np.ndarray:
    """Member k of family `name` as a complex matrix, refused unless finite, (d, d) and unitary."""
    m = as_matrix(m)
    _check_shape(m.shape, k, d, name)
    res = unitarity_residual(m)
    if res > VERIFY_TOL:
        raise ValueError(f"member {k} of {name} is not unitary: residual {res:.3e}")
    return m


def _checked(d: int, label: str, members):
    """Each of members, checked by `_checked_member` and made read-only, one at a time, then
    their count (see `states._check_count`).  No member is held once the next is taken."""
    k = 0
    for m in members:
        m = _checked_member(m, k, d, label)
        m.flags.writeable = False
        yield m
        k += 1
        del m
    _check_count(k, d, label)


def _family(d: int, label: str, target_lambda0: float | None, members) -> EncodingFamily:
    """The family of `members`, checked and made read-only, not copied: callers pass new arrays."""
    mats = tuple(_checked(d, label, members))
    return EncodingFamily(d=d, members=mats, label=label, target_lambda0=target_lambda0)


def _completed(columns: np.ndarray, d: int):
    """The unitary completion of each (d, k) matrix of columns, in order, a
    block of _BLOCK_ENTRIES entries at a time.

    Each member is a view of its block, which is dropped once its last
    member is taken, so a caller that holds no member while it takes the
    next holds one block.  A matrix is completed bit for bit as it would be
    alone, so the block size changes no member.
    """
    step = max(1, _BLOCK_ENTRIES // (d * d))
    for start in range(0, len(columns), step):
        yield from complete_to_unitary(columns[start : start + step], d)


def _root_of_unity(n: int, k: int = 1) -> complex:
    """exp(2 pi i k / n), evaluated directly for the reduced exponent."""
    return complex(np.exp(2j * np.pi * (k % n) / n))


def shift(d: int) -> np.ndarray:
    """Cyclic shift X_d with X_d|j> = |(j+1) mod d>."""
    _check_dimension(d)
    x = np.zeros((d, d), dtype=np.complex128)
    for j in range(d):
        x[(j + 1) % d, j] = 1.0
    return x


def phase(d: int) -> np.ndarray:
    """Phase operator Z_d = diag(1, w, w^2, ...) with w = exp(2 pi i / d)."""
    _check_dimension(d)
    return np.diag([_root_of_unity(d, k) for k in range(d)])


def _weyl_members(d: int):
    # Z^a X^b is X^b times the diagonal with w^(a ((j + b) mod d)) in column j.
    roots, cols = np.array([_root_of_unity(d, k) for k in range(d)]), np.arange(d)
    for a in range(d):
        yield from _shift_diag_members(d, (roots[a * ((cols + b) % d) % d] for b in range(d)))


def _weyl(d: int):
    _check_dimension(d)
    return "weyl", 1.0 / d, _weyl_members(d)


def weyl_family(d: int) -> EncodingFamily:
    """The d^2 products Z^a X^b, ordered lexicographically in (a, b).

    Pairwise orthogonal against the maximally entangled state; for d = 2 this
    is the identity together with Pauli-equivalent matrices.
    """
    return _family(d, *_weyl(d))


def _five(d: int):
    if d != 3:
        raise ValueError("the five family is defined for d=3")
    s3 = np.sqrt(3.0)
    s5 = np.sqrt(5.0)
    eye = np.eye(3, dtype=np.complex128)
    a = eye[:, [1, 0, 2]]
    u = np.array(
        [
            [-2 / 3, 0, s5 / 3],
            [0, 1, 0],
            [-s5 / 3, 0, -2 / 3],
        ],
        dtype=np.complex128,
    )
    m = np.array(
        [
            [-1 / 3, -(s3 / 2) * 1j, s5 / 6],
            [(1 / s3) * 1j, 1 / 2, -(s5 / (2 * s3)) * 1j],
            [s5 / 3, 0, 2 / 3],
        ],
        dtype=np.complex128,
    )
    return "five", 3 / 5, [eye, a, m, m.conj(), u]


def qutrit_five_family() -> EncodingFamily:
    """The five-member qutrit family {I, A, M, M*, U} aimed at lambda0 = 3/5.

    Orthogonal against weights (3/5, 2/5, 0); every member has a zero at its
    3,2 entry.
    """
    return _family(3, *_five(3))


def _f46(d: int):
    """F_4/6, the d+2 family at d = 4."""
    if d != 4:
        raise ValueError("F_4/6 is defined for d=4")
    return _dp2(d)


def _f47(d: int):
    if d != 4:
        raise ValueError("F_4/7 is defined for d=4")
    s7 = np.sqrt(7.0)
    u = np.array(
        [
            [-3 / 4, 0, 0, s7 / 4],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [-s7 / 4, 0, 0, -3 / 4],
        ],
        dtype=np.complex128,
    )
    members = [_block_shift(4, j) for j in range(3)] + [u]
    for j in range(3):
        w1 = _root_of_unity(3, j)
        w2 = _root_of_unity(3, 2 * j)
        mj = np.array(
            [
                [-1 / 4, -(2 / 3) * w2, -(2 / 3) * w1, s7 / 12],
                [(1 / 2) * w1, 1 / 3, -(2 / 3) * w2, -(s7 / 6) * w1],
                [(1 / 2) * w2, -(2 / 3) * w1, 1 / 3, -(s7 / 6) * w2],
                [s7 / 4, 0, 0, 3 / 4],
            ],
            dtype=np.complex128,
        )
        members.append(mj)
    return "F_4/7", 4 / 7, members


def _block_shift(d: int, j: int) -> np.ndarray:
    """Block-diagonal matrix with X_{d-1}^j in the top-left corner over [1]."""
    return np.eye(d, dtype=np.complex128)[:, [*range(j, d - 1), *range(j), d - 1]]


def _two_dm1_m_column(d: int, j: int) -> np.ndarray:
    """First column of member M_j in the 2d-1 construction."""
    col = np.zeros(d, dtype=np.complex128)
    col[0] = -1.0 / d
    col[d - 1] = np.sqrt(2 * d - 1) / d
    inv_root = 1.0 / np.sqrt(d)
    if d % 2 == 1:
        for k in range(1, d - 1):
            sign = -((-1.0) ** (k // 2))
            col[k] = sign * inv_root * (1j**k) * _root_of_unity(d - 1, k * j)
    else:
        for k in range(1, d - 1):
            exp_small = (k - 1) // 2 if k % 2 == 1 else 0
            col[k] = -inv_root * 1j * _root_of_unity(d - 3, exp_small) * _root_of_unity(d - 1, k * j)
    return col


def _second_column_from_first(d: int, col1: np.ndarray) -> np.ndarray:
    """Second column of M_j: the first d-1 entries of the first column shifted
    cyclically down by one and scaled by -d/(d-1), over a zero last entry."""
    col2 = np.zeros(d, dtype=np.complex128)
    col2[: d - 1] = -d / (d - 1) * np.roll(col1[: d - 1], 1)
    return col2


def _2dm1_columns(d: int) -> np.ndarray:
    """The (d, d, 2) stack of the first two columns of M_0, ..., M_{d-2}, U."""
    firsts = [_two_dm1_m_column(d, j) for j in range(d - 1)]
    seconds = [_second_column_from_first(d, col1) for col1 in firsts]
    u_col1 = np.zeros(d, dtype=np.complex128)
    u_col1[0] = -(d - 1.0) / d
    u_col1[d - 1] = -np.sqrt(2 * d - 1) / d
    u_col2 = np.eye(d, dtype=np.complex128)[1]
    return np.stack([firsts + [u_col1], seconds + [u_col2]], axis=-1)


def _2dm1_members(d: int):
    for j in range(d - 1):
        yield _block_shift(d, j)
    yield from _completed(_2dm1_columns(d), d)


def _2dm1(d: int):
    _check_dimension(d)
    if d < 4:
        raise ValueError(f"the 2d-1 construction needs d >= 4, got {d}")
    if d == 4:
        return _f47(d)
    label = "2d-1-odd" if d % 2 == 1 else "2d-1-even"
    return label, d / (2 * d - 1), _2dm1_members(d)


def family_2dm1(d: int) -> EncodingFamily:
    """2d-1 encoding unitaries at lambda0 = d/(2d-1), for d >= 4.

    Members are ordered A_0 = I, A_1, ..., A_{d-2}, M_0, ..., M_{d-2}, U, with
    A_j = `_block_shift(d, j)`.  At d = 4, where the general columns are not
    orthonormal, it is F_4/7: A_0, A_1, A_2, then the paper's printed U, M_0, M_1, M_2.
    """
    return _family(d, *_2dm1(d))


def _rotate_second_entry_last(v: np.ndarray) -> np.ndarray:
    """Row permutation used by the d+2 recursion: entry 1 moves to the end."""
    return np.concatenate([v[:1], v[2:], v[1:2]])


def _dp2_first_columns(d: int):
    """First columns of the U, V (and M, when d is odd) members at dimension d.

    Returns (us, vs, m) where m is None for even d.  The columns start from
    the seed of d's parity and grow two dimensions at a time, to n = d:
    - d = 2: us = [-e0], vs = [-e1], no m;
    - d = 3: us = [(-2/3, 0, sqrt(5)/3)], no vs,
      m = (-1/3, -i/sqrt(3), -sqrt(5)/3).
    Each step rotates every column's entry 1 to the end, rescales it by
    sqrt(1 - (2/n)^2) and prepends two entries: (-2/n, 0) to a U column,
    (0, -2/n) to a V column and (-1/n, -i sqrt(3)/n) to m.  Before the step,
    e0 joins the U columns and e1 the V columns, so each list gains one.
    """
    s3 = np.sqrt(3.0)
    if d % 2 == 0:
        e = np.eye(2, dtype=np.complex128)
        us, vs, m = [-e[0]], [-e[1]], None
    else:
        s5 = np.sqrt(5.0)
        us, vs = [np.array([-2 / 3, 0, s5 / 3], dtype=np.complex128)], []
        m = np.array([-1 / 3, -(s3 / 3) * 1j, -s5 / 3])
    for n in range(len(us[0]) + 2, d + 1, 2):
        scale = np.sqrt(1.0 - (2.0 / n) ** 2)
        head = np.array([-2.0 / n, 0.0], dtype=np.complex128)
        e0, e1 = np.eye(2, n - 2, dtype=np.complex128)
        us = [np.concatenate([head, scale * _rotate_second_entry_last(u)]) for u in us + [e0]]
        vs = [np.concatenate([head[::-1], scale * _rotate_second_entry_last(v)]) for v in vs + [e1]]
        if m is not None:
            m = np.concatenate([[-1.0 / n, -(s3 / n) * 1j], scale * _rotate_second_entry_last(m)])
    return us, vs, m


def _dp2_columns(d: int) -> np.ndarray:
    """The (n, d, 2) stack of the first two columns of M (when d is odd),
    U_1..U_j and V_1..V_k."""
    us, vs, m = _dp2_first_columns(d)
    e0, e1 = np.eye(2, d, dtype=np.complex128)
    firsts, seconds = us + vs, [e1] * len(us) + [e0] * len(vs)
    if m is not None:
        m_col2 = np.zeros(d, dtype=np.complex128)
        m_col2[0] = (np.sqrt(3.0) / 2) * 1j
        m_col2[1] = 0.5
        firsts, seconds = [m] + firsts, [m_col2] + seconds
    return np.stack([firsts, seconds], axis=-1)


def _dp2_members(d: int):
    yield np.eye(d, dtype=np.complex128)
    yield np.eye(d, dtype=np.complex128)[:, [1, 0, *range(2, d)]]
    completed = _completed(_dp2_columns(d), d)
    if d % 2 == 1:
        m_full = next(completed)
        yield m_full
        yield m_full.conj()
        del m_full
    yield from completed


def _dp2(d: int):
    _check_dimension(d)
    return f"F_{d}/{d + 2}", d / (d + 2), _dp2_members(d)


def family_dp2(d: int) -> EncodingFamily:
    """d+2 encoding unitaries at lambda0 = d/(d+2), for every d >= 2, labelled F_d/(d+2).

    The first columns grow two dimensions at a time from d = 2 or d = 3 (see
    `_dp2_first_columns`), so d = 4 is F_4/6, and d = 3 is the qutrit five
    family up to the sign of entries of its U and M first columns.  Members are
    ordered I, A (first-two-columns swap), then M and its conjugate when d
    is odd, then U_1..U_j, V_1..V_k.
    """
    return _family(d, *_dp2(d))


def _shift_diag_members(d: int, diags):
    cols = np.arange(d)
    for k, dk in enumerate(diags):
        m = np.zeros((d, d), dtype=np.complex128)
        # assigned, not multiplied into a shift: 0 * z can be -0.0, which a document prints
        m[(cols + k) % d, cols] = dk
        yield m


def _shift_diag(d: int, diagonals):
    _check_dimension(d)
    diags = []
    for i, entry in enumerate(diagonals):
        arr = np.asarray(entry, dtype=np.complex128)
        if arr.shape != (d,):
            raise ValueError(f"diagonal {i} has length {arr.shape}, expected {d}")
        diags.append(arr)
    if len(diags) != d:
        raise ValueError(f"expected {d} diagonals, got {len(diags)}")
    return "shift-diag", None, _shift_diag_members(d, diags)


def _shifts(d: int):
    """The plain shift family {X_d^k}: `_shift_diag` with every diagonal 1."""
    return _shift_diag(d, (np.ones(d) for _ in range(d)))


def shift_diag_family(d: int, diagonals) -> EncodingFamily:
    """The family {X_d^k D_k} for unitary diagonal D_k, valid for every state.

    Off the k = 0 member, every pairwise product has an all-zero main
    diagonal, so weighted orthogonality holds regardless of the weights.
    Each diagonal is given as a length-d vector.
    """
    return _family(d, *_shift_diag(d, diagonals))
