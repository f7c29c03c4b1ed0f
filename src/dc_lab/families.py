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

from .linalg import UNITARITY_TOL, as_matrix, complete_to_unitary, unitarity_residual
from .states import _check_dimension


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
# 0.18-0.20 s in one stack and in blocks of 32, 0.31 s in blocks of 16,
# 0.36-0.45 s in blocks of 8 and 2.5 s one at a time: each call costs about
# the same however few matrices it holds.
_BLOCK_ENTRIES = 1 << 17


def _checked(d: int, label: str, members):
    """Each of members, checked as a unitary (d, d) complex matrix and made
    read-only, one at a time; a member count outside [d, d*d] raises once the
    members run out.  No member is held once the next is taken."""
    k = 0
    for m in members:
        m = as_matrix(m)
        if m.shape != (d, d):
            raise ValueError(f"member {k} of {label} has shape {m.shape}, expected ({d}, {d})")
        res = unitarity_residual(m)
        if res > UNITARITY_TOL:
            raise ValueError(f"member {k} of {label} is not unitary: residual {res:.3e}")
        m.flags.writeable = False
        yield m
        k += 1
        del m
    if not d <= k <= d * d:
        raise ValueError(f"{label} has {k} members, outside [{d}, {d * d}]")


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
    for a in range(d):
        for b in range(d):
            m = np.zeros((d, d), dtype=np.complex128)
            for j in range(d):
                row = (j + b) % d
                m[row, j] = _root_of_unity(d, a * row)
            yield m


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
    a = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=np.complex128)
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
    if d != 4:
        raise ValueError("F_4/6 is defined for d=4")
    h = np.sqrt(3.0) / 2
    eye = np.eye(4, dtype=np.complex128)
    a = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=np.complex128)
    u1 = np.array(
        [[-0.5, 0, h, 0], [0, 1, 0, 0], [-h, 0, -0.5, 0], [0, 0, 0, 1]], dtype=np.complex128
    )
    u2 = np.array(
        [[-0.5, 0, h, 0], [0, 1, 0, 0], [h, 0, 0.5, 0], [0, 0, 0, 1]], dtype=np.complex128
    )
    v1 = np.array(
        [[0, 1, 0, 0], [-0.5, 0, h, 0], [0, 0, 0, 1], [-h, 0, -0.5, 0]], dtype=np.complex128
    )
    v2 = np.array(
        [[0, 1, 0, 0], [-0.5, 0, h, 0], [0, 0, 0, 1], [h, 0, 0.5, 0]], dtype=np.complex128
    )
    return "F_4/6", 2 / 3, [eye, a, u1, u2, v1, v2]


def _f47(d: int):
    if d != 4:
        raise ValueError("F_4/7 is defined for d=4")
    s7 = np.sqrt(7.0)
    eye = np.eye(4, dtype=np.complex128)
    a1 = np.array([[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128)
    a2 = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1]], dtype=np.complex128)
    u = np.array(
        [
            [-3 / 4, 0, 0, s7 / 4],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [-s7 / 4, 0, 0, -3 / 4],
        ],
        dtype=np.complex128,
    )
    members = [eye, a1, a2, u]
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
    out = np.zeros((d, d), dtype=np.complex128)
    for col in range(d - 1):
        out[(col + j) % (d - 1), col] = 1.0
    out[d - 1, d - 1] = 1.0
    return out


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
    """Second column of M_j, determined entrywise by the first column."""
    col2 = np.zeros(d, dtype=np.complex128)
    factor = -d / (d - 1)
    col2[0] = factor * col1[d - 2]
    for k in range(d - 2):
        col2[k + 1] = factor * col1[k]
    col2[d - 1] = 0.0
    return col2


def _2dm1_columns(d: int) -> np.ndarray:
    """The (d, d, 2) stack of the first two columns of M_0, ..., M_{d-2}, U."""
    firsts = [_two_dm1_m_column(d, j) for j in range(d - 1)]
    seconds = [_second_column_from_first(d, col1) for col1 in firsts]
    u_col1 = np.zeros(d, dtype=np.complex128)
    u_col1[0] = -(d - 1.0) / d
    u_col1[d - 1] = -np.sqrt(2 * d - 1) / d
    u_col2 = np.zeros(d, dtype=np.complex128)
    u_col2[1] = 1.0
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

    Members are ordered A_0 = I, A_1, ..., A_{d-2}, M_0, ..., M_{d-2}, U.
    The d = 4 case does not fit the general pattern: it is F_4/7.
    """
    return _family(d, *_2dm1(d))


def _rotate_second_entry_last(v: np.ndarray) -> np.ndarray:
    """Row permutation used by the d+2 recursion: entry 1 moves to the end."""
    return np.concatenate([v[:1], v[2:], v[1:2]])


def _dp2_first_columns(d: int):
    """First columns of the U, V (and M, when d is odd) members at dimension d.

    Returns (us, vs, m) where m is None for even d.  Both parities grow the
    same way: each smaller column is rescaled by sqrt(1 - (2/d)^2) after the
    row rotation, two leading entries are prepended, and one fresh column of
    the simplest shape joins each of the U and V lists.
    """
    if d == 4:
        h = np.sqrt(3.0) / 2
        us = [np.array([-0.5, 0, -h, 0]), np.array([-0.5, 0, h, 0])]
        vs = [np.array([0, -0.5, 0, -h]), np.array([0, -0.5, 0, h])]
        return [u.astype(np.complex128) for u in us], [v.astype(np.complex128) for v in vs], None
    if d == 5:
        s21 = np.sqrt(21.0) / 5
        us = [
            np.array([-2 / 5, 0, s21 * (-2 / 3), s21 * (np.sqrt(5.0) / 3), 0]),
            np.array([-2 / 5, 0, s21, 0, 0]),
        ]
        vs = [np.array([0, -2 / 5, 0, 0, s21])]
        m = np.array(
            [
                -1 / 5,
                -(np.sqrt(3.0) / 5) * 1j,
                s21 * (-1 / 3),
                s21 * (-np.sqrt(5.0) / 3),
                s21 * (-(np.sqrt(3.0) / 3) * 1j),
            ]
        )
        return [u.astype(np.complex128) for u in us], [v.astype(np.complex128) for v in vs], m.astype(np.complex128)

    prev_us, prev_vs, prev_m = _dp2_first_columns(d - 2)
    scale = np.sqrt(1.0 - (2.0 / d) ** 2)
    head = np.array([-2.0 / d, 0.0], dtype=np.complex128)
    us = [np.concatenate([head, scale * _rotate_second_entry_last(u)]) for u in prev_us]
    vs = [np.concatenate([head[::-1], scale * _rotate_second_entry_last(v)]) for v in prev_vs]
    new_u = np.zeros(d, dtype=np.complex128)
    new_u[0] = -2.0 / d
    new_u[2] = scale
    us.append(new_u)
    new_v = np.zeros(d, dtype=np.complex128)
    new_v[1] = -2.0 / d
    new_v[d - 1] = scale
    vs.append(new_v)
    m = None
    if prev_m is not None:
        m = np.concatenate(
            [np.array([-1.0 / d, -(np.sqrt(3.0) / d) * 1j]), scale * _rotate_second_entry_last(prev_m)]
        )
    return us, vs, m


def _dp2_columns(d: int) -> np.ndarray:
    """The (n, d, 2) stack of the first two columns of M (when d is odd),
    U_1..U_j and V_1..V_k."""
    us, vs, m = _dp2_first_columns(d)
    e0 = np.zeros(d, dtype=np.complex128)
    e0[0] = 1.0
    e1 = np.zeros(d, dtype=np.complex128)
    e1[1] = 1.0
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
    if d == 2:
        _, target, members = _weyl(2)
        return "F_2/4", target, members
    if d == 3:
        return _five(d)
    if d == 4:
        return _f46(d)
    return f"F_{d}/{d + 2}", d / (d + 2), _dp2_members(d)


def family_dp2(d: int) -> EncodingFamily:
    """d+2 encoding unitaries at lambda0 = d/(d+2), for every d >= 2.

    d = 2 is the identity-plus-Pauli-equivalents set, d = 3 the qutrit five
    family, d = 4 the six-member F_4/6; larger dimensions are built
    recursively two dimensions at a time.  Members are ordered I, A
    (first-two-columns swap), then M and its conjugate when d is odd, then
    U_1..U_j, V_1..V_k.
    """
    return _family(d, *_dp2(d))


def _shift_diag_members(d: int, diags):
    for k, dk in enumerate(diags):
        m = np.zeros((d, d), dtype=np.complex128)
        for j in range(d):
            m[(j + k) % d, j] = dk[j]
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
