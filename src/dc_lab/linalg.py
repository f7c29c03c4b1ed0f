"""Small dense complex linear-algebra kernels.

Everything here operates on plain numpy arrays of complex128.  The sizes of
interest are tiny (d up to a few dozen), so the routines favor clarity and
deterministic, reproducible behavior over asymptotic speed.
"""

from __future__ import annotations

import numpy as np

UNITARITY_TOL = 1e-10
COMPLETION_RESIDUAL_TOL = 1e-12

# A canonical-basis candidate survives orthonormal completion only if its
# post-projection norm exceeds this.
_KEEP_NORM = 1e-6
# Entries below this cannot anchor the phase fix of a completed column.
_PHASE_EPS = 1e-12


def as_matrix(entries) -> np.ndarray:
    """Coerce input to a 2-D complex matrix, rejecting NaN/Inf entries."""
    a = np.asarray(entries, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def unitarity_residual(u) -> float:
    """Max-abs entry of U^dag U - I."""
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ValueError(f"unitarity check requires a square matrix, got {u.shape}")
    d = u.shape[0]
    return float(np.max(np.abs(u.conj().T @ u - np.eye(d))))


def _mgs_orthonormalize(cols: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt over the columns, two projection passes each."""
    out = np.array(cols, dtype=np.complex128)
    for j in range(out.shape[1]):
        v = out[:, j]
        for _ in range(2):
            for i in range(j):
                v = v - (out[:, i].conj() @ v) * out[:, i]
        nrm = np.linalg.norm(v)
        if nrm < _KEEP_NORM:
            raise ValueError("columns are numerically dependent")
        out[:, j] = v / nrm
    return out


def complete_to_unitary(partial_columns, d: int) -> np.ndarray:
    """Extend orthonormal columns to a full d x d unitary, deterministically.

    `partial_columns` is a sequence of k length-d columns, giving one (d, d)
    unitary, or an (n, d, k) array whose n matrices each hold k such columns,
    giving an (n, d, d) stack; every matrix of a stack is completed exactly,
    bit for bit, as it would be alone.

    Canonical basis vectors e_0 .. e_{d-1} are tried in index order through
    modified Gram-Schmidt; a candidate is kept when its post-projection norm
    exceeds 1e-6, and every kept column is rephased so that its first nonzero
    entry is real and positive.  The same inputs always yield the same matrix,
    and exactly-orthonormal inputs are preserved bit for bit as the leading
    columns.  Inputs whose pairwise inner products deviate by more than 1e-12
    (but within UNITARITY_TOL, 1e-10) are re-orthonormalized first so the
    result still meets the completion residual contract; a larger deviation
    raises ValueError.
    """
    stacked = isinstance(partial_columns, np.ndarray) and partial_columns.ndim == 3
    if stacked:
        given = partial_columns.astype(np.complex128)
    else:
        cols = [np.asarray(c, dtype=np.complex128).reshape(-1) for c in partial_columns]
        for c in cols:
            if c.shape != (d,):
                raise ValueError(f"expected columns of length {d}, got {c.shape}")
        given = np.stack(cols, axis=-1)[None] if cols else np.zeros((1, d, 0), dtype=np.complex128)
    n, rows, k = given.shape
    if k > d:
        raise ValueError(f"cannot fit {k} columns in dimension {d}")
    if rows != d:
        raise ValueError(f"expected columns of length {d}, got ({rows},)")
    if not np.all(np.isfinite(given)):
        raise ValueError("column entries must be finite")

    if k:
        gram = given.conj().swapaxes(-1, -2) @ given
        gram_res = np.max(np.abs(gram - np.eye(k)), axis=(-2, -1))
        worst = float(np.max(gram_res, initial=0.0))
        if worst > UNITARITY_TOL:
            raise ValueError(
                f"input columns are not orthonormal: residual {worst:.3e} > {UNITARITY_TOL:.3e}"
            )
        for i in np.flatnonzero(gram_res > COMPLETION_RESIDUAL_TOL):
            given[i] = _mgs_orthonormalize(given[i])

    # basis[i, j] is the j-th column of matrix i; count[i] of them are set.
    # Each candidate is projected, per matrix, on that matrix's columns only:
    # the others are masked out rather than projected on zero padding, which
    # would turn a -0.0 entry into +0.0.
    basis = np.zeros((n, d, d), dtype=np.complex128)
    basis[:, :k] = given.swapaxes(-1, -2)
    count = np.full(n, k)
    for idx in range(d):
        open_rows = count < d
        if not open_rows.any():
            break
        v = np.zeros((n, d), dtype=np.complex128)
        v[:, idx] = 1.0
        for _ in range(2):
            for j in range(int(count[open_rows].max())):
                col = basis[:, j]
                dots = col.conj()[:, None, :] @ v[:, :, None]
                np.subtract(v, dots[:, :, 0] * col, out=v, where=(count > j)[:, None])
        re, im = v.real, v.imag
        nrm = np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0])
        keep = np.flatnonzero(open_rows & (nrm > _KEEP_NORM))
        v = v[keep] / nrm[keep, None]
        anchor = v[np.arange(len(keep)), np.argmax(np.abs(v) > _PHASE_EPS, axis=1)]
        v = v * (anchor.conj() / np.hypot(anchor.real, anchor.imag))[:, None]
        basis[keep, count[keep]] = v
        count[keep] += 1

    if np.any(count < d):
        raise ValueError("could not complete the given columns to a unitary")
    for m in basis:  # each row becomes a column, in place rather than in a second stack
        m[...] = m.T.copy()
    return basis if stacked else basis[0]
