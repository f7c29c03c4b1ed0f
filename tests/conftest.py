import numpy as np
import pytest

from dc_lab.analysis import _weighted_gram
from dc_lab.states import _members, message_vectors


def haar_unitary(rng, d):
    """Haar-distributed unitary via QR with phase normalization."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :].conj()


def random_sorted_weights(rng, d):
    """A valid weight vector: nonnegative, sorted nonincreasing, summing to 1."""
    return np.sort(rng.dirichlet(np.ones(d)))[::-1]


def lambda_inner(weights, m, u) -> complex:
    """tr(Lambda M^dag U) for one pair, by an einsum over its definition: a
    reference for the batched weighted Gram matrix."""
    lam = np.asarray(getattr(weights, "lambdas", weights), dtype=float)
    return complex(np.einsum("a,ba,ba->", lam, np.conj(m), u))


def gram_equivalence_residual(family, state) -> float:
    """Max deviation between message inner products and weighted traces.

    The two sides are computed independently: one from explicit joint-space
    vectors, the other from the weighted trace form.  They agree to roundoff
    for any members whatsoever.
    """
    stack = np.asarray(_members(family, state.d))
    msgs = message_vectors(stack, state)
    return float(np.max(np.abs(msgs.conj() @ msgs.T - _weighted_gram(stack, state.lambdas))))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
