"""Reference manifold helpers that only the tests use: transport to the base,
the Riemannian norm, the base pairing and the geodesic distance on
P_{n1} x ... x P_{nd}."""

import numpy as np

from qflow.errors import ValidationError
from qflow.geometry import TangentBlock, inv_sqrtm_pd


def _congruence(x, H):
    """Blocks x^-1/2 H x^-1/2, Hermitian-symmetrized."""
    out = []
    for xb, Hb in zip(x.blocks, H.blocks):
        xis = inv_sqrtm_pd(xb)
        A = xis @ Hb @ xis
        out.append(0.5 * (A + A.conj().T))
    return out


def _check_dims(a, b):
    if a.dims != b.dims:
        raise ValidationError(f"signature mismatch: {a.dims} vs {b.dims}")


def transport_to_base(x, H):
    """Parallel transport of a tangent vector at x to the base point."""
    _check_dims(x, H)
    return TangentBlock(_congruence(x, H))


def metric_norm(x, H):
    """Riemannian norm of a tangent vector at x."""
    return float(np.sqrt(sum(np.sum(np.abs(A) ** 2) for A in _congruence(x, H))))


def pairing(Y, X):
    """Duality pairing sum_i Re tr(Y_i X_i) of a base covector and vector."""
    return sum(float(np.real(np.trace(Yb @ Xb))) for Yb, Xb in zip(Y.blocks, X.blocks))


def distance(x, y):
    """Geodesic distance on the product manifold."""
    _check_dims(x, y)
    total = sum(float(np.sum(np.log(np.linalg.eigvalsh(A)) ** 2))
                for A in _congruence(x, y))
    return float(np.sqrt(total))
