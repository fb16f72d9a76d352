"""Reference manifold helpers that only the tests use: transport to and from
the base, the Riemannian norm, the base pairing and the geodesic distance on
P_{n1} x ... x P_{nd}, and the manifold form of the Kempf-Ness function and
of the Q-gradient, which the solvers run in group form."""

import numpy as np

from qflow import solver, tensors
from qflow.errors import ValidationError
from qflow.geometry import TangentBlock, inv_sqrtm_pd, sqrtm_pd
from qflow.spectral import spectral_pass


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


def transport_from_base(x, H):
    """Parallel transport of a tangent vector at the base point to x."""
    _check_dims(x, H)
    out = []
    for xb, Hb in zip(x.blocks, H.blocks):
        xs = sqrtm_pd(xb)
        A = xs @ Hb @ xs
        out.append(0.5 * (A + A.conj().T))
    return TangentBlock(out)


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


def kempf_ness(v, x, modes=None):
    """The Kempf-Ness function f(x) = log <v, x.v> at a point x of the modes."""
    return float(np.log(np.vdot(v, tensors.act(x.blocks, v, modes)).real))


def differential(problem, x):
    """The differential of f at x transported to the base, as the solvers
    compute it (solver._Orbit): the moment map of x^1/2 . v."""
    roots = [sqrtm_pd(B) for B in x.blocks]
    return solver._Orbit(problem.v, problem.modes, roots).evaluate()[0]


def q_gradient(problem, Q, x):
    """The manifold Q-gradient of f at x for a smooth Q: Q times the gradient
    of Q at the transported differential, lifted and transported to x."""
    sp = spectral_pass(Q, differential(problem, x))
    return transport_from_base(x, TangentBlock(sp.lift([sp.value * m for m in sp.direction])))
