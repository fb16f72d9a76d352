"""Geometry of P_{n1} x ... x P_{nd}: geodesics, the log map, and normal forms
of geodesic rays at infinity (BoundaryCertificate, the one ray type that
the certificate check takes).

Each factor carries the GL-invariant metric <X,Y>_x = tr(x^-1 X x^-1 Y).
All matrix functions go through Hermitian eigendecomposition (dims are small
and spectra are needed anyway).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .spectral import check_hermitian, eigh


def _herm_fun(H, fn):
    w, U = np.linalg.eigh(H)
    return (U * fn(w)) @ U.conj().T


def sqrtm_pd(x):
    return _herm_fun(x, np.sqrt)


def inv_sqrtm_pd(x):
    return _herm_fun(x, lambda w: 1.0 / np.sqrt(w))


def expm_herm(H):
    return _herm_fun(H, np.exp)


def logm_pd(x):
    return _herm_fun(x, np.log)


def _symmetrize(H):
    return 0.5 * (H + H.conj().T)


@dataclass
class ProductPDPoint:
    """A point of P_{n1} x ... x P_{nd}."""

    blocks: list

    @classmethod
    def identity(cls, dims):
        return cls([np.eye(n, dtype=complex) for n in dims])

    @property
    def dims(self):
        return tuple(B.shape[0] for B in self.blocks)

    def validate(self):
        """The point, if every block is finite, Hermitian and positive
        definite (tested so that NaN fails); ValidationError otherwise."""
        for i, B in enumerate(self.blocks):
            if not np.all(np.isfinite(B)):
                raise ValidationError(f"block {i} has non-finite entries")
            check_hermitian(B, f"block {i}")
            w = np.linalg.eigvalsh(B)
            if not w[0] > 1e-12 * max(1.0, w[-1]):
                raise ValidationError(
                    f"block {i} is not positive definite (min eig {w[0]:.3e})"
                )
        return self


@dataclass
class TangentBlock:
    """A tangent (or, via the trace pairing, cotangent) vector."""

    blocks: list

    @classmethod
    def zero(cls, dims):
        return cls([np.zeros((n, n), dtype=complex) for n in dims])

    @property
    def dims(self):
        return tuple(B.shape[0] for B in self.blocks)

    def scaled(self, c):
        return TangentBlock([c * B for B in self.blocks])


@dataclass
class BoundaryCertificate:
    """Normal form of a geodesic ray at infinity: per-factor unitary basis
    (leading columns span the flag) and nonincreasing weights.  euclid_dir,
    kept in the signature and the record format, is always empty: Kempf-Ness
    rays have no Euclidean part."""

    euclid_dir: np.ndarray
    bases: list
    weights: list

    @property
    def dims(self):
        return tuple(k.shape[0] for k in self.bases)

    def tangent_at_base(self):
        """The tangent vector k diag(w) k^+ per block representing this ray."""
        blocks = [
            _symmetrize((k * w) @ k.conj().T) for k, w in zip(self.bases, self.weights)
        ]
        return TangentBlock(blocks)

    def scaled(self, c):
        return BoundaryCertificate(
            c * np.asarray(self.euclid_dir, dtype=float),
            [k.copy() for k in self.bases],
            [c * np.asarray(w, dtype=float) for w in self.weights],
        )


def _check_pair(x, H):
    if x.dims != H.dims:
        raise ValidationError(f"signature mismatch: {x.dims} vs {H.dims}")


def geodesic(x, H, t):
    """The geodesic through x with initial velocity H, evaluated at time t."""
    if not np.isfinite(t):
        raise ValidationError("geodesic parameter must be finite")
    _check_pair(x, H)
    blocks = []
    for xb, Hb in zip(x.blocks, H.blocks):
        xs = sqrtm_pd(xb)
        xis = inv_sqrtm_pd(xb)
        A = _symmetrize(xis @ Hb @ xis)
        blocks.append(_symmetrize(xs @ expm_herm(t * A) @ xs))
    return ProductPDPoint(blocks)


def log_map(x, base=None):
    """Initial velocity of the geodesic from `base` (default identity) to x.

    It eigendecomposes x, so ill-conditioned points defeat it: with
    asymptotic_at_base it puts a ray's weights 1.7e-7 off at cond(x) 3e11
    (1000 group steps on a planted pencil), and after 1000 flow steps its log
    meets invalid values and asymptotic_at_base raises LinAlgError.  For a
    run's ray use `solver.extract_certificate`, which reads the factors."""
    if base is None:
        return TangentBlock([logm_pd(B) for B in x.blocks])
    blocks = []
    for bb, xb in zip(base.blocks, x.blocks):
        bs = sqrtm_pd(bb)
        bis = inv_sqrtm_pd(bb)
        L = logm_pd(_symmetrize(bis @ xb @ bis))
        blocks.append(_symmetrize(bs @ L @ bs))
    return TangentBlock(blocks)


def unitary_qr_factor(a):
    """The unitary k of a = k b, b upper triangular with a real positive
    diagonal: a normal form's basis (asymptotic_at_base, solver._certify)."""
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def asymptotic_at_base(x, H):
    """Normal form (basis, weights) of the ray t -> geodesic(x, H, t).

    Per block: eigendecompose x^-1/2 H x^-1/2 = u diag(lam) u^+ with lam
    nonincreasing, QR-factor x^1/2 u = k b with positive-diagonal b.  The ray
    from the identity with velocity k diag(lam) k^+ is asymptotic to the input
    ray.  Ill-conditioned x defeat it as they defeat log_map (1.7e-7 off in
    weights, then LinAlgError); use `solver.extract_certificate` there."""
    _check_pair(x, H)
    bases = []
    weights = []
    for xb, Hb in zip(x.blocks, H.blocks):
        xs = sqrtm_pd(xb)
        xis = inv_sqrtm_pd(xb)
        r = eigh(_symmetrize(xis @ Hb @ xis), "transported velocity")
        bases.append(unitary_qr_factor(xs @ r.basis))
        weights.append(r.values.copy())
    # the weights are the eigenvalues of the transported velocity, so their
    # norm is the Riemannian norm of H at x
    if not any(np.any(w) for w in weights):
        raise ValidationError("zero tangent vector spans no ray")
    return BoundaryCertificate(np.zeros(0), bases, weights)
