"""Dense complex tensors, the mode-wise GL-action, moment maps, the Kempf-Ness
function and its differential, and the recession function of Kempf-Ness rays.

Modes are 0-based throughout.  A tensor is a plain complex ndarray of shape
(n_1, ..., n_d); the flattening along mode i has row index j_i and column
index given by the remaining indices in original order, row-major.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .geometry import BoundaryCertificate, TangentBlock, sqrtm_pd
from .spectral import eigh

SUPPORT_TOL = 1e-8


def as_tensor(v):
    v = np.asarray(v, dtype=complex)
    if v.ndim < 1:
        raise ValidationError("tensor must have at least one mode")
    return v


def normalize(v):
    v = as_tensor(v)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ValidationError("zero tensor")
    return v / nrm


def unit_tensor(n, d):
    """The unit tensor <n>: sum_i e_i x ... x e_i in (C^n)^(x d)."""
    v = np.zeros((n,) * d, dtype=complex)
    for i in range(n):
        v[(i,) * d] = 1.0
    return v


def rank_one(vectors):
    out = np.asarray(vectors[0], dtype=complex)
    for u in vectors[1:]:
        out = np.tensordot(out, np.asarray(u, dtype=complex), axes=0)
    return out


def act(factors, v, modes=None):
    """Apply matrices along the given modes (all modes by default)."""
    v = as_tensor(v)
    if modes is None:
        modes = range(v.ndim)
    modes = list(modes)
    if len(factors) != len(modes):
        raise ValidationError("one factor per mode required")
    out = v
    for g, ax in zip(factors, modes):
        g = np.asarray(g, dtype=complex)
        if g.shape != (v.shape[ax], v.shape[ax]):
            raise ValidationError(
                f"factor shape {g.shape} incompatible with mode {ax} of dims {v.shape}"
            )
        out = np.moveaxis(np.tensordot(g, out, axes=(1, ax)), 0, ax)
    return out


def flattening(v, i):
    """Mode-i unfolding of shape (n_i, prod of the rest)."""
    v = as_tensor(v)
    if not 0 <= i < v.ndim:
        raise ValidationError(f"mode {i} out of range for a {v.ndim}-tensor")
    return np.moveaxis(v, i, 0).reshape(v.shape[i], -1)


def moment_map(v, modes=None):
    """Density matrices mu_i = A_i A_i^+ / ||v||^2 from the mode flattenings."""
    v = as_tensor(v)
    nrm2 = float(np.vdot(v, v).real)
    if nrm2 == 0.0:
        raise ValidationError("moment map undefined for the zero tensor")
    if modes is None:
        modes = range(v.ndim)
    out = []
    for i in modes:
        A = flattening(v, i)
        M = (A @ A.conj().T) / nrm2
        out.append(0.5 * (M + M.conj().T))
    return out


def spectrum(mu):
    """Nonincreasing eigenvalues of each Hermitian block."""
    return [eigh(B).values.copy() for B in mu]


def _pd_factors(x, modes, v):
    shape = tuple(v.shape[i] for i in modes)
    if tuple(B.shape[0] for B in x.blocks) != shape:
        raise ValidationError(
            f"point dims {tuple(B.shape[0] for B in x.blocks)} do not match tensor modes {shape}"
        )
    if x.euclid.size:
        raise ValidationError("Kempf-Ness points carry no Euclidean factor")


def kempf_ness(v, x, modes=None):
    """log <v, x.v> for a positive-definite block tuple x."""
    v = as_tensor(v)
    if modes is None:
        modes = list(range(v.ndim))
    _pd_factors(x, modes, v)
    xv = act(x.blocks, v, modes)
    ip = float(np.vdot(v, xv).real)
    if ip <= 0.0:
        raise ValidationError("inner product <v, x.v> is not positive")
    return float(np.log(ip))


def kempf_ness_differential(v, x, modes=None):
    """Base-transported differential of the Kempf-Ness function: mu(x^1/2 . v)."""
    v = as_tensor(v)
    if modes is None:
        modes = list(range(v.ndim))
    _pd_factors(x, modes, v)
    roots = [sqrtm_pd(B) for B in x.blocks]
    w = act(roots, v, modes)
    return moment_map(w, modes)


def _certificate_weights(v, xi, modes):
    """Bases and weights per tensor mode (zero weights on inactive modes)."""
    d = v.ndim
    if isinstance(xi, TangentBlock):
        bases, weights = [], []
        for B in xi.blocks:
            r = eigh(B, "ray direction")
            bases.append(r.basis)
            weights.append(r.values)
    else:
        bases, weights = xi.bases, xi.weights
    if len(bases) != len(modes):
        raise ValidationError("certificate has wrong number of blocks")
    full_k = [None] * d
    full_w = [np.zeros(n) for n in v.shape]
    for k, w, ax in zip(bases, weights, modes):
        w = np.asarray(w, dtype=float)
        if k.shape[0] != v.shape[ax] or w.shape != (v.shape[ax],):
            raise ValidationError("certificate dims do not match tensor")
        full_k[ax] = k
        full_w[ax] = w
    return full_k, full_w


def recession(v, xi, modes=None, support_tol=SUPPORT_TOL):
    """Asymptotic slope of the Kempf-Ness function along the ray xi.

    Rotate v into the eigenbasis of each block and maximize the sum of
    per-mode weights over the numerical support of the rotated tensor.
    """
    v = as_tensor(v)
    if modes is None:
        modes = list(range(v.ndim))
    full_k, full_w = _certificate_weights(v, xi, modes)
    w = v
    for ax, k in enumerate(full_k):
        if k is not None:
            w = act([k.conj().T], w, [ax])
    mag = np.abs(w)
    peak = float(np.max(mag))
    if peak == 0.0:
        raise ValidationError("recession undefined for the zero tensor")
    support = mag > support_tol * peak
    total = np.zeros(v.shape)
    for ax, lam in enumerate(full_w):
        shape = [1] * v.ndim
        shape[ax] = -1
        total = total + lam.reshape(shape)
    return float(np.max(total[support]))
