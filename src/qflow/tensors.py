"""Dense complex tensors, the mode-wise GL-action, moment maps, the Kempf-Ness
function, its differential, its gradient and Hessian in an orthonormal basis
of traceless Hermitian directions with the Newton step they give, and the
recession function of Kempf-Ness rays.

Modes are 0-based throughout.  A tensor is a plain complex ndarray of shape
(n_1, ..., n_d); the flattening along mode i has row index j_i and column
index given by the remaining indices in original order, row-major.
"""

from __future__ import annotations

import functools
import math

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
    """Apply matrices along the given modes (all modes by default).

    The one mode-product kernel: the factor g of mode ax multiplies the tensor
    viewed as a stack of (n_ax, rest) matrices, one per index of the leading
    modes, through matmul broadcasting.
    """
    v = as_tensor(v)
    if modes is None:
        modes = range(v.ndim)
    modes = list(modes)
    if len(factors) != len(modes):
        raise ValidationError("one factor per mode required")
    shape = v.shape
    out = v
    for g, ax in zip(factors, modes):
        g = np.asarray(g, dtype=complex)
        if g.shape != (shape[ax], shape[ax]):
            raise ValidationError(
                f"factor shape {g.shape} incompatible with mode {ax} of dims {shape}"
            )
        stack = out.reshape(math.prod(shape[:ax]), shape[ax], math.prod(shape[ax + 1:]))
        out = (g @ stack).reshape(shape)
    return out


def flattening(v, i):
    """Mode-i unfolding of shape (n_i, prod of the rest)."""
    v = as_tensor(v)
    if not 0 <= i < v.ndim:
        raise ValidationError(f"mode {i} out of range for a {v.ndim}-tensor")
    a, n, b = math.prod(v.shape[:i]), v.shape[i], math.prod(v.shape[i + 1:])
    return v.reshape(a, n, b).transpose(1, 0, 2).reshape(n, a * b)


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


@functools.cache
def traceless_hermitian_basis(n):
    """An orthonormal basis E_a, tr(E_a E_b) = delta_ab, of the traceless
    Hermitian n x n matrices, as a read-only (n^2 - 1, n, n) array built once
    per n: the generalized Gell-Mann matrices (the symmetric and
    antisymmetric pair of each k < l, then the diagonal ones) scaled to unit
    norm."""
    E = np.zeros((n * n - 1, n, n), dtype=complex)
    a = 0
    for k in range(n):
        for l in range(k + 1, n):
            E[a, k, l] = E[a, l, k] = 0.5 ** 0.5
            E[a + 1, k, l], E[a + 1, l, k] = -1j * 0.5 ** 0.5, 1j * 0.5 ** 0.5
            a += 2
    for k in range(1, n):
        E[a, range(k), range(k)] = 1.0
        E[a, k, k] = -k
        E[a] /= math.sqrt(k * (k + 1))
        a += 1
    E.flags.writeable = False
    return E


def kempf_ness_hessian(w, modes=None):
    """Gradient and Hessian at X = 0 of f(X) = log ||(e^X_1 x ... x e^X_d).w||^2
    over traceless Hermitian X_i on the modes, in the coordinates of
    `traceless_hermitian_basis` of each mode, mode blocks in order.

    With mu_i the marginals and rho_ij the two-mode marginals of w (trace 1),
    df[X] = 2 sum_i tr(mu_i X_i) and
    d^2 f[X, X] = 4 sum_i tr(mu_i X_i^2) + 8 sum_{i<j} tr(rho_ij (X_i x X_j))
                  - 4 (sum_i tr(mu_i X_i))^2,
    which is 4 ||X.w||^2 - 4 <w, X.w>^2 for X = sum_i X_i acting on w.  So
    with y_a = E_a.w (E_a acting on its mode) and t_a = <w, y_a> = tr(mu_i E_a),
    the gradient is 2t and H = 4 Re <y_a, y_b> - 4 t_a t_b: one Gram matrix
    whose same-mode blocks are 4 Re tr(mu_i E_a E_b) - 4 t_a t_b and whose
    cross-mode blocks are 4 tr(rho_ij (E_a x E_b)) - 4 t_a t_b.  H is positive
    semidefinite (f is convex along e^sX) and singular along the stabilizer
    of w.
    """
    w = normalize(w)
    modes = list(range(w.ndim)) if modes is None else list(modes)
    shape = w.shape
    Y = np.vstack([
        (traceless_hermitian_basis(shape[ax])[:, None]
         @ w.reshape(math.prod(shape[:ax]), shape[ax], -1)).reshape(-1, w.size)
        for ax in modes])
    # Re <a, b> is the dot product of the real views (re, im interleaved)
    Yr = Y.view(float)
    t = Yr @ w.reshape(-1).view(float)
    H = 4.0 * (Yr @ Yr.T - np.outer(t, t))
    return 2.0 * t, 0.5 * (H + H.T)


def kempf_ness_newton(w, modes=None):
    """The Newton step X = (X_i) of f at X = 0 (see `kempf_ness_hessian`):
    the least-squares solution of H p = -grad, which is the least-norm one
    where H is singular along a stabilizer, as Hermitian blocks.  Zero when
    the marginals of w are uniform."""
    w = as_tensor(w)
    modes = list(range(w.ndim)) if modes is None else list(modes)
    grad, H = kempf_ness_hessian(w, modes)
    p = np.linalg.lstsq(H, -grad, rcond=None)[0]
    out, start = [], 0
    for ax in modes:
        n = w.shape[ax]
        E = traceless_hermitian_basis(n)
        X = (p[start:start + n * n - 1] @ E.reshape(-1, n * n)).reshape(n, n)
        out.append(0.5 * (X + X.conj().T))
        start += n * n - 1
    return out


def _certificate_weights(v, xi, modes):
    """Bases and weights of a certificate, one per mode in `modes`."""
    if isinstance(xi, TangentBlock):
        bases, weights = [], []
        for B in xi.blocks:
            r = eigh(B, "ray direction")
            bases.append(r.basis)
            weights.append(r.values)
    else:
        bases, weights = xi.bases, xi.weights
    if len(bases) != len(modes) or len(weights) != len(modes):
        raise ValidationError("certificate has wrong number of blocks")
    weights = [np.asarray(w, dtype=float) for w in weights]
    for k, w, ax in zip(bases, weights, modes):
        if k.shape[0] != v.shape[ax] or w.shape != (v.shape[ax],):
            raise ValidationError("certificate dims do not match tensor")
    return bases, weights


def recession(v, xi, modes=None):
    """Asymptotic slope of the Kempf-Ness function along the ray xi.

    Rotate v into the eigenbasis of each block and maximize the sum of
    per-mode weights over the numerical support of the rotated tensor.
    """
    v = as_tensor(v)
    if modes is None:
        modes = list(range(v.ndim))
    bases, weights = _certificate_weights(v, xi, modes)
    mag = np.abs(act([k.conj().T for k in bases], v, modes))
    peak = float(mag.max())
    if peak == 0.0:
        raise ValidationError("recession undefined for the zero tensor")
    support = mag > SUPPORT_TOL * peak
    total = 0.0
    for ax, lam in zip(modes, weights):
        total = total + lam.reshape([-1 if i == ax else 1 for i in range(v.ndim)])
    return float(np.broadcast_to(total, v.shape)[support].max())
