"""Dense complex tensors, the mode-wise GL-action, moment maps, the gradient
and Hessian of the Kempf-Ness function in an orthonormal basis of traceless
Hermitian directions with the Newton step they give, and the recession
function of Kempf-Ness rays, which checks the certificates: a ray is a
`BoundaryCertificate` on distinct modes of the tensor.

Modes are 0-based throughout.  A tensor is a plain complex ndarray of shape
(n_1, ..., n_d); the flattening along mode i has row index j_i and column
index given by the remaining indices in original order, row-major.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ValidationError
from .geometry import BoundaryCertificate
from .spectral import eigh

SUPPORT_TOL = 1e-8


def check_modes(v, modes):
    """The modes as a tuple: every axis of v when None, and otherwise
    distinct axes of v, in any order (ValidationError else)."""
    if modes is None:
        return tuple(range(v.ndim))
    modes = tuple(modes)
    if sorted(modes) != [m for m in range(v.ndim) if m in modes]:
        raise ValidationError(f"modes {modes} are not distinct axes of v")
    return modes


def as_tensor(v):
    v = np.asarray(v, dtype=complex)
    if v.ndim < 1:
        raise ValidationError("tensor must have at least one mode")
    if 0 in v.shape:
        raise ValidationError(f"tensor has an empty mode: dims {v.shape}")
    return v


def norm(v):
    """||v|| for a complex ndarray: np.linalg.norm's arithmetic, without its
    dispatch.  The sums run in C order, np.linalg.norm's memory order on the
    C-contiguous tensors that `act` returns."""
    x = v.ravel()
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def normalize(v):
    v = as_tensor(v)
    nrm = norm(v)
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
        out = g @ out.reshape(math.prod(shape[:ax]), shape[ax], math.prod(shape[ax + 1:]))
    return out.reshape(shape)


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


# kempf_ness_newton solves H p = -grad by LU when the Cholesky pivots of H
# (the squared diagonal of its factor) have min > PIVOT_RATIO max, and by
# least squares otherwise: where H is singular along a stabilizer LU gives
# noise along the kernel (0.14 to 0.68 on the unit 3x3x3 tensor under local
# unitaries, where the step is 0).  There the factorization fails or its
# pivots fall to at most 7e-14 of the largest (unit and W tensors, and the
# points the scaling phase visits on Gaussian 3x2x2 and 4x3x2 tensors); on
# Gaussian 3x3x3 to 5x5x5 ones (seeds 0 to 5) they stay above 0.27, and only
# Gaussian 2x2x2 ones, whose critical points have a stabilizer, fill the range
# between.  1e-8 stays five orders above the rounding; a step is kept only
# where it lowers S, so the cut decides speed, not a bound.  LU takes about a
# tenth of the time of LAPACK's least-squares solver on a 24 x 24 H.
PIVOT_RATIO = 1e-8


def kempf_ness_newton(w, modes=None):
    """The Newton step X = (X_i) of f at X = 0 (see `kempf_ness_hessian`):
    the solution of H p = -grad, by LU where H is well conditioned (see
    PIVOT_RATIO) and otherwise the least-squares one, which is the least-norm
    one where H is singular along a stabilizer, as Hermitian blocks.  Zero
    when the marginals of w are uniform."""
    w = as_tensor(w)
    modes = list(range(w.ndim)) if modes is None else list(modes)
    grad, H = kempf_ness_hessian(w, modes)
    try:
        d2 = np.diagonal(np.linalg.cholesky(H)) ** 2
    except np.linalg.LinAlgError:  # not positive definite: least squares
        d2 = np.zeros(1)
    if np.all(d2 > PIVOT_RATIO * d2.max(initial=0.0)):
        p = np.linalg.solve(H, -grad)
    else:
        p = np.linalg.lstsq(H, -grad, rcond=None)[0]
    out, start = [], 0
    for ax in modes:
        n = w.shape[ax]
        E = traceless_hermitian_basis(n)
        X = (p[start:start + n * n - 1] @ E.reshape(-1, n * n)).reshape(n, n)
        out.append(0.5 * (X + X.conj().T))
        start += n * n - 1
    return out


# Largest entry of k^+ k - I accepted in a certificate basis k.  Bases from
# the solvers and from records are unitary to about 1e-15; dual_value reads
# the spectrum of k diag(w) k^+ as w, which a non-unitary k breaks (with
# k = 0.5 I the spectrum is w/4 and the reported "bound" can exceed inf Q).
UNITARY_TOL = 1e-8


def _certificate_weights(v, xi, modes):
    """The one check of a ray and its one rotation, one pass over its blocks.

    xi must be a BoundaryCertificate, and modes distinct axes of v
    (`check_modes`); both are checked before any arithmetic.  Then (for
    recession, support_sums, dual_value and fortin_reutenauer_pair) the certificate
    must have no Euclidean direction and one basis and real weight vector per
    mode, of its dim, and max|k^+ k - I| <= UNITARY_TOL in every block.  Returns
    the bases, the float weights and the rotated tensor k^+ . v, each k^+
    being the one its block's check made."""
    if not isinstance(xi, BoundaryCertificate):
        raise ValidationError(f"a ray must be a BoundaryCertificate, not {type(xi).__name__}")
    modes = check_modes(v, modes)
    if np.size(xi.euclid_dir):
        raise ValidationError("Kempf-Ness certificates have no Euclidean direction, "
                              f"got euclid_dir of size {np.size(xi.euclid_dir)}")
    bases, weights = xi.bases, xi.weights
    if len(bases) != len(modes) or len(weights) != len(modes):
        raise ValidationError(f"expected {len(modes)} blocks, got {len(bases)} "
                              f"bases and {len(weights)} weight vectors")
    bases = [np.asarray(k) for k in bases]
    weights = [np.asarray(w) for w in weights]
    # a float cast would drop an imaginary part with only a warning
    if np.result_type(float, *weights).kind == "c":
        raise ValidationError("certificate weights must be real")
    weights = [np.asarray(w, dtype=float) for w in weights]
    end = 0
    for k, w, ax in zip(bases, weights, modes):
        n = v.shape[ax]
        if k.shape != (n, n) or w.shape != (n,):
            raise ValidationError(f"basis shape {k.shape} and weight shape {w.shape} "
                                  f"do not match block dim {n}")
        end += n
    # k^+ k of each block on the diagonal of one matrix, zero elsewhere, less
    # the identity: one reduction reads the deviations of all blocks, and each
    # block's product costs what a check of that block alone costs
    adjoints = []
    gram = np.zeros((end, end), dtype=complex)
    start = 0
    for k in bases:
        stop = start + len(k)
        adjoints.append(k.conj().T)
        np.matmul(adjoints[-1], k, out=gram[start:stop, start:stop])
        start = stop
    gram.ravel()[::end + 1] -= 1.0
    dev = float(np.abs(gram).max(initial=0.0))
    if not dev <= UNITARY_TOL:
        raise ValidationError(f"certificate basis is not unitary: "
                              f"max|k^+ k - I| = {dev:.3e}")
    return bases, weights, act(adjoints, v, modes)


def support_sums(v, xi, modes=None):
    """The weight sums of the ray xi over the support of v in its bases.

    One pass over the blocks (`_certificate_weights`) checks xi and rotates v
    into its bases.  Returns an array of v's shape: at index alpha, the sum
    of the per-mode weights w_i[alpha_i], added in mode order from 0.0, where
    the rotated tensor exceeds SUPPORT_TOL times its peak, and -inf
    elsewhere.  The recession is the largest sum; the recession of c * xi is
    c times the largest sum for c >= 0 and c times the smallest for c < 0, so
    the certificate line search rotates v once.
    """
    v = as_tensor(v)
    modes = check_modes(v, modes)
    _, weights, rotated = _certificate_weights(v, xi, modes)
    mag = np.abs(rotated)
    peak = float(mag.max())
    if peak == 0.0:
        raise ValidationError("recession undefined for the zero tensor")
    if not peak < math.inf:
        raise ValidationError("recession undefined for a tensor with non-finite entries")
    total = 0.0
    for ax, w in zip(modes, weights):
        # trailing unit axes put w along axis ax under broadcasting
        total = total + w.reshape((-1,) + (1,) * (v.ndim - 1 - ax))
    return np.where(mag > SUPPORT_TOL * peak, total, -math.inf)


def recession(v, xi, modes=None):
    """Asymptotic slope of the Kempf-Ness function along the ray xi, a
    BoundaryCertificate on the given modes (all by default).

    Rotate v into the bases of xi and maximize the sum of per-mode weights
    over the numerical support of the rotated tensor: the largest of
    `support_sums`, from one pass over the blocks of xi.  A tangent
    direction H at the base has the ray
    `geometry.asymptotic_at_base(ProductPDPoint.identity(dims), H)`.
    """
    return float(support_sums(v, xi, modes).max())
