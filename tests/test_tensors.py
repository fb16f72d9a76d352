import itertools
import math

import numpy as np
import pytest
from _geometry_ref import differential, kempf_ness, transport_from_base

from qflow import apps, solver, tensors
from qflow import geometry as geom
from qflow.errors import ValidationError
from qflow.generate import gaussian_tensor, random_pencil
from qflow.solver import KempfNessProblem, dual_value
from qflow.spectral import builtin_objective

RNG = np.random.default_rng(21)


def test_unit_tensor_entries():
    v = tensors.unit_tensor(2, 3)
    assert v[0, 0, 0] == 1 and v[1, 1, 1] == 1
    assert np.sum(np.abs(v)) == 2


def test_rank_one_spectra():
    v = tensors.rank_one([np.array([1.0, 2.0]), np.array([0.5, 1j]), np.ones(3)])
    mu = tensors.moment_map(v)
    for s in tensors.spectrum(mu):
        assert abs(s[0] - 1.0) < 1e-12
        assert np.all(np.abs(s[1:]) < 1e-12)


def test_act_composition():
    v = gaussian_tensor((2, 3, 2), 1)
    g = [RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
         for n in v.shape]
    h = [RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
         for n in v.shape]
    a = tensors.act(g, tensors.act(h, v))
    b = tensors.act([gi @ hi for gi, hi in zip(g, h)], v)
    assert np.max(np.abs(a - b)) < 1e-10


def test_act_partial_modes():
    v = gaussian_tensor((2, 3, 2), 2)
    g = RNG.standard_normal((3, 3))
    out = tensors.act([g], v, modes=[1])
    expected = np.einsum("ab,ibj->iaj", g, v)
    assert np.max(np.abs(out - expected)) < 1e-12


def _gauss(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _act_reference(factors, v, modes):
    """act through einsum, one mode at a time."""
    idx = "abcd"[:v.ndim]
    for g, ax in zip(factors, modes):
        v = np.einsum(f"z{idx[ax]},{idx}->{idx.replace(idx[ax], 'z')}", g, v)
    return v


@pytest.mark.parametrize("ndim", [1, 2, 3, 4])
def test_act_matches_einsum_on_every_mode_order(ndim):
    """Every subset of modes in every order, on a contiguous tensor and on a
    transposed view of one."""
    rng = np.random.default_rng(ndim)
    dims = (2, 3, 4, 2)[:ndim]
    v = _gauss(rng, dims)
    view = _gauss(rng, dims[::-1]).T
    assert not view.flags.c_contiguous or ndim == 1
    for r in range(ndim + 1):
        for modes in itertools.permutations(range(ndim), r):
            factors = [_gauss(rng, (dims[ax], dims[ax])) for ax in modes]
            for x in (v, view):
                before = x.copy()
                got = tensors.act(factors, x, modes)
                ref = _act_reference(factors, x, modes)
                assert got.shape == dims
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), modes
                assert np.array_equal(x, before)


def test_moment_map_entrywise_vs_flattening():
    v = gaussian_tensor((3, 2, 2), 3)
    mu = tensors.moment_map(v)
    nrm2 = np.vdot(v, v).real
    for i in range(v.ndim):
        A = tensors.flattening(v, i)
        direct = A @ A.conj().T / nrm2
        assert np.max(np.abs(mu[i] - direct)) < 1e-12
        assert abs(np.trace(mu[i]).real - 1.0) < 1e-10
        assert np.min(np.linalg.eigvalsh(mu[i])) > -1e-10


def test_moment_map_scale_invariance():
    v = gaussian_tensor((2, 2, 3), 4)
    mu1 = tensors.moment_map(v)
    mu2 = tensors.moment_map(3.7j * v)
    for a, b in zip(mu1, mu2):
        assert np.max(np.abs(a - b)) < 1e-12


def test_kempf_ness_at_identity_zero():
    """f = log <v, x.v> of a unit tensor is 0 at g = I, as the solvers'
    orbit evaluates it."""
    v = tensors.normalize(gaussian_tensor((2, 3), 5))
    g = [np.eye(n, dtype=complex) for n in v.shape]
    assert abs(solver._Orbit(v, (0, 1), g).evaluate()[1]) < 1e-12


def test_kempf_ness_differential_finite_differences():
    """The differential the solvers compute (solver._Orbit) against finite
    differences of f along geodesics."""
    rng = np.random.default_rng(6)
    v = tensors.normalize(gaussian_tensor((2, 2, 2), 6))
    blocks = []
    for n in v.shape:
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blocks.append(M @ M.conj().T + 0.4 * np.eye(n))
    x = geom.ProductPDPoint(blocks)
    p0 = differential(KempfNessProblem(v), x)
    for _ in range(5):
        H0 = []
        for n in v.shape:
            M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            H0.append(0.5 * (M + M.conj().T))
        Hx = transport_from_base(x, geom.TangentBlock(H0))
        eps = 1e-5
        fd = (
            kempf_ness(v, geom.geodesic(x, Hx, eps))
            - kempf_ness(v, geom.geodesic(x, Hx, -eps))
        ) / (2 * eps)
        pred = sum(float(np.real(np.trace(P @ H))) for P, H in zip(p0, H0))
        assert abs(fd - pred) / (1 + abs(fd)) < 1e-4


def test_recession_diagonal_case():
    """Diagonal direction on the unit tensor: support is the diagonal, so the
    slope is the best diagonal weight sum."""
    v = tensors.unit_tensor(2, 3)
    w1, w2, w3 = [1.0, -1.0], [0.5, -0.5], [2.0, 0.0]
    xi = geom.BoundaryCertificate(np.zeros(0), [np.eye(2, dtype=complex)] * 3, [w1, w2, w3])
    got = tensors.recession(v, xi)
    expected = max(w1[0] + w2[0] + w3[0], w1[1] + w2[1] + w3[1])
    assert abs(got - expected) < 1e-12


def test_recession_matches_asymptotic_slope():
    rng = np.random.default_rng(8)
    dims = (2, 2, 2)
    v = tensors.normalize(gaussian_tensor(dims, 9))
    H0 = []
    for n in dims:
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H0.append(0.5 * (M + M.conj().T))
    xi = geom.TangentBlock(H0)
    base = geom.ProductPDPoint.identity(dims)
    rec = tensors.recession(v, geom.asymptotic_at_base(base, xi))
    t1, t2 = 40.0, 80.0
    slope = (
        kempf_ness(v, geom.geodesic(base, xi, t2))
        - kempf_ness(v, geom.geodesic(base, xi, t1))
    ) / (t2 - t1)
    assert abs(rec - slope) < 1e-3


def test_recession_accepts_certificate():
    """The certificate of a tangent direction H at the base,
    asymptotic_at_base(ProductPDPoint.identity(dims), H), rates as the ray
    of H's own eigendecompositions."""
    dims = (2, 3)
    v = tensors.normalize(gaussian_tensor(dims, 10))
    rng = np.random.default_rng(11)
    H0 = []
    for n in dims:
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H0.append(0.5 * (M + M.conj().T))
    cert = geom.asymptotic_at_base(geom.ProductPDPoint.identity(dims), geom.TangentBlock(H0))
    eig = [np.linalg.eigh(H) for H in H0]
    ray = geom.BoundaryCertificate(np.zeros(0), [u for _, u in eig], [w for w, _ in eig])
    assert abs(tensors.recession(v, ray) - tensors.recession(v, cert)) < 1e-9


@pytest.mark.parametrize("modes", [(0, 0), (0, 5), (-1, 0)])
@pytest.mark.parametrize("check", [tensors.recession, tensors.support_sums])
def test_certificate_check_rejects_bad_modes(check, modes):
    """The modes of a check are distinct axes of v: a repeated mode would
    count its weights twice, and an axis out of range is no mode."""
    v = tensors.unit_tensor(2, 3)
    xi = geom.BoundaryCertificate(np.zeros(0), [np.eye(2, dtype=complex)] * 2,
                                  [np.array([1.0, -1.0])] * 2)
    with pytest.raises(ValidationError, match="not distinct axes"):
        check(v, xi, modes=modes)
    # on distinct modes the diagonal support gives 1 + 1
    assert np.max(check(v, xi, modes=(0, 2))) == 2.0


def test_recession_rejects_wrong_weight_lengths():
    v = tensors.unit_tensor(2, 3)
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ValidationError):
        tensors.recession(v, geom.BoundaryCertificate(np.zeros(0), [eye] * 3,
                                                      [np.ones(3)] * 3))
    ok = geom.BoundaryCertificate(np.zeros(0), [eye] * 3, [np.ones(2)] * 3)
    assert abs(tensors.recession(v, ok) - 3.0) < 1e-12


def test_recession_partial_modes_zero_weight_elsewhere():
    v = tensors.unit_tensor(2, 3)
    xi = geom.BoundaryCertificate(np.zeros(0), [np.eye(2, dtype=complex)], [[1.0, 0.0]])
    got = tensors.recession(v, xi, modes=[0])
    assert abs(got - 1.0) < 1e-12


def _unitary(rng, n):
    q, r = np.linalg.qr(_gauss(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("dims,modes", [((3, 3, 2), (0, 1)), ((4, 4, 3), (0, 1)),
                                        ((2, 3, 2), (0, 1, 2))])
def test_recession_matches_einsum_reference(dims, modes):
    """Pencils on modes (0, 1) and a 3-tensor on all modes.  The rotated tensor
    has a planted zero block, and every other entry lies far above
    SUPPORT_TOL times the peak, so the support does not hinge on rounding."""
    rng = np.random.default_rng(sum(dims))
    bases = [_unitary(rng, dims[ax]) for ax in modes]
    weights = [rng.standard_normal(dims[ax]) for ax in modes]
    rotated = _gauss(rng, dims)
    rotated[:2, -2:] = 0.0
    v = _act_reference(bases, rotated, modes)
    back = _act_reference([k.conj().T for k in bases], v, modes)
    mag = np.abs(back)
    support = mag > tensors.SUPPORT_TOL * mag.max()
    assert np.all(mag[support] > 1e-4 * mag.max())
    assert np.all(mag[~support] < 1e-12 * mag.max()) and not support.all()
    expected = max(sum(w[idx[ax]] for w, ax in zip(weights, modes))
                   for idx in np.ndindex(*dims) if support[idx])
    cert = geom.BoundaryCertificate(np.zeros(0), bases, weights)
    assert abs(tensors.recession(v, cert, modes) - expected) <= 1e-12


def test_zero_tensor_rejected():
    with pytest.raises(ValidationError):
        tensors.normalize(np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        tensors.moment_map(np.zeros((2, 2)))


def test_empty_tensor_rejected():
    """A tensor with an empty mode has no entries to scale: the recession and
    the certificate check refuse it instead of reducing an empty array."""
    ray = geom.BoundaryCertificate(np.zeros(0), [np.eye(2, dtype=complex), np.eye(0)],
                                   [np.ones(2), np.zeros(0)])
    S = builtin_objective("frobenius", (2, 1))
    for v in (np.zeros((2, 0)), np.zeros((0,)), np.zeros((3, 0, 2))):
        with pytest.raises(ValidationError, match="empty mode"):
            tensors.as_tensor(v)
    with pytest.raises(ValidationError, match="empty mode"):
        tensors.recession(np.zeros((2, 0)), ray)
    with pytest.raises(ValidationError, match="empty mode"):
        apps.certify(np.zeros((2, 0)), S, ray)


def test_recession_rejects_non_finite_tensors():
    """A NaN or infinite entry leaves no entry above the support cut, whose
    largest weight sum would be -inf and make a dual +inf: the recession, and
    dual_value through it, refuse such a tensor."""
    w = np.array([0.3, -0.3])
    cert = geom.BoundaryCertificate(np.zeros(0), [np.eye(2, dtype=complex)] * 3, [w] * 3)
    S = builtin_objective("frobenius", (2, 2, 2))
    for bad in (np.nan, np.inf):
        v = tensors.unit_tensor(2, 3)
        v[0, 1, 1] = bad
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValidationError, match="non-finite"):
                tensors.recession(v, cert)
            with pytest.raises(ValidationError, match="non-finite"):
                dual_value(KempfNessProblem(v), S, cert)


def test_flattening_shape_and_mode_range():
    v = gaussian_tensor((2, 3, 4), 12)
    assert tensors.flattening(v, 1).shape == (3, 8)
    with pytest.raises(ValidationError):
        tensors.flattening(v, 3)


def test_flattening_matches_moveaxis():
    """The reshape-transpose unfolding is the moveaxis one, entry for entry
    and in memory layout, so the moment maps built on it are unchanged."""
    for shape in [(2, 3, 4), (3, 3, 3), (2, 3, 4, 2), (5,), (3, 1, 2)]:
        v = gaussian_tensor(shape, 13)
        for i in range(len(shape)):
            ref = np.moveaxis(v, i, 0).reshape(shape[i], -1)
            out = tensors.flattening(v, i)
            assert np.array_equal(out, ref) and out.strides == ref.strides


def test_traceless_hermitian_basis_is_orthonormal():
    for n in (1, 2, 3, 4):
        E = tensors.traceless_hermitian_basis(n)
        assert E.shape == (n * n - 1, n, n)
        assert np.array_equal(E, E.conj().transpose(0, 2, 1))
        assert np.abs(np.trace(E, axis1=1, axis2=2)).max(initial=0.0) < 1e-15
        gram = E.reshape(-1, n * n).conj() @ E.reshape(-1, n * n).T
        assert np.abs(gram - np.eye(len(E))).max(initial=0.0) < 1e-15
        assert tensors.traceless_hermitian_basis(n) is E


def _kempf_ness_at(w, modes, p):
    """f(X) = log ||(e^X_1 x ... x e^X_d).w||^2, X from basis coordinates p."""
    factors, start = [], 0
    for ax in modes:
        E = tensors.traceless_hermitian_basis(w.shape[ax])
        factors.append(geom.expm_herm(np.tensordot(p[start:start + len(E)], E, axes=1)))
        start += len(E)
    u = tensors.act(factors, w, modes)
    return math.log(np.vdot(u, u).real)


@pytest.mark.parametrize("w,modes", [
    (gaussian_tensor((3, 3, 3), 1), (0, 1, 2)),
    (gaussian_tensor((3, 2, 2), 2), (0, 1, 2)),
    (random_pencil(3, 2, 3).tensor(), (0, 1)),
], ids=["3x3x3", "3x2x2", "pencil"])
def test_kempf_ness_hessian_matches_finite_differences(w, modes):
    """Gradient and Hessian against central differences of f at X = 0, on
    w = v/||v||: the truncation error at h = 1e-4 is about 1e-8."""
    w = tensors.normalize(w)
    grad, H = tensors.kempf_ness_hessian(w, modes)
    K = sum(w.shape[ax] ** 2 - 1 for ax in modes)
    assert grad.shape == (K,) and H.shape == (K, K)
    h, I = 1e-4, np.eye(K)

    def f(p):
        return _kempf_ness_at(w, modes, p)

    fd_grad = np.array([(f(h * e) - f(-h * e)) / (2 * h) for e in I])
    fd_hess = np.array([[(f(h * (a + b)) - f(h * (a - b)) - f(h * (b - a)) + f(-h * (a + b)))
                         / (4 * h * h) for b in I] for a in I])
    assert np.abs(grad - fd_grad).max() < 1e-7
    assert np.abs(H - fd_hess).max() < 1e-6
    assert np.array_equal(H, H.T)
    assert np.linalg.eigvalsh(H)[0] > -1e-12
    # the same blocks from the marginals: 4 Re tr(mu E_a E_b) - 4 t_a t_b
    mu = tensors.moment_map(w, modes)[0]
    E = tensors.traceless_hermitian_basis(w.shape[modes[0]])
    t = np.array([np.trace(mu @ Ea).real for Ea in E])
    block = np.array([[4 * np.trace(mu @ Ea @ Eb).real for Eb in E] for Ea in E])
    assert np.abs(grad[:len(E)] - 2 * t).max() < 1e-14
    assert np.abs(H[:len(E), :len(E)] - (block - 4 * np.outer(t, t))).max() < 1e-14


def test_newton_step_is_zero_at_uniform_marginals():
    """A tensor with uniform marginals (the unit tensor, also under local
    unitaries) is critical for f: zero gradient, zero Newton step."""
    rng = np.random.default_rng(8)
    v = tensors.unit_tensor(3, 3)
    for w in (v, tensors.act([_unitary(rng, 3) for _ in range(3)], v)):
        grad, _ = tensors.kempf_ness_hessian(w)
        assert np.abs(grad).max() < 1e-15
        for X in tensors.kempf_ness_newton(w):
            assert X.shape == (3, 3) and np.abs(X).max() < 1e-14


def _lstsq_newton(w, modes=None):
    """The Newton step by least squares alone, the reference for the guarded
    solve of kempf_ness_newton."""
    modes = list(range(w.ndim)) if modes is None else list(modes)
    grad, H = tensors.kempf_ness_hessian(w, modes)
    p = np.linalg.lstsq(H, -grad, rcond=None)[0]
    out, start = [], 0
    for ax in modes:
        n = w.shape[ax]
        E = tensors.traceless_hermitian_basis(n)
        X = (p[start:start + n * n - 1] @ E.reshape(-1, n * n)).reshape(n, n)
        out.append(0.5 * (X + X.conj().T))
        start += n * n - 1
    return out


@pytest.mark.parametrize("dims", [(3, 3, 3), (4, 4, 4), (3, 2, 2)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_guarded_newton_step_matches_least_squares(dims, seed, monkeypatch):
    """At a Gaussian tensor H is regular: the step is an LU solve, with no
    least-squares call, within 1e-12 relative of the least-squares step."""
    w = gaussian_tensor(dims, seed)
    ref = np.concatenate([X.ravel() for X in _lstsq_newton(w)])
    lstsq, calls = np.linalg.lstsq, []

    def counted(*args, **kwargs):
        calls.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    got = np.concatenate([X.ravel() for X in tensors.kempf_ness_newton(w)])
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    assert not calls


def test_guarded_newton_step_is_least_squares_on_the_unit_tensor():
    """The unit tensor's H is singular, where LU gives noise along the kernel
    (entries of order 0.1, while the step is 0): the step is exactly the
    least-squares one, also under local unitaries."""
    rng = np.random.default_rng(8)
    v = tensors.unit_tensor(3, 3)
    for w in [v] + [tensors.act([_unitary(rng, 3) for _ in range(3)], v) for _ in range(4)]:
        for X, R in zip(tensors.kempf_ness_newton(w), _lstsq_newton(w)):
            assert np.array_equal(X, R)
