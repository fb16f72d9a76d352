import itertools

import numpy as np
import pytest

from qflow import geometry as geom
from qflow import tensors
from qflow.errors import ValidationError
from qflow.generate import gaussian_tensor

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
    v = tensors.normalize(gaussian_tensor((2, 3), 5))
    x = geom.ProductPDPoint.identity(v.shape)
    assert abs(tensors.kempf_ness(v, x)) < 1e-12


def test_kempf_ness_differential_finite_differences():
    rng = np.random.default_rng(6)
    v = tensors.normalize(gaussian_tensor((2, 2, 2), 6))
    blocks = []
    for n in v.shape:
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blocks.append(M @ M.conj().T + 0.4 * np.eye(n))
    x = geom.ProductPDPoint(blocks)
    p0 = tensors.kempf_ness_differential(v, x)
    for _ in range(5):
        H0 = []
        for n in v.shape:
            M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            H0.append(0.5 * (M + M.conj().T))
        Hx = geom.transport_from_base(x, geom.TangentBlock(H0))
        eps = 1e-5
        fd = (
            tensors.kempf_ness(v, geom.geodesic(x, Hx, eps))
            - tensors.kempf_ness(v, geom.geodesic(x, Hx, -eps))
        ) / (2 * eps)
        pred = sum(float(np.real(np.trace(P @ H))) for P, H in zip(p0, H0))
        assert abs(fd - pred) / (1 + abs(fd)) < 1e-4


def test_recession_diagonal_case():
    """Diagonal direction on the unit tensor: support is the diagonal, so the
    slope is the best diagonal weight sum."""
    v = tensors.unit_tensor(2, 3)
    w1, w2, w3 = [1.0, -1.0], [0.5, -0.5], [2.0, 0.0]
    xi = geom.TangentBlock([np.diag(w1), np.diag(w2), np.diag(w3)])
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
    rec = tensors.recession(v, xi)
    base = geom.ProductPDPoint.identity(dims)
    t1, t2 = 40.0, 80.0
    slope = (
        tensors.kempf_ness(v, geom.geodesic(base, xi, t2))
        - tensors.kempf_ness(v, geom.geodesic(base, xi, t1))
    ) / (t2 - t1)
    assert abs(rec - slope) < 1e-3


def test_recession_accepts_certificate():
    dims = (2, 3)
    v = tensors.normalize(gaussian_tensor(dims, 10))
    rng = np.random.default_rng(11)
    H0 = []
    for n in dims:
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H0.append(0.5 * (M + M.conj().T))
    xi = geom.TangentBlock(H0)
    cert = geom.asymptotic_at_base(geom.ProductPDPoint.identity(dims), xi)
    assert abs(tensors.recession(v, xi) - tensors.recession(v, cert)) < 1e-9


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
    xi = geom.TangentBlock([np.diag([1.0, 0.0])])
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


def test_flattening_shape_and_mode_range():
    v = gaussian_tensor((2, 3, 4), 12)
    assert tensors.flattening(v, 1).shape == (3, 8)
    with pytest.raises(ValidationError):
        tensors.flattening(v, 3)
