import numpy as np
import pytest
from _geometry_ref import (
    distance,
    metric_norm,
    pairing,
    transport_from_base,
    transport_to_base,
)

from qflow.errors import ValidationError
from qflow.geometry import (
    BoundaryCertificate,
    ProductPDPoint,
    TangentBlock,
    asymptotic_at_base,
    geodesic,
    log_map,
    unitary_qr_factor,
)

RNG = np.random.default_rng(5)
DIMS = (3, 2)


def random_point(rng=RNG, dims=DIMS):
    blocks = []
    for n in dims:
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blocks.append(M @ M.conj().T + 0.3 * np.eye(n))
    return ProductPDPoint(blocks)


def random_tangent(x, rng=RNG):
    blocks = []
    for B in x.blocks:
        n = B.shape[0]
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blocks.append(0.5 * (M + M.conj().T))
    return TangentBlock(blocks)


def test_identity_point_and_validation():
    x = ProductPDPoint.identity(DIMS)
    x.validate()
    assert x.dims == DIMS
    bad = ProductPDPoint([np.diag([1.0, -1.0]), np.eye(2)])
    with pytest.raises(ValidationError):
        bad.validate()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validation_rejects_non_finite_blocks(bad):
    """A NaN fails neither the Hermitian test nor a positive-definite test
    written as min eig <= tol, and an inf makes H - H^+ warn: non-finite
    entries are rejected first."""
    off = ProductPDPoint([np.array([[1.0, bad], [bad, 1.0]]), np.eye(2)])
    diag = ProductPDPoint([np.eye(3), np.diag([1.0, bad])])
    for x in (off, diag):
        with pytest.raises(ValidationError, match="non-finite"):
            x.validate()


def test_geodesic_endpoints_and_pd():
    x = random_point()
    H = random_tangent(x)
    assert distance(geodesic(x, H, 0.0), x) < 1e-10
    y = geodesic(x, H, 1.0)
    y.validate()


def test_geodesic_constant_speed():
    x = random_point()
    H = random_tangent(x)
    d1 = distance(x, geodesic(x, H, 0.5))
    d2 = distance(x, geodesic(x, H, 1.0))
    assert abs(d2 - 2 * d1) < 1e-8
    assert abs(d2 - metric_norm(x, H)) < 1e-8


def test_transport_roundtrip_and_isometry():
    x = random_point()
    H = random_tangent(x)
    H0 = transport_to_base(x, H)
    back = transport_from_base(x, H0)
    assert max(np.max(np.abs(a - b)) for a, b in zip(H.blocks, back.blocks)) < 1e-10
    base = ProductPDPoint.identity(DIMS)
    assert abs(metric_norm(x, H) - metric_norm(base, H0)) < 1e-10


def test_log_map_inverts_geodesic():
    x = random_point()
    H = random_tangent(x)
    y = geodesic(x, H, 1.0)
    L = log_map(y, base=x)
    assert max(np.max(np.abs(a - b)) for a, b in zip(L.blocks, H.blocks)) < 1e-8
    # base = identity convenience form
    L0 = log_map(y)
    z = geodesic(ProductPDPoint.identity(DIMS), L0, 1.0)
    assert distance(z, y) < 1e-8


def test_distance_properties():
    x, y = random_point(), random_point()
    assert distance(x, x) < 1e-12
    assert abs(distance(x, y) - distance(y, x)) < 1e-10
    z = random_point()
    assert distance(x, z) <= distance(x, y) + distance(y, z) + 1e-10


def test_pairing_linear():
    x = ProductPDPoint.identity(DIMS)
    Y = random_tangent(x)
    X = random_tangent(x)
    s = pairing(Y, X)
    s2 = pairing(Y, X.scaled(2.0))
    assert abs(s2 - 2 * s) < 1e-10


def test_asymptotic_at_base_identity_ray():
    """At the identity the normal form is just the eigendecomposition."""
    x = ProductPDPoint.identity(DIMS)
    H = random_tangent(x)
    cert = asymptotic_at_base(x, H)
    Y = cert.tangent_at_base()
    assert max(np.max(np.abs(a - b)) for a, b in zip(Y.blocks, H.blocks)) < 1e-9
    for w in cert.weights:
        assert np.all(np.diff(w) <= 1e-12)
    for k in cert.bases:
        assert np.max(np.abs(k.conj().T @ k - np.eye(k.shape[0]))) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_unitary_qr_factor(n):
    """The one normal-form QR of asymptotic_at_base and the solvers'
    certificates, on random complex matrices and on the same matrices with
    rephased columns: q is unitary and q^+ a is upper triangular with a real
    positive diagonal."""
    rng = np.random.default_rng(60 + n)
    for _ in range(5):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
        for m in (a, a * phases):
            q = unitary_qr_factor(m)
            assert np.max(np.abs(q.conj().T @ q - np.eye(n))) <= 1e-14
            b = q.conj().T @ m
            scale = np.max(np.abs(m))
            assert np.max(np.abs(np.tril(b, -1))) <= 1e-14 * scale
            assert np.max(np.abs(np.diagonal(b).imag)) <= 1e-14 * scale
            assert np.all(np.diagonal(b).real > 0.0)


def test_asymptotic_ray_is_asymptotic():
    """The base ray of the normal form stays within bounded distance of the
    original ray, so the sublinear gap distance/t vanishes."""
    x = random_point()
    H = random_tangent(x)
    nrm = metric_norm(x, H)
    H = H.scaled(1.0 / nrm)
    cert = asymptotic_at_base(x, H)
    Y = cert.tangent_at_base()
    base = ProductPDPoint.identity(DIMS)
    dists = [
        distance(geodesic(x, H, t), geodesic(base, Y, t)) for t in (5.0, 10.0, 20.0)
    ]
    # bounded (indeed nonincreasing) distance => the rays share a class at
    # infinity, since any non-asymptotic pair diverges linearly in t
    assert dists[2] <= dists[0] + 1e-6
    assert dists[2] / 20.0 < 0.25


def test_asymptotic_rejects_zero_direction():
    x = random_point()
    H = TangentBlock.zero(DIMS)
    with pytest.raises(ValidationError):
        asymptotic_at_base(x, H)


def test_certificate_scaling():
    x = ProductPDPoint.identity(DIMS)
    H = random_tangent(x)
    cert = asymptotic_at_base(x, H)
    half = cert.scaled(0.5)
    Y = cert.tangent_at_base()
    Yh = half.tangent_at_base()
    assert max(np.max(np.abs(0.5 * a - b)) for a, b in zip(Y.blocks, Yh.blocks)) < 1e-10


def test_signature_mismatch_raises():
    x = random_point()
    H = TangentBlock.zero((2, 2))
    with pytest.raises(ValidationError):
        geodesic(x, H, 1.0)
