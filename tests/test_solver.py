import math

import numpy as np
import pytest

from qflow import apps
from qflow import geometry as geom
from qflow import solver
from qflow import tensors
from qflow.errors import UnsupportedObjectiveError, ValidationError
from qflow.generate import gaussian_tensor
from qflow.solver import (
    FlowConfig,
    KempfNessProblem,
    best_dual_on_ray,
    dual_value,
    energy_residual,
    FlowTrace,
    extract_certificate,
    group_subgradient_method,
    integrate_flow,
    q_gradient,
)
from qflow.spectral import (
    EighResult,
    SpectralObjective,
    SpectralPass,
    SymmetricFunctionOracle,
    builtin_objective,
    conjugate_eval,
    infimum,
    lift_eval,
    spectral_pass,
)


def make_problem(dims, seed):
    v = tensors.normalize(gaussian_tensor(dims, seed))
    return KempfNessProblem(v)


def identity_factors(dims):
    return [np.eye(n, dtype=complex) for n in dims]


def random_unitary(rng, n):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(M)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_certificate(rng, dims):
    """A ray with random unitary bases and nonincreasing Gaussian weights."""
    return geom.BoundaryCertificate(
        np.zeros(0), [random_unitary(rng, n) for n in dims],
        [np.sort(rng.standard_normal(n))[::-1] for n in dims],
    )


def test_q_gradient_chain_rule():
    """The base form of the Q-gradient is the gradient of Q^2/2 at the
    transported differential: pairing it with the finite-difference velocity
    of the differential reproduces the derivative of Q^2/2 along the curve."""
    rng = np.random.default_rng(31)
    prob = make_problem((2, 3, 2), 31)
    S = builtin_objective("frobenius", prob.signature)
    blocks = []
    for n in prob.signature:
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blocks.append(M @ M.conj().T + 0.4 * np.eye(n))
    x = geom.ProductPDPoint(np.zeros(0), blocks)
    G = q_gradient(prob, S, x)
    G0 = geom.transport_to_base(x, G)
    for _ in range(5):
        H0 = []
        for n in prob.signature:
            M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            H0.append(0.5 * (M + M.conj().T))
        Hx = geom.transport_from_base(x, geom.TangentBlock(np.zeros(0), H0))
        eps = 1e-5
        pp = prob.differential(geom.geodesic(x, Hx, eps))
        pm = prob.differential(geom.geodesic(x, Hx, -eps))
        fd = (
            0.5 * lift_eval(S, pp) ** 2 - 0.5 * lift_eval(S, pm) ** 2
        ) / (2 * eps)
        pdot = [(a - b) / (2 * eps) for a, b in zip(pp, pm)]
        ip = sum(float(np.real(np.trace(Gb @ Pb))) for Gb, Pb in zip(G0.blocks, pdot))
        assert abs(fd - ip) / (1 + abs(fd)) < 1e-4


def test_q_gradient_zero_differential():
    """A balanced tensor has uniform marginals; with the centered trace
    distance smoothed away the gradient of Q^2/2 vanishes."""
    v = tensors.unit_tensor(2, 3)
    prob = KempfNessProblem(v)
    S = builtin_objective("frobenius", prob.signature)
    x = prob.identity_point()
    G = q_gradient(prob, S, x)
    # differential is (I/2, I/2, I/2): Q-gradient = Q * normalized subgradient
    q = lift_eval(S, prob.differential(x))
    assert abs(geom.metric_norm(x, G) - q) < 1e-10


def test_q_gradient_requires_smooth():
    prob = make_problem((2, 2), 32)
    S = builtin_objective("trace_dist_to_uniform", prob.signature)
    with pytest.raises(UnsupportedObjectiveError):
        q_gradient(prob, S, prob.identity_point())


def test_flow_reaches_interior_minimum_on_unit_tensor():
    v = tensors.unit_tensor(2, 3)
    prob = KempfNessProblem(v)
    S = builtin_objective("frobenius", prob.signature)
    # start away from the minimizer
    x0 = geom.ProductPDPoint(
        np.zeros(0),
        [np.diag([2.0, 0.5]).astype(complex) for _ in range(3)],
    )
    cfg = FlowConfig(max_iters=1000, ode_step=0.05)
    tr = integrate_flow(prob, S, x0, cfg)
    qs = [s.q_value for s in tr.samples]
    floor = 1.0 / math.sqrt(2.0) * math.sqrt(3)  # ||(I/2,I/2,I/2)||_F
    assert qs[-1] - floor < 1e-6
    assert max(qs[i + 1] - qs[i] for i in range(len(qs) - 1)) < 1e-7


def test_flow_stops_when_stalled():
    v = tensors.unit_tensor(2, 3)
    prob = KempfNessProblem(v)
    S = builtin_objective("frobenius", prob.signature)
    x0 = geom.ProductPDPoint(
        np.zeros(0),
        [np.diag([2.0, 0.5]).astype(complex) for _ in range(3)],
    )
    cfg = FlowConfig(max_iters=1000, ode_step=0.05)
    tr = integrate_flow(prob, S, x0, cfg)
    assert tr.status.startswith("stalled")
    assert tr.iterations < cfg.max_iters


def test_flow_monotone_and_step_distance_bound():
    prob = make_problem((3, 2, 2), 33)
    S = builtin_objective("frobenius", prob.signature)
    cfg = FlowConfig(max_iters=300, ode_step=1e-2, record_every=1)
    tr = integrate_flow(prob, S, prob.identity_point(), cfg)
    qs = [s.q_value for s in tr.samples]
    assert max(qs[i + 1] - qs[i] for i in range(len(qs) - 1)) < 1e-7
    # Lipschitz bound: per-step movement at most (initial Q) * h, since the
    # flow speed never exceeds the initial gradient norm
    alpha = qs[0]
    x = prob.identity_point()
    G0 = q_gradient(prob, S, x)
    step = geom.geodesic(x, G0, -cfg.ode_step)
    assert geom.distance(x, step) <= alpha * cfg.ode_step + 1e-9


def test_smoothed_flow_monotone_for_nonsmooth_objective():
    prob = make_problem((3, 3, 2), 34)
    S = builtin_objective("trace_dist_to_uniform", prob.signature)
    cfg = FlowConfig(max_iters=300, ode_step=1e-2, smoothing=0.05)
    tr = integrate_flow(prob, S, prob.identity_point(), cfg)
    qs = [s.q_smooth for s in tr.samples]
    assert max(qs[i + 1] - qs[i] for i in range(len(qs) - 1)) < 1e-7


def test_nonsmooth_flow_without_smoothing_rejected():
    prob = make_problem((2, 2), 35)
    S = builtin_objective("trace_dist_to_uniform", prob.signature)
    with pytest.raises(UnsupportedObjectiveError):
        integrate_flow(prob, S, prob.identity_point(), FlowConfig(max_iters=5))


def test_subgradient_matches_flow_to_first_order():
    """The run renormalizes at its last step, so its final point must carry
    the divided-out determinant shares."""
    prob = make_problem((2, 2, 2), 36)
    S = builtin_objective("frobenius", prob.signature)
    h = 1e-3
    cfg_f = FlowConfig(max_iters=100, ode_step=h)
    cfg_s = FlowConfig(max_iters=100, step_rule="constant", step_size=h)
    tr_f = integrate_flow(prob, S, prob.identity_point(), cfg_f)
    tr_s, _ = group_subgradient_method(prob.v, S, identity_factors(prob.signature),
                                       cfg_s)
    assert tr_s.renormalizations > 0
    d = geom.distance(tr_f.final_point, tr_s.final_point)
    assert d < 10 * h


def test_zero_step_is_stationary():
    prob = make_problem((2, 2), 37)
    S = builtin_objective("frobenius", prob.signature)
    cfg = FlowConfig(max_iters=10, step_rule="constant", step_size=1e-30)
    tr, _ = group_subgradient_method(prob.v, S, identity_factors(prob.signature), cfg)
    assert geom.distance(tr.final_point, prob.identity_point()) < 1e-12


def test_group_form_matches_manifold_form():
    """Reference: the manifold-form iteration x <- exp_x(-delta Q grad_x f),
    built from the public geodesic and Q-gradient."""
    dims = (3, 2, 2)
    v = tensors.normalize(gaussian_tensor(dims, 38))
    prob = KempfNessProblem(v)
    S = builtin_objective("frobenius", dims)
    delta = 0.05
    cfg = FlowConfig(max_iters=50, step_rule="constant", step_size=delta,
                     renorm_every=0, tol_stall=0.0)
    x = prob.identity_point()
    for _ in range(cfg.max_iters):
        x = geom.geodesic(x, q_gradient(prob, S, x), -delta)
    tr_g, g = group_subgradient_method(v, S, identity_factors(dims), cfg)
    assert tr_g.iterations == cfg.max_iters
    assert geom.distance(x, tr_g.final_point) < 1e-8
    x_from_g = [gi.conj().T @ gi for gi in g]
    assert max(
        np.max(np.abs(a - b)) for a, b in zip(x_from_g, tr_g.final_point.blocks)
    ) < 1e-10


def test_group_method_one_eigh_per_block(monkeypatch):
    """Each iteration of either solver eigendecomposes each moment-map block
    once per trial step; the rest is the start, the final pass and
    certificate extraction."""
    v = tensors.normalize(gaussian_tensor((3, 3, 2), 47))
    S = builtin_objective("trace_dist_to_uniform", (3, 3))
    cfg = FlowConfig(max_iters=60, step_size=0.3, smoothing=0.1,
                     smoothing_schedule=True)
    calls = []
    passes = []
    eigh = np.linalg.eigh
    spectral_pass = solver.spectral_pass

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    def counted_pass(*args, **kwargs):
        passes.append(1)
        return spectral_pass(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(solver, "spectral_pass", counted_pass)
    tr, _ = group_subgradient_method(
        v, S, [np.eye(3, dtype=complex)] * 2, cfg, modes=(0, 1)
    )
    assert tr.iterations == cfg.max_iters
    assert len(calls) <= 2 * tr.iterations + 20
    # the flow: one pass per trial step, halvings included
    prob = KempfNessProblem(v, (0, 1))
    calls.clear()
    passes.clear()
    tr = integrate_flow(prob, S, prob.identity_point(),
                        FlowConfig(max_iters=60, ode_step=0.05, smoothing=0.1))
    assert tr.iterations == 60
    assert len(passes) >= tr.iterations + 1
    assert len(calls) <= 2 * len(passes) + 20
    # certify reads the certificate's weights and eigendecomposes nothing
    dims = (3, 3, 3)
    cert = random_certificate(np.random.default_rng(52), dims)
    S = builtin_objective("neg_entropy_weighted", dims, theta=[0.2, 0.3, 0.5])
    calls.clear()
    assert math.isfinite(apps.certify(gaussian_tensor(dims, 52), S, cert))
    assert len(calls) == 0


def test_group_method_best_value_nonincreasing_bookkeeping():
    dims = (2, 2, 2)
    v = tensors.normalize(gaussian_tensor(dims, 39))
    S = builtin_objective("trace_dist_to_uniform", dims)
    cfg = FlowConfig(max_iters=200, step_size=0.3, smoothing=0.1,
                     smoothing_schedule=True, record_every=1)
    tr, _ = group_subgradient_method(
        v, S, [np.eye(n, dtype=complex) for n in dims], cfg
    )
    best = math.inf
    for s in tr.samples:
        assert tr.best_q <= s.q_value + 1e-12
        best = min(best, s.q_value)
    assert tr.best_q <= best + 1e-12


def test_group_method_renormalization_logged():
    dims = (2, 2)
    v = tensors.normalize(gaussian_tensor(dims, 40))
    S = builtin_objective("frobenius", dims)
    cfg = FlowConfig(max_iters=200, step_size=0.2, renorm_every=100,
                     tol_stall=0.0)
    tr, g = group_subgradient_method(
        v, S, [np.eye(n, dtype=complex) for n in dims], cfg
    )
    assert tr.renormalizations > 0
    # the run ends on a renormalization step, so the factors are unit-|det|
    for gi in g:
        assert abs(abs(np.linalg.det(gi)) - 1.0) < 1e-8
    # f is recorded at the iterate, divided-out shares included
    assert abs(tr.samples[-1].f_value - tensors.kempf_ness(v, tr.final_point)) < 1e-10


@pytest.mark.parametrize("form", ["flow", "group"])
@pytest.mark.parametrize("smoothing", [None, 0.1])
def test_shared_bookkeeping(form, smoothing):
    """Both solvers keep the spectra of their best value and follow the
    Moreau envelope whenever smoothing is set, smooth objectives included."""
    prob = make_problem((3, 2, 2), 53)
    S = builtin_objective("frobenius", prob.signature)
    cfg = FlowConfig(max_iters=40, ode_step=0.05, step_size=0.3,
                     smoothing=smoothing, smoothing_schedule=True)
    if form == "flow":
        tr = integrate_flow(prob, S, prob.identity_point(), cfg)
        # the backstop compares envelopes at one level: a shrinking lambda
        # alone must not halve the step
        assert tr.samples[-1].step == cfg.ode_step
    else:
        tr, _ = group_subgradient_method(prob.v, S, identity_factors(prob.signature),
                                         cfg)
    assert tr.best_spectra is not None
    assert float(S.oracle.eval(np.concatenate(tr.best_spectra))) == tr.best_q
    for s in tr.samples:
        if smoothing is None:
            assert s.q_smooth == s.q_value
        else:
            assert s.q_smooth < s.q_value - 1e-6


def test_unit_tensor_group_run_stays_optimal():
    v = tensors.unit_tensor(3, 3)
    S = builtin_objective("trace_dist_to_uniform", v.shape)
    cfg = FlowConfig(max_iters=100, step_size=0.3, smoothing=0.1)
    tr, _ = group_subgradient_method(
        v, S, [np.eye(3, dtype=complex)] * 3, cfg
    )
    assert tr.best_q < 1e-10


def test_energy_residual_refines_with_step():
    prob = make_problem((2, 3, 2), 41)
    S = builtin_objective("frobenius", prob.signature)
    x0 = prob.identity_point()
    r = []
    for h, iters in ((1e-3, 1000), (5e-4, 2000)):
        tr = integrate_flow(prob, S, x0, FlowConfig(max_iters=iters, ode_step=h))
        r.append(energy_residual(tr))
    assert r[0] < 1e-3
    assert r[0] / r[1] >= 1.5


def test_energy_residual_trapezoid_sum():
    """Integrand 1, 3, 2 at t = 0, 1, 3 integrates to 2 + 5 = 7; f drops
    from 10 to 4, so the defect is |4 - 10 + 7| / (1 + 6)."""
    tr = FlowTrace()
    tr.energy_times = [0.0, 1.0, 3.0]
    tr.energy_half_q2 = [1.0, 2.0, 0.0]
    tr.energy_conj_half = [0.0, 1.0, 2.0]
    tr.energy_f = [10.0, 7.0, 4.0]
    assert abs(energy_residual(tr) - 1.0 / 7.0) < 1e-15


def test_energy_residual_requires_conjugate_oracle():
    prob = make_problem((2, 2), 42)
    S = builtin_objective("trace_dist_to_uniform", prob.signature)
    tr = integrate_flow(prob, S, prob.identity_point(),
                        FlowConfig(max_iters=10, ode_step=1e-3, smoothing=0.1))
    with pytest.raises(UnsupportedObjectiveError):
        energy_residual(tr)


def test_energy_residual_needs_samples():
    prob = make_problem((2, 2), 43)
    S = builtin_objective("frobenius", prob.signature)
    tr = integrate_flow(prob, S, prob.identity_point(),
                        FlowConfig(max_iters=0, ode_step=1e-3))
    with pytest.raises(ValidationError):
        energy_residual(tr)


def test_extract_certificate_pure_ray():
    """A trajectory that is itself a base geodesic ray certifies as that ray."""
    dims = (2, 2)
    prob = make_problem(dims, 44)
    S = builtin_objective("frobenius", dims)

    class Trace:
        pass

    from qflow.solver import FlowTrace, TraceSample

    H = geom.TangentBlock(np.zeros(0), [np.diag([1.0, -1.0]),
                                        np.diag([0.5, -0.5])])
    nrm = geom.metric_norm(prob.identity_point(), H)
    u = H.scaled(1.0 / nrm)
    R = 3.0
    tr = FlowTrace()
    tr.samples = [TraceSample(0.0, 1.0, 0.0, 0.0, 0.1),
                  TraceSample(3.0, 1.0, 0.0, R, 0.1)]
    tr.final_point = geom.geodesic(prob.identity_point(), u, R)
    cert = extract_certificate(tr, prob.identity_point())
    Y = cert.tangent_at_base()
    assert max(np.max(np.abs(a - b)) for a, b in zip(Y.blocks, u.blocks)) < 1e-8


def test_extract_certificate_interior_status():
    v = tensors.unit_tensor(2, 3)
    prob = KempfNessProblem(v)
    S = builtin_objective("trace_dist_to_uniform", prob.signature)
    cfg = FlowConfig(max_iters=50, step_size=0.1, smoothing=0.1)
    tr, _ = group_subgradient_method(
        v, S, [np.eye(2, dtype=complex)] * 3, cfg
    )
    assert tr.certificate is None
    assert "interior_optimum" in tr.status


def matrix_dual_reference(problem, Q, xi):
    """The dual through the matrix Y_xi = k diag(w) k^+: the lifted conjugate
    eigendecomposes each block of -Y_xi."""
    conj = conjugate_eval(Q, [-B for B in xi.tangent_at_base().blocks])
    if not np.isfinite(conj):
        return -math.inf
    return -problem.recession(xi) - conj


def test_certificate_phases_do_not_matter():
    """A unit phase on each basis column changes no dual value, recession,
    Fortin-Reutenauer pair or lifted direction; the dual read from the
    weights equals the matrix formula on generic, near-tied and 1e6-scale
    rays."""
    rng = np.random.default_rng(54)

    def rephased(bases):
        return [k * np.exp(2j * np.pi * rng.random(k.shape[1])) for k in bases]

    dims = (3, 2, 2)
    prob = make_problem(dims, 54)
    for kind, params in (("frobenius", {}), ("op_norm_max_weighted", {}),
                         ("trace_dist_to_uniform", {}),
                         ("neg_entropy_weighted", {"theta": [0.5, 0.25, 0.25]})):
        S = builtin_objective(kind, dims, **params)
        gauge = S.oracle.conjugate_gauge
        finite = 0
        for trial in range(12):
            cert = random_certificate(rng, dims)
            if trial % 2:
                for w in cert.weights:
                    w[1] = w[0] - 1e-10
            scales = [1.0, 1e6]
            if gauge is not None:
                scales.append(0.5 / gauge(-np.concatenate(cert.weights)))
            for c in scales:
                xi = cert.scaled(c)
                eta = geom.BoundaryCertificate(xi.euclid_dir, rephased(xi.bases),
                                               xi.weights)
                d = dual_value(prob, S, xi)
                ref = matrix_dual_reference(prob, S, xi)
                assert abs(prob.recession(eta) - prob.recession(xi)) <= 1e-12
                if d == -math.inf:
                    assert ref == -math.inf
                    assert dual_value(prob, S, eta) == -math.inf
                    continue
                finite += 1
                assert abs(d - ref) <= 1e-12 * (1.0 + abs(d))
                assert abs(dual_value(prob, S, eta) - d) <= 1e-12
        assert finite >= 12
    # a pencil U M_k V whose M_k vanish on rows :2, columns 1:, and the ray
    # with bases U and V^T cut at those dimensions
    n = 4
    U, V = random_unitary(rng, n), random_unitary(rng, n)
    mats = []
    for _ in range(3):
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        M[:2, 1:] = 0.0
        mats.append(U @ M @ V)
    A = apps.MatrixPencil(mats)
    cert = geom.BoundaryCertificate(
        np.zeros(0), [U, V.T],
        [np.array([1.0, 1.0, -1.0, -1.0]), np.array([1.0, -1.0, -1.0, -1.0])],
    )
    pair = apps.fortin_reutenauer_pair(A, cert)
    assert pair["dim_sum"] == 5 and pair["residual"] < 1e-12
    for _ in range(3):
        other = apps.fortin_reutenauer_pair(
            A, geom.BoundaryCertificate(cert.euclid_dir, rephased(cert.bases),
                                        cert.weights))
        assert other["dim_sum"] == pair["dim_sum"]
        assert abs(other["residual"] - pair["residual"]) <= 1e-12
    # the lift of a tie-averaged direction, at a generic and a fully tied point
    for v in (gaussian_tensor((3, 3, 2), 55), tensors.unit_tensor(3, 3)):
        mu = tensors.moment_map(tensors.normalize(v))
        S = builtin_objective("trace_dist_to_uniform", v.shape)
        sp = spectral_pass(S, mu, 0.1)
        decomps = [EighResult(r.values, k)
                   for r, k in zip(sp.decomps, rephased([r.basis for r in sp.decomps]))]
        moved = SpectralPass(sp.value, sp.smoothed, decomps, sp.direction)
        for a, b in zip(sp.lift(sp.direction), moved.lift(sp.direction)):
            assert np.max(np.abs(a - b)) <= 1e-12


def test_dual_value_checks_certificate_shape_and_unitarity():
    dims = (2, 2)
    prob = make_problem(dims, 56)
    S = builtin_objective("frobenius", dims)
    I2 = np.eye(2, dtype=complex)
    w = np.array([0.3, -0.3])
    for bases, weights in (([I2], [w]),  # one block short
                           ([I2, np.eye(3)], [w, np.zeros(3)]),  # wrong dim
                           ([I2, I2], [w, np.zeros(3)]),  # weights too long
                           ([I2, I2 + 1e-7], [w, w])):  # beyond UNITARY_TOL
        with pytest.raises(ValidationError):
            dual_value(prob, S, geom.BoundaryCertificate(np.zeros(0), bases, weights))
    near = I2 + 1e-10 * np.array([[0.0, 1.0], [1.0, 0.0]])
    assert math.isfinite(
        dual_value(prob, S, geom.BoundaryCertificate(np.zeros(0), [I2, near], [w, w]))
    )


def test_dual_value_infeasible_certificate():
    dims = (2, 2)
    prob = make_problem(dims, 45)
    S = builtin_objective("trace_dist_to_uniform", dims)
    bases = [np.eye(2, dtype=complex)] * 2
    xi = geom.BoundaryCertificate(np.zeros(0), bases,
                                  [np.array([5.0, -5.0]), np.array([0.0, 0.0])])
    assert dual_value(prob, S, xi) == -math.inf


def test_weak_duality_extracted_certificates():
    rng = np.random.default_rng(46)
    for seed in range(5):
        dims = (3, 2, 2)
        v = tensors.normalize(gaussian_tensor(dims, 500 + seed))
        prob = KempfNessProblem(v)
        S = builtin_objective("trace_dist_to_uniform", dims)
        cfg = FlowConfig(max_iters=400, step_size=0.3, smoothing=0.1,
                         smoothing_schedule=True)
        tr, _ = group_subgradient_method(
            v, S, [np.eye(n, dtype=complex) for n in dims], cfg
        )
        primal = tr.best_q
        if tr.certificate is None:
            continue
        for c in (0.2, 0.5, 1.0 / max(np.max(np.abs(w))
                                      for w in tr.certificate.weights)):
            d = dual_value(prob, S, tr.certificate.scaled(c))
            assert d <= primal + 1e-8


def test_stall_detection():
    v = tensors.unit_tensor(2, 3)
    prob = KempfNessProblem(v)
    S = builtin_objective("frobenius", prob.signature)
    cfg = FlowConfig(max_iters=5000, step_size=0.1, stall_window=50)
    tr, _ = group_subgradient_method(v, S, identity_factors(prob.signature), cfg)
    assert tr.status.startswith("stalled")
    assert tr.iterations < 5000


def test_unbounded_objective_rejected():
    """An objective with inf Q = -inf (Q*(0) = +inf) has no finite Q-shift."""
    prob = make_problem((2, 2, 2), 51)
    dims = prob.signature
    linear = SymmetricFunctionOracle(
        arity=dims,
        eval=lambda p: float(np.sum(p)),
        conjugate_eval=lambda x: 0.0 if np.allclose(x, 1.0) else math.inf,
        subgradient=lambda p: np.ones_like(p),
        smooth=True,
    )
    S = SpectralObjective(linear, dims, "linear")
    with pytest.raises(UnsupportedObjectiveError):
        group_subgradient_method(prob.v, S, identity_factors(dims),
                                 FlowConfig(max_iters=20))
    with pytest.raises(UnsupportedObjectiveError):
        integrate_flow(prob, S, prob.identity_point(), FlowConfig(max_iters=20))


def test_config_validation():
    with pytest.raises(ValidationError):
        FlowConfig(step_size=-1.0).validate()
    with pytest.raises(ValidationError):
        FlowConfig(step_rule="bogus").validate()
    with pytest.raises(ValidationError):
        FlowConfig(smoothing=-0.1).validate()
    with pytest.raises(ValidationError):
        FlowConfig(record_every=0).validate()
    for bad in (math.inf, math.nan):
        for name in ("step_size", "ode_step", "smoothing", "tol_stall"):
            with pytest.raises(ValidationError):
                FlowConfig(**{name: bad}).validate()
    with pytest.raises(ValidationError):
        FlowConfig(tol_stall=-1e-9).validate()
    FlowConfig(tol_stall=0.0, smoothing=0.1).validate()


@pytest.mark.parametrize("kind", ["frobenius", "op_norm_max_weighted",
                                  "trace_norm_sum_weighted", "trace_dist_to_uniform",
                                  "neg_entropy_weighted", "indicator_trace_ball"])
def test_best_dual_on_ray_without_certificate_is_infimum(kind):
    dims = (3, 2, 2)
    prob = make_problem(dims, 48)
    params = {"theta": [0.5, 0.25, 0.25]} if kind == "neg_entropy_weighted" else {}
    S = builtin_objective(kind, dims, **params)
    best = best_dual_on_ray(prob, S, None)
    assert best == infimum(S)
    assert math.copysign(1.0, best) == 1.0 or kind == "neg_entropy_weighted"


@pytest.mark.parametrize("kind", ["frobenius", "op_norm_max_weighted",
                                  "trace_norm_sum_weighted", "trace_dist_to_uniform"])
def test_best_dual_on_ray_gauge_objectives(kind):
    """For a norm-type objective the dual along a ray is linear on each side
    of c = 0 up to the ends of the conjugate's domain, so the search returns
    the best of the two ends and c = 0."""
    for seed, dims in ((49, (3, 2, 2)), (50, (2, 2, 2))):
        prob = make_problem(dims, seed)
        S = builtin_objective(kind, dims)
        cfg = FlowConfig(max_iters=150, step_size=0.3, smoothing=0.1,
                         smoothing_schedule=True)
        tr, _ = group_subgradient_method(
            prob.v, S, [np.eye(n, dtype=complex) for n in dims], cfg
        )
        cert = tr.certificate
        assert cert is not None
        w = np.concatenate(cert.weights)
        gauge = S.oracle.conjugate_gauge
        lo, hi = -1.0 / gauge(w), 1.0 / gauge(-w)
        ends = [dual_value(prob, S, cert.scaled(c)) for c in (lo, hi)]
        assert all(math.isfinite(d) for d in ends)
        # just outside the bracket the conjugate is infinite
        assert dual_value(prob, S, cert.scaled(1.01 * hi)) == -math.inf
        best = best_dual_on_ray(prob, S, cert)
        assert abs(best - max(ends + [infimum(S)])) <= 1e-12
        assert best <= tr.best_q + 1e-8

