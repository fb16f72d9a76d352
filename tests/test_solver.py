import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
import _loop_ref
from _geometry_ref import (
    differential,
    distance,
    kempf_ness,
    metric_norm,
    q_gradient,
    transport_from_base,
    transport_to_base,
)
from _pencils import planted_pencil

from qflow import apps
from qflow import geometry as geom
from qflow import solver, spectral
from qflow import tensors
from qflow.errors import DomainError, UnsupportedObjectiveError, ValidationError
from qflow.generate import gaussian_tensor
from qflow.solver import (
    FlowConfig,
    KempfNessProblem,
    best_ray_on_line,
    dual_value,
    energy_residual,
    FlowTrace,
    TraceSample,
    extract_certificate,
    group_subgradient_method,
    integrate_flow,
)
from qflow.spectral import (
    SpectralObjective,
    block_groups,
    builtin_objective,
    check_hermitian,
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
    """The base form of the Q-gradient (the test-side manifold form, on the
    differential the solvers compute) is the gradient of Q^2/2 at the
    transported differential: pairing it with the finite-difference velocity
    of the differential reproduces the derivative of Q^2/2 along the curve."""
    rng = np.random.default_rng(31)
    prob = make_problem((2, 3, 2), 31)
    S = builtin_objective("frobenius", prob.signature)
    blocks = []
    for n in prob.signature:
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blocks.append(M @ M.conj().T + 0.4 * np.eye(n))
    x = geom.ProductPDPoint(blocks)
    G = q_gradient(prob, S, x)
    G0 = transport_to_base(x, G)
    for _ in range(5):
        H0 = []
        for n in prob.signature:
            M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            H0.append(0.5 * (M + M.conj().T))
        Hx = transport_from_base(x, geom.TangentBlock(H0))
        eps = 1e-5
        pp = differential(prob, geom.geodesic(x, Hx, eps))
        pm = differential(prob, geom.geodesic(x, Hx, -eps))
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
    q = lift_eval(S, differential(prob, x))
    assert abs(metric_norm(x, G) - q) < 1e-10


def test_flow_reaches_interior_minimum_on_unit_tensor():
    v = tensors.unit_tensor(2, 3)
    prob = KempfNessProblem(v)
    S = builtin_objective("frobenius", prob.signature)
    # start away from the minimizer
    x0 = geom.ProductPDPoint([np.diag([2.0, 0.5]).astype(complex) for _ in range(3)])
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
    x0 = geom.ProductPDPoint([np.diag([2.0, 0.5]).astype(complex) for _ in range(3)])
    cfg = FlowConfig(max_iters=1000, ode_step=0.05)
    tr = integrate_flow(prob, S, x0, cfg)
    assert tr.status.startswith("stalled")
    assert tr.iterations < cfg.max_iters


def test_flow_monotone_and_step_distance_bound():
    prob = make_problem((3, 2, 2), 33)
    S = builtin_objective("frobenius", prob.signature)
    cfg = FlowConfig(max_iters=300, ode_step=1e-2)
    tr = integrate_flow(prob, S, prob.identity_point(), cfg)
    qs = [s.q_value for s in tr.samples]
    assert max(qs[i + 1] - qs[i] for i in range(len(qs) - 1)) < 1e-7
    # Lipschitz bound: per-step movement at most (initial Q) * h, since the
    # flow speed never exceeds the initial gradient norm; the flow's own
    # first step
    alpha = qs[0]
    x = prob.identity_point()
    first = integrate_flow(prob, S, x, FlowConfig(max_iters=1, ode_step=cfg.ode_step))
    assert distance(x, first.final_point) <= alpha * cfg.ode_step + 1e-9


def test_flow_halves_a_step_that_raises_the_value():
    """At ode_step = 4 the first Euler step of this flow raises Q and a step
    of 2 does not, so the first step taken is 2.  The step is halved for
    good: every step taken is ode_step over a power of two, none is longer
    than the one before, and no accepted value rises by more than the 1e-9
    that the acceptance test allows."""
    prob = make_problem((3, 2, 2), 33)
    S = builtin_objective("frobenius", prob.signature)
    cfg = FlowConfig(max_iters=30, ode_step=4.0)
    tr = integrate_flow(prob, S, prob.identity_point(), cfg)
    halvings = [math.log2(cfg.ode_step / s.step) for s in tr.samples[1:]]
    assert all(k == int(k) for k in halvings)
    assert halvings[0] == 1 and halvings == sorted(halvings)
    qs = [s.q_smooth for s in tr.samples]
    assert max(b - a for a, b in zip(qs, qs[1:])) <= 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_flow_and_certificate_reject_non_finite_start(bad):
    """A start point with a NaN or infinite entry is invalid input: both the
    flow and extract_certificate refuse it before any arithmetic on it."""
    prob = make_problem((2, 2, 2), 36)
    S = builtin_objective("frobenius", prob.signature)
    x0 = geom.ProductPDPoint([np.array([[1.0, bad], [bad, 1.0]]), np.eye(2), np.eye(2)])
    with pytest.raises(ValidationError, match="non-finite"):
        integrate_flow(prob, S, x0, FlowConfig(max_iters=5))
    tr = integrate_flow(prob, S, prob.identity_point(), FlowConfig(max_iters=5))
    with pytest.raises(ValidationError, match="non-finite"):
        extract_certificate(tr, x0)


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
    """From one start, the first step of the subgradient method (step_size h,
    so delta_0 = h) is the flow's first Euler step of ode_step h, bit for
    bit, scale moved into c included."""
    prob = make_problem((2, 2, 2), 36)
    S = builtin_objective("frobenius", prob.signature)
    h = 1e-3
    tr_f = integrate_flow(prob, S, prob.identity_point(),
                          FlowConfig(max_iters=1, ode_step=h))
    tr_s, _ = group_subgradient_method(prob.v, S, identity_factors(prob.signature),
                                       FlowConfig(max_iters=1, step_size=h))
    assert tr_f.iterations == tr_s.iterations == 1
    assert all(np.array_equal(a, b) for a, b in zip(tr_f.final_factors, tr_s.final_factors))


def test_zero_step_is_stationary():
    prob = make_problem((2, 2), 37)
    S = builtin_objective("frobenius", prob.signature)
    cfg = FlowConfig(max_iters=10, step_size=1e-30)
    tr, _ = group_subgradient_method(prob.v, S, identity_factors(prob.signature), cfg)
    assert distance(tr.final_point, prob.identity_point()) < 1e-12


def test_group_form_matches_manifold_form():
    """Reference: the manifold-form iteration x <- exp_x(-delta Q grad_x f),
    built from the public geodesic and the test-side Q-gradient, with the
    subgradient method's step delta / sqrt(i+1) at step i."""
    dims = (3, 2, 2)
    v = tensors.normalize(gaussian_tensor(dims, 38))
    prob = KempfNessProblem(v)
    S = builtin_objective("frobenius", dims)
    delta = 0.05
    cfg = FlowConfig(max_iters=50, step_size=delta, tol_stall=0.0)
    x = prob.identity_point()
    for i in range(cfg.max_iters):
        x = geom.geodesic(x, q_gradient(prob, S, x), -delta / math.sqrt(i + 1.0))
    tr_g, g = group_subgradient_method(v, S, identity_factors(dims), cfg)
    assert tr_g.iterations == cfg.max_iters
    assert distance(x, tr_g.final_point) < 1e-8
    x_from_g = [gi.conj().T @ gi for gi in g]
    assert max(
        np.max(np.abs(a - b)) for a, b in zip(x_from_g, tr_g.final_point.blocks)
    ) < 1e-10


def test_group_method_one_eigh_per_block(monkeypatch):
    """Each iteration of either solver eigendecomposes each moment-map block
    once per trial step; the rest is the start and the final pass (the flow
    also takes x0^1/2), and certificate extraction eigendecomposes nothing."""
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
    assert len(calls) <= 2 * (tr.iterations + 1)
    # the flow: one pass per trial step, halvings included
    prob = KempfNessProblem(v, (0, 1))
    calls.clear()
    passes.clear()
    tr = integrate_flow(prob, S, prob.identity_point(),
                        FlowConfig(max_iters=60, ode_step=0.05, smoothing=0.1))
    assert tr.iterations == 60
    assert len(passes) >= tr.iterations + 1
    assert len(calls) <= 2 * len(passes) + 2
    # certify reads the certificate's weights and eigendecomposes nothing
    dims = (3, 3, 3)
    cert = random_certificate(np.random.default_rng(52), dims)
    S = builtin_objective("neg_entropy_weighted", dims, theta=[0.2, 0.3, 0.5])
    calls.clear()
    assert math.isfinite(apps.certify(gaussian_tensor(dims, 52), S, cert))
    assert len(calls) == 0


def _diagonal_211():
    """The 3x3x3 diagonal tensor with weights 2, 1, 1: each marginal has a
    tied pair of eigenvalues, and the loop keeps the tie exactly."""
    v = np.zeros((3, 3, 3), dtype=complex)
    for i, a in enumerate((2.0, 1.0, 1.0)):
        v[i, i, i] = a
    return v


# (tensor, modes) of the loop's reference runs: one block size, two sizes in
# block order and interleaved, a pencil on modes (0, 1), and tied marginals
LOOP_INSTANCES = {
    "2x2x2": (gaussian_tensor((2, 2, 2), 57), None),
    "3x3x3": (gaussian_tensor((3, 3, 3), 57), None),
    "3x2x2": (gaussian_tensor((3, 2, 2), 57), None),
    "2x3x2": (gaussian_tensor((2, 3, 2), 57), None),
    "pencil": (apps.MatrixPencil([gaussian_tensor((3, 3), 58),
                                  gaussian_tensor((3, 3), 59)]).tensor(), (0, 1)),
    "unit": (tensors.unit_tensor(2, 3), None),
    "diagonal_211": (_diagonal_211(), None),
}

# (objective, policy, config): both step policies, smoothed and not; the
# unsmoothed Frobenius flow records the energy
LOOP_RUNS = (
    ("trace_dist_to_uniform", solver._SubgradientSteps,
     FlowConfig(max_iters=60, step_size=0.3, smoothing=0.1, smoothing_schedule=True)),
    ("op_norm_max_weighted", solver._SubgradientSteps,
     FlowConfig(max_iters=60, step_size=0.3, smoothing=0.1, smoothing_schedule=True)),
    ("op_norm_max_weighted", solver._FlowSteps,
     FlowConfig(max_iters=40, ode_step=0.05, smoothing=0.1)),
    ("frobenius", solver._SubgradientSteps, FlowConfig(max_iters=60, step_size=0.2)),
    ("frobenius", solver._FlowSteps, FlowConfig(max_iters=40, ode_step=0.05)),
)


def _assert_bitwise_same_trace(got, want):
    assert got.status == want.status
    assert len(got.samples) == len(want.samples)
    for a, b in zip(got.samples, want.samples):
        assert (a.t, a.q_value, a.f_value, a.r_cum, a.step, a.q_smooth, a.energy) == \
            (b.t, b.q_value, b.f_value, b.r_cum, b.step, b.q_smooth, b.energy)
    for a, b in zip(got.best_spectra, want.best_spectra):
        assert a.tobytes() == b.tobytes()
    assert len(got.final_factors) == len(want.final_factors)
    for a, b in zip(got.final_factors, want.final_factors):
        assert a.tobytes() == b.tobytes()
    assert (got.certificate is None) == (want.certificate is None)
    if got.certificate is not None:
        for a, b in zip(got.certificate.bases + got.certificate.weights,
                        want.certificate.bases + want.certificate.weights):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", list(LOOP_INSTANCES))
def test_descend_is_bitwise_its_per_block_reference(name, monkeypatch):
    """The stacked loop gives the traces of the per-block iteration
    (_loop_ref) bitwise: q, f, steps, spectra, final factors and
    certificate.  On tied marginals the tie_groups fallback runs."""
    v, modes = LOOP_INSTANCES[name]
    prob = KempfNessProblem(v, modes)
    g0 = [np.eye(n) for n in prob.signature]
    tie_groups = spectral.tie_groups
    tied = []

    def counted(lam):
        tied.append(1)
        return tie_groups(lam)

    for kind, policy, config in LOOP_RUNS:
        S = builtin_objective(kind, prob.signature)
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "tie_groups", counted)
            got = solver._descend(prob, g0, S, config, policy(config))
        want = _loop_ref.descend(prob, g0, S, config, policy(config))
        _assert_bitwise_same_trace(got, want)
    assert bool(tied) == (name in ("unit", "diagonal_211"))


@pytest.mark.parametrize("shape,modes,calls", [((2, 2, 2), None, [(3, 2, 2)]),
                                               ((3, 3, 3), None, [(3, 3, 3)]),
                                               ((3, 3, 2), (0, 1), [(2, 3, 3)]),
                                               ((3, 2, 2), None, [(1, 3, 3), (2, 2, 2)])])
def test_a_loop_iteration_calls_eigh_once_per_block_size(shape, modes, calls, monkeypatch):
    """A subgradient iteration makes one np.linalg.eigh call per distinct
    block size, on the stack of the blocks of that size."""
    seen = []
    eigh = np.linalg.eigh

    def counted(H, *args, **kwargs):
        seen.append(np.shape(H))
        return eigh(H, *args, **kwargs)

    prob = KempfNessProblem(gaussian_tensor(shape, 60), modes)
    S = builtin_objective("trace_dist_to_uniform", prob.signature)
    cfg = FlowConfig(max_iters=20, step_size=0.3, smoothing=0.1, smoothing_schedule=True)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    tr = solver._descend(prob, [np.eye(n) for n in prob.signature], S, cfg,
                         solver._SubgradientSteps(cfg))
    assert tr.iterations == cfg.max_iters
    assert seen == calls * (tr.iterations + 1)


def test_a_non_hermitian_block_in_a_stack_is_refused():
    """One non-Hermitian block among equal-size ones fails the stack's one
    check with the message check_hermitian gives that block alone."""
    S = builtin_objective("frobenius", (2, 2, 2))
    Y = [np.eye(2, dtype=complex) for _ in range(3)]
    Y[1] = np.array([[1.0, 1e-3], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValidationError) as alone:
        check_hermitian(Y[1])
    for call in (lambda: spectral_pass(S, block_groups(S.block_dims).stack(Y)),
                 lambda: lift_eval(S, Y)):
        with pytest.raises(ValidationError) as stacked:
            call()
        assert str(stacked.value) == str(alone.value) == \
            "matrix is not Hermitian: |H[0,1] - conj(H[1,0])| = 1.000e-03"


def test_group_method_best_value_nonincreasing_bookkeeping():
    dims = (2, 2, 2)
    v = tensors.normalize(gaussian_tensor(dims, 39))
    S = builtin_objective("trace_dist_to_uniform", dims)
    cfg = FlowConfig(max_iters=200, step_size=0.3, smoothing=0.1,
                     smoothing_schedule=True)
    tr, _ = group_subgradient_method(
        v, S, [np.eye(n, dtype=complex) for n in dims], cfg
    )
    best = math.inf
    for s in tr.samples:
        assert tr.best_q <= s.q_value + 1e-12
        best = min(best, s.q_value)
    assert tr.best_q <= best + 1e-12


def test_group_method_f_at_iterate():
    dims = (2, 2)
    v = tensors.normalize(gaussian_tensor(dims, 40))
    S = builtin_objective("frobenius", dims)
    cfg = FlowConfig(max_iters=200, step_size=0.2, tol_stall=0.0)
    tr, g = group_subgradient_method(
        v, S, [np.eye(n, dtype=complex) for n in dims], cfg
    )
    # f is recorded at the iterate, the shares c included
    assert abs(tr.samples[-1].f_value - kempf_ness(v, tr.final_point)) < 1e-10


def test_orbit_step_moves_scale_into_c():
    """The split step (unit-determinant part on g, scalar into c) gives the
    iterate of the unsplit step g <- exp(-delta Z/2) g and keeps |det g|."""
    rng = np.random.default_rng(53)
    dims = (3, 2, 4)
    g = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in dims]
    c = list(rng.standard_normal(len(dims)))
    Y = []
    for n in dims:
        H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Y.append(H + H.conj().T)
    groups = block_groups(dims)
    sp = spectral_pass(builtin_objective("frobenius", dims), groups.stack(Y))
    fac, delta = 1.7, 0.3
    moved = solver._Orbit(None, None, groups, groups.stack(g), c).advanced(sp, fac, delta)
    E = groups.unstack(sp.lift([np.exp(-0.5 * delta * fac * m) for m in sp.direction]))
    for gj, cj, Ej, gn, cn in zip(g, c, E, groups.unstack(moved.g), moved.c):
        ref = math.exp(2 * cj) * (Ej @ gj).conj().T @ (Ej @ gj)
        got = math.exp(2 * cn) * gn.conj().T @ gn
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        det0 = abs(np.linalg.det(gj))
        assert abs(abs(np.linalg.det(gn)) - det0) <= 1e-12 * det0


def test_group_method_factors_give_final_point():
    """The returned factors carry their shares back: g^+ g is the final point
    for the default config."""
    dims = (3, 2, 2)
    v = tensors.normalize(gaussian_tensor(dims, 54))
    S = builtin_objective("frobenius", dims)
    tr, g = group_subgradient_method(v, S, identity_factors(dims),
                                     FlowConfig(max_iters=200))
    assert tr.iterations == 200
    for gi, B in zip(g, tr.final_point.blocks):
        assert np.max(np.abs(gi.conj().T @ gi - B)) <= 1e-10 * np.max(np.abs(B))


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
    assert float(S.eval(np.concatenate(tr.best_spectra))) == tr.best_q
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
    from 10 to 4, so the defect is |4 - 10 + 7| / (1 + 6).  The last sample
    starts no step and is left out."""
    tr = FlowTrace()
    tr.samples = [TraceSample(t, 0.0, f, 0.0, 0.0, energy=e)
                  for t, f, e in ((0.0, 10.0, 1.0), (1.0, 7.0, 3.0), (3.0, 4.0, 2.0),
                                  (4.0, -50.0, 100.0))]
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
    H = geom.TangentBlock([np.diag([1.0, -1.0]), np.diag([0.5, -0.5])])
    nrm = metric_norm(prob.identity_point(), H)
    u = H.scaled(1.0 / nrm)
    R = 3.0
    tr = FlowTrace()
    tr.samples = [TraceSample(0.0, 1.0, 0.0, 0.0, 0.1),
                  TraceSample(3.0, 1.0, 0.0, R, 0.1)]
    x = geom.geodesic(prob.identity_point(), u, R)
    tr.final_factors = [geom.sqrtm_pd(B) for B in x.blocks]
    cert = extract_certificate(tr, prob.identity_point())
    Y = cert.tangent_at_base()
    assert max(np.max(np.abs(a - b)) for a, b in zip(Y.blocks, u.blocks)) < 1e-8
    with pytest.raises(ValidationError):
        extract_certificate(tr, geom.ProductPDPoint.identity((2,)))


@functools.lru_cache(maxsize=None)
def escaping_flow(max_iters):
    """A Frobenius flow on a planted pencil, whose orbit escapes."""
    prob = KempfNessProblem(planted_pencil(np.random.default_rng(3), 4, 2, 3, 2).tensor(),
                            (0, 1))
    S = builtin_objective("frobenius", prob.signature)
    cfg = FlowConfig(max_iters=max_iters, ode_step=0.5, tol_stall=0.0)
    return prob, S, integrate_flow(prob, S, prob.identity_point(), cfg)


def test_escaping_flow_certifies_ill_conditioned_end():
    """The flow on a planted pencil drives cond(x_T) past 1e15, where an
    eigendecomposition of x_T no longer converges; the certificate comes
    from the factors and stays a valid lower bound."""
    prob, S, tr = escaping_flow(500)
    assert tr.iterations == 500
    assert max(np.linalg.cond(B) for B in tr.final_point.blocks) > 1e15
    assert tr.certificate is not None
    assert all(np.all(np.isfinite(w)) for w in tr.certificate.weights)
    assert all(np.all(np.isfinite(k)) for k in tr.certificate.bases)
    d = dual_value(prob, S, tr.certificate)
    assert math.isfinite(d) and d <= tr.best_q + 1e-8


@pytest.mark.parametrize("max_iters", [300, 500])
def test_extract_certificate_reads_final_factors(max_iters):
    """extract_certificate gives the solver's own certificate on the escaping
    flow: it runs the factor formula on the final factors, where x_T^1/2
    from an eigendecomposition of x_T (cond 3e11 at 300 steps, past 1e15 at
    500) loses digits or fails."""
    prob, S, tr = escaping_flow(max_iters)
    cert = tr.certificate
    again = extract_certificate(tr, prob.identity_point())
    assert tr.certificate is cert
    for w, w_ref in zip(again.weights, cert.weights):
        assert np.max(np.abs(w - w_ref)) <= 1e-12
    for Y, Y_ref in zip(again.tangent_at_base().blocks, cert.tangent_at_base().blocks):
        assert np.max(np.abs(Y - Y_ref)) <= 1e-12


def random_pd_point(rng, dims):
    blocks = []
    for n in dims:
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blocks.append(M @ M.conj().T / n + 0.5 * np.eye(n))
    return geom.ProductPDPoint(blocks)


@pytest.mark.parametrize("form", ["group", "flow"])
def test_certificate_matches_log_map_reference(form):
    """The solvers' certificate, read off one SVD of g g0^-1 per block, is
    the normal form of log_{x0}(x_T)/R built from the public log map: group
    runs from the identity and from random invertible factors g0 (where
    x0 = g0^+ g0), and flow runs from random PD starts."""
    rng = np.random.default_rng(57)
    dims = (3, 2, 2)
    for seed in range(3):
        prob = make_problem(dims, 500 + seed)
        for kind in ("frobenius", "trace_dist_to_uniform"):
            S = builtin_objective(kind, dims)
            if form == "group":
                x0, g0 = prob.identity_point(), identity_factors(dims)
                if kind == "frobenius":  # g0 = W x0^1/2 with W unitary
                    x0 = random_pd_point(rng, dims)
                    g0 = [random_unitary(rng, len(B)) @ geom.sqrtm_pd(B) for B in x0.blocks]
                tr, _ = group_subgradient_method(
                    prob.v, S, g0, FlowConfig(max_iters=200, step_size=0.3, smoothing=0.1))
            else:
                x0 = random_pd_point(rng, dims)
                tr = integrate_flow(prob, S, x0,
                                    FlowConfig(max_iters=200, ode_step=0.05, smoothing=0.1))
            u = geom.log_map(tr.final_point, x0).scaled(1.0 / tr.r_cumulative)
            ref = geom.asymptotic_at_base(x0, u)
            cert = tr.certificate
            for w, w_ref in zip(cert.weights, ref.weights):
                assert np.max(np.abs(w - w_ref)) <= 1e-12
            for Y, Y_ref in zip(cert.tangent_at_base().blocks,
                                ref.tangent_at_base().blocks):
                assert np.max(np.abs(Y - Y_ref)) <= 1e-12
            assert abs(dual_value(prob, S, cert) - dual_value(prob, S, ref)) <= 1e-12


def test_flow_rejects_invalid_start():
    """A start that is not Hermitian or not positive definite is refused
    before the run, not read through one triangle or run into NaN."""
    prob = make_problem((2, 2), 58)
    S = builtin_objective("frobenius", prob.signature)
    I2 = np.eye(2, dtype=complex)
    for bad in (np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex),
                np.diag([1.0, -1.0]).astype(complex)):
        x0 = geom.ProductPDPoint([bad, I2])
        with pytest.raises(ValidationError):
            integrate_flow(prob, S, x0, FlowConfig(max_iters=5))


def test_extract_certificate_rejects_invalid_start():
    """extract_certificate refuses a start that is not Hermitian or not
    positive definite, as integrate_flow does, before taking its root."""
    prob = make_problem((2, 2), 58)
    S = builtin_objective("frobenius", prob.signature)
    tr = integrate_flow(prob, S, prob.identity_point(), FlowConfig(max_iters=5))
    I2 = np.eye(2, dtype=complex)
    for bad in (np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex),
                np.diag([1.0, -1.0]).astype(complex)):
        with pytest.raises(ValidationError):
            extract_certificate(tr, geom.ProductPDPoint([bad, I2]))


def test_extract_certificate_interior_status():
    v = tensors.unit_tensor(2, 3)
    prob = KempfNessProblem(v)
    S = builtin_objective("trace_dist_to_uniform", prob.signature)
    cfg = FlowConfig(max_iters=50, step_size=0.1, smoothing=0.1)
    tr, _ = group_subgradient_method(
        v, S, [np.eye(2, dtype=complex)] * 3, cfg
    )
    assert tr.certificate is None
    assert tr.status == "max_iters+interior_optimum"
    # re-extracting reads the trace and leaves it as the run left it
    assert extract_certificate(tr, prob.identity_point()) is None
    assert tr.status == "max_iters+interior_optimum"


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
        gauge = S.conjugate_gauge
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
        S = builtin_objective("trace_dist_to_uniform", v.shape)
        sp = spectral_pass(S, tensors.marginals(tensors.normalize(v)), 0.1)
        moved = dataclasses.replace(
            sp, bases=sp.groups.stack(rephased(sp.groups.unstack(sp.bases))))
        for a, b in zip(sp.lift(sp.direction), moved.lift(sp.direction)):
            assert np.max(np.abs(a - b)) <= 1e-12


def test_dual_value_checks_certificate_shape_and_unitarity():
    dims = (2, 2)
    prob = make_problem(dims, 56)
    S = builtin_objective("frobenius", dims)
    I2 = np.eye(2, dtype=complex)
    w = np.array([0.3, -0.3])
    # an objective and certificate of another signature than the problem's,
    # on a ray where the conjugate is infinite
    with pytest.raises(ValidationError):
        dual_value(prob, builtin_objective("frobenius", (2, 2, 2)),
                   geom.BoundaryCertificate(np.zeros(0), [I2] * 3, [10 * w] * 3))
    for modes in ((0, 0), (0, 2), (-1,)):
        with pytest.raises(ValidationError):
            KempfNessProblem(prob.v, modes)
    near = I2 + 1e-10 * np.array([[0.0, 1.0], [1.0, 0.0]])
    assert math.isfinite(
        dual_value(prob, S, geom.BoundaryCertificate(np.zeros(0), [I2, near], [w, w]))
    )


_I2 = np.eye(2, dtype=complex)
_W = np.array([0.3, -0.3])


# each case builds (euclid_dir, bases, weights) for a signature of k blocks of
# dim 2, and the text its check raises
@pytest.mark.parametrize("case,match", [
    (lambda k: (np.ones(1), [_I2] * k, [_W] * k), "Euclidean"),
    (lambda k: (np.zeros(0), [_I2] * (k - 1), [_W] * (k - 1)), "expected {k} blocks"),
    (lambda k: (np.zeros(0), [_I2] * k, [_W] * (k - 1)), "expected {k} blocks"),
    (lambda k: (np.zeros(0), [_I2, np.eye(3)] + [_I2] * (k - 2), [_W] * k),
     "basis shape"),
    (lambda k: (np.zeros(0), [_I2] * k, [_W, np.ones(3)] + [_W] * (k - 2)),
     "weight shape"),
    (lambda k: (np.zeros(0), [0.5 * _I2] * k, [_W] * k), "not unitary"),
    (lambda k: (np.zeros(0), [_I2, _I2 + 1e-7] + [_I2] * (k - 2), [_W] * k),
     "not unitary"),
], ids=["euclid_dir", "block_count", "weight_count", "basis_shape", "weight_shape",
        "half_identity", "beyond_unitary_tol"])
def test_dual_value_rejects_malformed_certificates(case, match):
    """Each check of a certificate, made once (tensors._certificate_weights)
    for its three consumers: dual_value and tensors.recession on the 3-mode
    unit tensor, and dual_value (through apps.certify) and
    apps.fortin_reutenauer_pair on a pencil, whose certificates have two
    blocks.  Every consumer raises dual_value's text; the identity ray with
    the same weights is accepted by all of them."""
    unit = tensors.unit_tensor(2, 3)
    pencil = apps.MatrixPencil([np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2)])
    consumers = {
        3: [lambda xi: dual_value(KempfNessProblem(unit),
                                  builtin_objective("frobenius", (2, 2, 2)), xi),
            lambda xi: tensors.recession(unit, xi)],
        2: [lambda xi: apps.certify(pencil, builtin_objective("frobenius", (2, 2)), xi),
            lambda xi: apps.fortin_reutenauer_pair(pencil, xi)],
    }
    for k, calls in consumers.items():
        ok = geom.BoundaryCertificate(np.zeros(0), [_I2] * k, [_W] * k)
        bad = geom.BoundaryCertificate(*case(k))
        assert math.isfinite(calls[0](ok))
        texts = []
        for call in calls:
            call(ok)
            with pytest.raises(ValidationError, match=match.format(k=k)) as info:
                call(bad)
            texts.append(str(info.value))
        assert texts[0] == texts[1]


def test_checks_take_only_a_boundary_certificate(monkeypatch):
    """A BoundaryCertificate is the one ray type.  tensors.recession,
    tensors.support_sums, dual_value and apps.fortin_reutenauer_pair reject a
    TangentBlock with one text before any rotation (tensors.act fails here),
    and accept the ray of the same tangent direction at the base,
    asymptotic_at_base(ProductPDPoint.identity(dims), H)."""
    unit = tensors.unit_tensor(2, 3)
    pencil = apps.MatrixPencil([np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2)])
    prob = KempfNessProblem(unit)
    S = builtin_objective("frobenius", prob.signature)
    calls = [(lambda xi: tensors.recession(unit, xi), 3),
             (lambda xi: tensors.support_sums(unit, xi), 3),
             (lambda xi: dual_value(prob, S, xi), 3),
             (lambda xi: apps.fortin_reutenauer_pair(pencil, xi), 2)]

    def tangent(k):
        return geom.TangentBlock([np.diag([0.3, -0.3]).astype(complex)] * k)

    for call, k in calls:
        call(geom.asymptotic_at_base(geom.ProductPDPoint.identity((2,) * k), tangent(k)))

    def unreached(*args, **kwargs):
        raise AssertionError("a TangentBlock was rotated")

    monkeypatch.setattr(tensors, "act", unreached)
    texts = set()
    for call, k in calls:
        with pytest.raises(ValidationError, match="BoundaryCertificate") as info:
            call(tangent(k))
        texts.add(str(info.value))
    assert len(texts) == 1


def test_best_dual_on_ray_checks_before_reading_weights():
    """best_ray_on_line runs the one check before its zero-weight shortcut: a
    TangentBlock and a zero-weight certificate of the wrong shape raise the
    check's ValidationError; a zero-weight certificate that passes it is
    returned as it is, rated at inf Q."""
    prob = KempfNessProblem(tensors.unit_tensor(2, 3))
    S = builtin_objective("frobenius", prob.signature)
    tangent = geom.TangentBlock([np.diag([0.3, -0.3]).astype(complex)] * 3)
    with pytest.raises(ValidationError, match="BoundaryCertificate"):
        best_ray_on_line(prob, S, tangent)
    wrong = geom.BoundaryCertificate(np.zeros(0), [np.eye(3, dtype=complex)] * 5,
                                     [np.zeros(3)] * 5)
    with pytest.raises(ValidationError, match="expected 3 blocks"):
        best_ray_on_line(prob, S, wrong)
    zero = geom.BoundaryCertificate(np.zeros(0), [np.eye(2, dtype=complex)] * 3,
                                    [np.zeros(2)] * 3)
    assert best_ray_on_line(prob, S, zero) is zero
    assert dual_value(prob, S, zero) == infimum(S)


@pytest.mark.parametrize("name", ["recession", "support_sums", "dual_value",
                                  "best_ray_on_line", "fortin_reutenauer_pair"])
def test_certificate_weights_must_be_real(name):
    """Complex weights (1+5j, -1) fail the one check with a ValidationError,
    before a float cast drops their imaginary part."""
    unit = tensors.unit_tensor(2, 3)
    prob = KempfNessProblem(unit)
    S = builtin_objective("frobenius", prob.signature)
    pencil = apps.MatrixPencil([np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2)])
    call, k = {"recession": (lambda xi: tensors.recession(unit, xi), 3),
               "support_sums": (lambda xi: tensors.support_sums(unit, xi), 3),
               "dual_value": (lambda xi: dual_value(prob, S, xi), 3),
               "best_ray_on_line": (lambda xi: best_ray_on_line(prob, S, xi), 3),
               "fortin_reutenauer_pair": (
                   lambda xi: apps.fortin_reutenauer_pair(pencil, xi), 2)}[name]
    xi = geom.BoundaryCertificate(np.zeros(0), [np.eye(2, dtype=complex)] * k,
                                  [np.array([1.0 + 5.0j, -1.0])] * k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="certificate weights must be real"):
            call(xi)


def test_dual_value_rejects_a_tangent_block(monkeypatch):
    """A TangentBlock is not a certificate: dual_value names the type it
    needs before any rotation (tensors.act fails here)."""
    prob = KempfNessProblem(tensors.unit_tensor(2, 3))
    S = builtin_objective("frobenius", prob.signature)
    xi = geom.TangentBlock([np.diag([0.3, -0.3]).astype(complex)] * 3)

    def unreached(*args, **kwargs):
        raise AssertionError("dual_value rotated a TangentBlock")

    monkeypatch.setattr(tensors, "act", unreached)
    with pytest.raises(ValidationError, match="BoundaryCertificate"):
        dual_value(prob, S, xi)


def _identity_with_nan(n):
    k = np.eye(n, dtype=complex)
    k[0, 0] = np.nan
    return k


# bad bases for the unitarity check, each far outside UNITARY_TOL
_BAD_BASES = {"half_identity": lambda n: 0.5 * np.eye(n, dtype=complex),
              "identity_plus_1e-7": lambda n: np.eye(n, dtype=complex) + 1e-7,
              "nan_entry": _identity_with_nan}


def _certificate_with_bad_basis(rng, dims, bad, at):
    cert = random_certificate(rng, dims)
    bases = list(cert.bases)
    bases[at] = _BAD_BASES[bad](dims[at])
    return geom.BoundaryCertificate(np.zeros(0), bases, cert.weights)


@pytest.mark.parametrize("bad", sorted(_BAD_BASES))
def test_one_unitarity_check_finds_a_bad_block_anywhere(bad):
    """One reduction reads k^+ k - I of every block, so a bad block first, in
    the middle or last is found by dual_value and recession on a (3, 2, 2)
    tensor, and by those, apps.certify and fortin_reutenauer_pair on a
    pencil, whose certificates have two blocks."""
    rng = np.random.default_rng(61)
    prob = make_problem((3, 2, 2), 61)
    S = builtin_objective("frobenius", (3, 2, 2))
    for at in range(3):
        cert = _certificate_with_bad_basis(rng, (3, 2, 2), bad, at)
        for call in (lambda xi: dual_value(prob, S, xi),
                     lambda xi: tensors.recession(prob.v, xi)):
            with pytest.raises(ValidationError, match="certificate basis is not unitary"):
                call(cert)
    pencil = apps.MatrixPencil([rng.standard_normal((3, 3)) for _ in range(2)])
    Sp = builtin_objective("frobenius", (3, 3))
    pprob = KempfNessProblem(pencil.tensor(), (0, 1))
    for at in range(2):
        cert = _certificate_with_bad_basis(rng, (3, 3), bad, at)
        for call in (lambda xi: dual_value(pprob, Sp, xi),
                     lambda xi: tensors.recession(pencil.tensor(), xi, (0, 1)),
                     lambda xi: apps.certify(pencil, Sp, xi),
                     lambda xi: apps.fortin_reutenauer_pair(pencil, xi)):
            with pytest.raises(ValidationError, match="certificate basis is not unitary"):
                call(cert)


def test_unitarity_check_multiplies_each_block_alone(monkeypatch):
    """The check's products are k^+ k of each block, n x n, never one of the
    block-diagonal matrix of all bases, whose cost grows as (sum n)^3."""
    shapes = []
    matmul = np.matmul

    def recorded(a, b, *args, **kwargs):
        shapes.append((np.shape(a), np.shape(b)))
        return matmul(a, b, *args, **kwargs)

    rng = np.random.default_rng(65)
    for dims, v, modes in (((3, 2, 2), make_problem((3, 2, 2), 65).v, None),
                           ((4, 4), rng.standard_normal((4, 4, 2)), (0, 1))):
        cert = random_certificate(rng, dims)
        monkeypatch.setattr(np, "matmul", recorded)
        tensors.recession(v, cert, modes)
        monkeypatch.setattr(np, "matmul", matmul)
        assert shapes == [((n, n), (n, n)) for n in dims]
        shapes.clear()


def test_dual_value_reaches_the_pass_through_recession(monkeypatch):
    """dual_value, apps.certify and the rating of best_ray_on_line's ray call
    tensors.recession once each (the line search reads support_sums), so a
    benchmark span on recession times the pass over the blocks, and its
    result is the recession that dual_value rates."""
    prob = make_problem((3, 2, 2), 64)
    S = builtin_objective("frobenius", (3, 2, 2))
    cert = random_certificate(np.random.default_rng(64), (3, 2, 2))
    seen = []
    recession = tensors.recession

    def counted(*args, **kwargs):
        seen.append(recession(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(tensors, "recession", counted)
    # the line search returns a scaled copy of the ray, which one dual_value rates
    for call, rates_cert in ((lambda: dual_value(prob, S, cert), True),
                             (lambda: apps.certify(prob.v, S, cert), True),
                             (lambda: dual_value(prob, S, best_ray_on_line(prob, S, cert)),
                              False)):
        seen.clear()
        call()
        assert len(seen) == 1
        if rates_cert:
            assert seen == [recession(prob.v, cert)]


def test_certificate_check_does_not_normalize_the_tensor(monkeypatch):
    """The recession is scale-invariant, so dual_value and apps.certify read
    the problem's tensor as given; the unit tensor v is made on first use,
    once, and a dual is the same at any scale of the tensor."""
    rng = np.random.default_rng(66)
    w = gaussian_tensor((3, 2, 2), 66)
    S = builtin_objective("frobenius", (3, 2, 2))
    cert = random_certificate(rng, (3, 2, 2))
    unit = dual_value(KempfNessProblem(w), S, cert)
    calls = []
    normalize = tensors.normalize

    def counted(v):
        calls.append(1)
        return normalize(v)

    monkeypatch.setattr(tensors, "normalize", counted)
    prob = KempfNessProblem(1e3 * w)
    assert dual_value(prob, S, cert) == unit
    assert apps.certify(1e3 * w, S, cert) == unit
    assert calls == []
    assert abs(np.linalg.norm(prob.v) - 1.0) < 1e-15 and prob.v is prob.v
    assert calls == [1]


def test_certificate_shapes_are_checked_before_unitarity():
    """A certificate with a non-unitary first basis and a misshapen last one
    fails on the shape: every block's shape is checked before the one
    unitarity check of all bases."""
    prob = make_problem((3, 2, 2), 62)
    S = builtin_objective("frobenius", (3, 2, 2))
    cert = random_certificate(np.random.default_rng(62), (3, 2, 2))
    bases = [0.5 * cert.bases[0], cert.bases[1], np.eye(3, dtype=complex)]
    bad = geom.BoundaryCertificate(np.zeros(0), bases, cert.weights)
    for call in (lambda xi: dual_value(prob, S, xi),
                 lambda xi: tensors.recession(prob.v, xi)):
        with pytest.raises(ValidationError, match="basis shape"):
            call(bad)


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
    """The unit tensor starts at the minimum: the best value improves at step
    0 only, and the run stalls STALL_WINDOW steps later."""
    v = tensors.unit_tensor(2, 3)
    prob = KempfNessProblem(v)
    S = builtin_objective("frobenius", prob.signature)
    cfg = FlowConfig(max_iters=5000, step_size=0.1)
    tr, _ = group_subgradient_method(v, S, identity_factors(prob.signature), cfg)
    assert tr.status.startswith("stalled")
    assert tr.iterations == solver.STALL_WINDOW + 1 < 5000


def test_stop_below_none_keeps_the_run():
    """Without a threshold the loop runs as before it had one (the values are
    pinned from that loop); a threshold ends the same run, with status
    certified, after the first step whose best value is below it."""
    dims = (3, 2, 2)
    prob = KempfNessProblem(tensors.normalize(gaussian_tensor(dims, 61)))
    S = builtin_objective("trace_dist_to_uniform", dims)
    cfg = FlowConfig(max_iters=300, step_size=0.3, smoothing=0.1,
                     smoothing_schedule=True)

    def run(stop_below):
        return solver._descend(prob, identity_factors(dims), S, cfg,
                               solver._SubgradientSteps(cfg), stop_below)

    tr = run(None)
    assert (tr.iterations, tr.status, len(tr.samples)) == (300, "max_iters", 301)
    for got, pinned in ((tr.best_q, 0.011549749654594432),
                        (tr.r_cumulative, 0.6556022045313118),
                        (tr.certificate.weights[0][0], 0.9490290585830174)):
        assert abs(got - pinned) <= 1e-10 * pinned
    q = [s.q_value for s in tr.samples]
    k = int(np.argmax(np.minimum.accumulate(q) < 0.1))
    assert 0 < k < 299
    short = run(0.1)
    assert (short.iterations, short.status) == (k + 1, "certified")
    assert [s.q_value for s in short.samples] == q[:k + 2]


def test_unbounded_objective_rejected():
    """An objective with inf Q = -inf (Q*(0) = +inf) has no finite Q-shift."""
    prob = make_problem((2, 2, 2), 51)
    dims = prob.signature
    S = SpectralObjective(
        eval=lambda p: float(np.sum(p)),
        conjugate_eval=lambda x: 0.0 if np.allclose(x, 1.0) else math.inf,
        subgradient=lambda p: np.ones_like(p),
        smooth=True,
        block_dims=dims,
        label="linear",
    )
    with pytest.raises(UnsupportedObjectiveError):
        group_subgradient_method(prob.v, S, identity_factors(dims),
                                 FlowConfig(max_iters=20))
    with pytest.raises(UnsupportedObjectiveError):
        integrate_flow(prob, S, prob.identity_point(), FlowConfig(max_iters=20))


def test_objective_infinite_at_start_rejected():
    """The trace-ball indicator with radius 1 is +inf on every 3-mode moment
    map (||mu||_1 = 3); both solvers refuse to start instead of stepping on
    an infinite value."""
    prob = make_problem((2, 2, 2), 3)
    S = builtin_objective("indicator_trace_ball", prob.signature)
    cfg = FlowConfig(max_iters=20, smoothing=0.1)
    with pytest.raises(DomainError, match="indicator_trace_ball"):
        group_subgradient_method(prob.v, S, identity_factors(prob.signature), cfg)
    with pytest.raises(DomainError, match="indicator_trace_ball"):
        integrate_flow(prob, S, prob.identity_point(), cfg)


def test_config_validation():
    with pytest.raises(ValidationError):
        FlowConfig(step_size=-1.0).validate()
    with pytest.raises(ValidationError):
        FlowConfig(smoothing=-0.1).validate()
    for bad in (math.inf, math.nan):
        for name in ("step_size", "ode_step", "smoothing", "tol_stall"):
            with pytest.raises(ValidationError):
                FlowConfig(**{name: bad}).validate()
    with pytest.raises(ValidationError):
        FlowConfig(tol_stall=-1e-9).validate()
    with pytest.raises(ValidationError, match="max_iters"):
        FlowConfig(max_iters=10.5).validate()
    FlowConfig(tol_stall=0.0, smoothing=0.1, max_iters=np.int64(3)).validate()


@pytest.mark.parametrize("kind", ["frobenius", "op_norm_max_weighted",
                                  "trace_norm_sum_weighted", "trace_dist_to_uniform",
                                  "neg_entropy_weighted", "indicator_trace_ball"])
def test_best_ray_on_line_without_certificate_leaves_the_floor(kind):
    """No certificate spans no line: the search returns None, which the
    floor ignores.  The floor's dual is at least inf S, the dual of c = 0 on
    every line, so the search needs no c = 0 candidate."""
    dims = (3, 2, 2)
    prob = make_problem(dims, 48)
    params = {"theta": [0.5, 0.25, 0.25]} if kind == "neg_entropy_weighted" else {}
    S = builtin_objective(kind, dims, **params)
    assert best_ray_on_line(prob, S, None) is None
    floor = apps._Floor(prob, S)
    cert, value = floor.cert, floor.value
    floor.offer(None)
    assert floor.cert is cert and floor.value == value >= infimum(S)


@pytest.mark.parametrize("kind", ["frobenius", "op_norm_max_weighted",
                                  "trace_norm_sum_weighted", "trace_dist_to_uniform",
                                  "neg_entropy_weighted", "indicator_trace_ball"])
def test_best_dual_on_ray_zero_ray_is_infimum(kind):
    """The line through a zero-weight ray is the single point c = 0, whose dual
    is inf Q; the search bracket 1/gauge(+-w) does not exist there, and the
    ray is returned as it is."""
    dims = (3, 2, 2)
    prob = make_problem(dims, 48)
    params = {"theta": [0.5, 0.25, 0.25]} if kind == "neg_entropy_weighted" else {}
    S = builtin_objective(kind, dims, **params)
    cert = random_certificate(np.random.default_rng(51), dims).scaled(0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ray = best_ray_on_line(prob, S, cert)
    assert ray is cert and dual_value(prob, S, ray) == infimum(S)


@pytest.mark.parametrize("kind", ["frobenius", "op_norm_max_weighted",
                                  "trace_norm_sum_weighted", "trace_dist_to_uniform"])
def test_best_dual_on_ray_gauge_objectives(kind):
    """For a norm-type objective the dual along a ray is linear on each side
    of c = 0 up to the ends of the conjugate's domain, so the search returns
    the better end, or a ray within its tolerance of c = 0 when that is
    best (the floor then holds at least inf S, the dual of c = 0)."""
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
        gauge = S.conjugate_gauge
        lo, hi = -1.0 / gauge(w), 1.0 / gauge(-w)
        ends = [dual_value(prob, S, cert.scaled(c)) for c in (lo, hi)]
        assert all(math.isfinite(d) for d in ends)
        # just outside the bracket the conjugate is infinite
        assert dual_value(prob, S, cert.scaled(1.01 * hi)) == -math.inf
        best = dual_value(prob, S, best_ray_on_line(prob, S, cert))
        if max(ends) >= infimum(S):
            assert abs(best - max(ends)) <= 1e-12
        else:
            assert infimum(S) - 1e-9 <= best <= infimum(S)
        assert best <= tr.best_q + 1e-8


@pytest.mark.parametrize("kind", ["frobenius", "op_norm_max_weighted",
                                  "trace_norm_sum_weighted", "trace_dist_to_uniform",
                                  "neg_entropy_weighted", "indicator_trace_ball"])
def test_best_dual_on_ray_rotates_v_at_most_twice(kind, monkeypatch):
    """One rotation gives the largest and smallest weight sums over the
    support, the golden-section search then evaluates only the conjugate,
    and the floor's one dual_value rates the returned ray: two calls to
    tensors.act, whatever the objective.  The ray's dual is at least the
    dual of the ray as given, and the floor's at least inf S."""
    dims = (3, 2, 2)
    prob = make_problem(dims, 63)
    params = {"theta": [0.5, 0.25, 0.25]} if kind == "neg_entropy_weighted" else {}
    S = builtin_objective(kind, dims, **params)
    calls = []
    act = tensors.act

    def counted(*args, **kwargs):
        calls.append(1)
        return act(*args, **kwargs)

    rng = np.random.default_rng(63)
    for cert in (random_certificate(rng, dims), random_certificate(rng, dims).scaled(5.0)):
        base = dual_value(prob, S, cert)
        floor = apps._Floor(prob, S)
        monkeypatch.setattr(tensors, "act", counted)
        ray = best_ray_on_line(prob, S, cert)
        floor.offer(ray)
        monkeypatch.setattr(tensors, "act", act)
        assert len(calls) == 2
        calls.clear()
        assert dual_value(prob, S, ray) >= base - 1e-12
        assert floor.value >= infimum(S)
