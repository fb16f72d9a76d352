import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from _pencils import planted_pencil
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow import apps, tensors
from qflow.errors import DomainError, ParameterError, ValidationError
from qflow.generate import (
    gaussian_tensor,
    identity_pencil,
    random_pencil,
    skew_pencil,
)
from qflow.geometry import BoundaryCertificate
from qflow.solver import (
    FlowConfig,
    KempfNessProblem,
    _descend,
    _SubgradientSteps,
    best_dual_on_ray,
    dual_value,
    group_subgradient_method,
)
from qflow.spectral import builtin_objective, lift_eval, spectral_pass

FAST = FlowConfig(max_iters=600, step_size=0.3, smoothing=0.1,
                  smoothing_schedule=True)


def test_pencil_validation():
    with pytest.raises(ValidationError):
        apps.MatrixPencil([])
    with pytest.raises(ValidationError):
        apps.MatrixPencil([np.zeros((2, 2))])
    with pytest.raises(ValidationError):
        apps.MatrixPencil([np.eye(2), np.eye(3)])
    with pytest.raises(ValidationError, match="at least 1x1"):
        apps.MatrixPencil([np.zeros((0, 0))])
    # a 0-D entry is caught before the first entry's shape is read
    for mats in ([np.float64(1.0)], [np.eye(2), np.float64(1.0)], [np.ones(2)]):
        with pytest.raises(ValidationError, match="2-D"):
            apps.MatrixPencil(mats)


def test_pencil_tensor_roundtrip():
    A = random_pencil(3, 2, 0)
    v = A.tensor()
    assert v.shape == (3, 3, 2)
    for k, M in enumerate(A.matrices):
        assert np.max(np.abs(v[:, :, k] - M)) == 0


def test_mu2_transpose_convention():
    """Mode-1 moment map of the pencil tensor is the transpose of the
    pencil-coordinate second marginal sum_k A_k^+ A_k / ||A||^2."""
    A = random_pencil(3, 3, 1)
    mu = tensors.moment_map(A.tensor(), modes=(0, 1))
    nrm2 = sum(float(np.sum(np.abs(M) ** 2)) for M in A.matrices)
    mu2 = sum(M.conj().T @ M for M in A.matrices) / nrm2
    assert np.max(np.abs(mu[1].T - 0.5 * (mu2 + mu2.conj().T))) < 1e-12


def test_check_common_kernel():
    assert apps.check_common_kernel(identity_pencil(3))["ok"]
    E11 = np.zeros((2, 2), dtype=complex)
    E11[0, 0] = 1.0
    res = apps.check_common_kernel(apps.MatrixPencil([E11]))
    assert res["right_kernel_dim"] == 1 and res["left_kernel_dim"] == 1
    assert not res["ok"]


def test_ncrank_rejects_two_sided_kernel():
    """A pencil with a common left and a common right kernel is refused where
    the phase consults the Wong pair, with the same message also when the
    phase takes no sweep: E11 (2x2) and a 3x3 pencil with a zero first row
    and column."""
    E11 = np.zeros((2, 2), dtype=complex)
    E11[0, 0] = 1.0
    rng = np.random.default_rng(0)
    bordered = [rng.standard_normal((3, 3)) for _ in range(2)]
    for M in bordered:
        M[0, :] = M[:, 0] = 0.0
    message = ("pencil has a common left kernel (dim 1) and a common right kernel "
               "(dim 1); reduce it to smaller matrices first")
    for A in (apps.MatrixPencil([E11]), apps.MatrixPencil(bordered)):
        for config in (None, replace(apps.default_config("ncrank"), max_iters=0)):
            with pytest.raises(DomainError) as err:
                apps.ncrank(A, config)
            assert str(err.value) == message


def test_blowup_oracle_trivials():
    assert apps.ncrank_blowup_oracle(identity_pencil(2)) == 2
    E11 = np.zeros((2, 2), dtype=complex)
    E11[0, 0] = 1.0
    assert apps.ncrank_blowup_oracle(apps.MatrixPencil([E11])) == 1
    assert apps.ncrank_blowup_oracle(skew_pencil()) == 3


def test_default_config_values_pinned():
    """Each application's solver defaults; every one smooths on the schedule
    smoothing / sqrt(i+1), and an unknown application is a ParameterError."""
    pinned = {"qfunc": (2000, 0.5, 0.05), "gstable": (3000, 0.3, 0.1),
              "ncrank": (5000, 0.3, 0.1), "scale": (1000, 0.3, 0.1)}
    for app, (max_iters, step_size, smoothing) in pinned.items():
        assert apps.default_config(app) == FlowConfig(
            max_iters=max_iters, step_size=step_size, smoothing=smoothing,
            smoothing_schedule=True, ode_step=1e-2, tol_stall=1e-9)
    with pytest.raises(ParameterError, match="unknown application"):
        apps.default_config("bogus")


def test_ncrank_identity_pencil():
    res = apps.ncrank(identity_pencil(3), FAST)
    assert res.rank == 3
    assert abs(res.rank_lower - 3.0) < 1e-6


def test_ncrank_scalar():
    res = apps.ncrank(apps.MatrixPencil([np.array([[2.0]])]), FAST)
    assert res.rank == 1


def test_ncrank_skew_pencil():
    res = apps.ncrank(skew_pencil(), FAST)
    assert res.rank == 3


def test_ncrank_rank_one_row_pencil():
    """Pencil supported on the first row only: noncommutative rank 1, and a
    useful certificate with a positive dual bound."""
    A1 = np.zeros((2, 2), dtype=complex)
    A1[0, 0] = 1.0
    A2 = np.zeros((2, 2), dtype=complex)
    A2[0, 1] = 1.0
    A = apps.MatrixPencil([A1, A2])
    cfg = FlowConfig(max_iters=1500, step_size=0.3, smoothing=0.1,
                     smoothing_schedule=True)
    res = apps.ncrank(A, cfg)
    assert res.rank == 1
    assert res.dual_value <= res.primal_value + 1e-8
    assert res.dual_value > 0.5  # informative certificate
    assert res.rank_upper < 1.8


def planted_rank2_pencil():
    """A 3x3 pencil of nc-rank 2 whose runs reach inf S = 2/3 from below in
    floating point."""
    return planted_pencil(np.random.default_rng([1, 0, 1, 0]), 3, 2, 2, 2)


def test_ncrank_does_not_certify_rank_deficient_pencil():
    """The bare test best_q < 2/n would report full rank here: the stop needs
    its margin.  ncrank closes this pencil with the Wong pair, so the
    subgradient run that undercuts 2/3 is `scale`'s without the pair."""
    A = planted_rank2_pencil()
    assert apps.ncrank_blowup_oracle(A) == 2
    S = builtin_objective("trace_dist_to_uniform", (3, 3))
    res = apps.scale(A.tensor(), S, apps.default_config("ncrank"), modes=(0, 1),
                     stop_below=2 / 3 - apps.FULL_RANK_EPS)
    assert res.primal_value < 2 / 3
    assert not res.status.startswith("certified")
    nc = apps.ncrank(A)
    assert not nc.status.startswith("certified")
    assert nc.rank == 2


# at the stop, rank_lower is 3.08 for seed 14 (n = 4) and 1.45 for seed 15
# (n = 2): far below n, but the full-rank stop puts it above n - 1 and
# rank_upper is n, so n is the one integer in the bracket
@pytest.mark.parametrize("seed", [0, 2, 14, 15, 21, 29])
def test_ncrank_certifies_full_rank_early(seed):
    """Criterion 7's pencils: the run stops within a few steps at a point
    that proves full rank."""
    n, m = 2 + seed % 3, 1 + seed % 4
    A = random_pencil(n, m, seed)
    res = apps.ncrank(A)
    assert res.status == "certified"
    assert res.rank_lower > n - 1
    assert res.rank == n == apps.ncrank_blowup_oracle(A)
    assert res.iterations <= 20
    assert res.dual_value <= res.primal_value + 1e-8


def _ncrank_at(A, max_iters):
    return apps.ncrank(A, replace(apps.default_config("ncrank"), max_iters=max_iters))


@pytest.mark.parametrize("seed,shape,max_iters,rank", [
    (21, (2, 1, 2, 2), 2, 1),      # bracket [0.21, 1]: the nearest integer is 0
    (132, (3, 2, 2, 2), 0, None),  # bracket [-0.77, 2]: the nearest integer is -1
])
def test_ncrank_reports_the_integer_its_bracket_proves(seed, shape, max_iters, rank):
    """A short run leaves a wide bracket: the rank is its one integer, and
    None when it holds several; the integer nearest rank_lower lies outside
    it in both cases."""
    A = planted_pencil(np.random.default_rng(seed), *shape)
    res = _ncrank_at(A, max_iters)
    assert res.rank == rank
    assert res.rank is None or res.rank_lower <= res.rank <= res.rank_upper
    assert "+unrounded" not in res.status


def test_interior_optimum_suffix_only_without_certificate():
    """With no iterations the subgradient run has no certificate of its own,
    but the result reports the Wong pair, whose rank_upper 2 < n = 3 shows
    that the orbit escapes: there is no interior optimum to report."""
    A = planted_pencil(np.random.default_rng(132), 3, 2, 2, 2)
    res = _ncrank_at(A, 0)
    assert res.certificate is not None
    assert res.status == "max_iters"
    assert abs(res.rank_upper - 2) < 1e-9


# n < r + s caps the rank below n; r = s = n is the zero pencil
PLANTED_SHAPES = [(n, r, s, m) for n in (2, 3, 4) for r in range(1, n + 1)
                  for s in range(1, n + 1) for m in (2, 3) if n < r + s < 2 * n]


@pytest.mark.parametrize("max_iters", [0, 1, 2, 5, 20])
def test_ncrank_short_budgets_report_no_wrong_rank(max_iters):
    """Planted pencils of every zero block, n = 2 to 4, at short budgets: the
    bracket holds the blow-up oracle's rank, and a reported rank is that
    rank."""
    solved = 0
    for n, r, s, m in PLANTED_SHAPES:
        A = planted_pencil(np.random.default_rng([n, r, s, m]), n, r, s, m)
        if not apps.check_common_kernel(A)["ok"]:
            continue
        oracle = apps.ncrank_blowup_oracle(A)
        res = _ncrank_at(A, max_iters)
        assert res.rank_lower - apps.RANK_EPS <= oracle <= res.rank_upper + apps.RANK_EPS, \
            (n, r, s, m)
        assert res.rank in (None, oracle), (n, r, s, m)
        solved += 1
    assert solved >= 20


def test_scaling_phase_never_proves_full_rank_on_planted_pencils():
    """Rank n - 1 pencils of every excess-1 shape for n = 3 to 6: alternating
    scaling approaches inf S = 2/n and must not report S below
    2/n - FULL_RANK_EPS (false full rank); ncrank reports rank n - 1."""
    for n in range(3, 7):
        for r in range(1, n + 1):
            A = planted_pencil(np.random.default_rng(10 * n + r), n, r, n + 1 - r, 3)
            S = builtin_objective("trace_dist_to_uniform", (n, n))
            # no stop_below: the phase runs until it leaves on its own
            problem = KempfNessProblem(A.tensor(), (0, 1))
            trace = apps._scaling_phase(problem, S, apps._Floor(problem, S), 5000)
            assert trace.status in ("stalled", "singular"), (n, r)
            assert min(x.q_value for x in trace.samples) >= 2 / n - apps.FULL_RANK_EPS
            res = apps.ncrank(A)
            assert res.rank == n - 1 and not res.status.startswith("certified"), (n, r)


def _descent_bracket(v, S, config, modes=None):
    """The fallback path of `scale`: the subgradient run from the identity on
    the one unit tensor of the problem, and the larger of the floor and the
    best dual on its certificate."""
    prob = KempfNessProblem(v, modes)
    trace = _descend(prob, [np.eye(n, dtype=complex) for n in prob.signature], S, config,
                     _SubgradientSteps(config))
    floor = dual_value(prob, S, apps._floor_certificate(S))
    return trace, max(floor, best_dual_on_ray(prob, S, trace.certificate))


def test_singular_marginal_falls_back_to_descent():
    """A pencil with a one-sided common kernel and a tensor with a zero slice
    have a singular marginal at the start: the phase leaves at sweep 0 and
    `scale` without a ray returns the subgradient run's result, with no
    RuntimeWarning."""
    A1 = np.zeros((2, 2), dtype=complex)
    A1[0, 0] = 1.0
    A2 = np.zeros((2, 2), dtype=complex)
    A2[0, 1] = 1.0
    A = apps.MatrixPencil([A1, A2])
    v = gaussian_tensor((3, 3, 3), 0)
    v[2] = 0.0
    cfg = FlowConfig(max_iters=1500, step_size=0.3, smoothing=0.1,
                     smoothing_schedule=True)
    S_nc = builtin_objective("trace_dist_to_uniform", (2, 2))
    S_gs = builtin_objective("op_norm_max_weighted", (3, 3, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # ncrank closes the pencil with the Wong pair; `scale` without it
        # takes the fallback
        nc = apps.ncrank(A, cfg)
        sc = apps.scale(A.tensor(), S_nc, cfg, modes=(0, 1),
                        stop_below=2 / 2 - apps.FULL_RANK_EPS)
        gs = apps.g_stable_rank(v, [1.0, 1.0, 1.0], FAST)
        for w, modes, S in ((A.tensor(), (0, 1), S_nc), (v, None, S_gs)):
            problem = KempfNessProblem(w, modes)
            trace = apps._scaling_phase(problem, S, apps._Floor(problem, S), 100)
            assert trace.status == "singular" and trace.iterations == 0
    assert nc.rank == 1 and not nc.status.startswith("certified")
    trace, dual = _descent_bracket(A.tensor(), S_nc, cfg, (0, 1))
    assert sc.status == trace.status == "stalled"
    assert (sc.primal_value, sc.dual_value) == (trace.best_q, dual)
    assert sc.iterations == trace.iterations
    assert abs(2 - sc.dual_value - 1.0) < 1e-12
    trace, dual = _descent_bracket(v, S_gs, FAST)
    assert (gs.primal_value, gs.dual_value) == (trace.best_q, dual)
    assert gs.iterations == trace.iterations
    # the subgradient method's lower bound and the floor 1/3 on this tensor
    assert abs(gs.rank_lower - 2.0) < 1e-8 and abs(gs.rank_upper - 3.0) < 1e-12


def test_fallback_keeps_the_floor():
    """On the zero-slice tensor the subgradient run's best dual on its own
    ray is below the floor (0.2824 and 0.850 with the default configs), so
    `scale` reports the floor and its certificate: rank_upper 3 (was
    3.541), and the Frobenius dual 1."""
    v = gaussian_tensor((3, 3, 3), 0)
    v[2] = 0.0
    gs = apps.g_stable_rank(v, [1.0, 1.0, 1.0])
    assert gs.status == "stalled"
    assert abs(gs.rank_upper - 3.0) < 1e-12
    fro = apps.scale(v, builtin_objective("frobenius", (3, 3, 3)))
    assert fro.status == "max_iters"
    assert abs(fro.dual_value - 1.0) < 1e-12
    for res in (gs, fro):
        assert all(np.array_equal(k, np.eye(3)) for k in res.certificate.bases)


def test_a_ray_that_ties_the_floor_replaces_it():
    """A source at least as good as the floor replaces it, so a ray that
    returns a fresh floor certificate, whose dual equals the floor, gives
    the result's certificate: on a Gaussian tensor the phase closes, and on
    the zero-slice tensor the subgradient run's dual stays below the floor.
    The trace is the stage's own: the phase's carries no certificate."""
    v = gaussian_tensor((3, 3, 3), 0)
    z = v.copy()
    z[2] = 0.0
    S = builtin_objective("op_norm_max_weighted", (3, 3, 3), alpha=[1.0, 1.0, 1.0])
    for w, status in ((v, "scaled_to_floor"), (z, "stalled")):
        made = []

        def ray():
            made.append(apps._floor_certificate(S))
            return made[-1]

        res = apps.scale(w, S, apps.default_config("gstable"), ray=ray)
        assert res.status == status and len(made) == 1
        assert res.certificate is made[0]
        assert res.dual_value == dual_value(KempfNessProblem(w), S, made[0])
        assert res.trace.certificate is not res.certificate
        assert (res.trace.certificate is None) == (status == "scaled_to_floor")


def test_scale_normalizes_the_tensor_once(monkeypatch):
    """Both stages of `scale` read the one unit tensor of its problem: a
    qfunc solve that the phase closes and the singular-marginal pencil that
    falls back to the subgradient run each normalize the tensor once.  (Each
    Newton step normalizes its own orbit point in kempf_ness_hessian.)"""
    calls, newton = [], []
    normalize, hessian = tensors.normalize, tensors.kempf_ness_hessian

    def counted(v):
        calls.append(1)
        return normalize(v)

    def counted_hessian(w, modes=None):
        newton.append(1)
        return hessian(w, modes)

    monkeypatch.setattr(tensors, "normalize", counted)
    monkeypatch.setattr(tensors, "kempf_ness_hessian", counted_hessian)
    qf = apps.quantum_functional(gaussian_tensor((3, 3, 3), 0), [0.2, 0.3, 0.5])
    assert qf.status == "scaled_to_floor" and len(newton) >= 2
    assert len(calls) == 1 + len(newton)
    calls.clear()
    A1 = np.zeros((2, 2), dtype=complex)
    A1[0, 0] = 1.0
    A2 = np.zeros((2, 2), dtype=complex)
    A2[0, 1] = 1.0
    cfg = FlowConfig(max_iters=1500, step_size=0.3, smoothing=0.1,
                     smoothing_schedule=True)
    sc = apps.scale(apps.MatrixPencil([A1, A2]).tensor(),
                    builtin_objective("trace_dist_to_uniform", (2, 2)), cfg,
                    modes=(0, 1), stop_below=2 / 2 - apps.FULL_RANK_EPS)
    assert sc.status == "stalled" and calls == [1]


def test_dual_rates_a_ray_past_the_domain_edge_at_the_edge():
    """A ray whose conjugate gauge is in (1, 1 + DOMAIN_SLACK] is rated as
    the ray scaled back onto the edge, so its dual stays below S at the
    identity (1/3 on the unit tensor); the floor ray scaled by 1 + 5e-10
    gave 0.3333333335.  Past the slack there is no bound."""
    v = tensors.unit_tensor(3, 3)
    S = builtin_objective("op_norm_max_weighted", (3, 3, 3), alpha=[1.0, 1.0, 1.0])
    primal = lift_eval(S, tensors.moment_map(tensors.normalize(v)))
    floor = apps._floor_certificate(S)
    assert apps.certify(v, S, floor.scaled(1 + 5e-10)) <= primal
    assert abs(apps.certify(v, S, floor.scaled(1 + 5e-10)) - 1 / 3) < 1e-15
    assert apps.certify(v, S, floor.scaled(1 + 5e-9)) == -math.inf


def test_alternating_scaling_closes_gaussian_brackets():
    """On a Gaussian 3x3x3 tensor the uniform point is in the moment polytope:
    scaling reaches the floor, qfunc's gap is at most 1e-6 (0.041 after 800
    subgradient steps) and gstable's bracket is [3, 3] (the subgradient run
    gave [2.986, 40.7] after 3000)."""
    v = gaussian_tensor((3, 3, 3), 0)
    qf = apps.quantum_functional(v, [0.2, 0.3, 0.5])
    assert qf.status == "scaled_to_floor"
    assert 0.0 <= qf.gap <= 1e-6
    assert abs(qf.dual_value - math.log2(3)) < 1e-12
    assert qf.primal_value <= qf.dual_value
    gs = apps.g_stable_rank(v, [1.0, 1.0, 1.0])
    assert gs.status == "scaled_to_floor"
    assert abs(gs.rank_upper - 3.0) < 1e-12
    assert 3.0 - 1e-6 <= gs.rank_lower <= gs.rank_upper + 1e-12
    # the floor certificate alone certifies the dual
    S = builtin_objective("op_norm_max_weighted", (3, 3, 3))
    assert apps.certify(v, S, gs.certificate) == gs.dual_value
    assert len(gs.trace.samples) == gs.iterations + 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unit_tensors_stop_at_sweep_zero(n):
    """A unit tensor has uniform marginals: the run stops before any sweep,
    with the floor certificate and a gap of zero up to rounding."""
    v = tensors.unit_tensor(n, 3)
    for res in (apps.quantum_functional(v, [0.2, 0.3, 0.5]),
                apps.g_stable_rank(v, [1.0, 1.0, 1.0]),
                apps.scale(v, builtin_objective("frobenius", (n, n, n)))):
        assert res.status == "scaled_to_floor" and res.iterations == 0
        assert abs(res.gap) < 1e-14
        assert len(res.trace.samples) == 1
        assert all(np.array_equal(k, np.eye(n)) for k in res.certificate.bases)
    # the settings are checked even when no step is taken
    with pytest.raises(ValidationError, match="stall tolerance"):
        apps.scale(v, builtin_objective("frobenius", (n, n, n)), FlowConfig(tol_stall=-1.0))


def test_ncrank_unitary_invariance():
    rng = np.random.default_rng(2)
    A = random_pencil(3, 2, 3)
    U = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    V = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    B = apps.MatrixPencil([U @ M @ V for M in A.matrices])
    r1 = apps.ncrank(A, FAST)
    r2 = apps.ncrank(B, FAST)
    assert abs(r1.primal_value - r2.primal_value) < 1e-6


def test_fortin_reutenauer_pair_from_certificate():
    A1 = np.zeros((2, 2), dtype=complex)
    A1[0, 0] = 1.0
    A2 = np.zeros((2, 2), dtype=complex)
    A2[0, 1] = 1.0
    A = apps.MatrixPencil([A1, A2])
    res = apps.ncrank(A, FlowConfig(max_iters=1500, step_size=0.3,
                                    smoothing=0.1, smoothing_schedule=True))
    assert res.certificate is not None
    pair = apps.fortin_reutenauer_pair(A, res.certificate)
    assert pair is not None
    # ncrk = 2n - (dim X + dim Y) must reproduce the rank
    assert 2 * A.n - pair["dim_sum"] == res.rank
    assert pair["residual"] < 1e-6
    assert apps.verify_subspace_pair(A, pair["Y_basis"], pair["X_basis"]) < 1e-6


def test_quantum_functional_rank_one_zero():
    v = tensors.rank_one([np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                          np.array([1.0, 0.0])])
    res = apps.quantum_functional(v, [1 / 3, 1 / 3, 1 / 3], FAST)
    assert abs(res.primal_value) < 1e-8
    assert res.dual_value >= res.primal_value - 1e-8
    assert res.gap < 0.2


def test_quantum_functional_unit_tensor():
    v = tensors.unit_tensor(2, 3)
    res = apps.quantum_functional(v, [0.5, 0.25, 0.25], FAST)
    assert abs(res.primal_value - 1.0) < 1e-8
    assert res.gap < 1e-8


def test_quantum_functional_escaping_orbit_finite_certificate():
    """The orbit of a rank-one tensor escapes with group factors whose
    condition number reaches about 4e9; the certificate must stay finite and
    certify the exact value 0."""
    v = tensors.rank_one([[1.0, 1.0], [1.0, -1.0], [0.5, 0.5]])
    cfg = FlowConfig(max_iters=400, step_size=0.5, smoothing=0.05,
                     smoothing_schedule=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = apps.quantum_functional(v, [1 / 3, 1 / 3, 1 / 3], cfg)
    assert res.certificate is not None
    assert all(np.all(np.isfinite(w)) for w in res.certificate.weights)
    assert abs(res.primal_value) < 1e-8
    assert abs(res.dual_value) < 1e-9


def _embedded_gaussian():
    v = np.zeros((3, 3, 3), dtype=complex)
    v[:2, :2, :2] = gaussian_tensor((2, 2, 2), 0)
    return v


W_STATE = np.zeros((2, 2, 2), dtype=complex)
W_STATE[1, 0, 0] = W_STATE[0, 1, 0] = W_STATE[0, 0, 1] = 1.0


@pytest.mark.parametrize("v", [W_STATE, _embedded_gaussian()], ids=["W", "embedded"])
def test_quantum_functional_line_search_beats_grid(v):
    """The upper bound is at most the best of a 50-scale grid over the same
    certificate (and the no-certificate ceiling)."""
    theta = [1 / 3, 1 / 3, 1 / 3]
    cfg = FlowConfig(max_iters=300, step_size=0.5, smoothing=0.05,
                     smoothing_schedule=True)
    res = apps.quantum_functional(v, theta, cfg)
    assert res.certificate is not None
    S = builtin_objective("neg_entropy_weighted", v.shape, theta=theta)
    problem = KempfNessProblem(v)
    grid = sum(th * math.log2(n) for th, n in zip(theta, v.shape))
    for c in np.concatenate([np.logspace(-2, 2, 25), -np.logspace(-2, 2, 25)]):
        grid = min(grid, -dual_value(problem, S, res.certificate.scaled(float(c))))
    assert res.dual_value == -best_dual_on_ray(problem, S, res.certificate)
    assert res.dual_value <= grid + 1e-9
    assert res.primal_value <= res.dual_value + 1e-8


def test_quantum_functional_duality_sandwich_random():
    for seed in range(4):
        v = gaussian_tensor((2, 2, 2), 600 + seed)
        res = apps.quantum_functional(v, [1 / 3, 1 / 3, 1 / 3], FAST)
        assert res.primal_value <= res.dual_value + 1e-8


def test_quantum_functional_unitary_invariance():
    rng = np.random.default_rng(4)
    v = gaussian_tensor((2, 2, 2), 7)
    Us = [np.linalg.qr(rng.standard_normal((2, 2))
                       + 1j * rng.standard_normal((2, 2)))[0] for _ in range(3)]
    w = tensors.act(Us, v)
    r1 = apps.quantum_functional(v, [1 / 3, 1 / 3, 1 / 3], FAST)
    r2 = apps.quantum_functional(w, [1 / 3, 1 / 3, 1 / 3], FAST)
    assert abs(r1.primal_value - r2.primal_value) < 1e-6


def test_quantum_functional_theta_validation():
    v = tensors.unit_tensor(2, 3)
    with pytest.raises(ParameterError):
        apps.quantum_functional(v, [0.5, 0.5], FAST)
    with pytest.raises(ParameterError):
        apps.quantum_functional(v, [0.7, 0.4, -0.1], FAST)


def test_g_stable_rank_rank_one():
    v = tensors.rank_one([np.array([1.0, 1.0]), np.array([1.0, -1.0]),
                          np.array([0.5, 0.5])])
    res = apps.g_stable_rank(v, [1.0, 1.0, 1.0], FAST)
    assert abs(res.rank_lower - 1.0) < 1e-8
    assert res.rank_upper < 1.0 + 1e-6


def test_g_stable_rank_unit_tensor_bracket():
    for n in (2, 3):
        v = tensors.unit_tensor(n, 3)
        res = apps.g_stable_rank(v, [1.0, 1.0, 1.0], FAST)
        assert res.rank_lower <= n + 1e-8
        assert res.rank_upper >= n - 1e-8
        assert res.rank_upper - res.rank_lower <= 0.05 * n


def test_g_stable_rank_alpha_validation():
    v = tensors.unit_tensor(2, 3)
    with pytest.raises(ParameterError):
        apps.g_stable_rank(v, [1.0, -1.0, 1.0], FAST)


def test_gstable_ncrank_consistency_small():
    A = random_pencil(2, 2, 11)
    nc = apps.ncrank(A, FAST)
    res = apps.g_stable_rank(tensors.normalize(A.tensor()), [1.0, 1.0, 2.0], FAST)
    assert res.rank_lower <= nc.rank + 1e-6
    assert res.rank_upper >= nc.rank - 1e-6


def test_certify_weak_duality_with_perturbation():
    """Perturbed weights of a subgradient run's certificate still certify
    bounds below the primal of the (scaling) ncrank run.  ncrank's own
    certificate is the zero ray here, which has no weights to perturb."""
    A = random_pencil(3, 2, 13)
    res = apps.ncrank(A, FAST)
    S = builtin_objective("trace_dist_to_uniform", (3, 3))
    trace, _ = group_subgradient_method(tensors.normalize(A.tensor()), S,
                                        [np.eye(3, dtype=complex)] * 2, FAST,
                                        modes=(0, 1))
    assert trace.certificate is not None
    rng = np.random.default_rng(5)
    peak = max(np.max(np.abs(w)) for w in trace.certificate.weights)
    assert peak > 0
    xi = trace.certificate.scaled(1.0 / peak)
    for _ in range(5):
        jit = apps.BoundaryCertificate(
            xi.euclid_dir,
            [k.copy() for k in xi.bases],
            [np.sort(np.asarray(w) + 1e-3 * rng.standard_normal(len(w)))[::-1]
             for w in xi.weights],
        )
        d = apps.certify(A, S, jit)
        assert d <= res.primal_value + 1e-8


def test_certify_zero_certificate_constant():
    from qflow.spectral import builtin_objective

    A = identity_pencil(2)
    S = builtin_objective("trace_dist_to_uniform", (2, 2))
    xi = apps.BoundaryCertificate(
        np.zeros(0), [np.eye(2, dtype=complex)] * 2,
        [np.zeros(2), np.zeros(2)],
    )
    # -f_inf(0) - Q*(0) = -0 - sum <0, I/n> = 0
    assert abs(apps.certify(A, S, xi)) < 1e-12


def test_certify_rejects_non_unitary_bases():
    """The dual reads the spectrum of k diag(w) k^+ as w, so a basis that is
    not unitary is rejected: with 0.5 I it would report 1.25 > inf S = -1."""
    v = tensors.unit_tensor(2, 3)
    S = builtin_objective("neg_entropy_weighted", (2, 2, 2), theta=[1 / 3] * 3)

    def cert(scale):
        return apps.BoundaryCertificate(
            np.zeros(0), [scale * np.eye(2, dtype=complex)] * 3,
            [np.array([-1.0, -1.0])] * 3,
        )

    assert abs(apps.certify(v, S, cert(1.0)) + 1.0) < 1e-12
    with pytest.raises(ValidationError, match="not unitary"):
        apps.certify(v, S, cert(0.5))


def test_moment_limit_consistency():
    """Late-run moment-map spectra cluster near the best sample."""
    dims = (3, 2, 2)
    v = tensors.normalize(gaussian_tensor(dims, 700))
    from qflow.solver import group_subgradient_method
    from qflow.spectral import builtin_objective

    S = builtin_objective("trace_dist_to_uniform", dims)
    cfg = FlowConfig(max_iters=2000, step_size=0.3, smoothing=0.1,
                     smoothing_schedule=True)
    tr, _ = group_subgradient_method(
        v, S, [np.eye(n, dtype=complex) for n in dims], cfg
    )
    tail = [s.q_value for s in tr.samples[-max(1, len(tr.samples) // 10):]]
    assert min(tail) - tr.best_q < 5e-2
    assert max(tail) - min(tail) < 0.2


def _newton_samples(trace):
    """The samples of Newton steps: a sweep's sample records step 1."""
    return [s for s in trace.samples[1:] if s.step != 1.0]


def test_newton_steps_close_gaussian_scaling(monkeypatch):
    """On gaussian_tensor((3, 3, 3), 0) sweeps alone take 131 (qfunc) and 381
    (gstable) sweeps to the floor; with Newton steps near it both close
    within 10 steps, and S falls at every step."""
    v = gaussian_tensor((3, 3, 3), 0)
    qf = apps.quantum_functional(v, [0.2, 0.3, 0.5])
    gs = apps.g_stable_rank(v, [1.0, 1.0, 1.0])
    for res in (qf, gs):
        assert res.status == "scaled_to_floor" and res.iterations <= 10
        assert len(_newton_samples(res.trace)) >= 2
        q = [s.q_value for s in res.trace.samples]
        assert all(b < a for a, b in zip(q, q[1:]))
        assert [s.t for s in res.trace.samples] == list(range(len(q)))
    assert 0.0 <= qf.gap <= apps.FLOOR_TOL * (1 + math.log2(3))
    assert abs(gs.rank_upper - 3.0) < 1e-12 and 3.0 - 1e-8 <= gs.rank_lower <= 3.0
    monkeypatch.setattr(apps, "NEWTON_GAP", -math.inf)
    assert apps.quantum_functional(v, [0.2, 0.3, 0.5]).iterations == 131
    assert apps.g_stable_rank(v, [1.0, 1.0, 1.0]).iterations == 381


def test_rejected_newton_step_leaves_the_sweeps(monkeypatch):
    """A Newton step that raises S is dropped and the sweep is taken from the
    same point: with every step sent uphill the run is the sweeps-only run,
    sample for sample."""
    v = gaussian_tensor((3, 3, 3), 0)
    S = builtin_objective("neg_entropy_weighted", (3, 3, 3), theta=[0.2, 0.3, 0.5])
    problem = KempfNessProblem(v)
    monkeypatch.setattr(apps, "NEWTON_GAP", -math.inf)
    sweeps = apps._scaling_phase(problem, S, apps._Floor(problem, S), 1000)
    newton, tried = tensors.kempf_ness_newton, []

    def uphill(w, modes):
        tried.append(w)
        return [-20.0 * X for X in newton(w, modes)]

    monkeypatch.setattr(tensors, "kempf_ness_newton", uphill)
    monkeypatch.setattr(apps, "NEWTON_GAP", 1e-2)
    run = apps._scaling_phase(problem, S, apps._Floor(problem, S), 1000)
    assert len(tried) > 100
    assert sweeps.status == run.status == "scaled_to_floor"
    assert run.samples == sweeps.samples
    assert all(np.array_equal(a, b) for a, b in zip(run.best_spectra, sweeps.best_spectra))


def test_ncrank_takes_sweeps_only(monkeypatch):
    """ncrank sets stop_below, so its phase never tries a Newton step, even
    with the gap rule always met: its FULL_RANK_EPS margin was measured on
    sweeps.  The sweep counts are those of the sweeps-only phase: on the
    four planted pencils of the ROADMAP baseline, the first sweep whose S
    lies within FLOOR_TOL of the Wong pair's dual; on criterion 7's
    pencils, the sweep that certifies."""
    def never(*args):
        raise AssertionError("Newton step tried in ncrank")

    monkeypatch.setattr(tensors, "kempf_ness_hessian", never)
    monkeypatch.setattr(apps, "NEWTON_GAP", math.inf)
    planted = {(3, 2, 2): 3, (4, 3, 2): 12, (5, 3, 3): 19, (6, 4, 3): 24}
    for (n, r, s), sweeps in planted.items():
        res = apps.ncrank(planted_pencil(np.random.default_rng(10 * n + r), n, r, s, 3))
        assert (res.status, res.iterations) == ("scaled_to_floor", sweeps), (n, r, s)
        assert not _newton_samples(res.trace)
    for seed, sweeps in {0: 1, 2: 1, 14: 1, 15: 0, 21: 0, 29: 1}.items():
        res = apps.ncrank(random_pencil(2 + seed % 3, 1 + seed % 4, seed))
        assert (res.status, res.iterations) == ("certified", sweeps), seed


def test_escaping_and_face_instances_keep_their_results(monkeypatch):
    """The W state (its orbit escapes) and rotated Z (a zero slice: singular
    at the start) leave the phase far above the Newton gap, so they keep the
    statuses, iteration counts and brackets of the sweeps-only phase."""
    def never(*args):
        raise AssertionError("Newton step tried")

    monkeypatch.setattr(tensors, "kempf_ness_hessian", never)
    rng = np.random.default_rng(5)
    z = gaussian_tensor((3, 3, 3), 0)
    z[2] = 0.0
    z = tensors.act([np.linalg.qr(rng.standard_normal((3, 3))
                                  + 1j * rng.standard_normal((3, 3)))[0] for _ in range(3)], z)
    qcfg = replace(apps.default_config("qfunc"), max_iters=200)
    gcfg = replace(apps.default_config("gstable"), max_iters=200)
    # (primal_value, dual_value) of the sweeps-only phase: status max_iters
    # from the subgradient run after 200 iterations
    expected = [
        (apps.quantum_functional(W_STATE, [0.2, 0.3, 0.5], qcfg),
         (0.9260493445333253, 0.9920765069662387)),
        (apps.g_stable_rank(W_STATE, [1.0, 1.0, 1.0], gcfg),
         (0.6666666666666666, 0.6666666666666656)),
        (apps.quantum_functional(z, [0.2, 0.3, 0.5], qcfg),
         (1.4284796063169378, 1.5849625007211565)),
        (apps.g_stable_rank(z, [1.0, 1.0, 1.0], gcfg),
         (0.5000000007248212, 0.33333333333333326)),
    ]
    for res, bracket in expected:
        assert (res.status, res.iterations) == ("max_iters", 200)
        assert np.allclose((res.primal_value, res.dual_value), bracket, rtol=0, atol=1e-12)


FLOOR_SHAPES = [(2, 2, 2), (3, 3, 3), (3, 2, 2), (4, 3, 2), (5, 5), (3,), (7, 1, 2)]


def _builtin_params(kind, d):
    w = np.arange(1.0, d + 1.0)
    return {"op_norm_max_weighted": {"alpha": w},
            "trace_norm_sum_weighted": {"weights": w},
            "neg_entropy_weighted": {"theta": w / w.sum()},
            "indicator_trace_ball": {"radius": 2.0}}.get(kind, {})


@pytest.mark.parametrize("kind", ["frobenius", "op_norm_max_weighted",
                                  "trace_norm_sum_weighted", "neg_entropy_weighted",
                                  "trace_dist_to_uniform", "indicator_trace_ball"])
@pytest.mark.parametrize("shape", FLOOR_SHAPES)
def test_floor_weights_match_the_spectral_pass_at_uniform(kind, shape):
    """The floor weights, minus the block means of the subgradient at the
    uniform spectra, are bitwise those of the tie-averaged direction of a
    spectral pass at the blocks I/n_i."""
    S = builtin_objective(kind, shape, **_builtin_params(kind, len(shape)))
    cert = apps._floor_certificate(S)
    ref = spectral_pass(S, [np.eye(n) / n for n in shape])
    for k, w, m, n in zip(cert.bases, cert.weights, ref.direction, shape):
        assert (-m).tobytes() == w.tobytes()
        assert np.array_equal(k, np.eye(n)) and k.dtype == complex


def test_scaled_to_floor_solves_read_the_subgradient_once(monkeypatch):
    """A qfunc and a gstable solve on gaussian_tensor((3, 3, 3), 0) read S
    alone in the scaling phase: the one subgradient call is the floor's."""
    made = []

    def counted_objective(*args, **kwargs):
        S = builtin_objective(*args, **kwargs)
        sub, calls = S.subgradient, []

        def counted(p):
            calls.append(p)
            return sub(p)

        S.subgradient = counted
        made.append(calls)
        return S

    monkeypatch.setattr(apps, "builtin_objective", counted_objective)
    v = gaussian_tensor((3, 3, 3), 0)
    for res in (apps.quantum_functional(v, [0.2, 0.3, 0.5]),
                apps.g_stable_rank(v, [1.0, 1.0, 1.0])):
        assert res.status == "scaled_to_floor"
    assert [len(calls) for calls in made] == [1, 1]
    for calls in made:
        assert np.array_equal(calls[0], np.full(9, 1.0 / 3))


BUILTINS = ["frobenius", "op_norm_max_weighted", "trace_norm_sum_weighted",
            "neg_entropy_weighted", "trace_dist_to_uniform", "indicator_trace_ball"]
# (shape, modes, as a pencil): a 3-tensor on all modes, a pencil on modes
# (0, 1), and a 3-tensor on modes given as (1, 0)
LAYOUTS = [((3, 2, 2), (0, 1, 2), False), ((3, 3, 2), (0, 1), True),
           ((3, 2, 2), (1, 0), False)]


def _einsum_act(factors, v, modes):
    idx = "abc"[:v.ndim]
    for g, ax in zip(factors, modes):
        v = np.einsum(f"z{idx[ax]},{idx}->{idx.replace(idx[ax], 'z')}", g, v)
    return v


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@pytest.mark.parametrize("kind", BUILTINS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), layout=st.sampled_from(LAYOUTS),
       planted=st.lists(st.sampled_from([0.5, 2.0]), max_size=4),
       gap=st.floats(-12.0, -7.0), scale=st.floats(-3.0, 6.0))
def test_certify_is_weakly_dual_on_rotated_tensors(kind, seed, layout, planted, gap, scale):
    """apps.certify never exceeds S at a random orbit point (weak duality),
    on rotated tensors with entries planted at 0.5 and 2 times the support
    cut SUPPORT_TOL * peak, rays whose top two weights per block are 1e-12
    to 1e-7 apart, and weights up to 1e6; and tensors.recession equals the
    largest weight sum over the support of the tensor rotated by einsum,
    bit for bit."""
    shape, modes, pencil = layout
    rng = np.random.default_rng(seed)
    dims = tuple(shape[ax] for ax in modes)
    bases = [_unitary(rng, n) for n in dims]
    weights = []
    for n in dims:
        w = np.sort(rng.standard_normal(n))[::-1] * 10.0 ** scale
        w[1] = w[0] - 10.0 ** gap
        weights.append(w)
    cert = BoundaryCertificate(np.zeros(0), bases, weights)
    rotated = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    cut = tensors.SUPPORT_TOL * np.max(np.abs(rotated))
    spots = rng.choice(rotated.size, size=len(planted), replace=False)
    rotated.flat[spots] = np.array(planted) * cut * np.exp(2j * np.pi * rng.random(len(planted)))
    v = _einsum_act(bases, rotated, modes)
    instance = apps.MatrixPencil(list(np.moveaxis(v, -1, 0))) if pencil else v

    d = len(dims)
    params = {"op_norm_max_weighted": {"alpha": np.arange(1.0, d + 1.0)},
              "trace_norm_sum_weighted": {"weights": np.arange(1.0, d + 1.0)},
              "neg_entropy_weighted": {"theta": np.arange(1.0, d + 1.0) / (d * (d + 1) / 2)},
              "indicator_trace_ball": {"radius": float(d)}}.get(kind, {})
    S = builtin_objective(kind, dims, **params)
    dual = apps.certify(instance, S, cert, None if pencil else modes)
    g = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in dims]
    w = tensors.act(g, v, modes)
    primal = lift_eval(S, tensors.moment_map(w / np.linalg.norm(w), modes))
    assert dual <= primal + 1e-12

    back = np.abs(_einsum_act([k.conj().T for k in bases], v, modes))
    support = back > tensors.SUPPORT_TOL * back.max()
    expected = -math.inf
    for alpha in zip(*np.nonzero(support)):
        total = 0.0
        for lam, ax in zip(weights, modes):
            total = total + lam[alpha[ax]]
        expected = max(expected, total)
    assert tensors.recession(v, cert, modes) == expected
