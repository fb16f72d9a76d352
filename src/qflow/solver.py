"""Q-gradient flow and Q-subgradient methods on products of PD manifolds.

The driving direction at a point x is computed at the base point: transport
the differential of f to the base, take d(Q^2/2) there (Q times a
subgradient of Q), and carry the result back to x.  Geodesic Euler steps
x <- x^1/2 exp(-h G) x^1/2 keep iterates exactly positive definite.

Certificates (directions at infinity) come from u = log_map(x_T)/R with
R = integral of Q along the trajectory; by weak duality their dual value
lower-bounds inf_x Q(df_x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import UnsupportedObjectiveError, ValidationError
from .geometry import (
    BoundaryCertificate,
    ProductPDPoint,
    TangentBlock,
    asymptotic_at_base,
    log_map,
    metric_norm,
    sqrtm_pd,
    transport_from_base,
)
from .spectral import conjugate_eval, infimum, spectral_pass
from . import tensors


@dataclass
class FlowConfig:
    max_iters: int = 2000
    step_rule: str = "sqrt"  # "constant" or "sqrt": step_size / sqrt(i+1)
    step_size: float = 1.0
    smoothing: Optional[float] = None  # Moreau parameter lambda
    smoothing_schedule: bool = False  # lambda_i = smoothing / sqrt(i+1)
    ode_step: float = 1e-2
    tol_stall: float = 1e-9
    stall_window: int = 500
    seed: int = 0  # recorded in result records only: the solvers are deterministic
    record_every: int = 1
    renorm_every: int = 100

    def validate(self):
        if self.max_iters < 0 or self.step_size <= 0 or self.ode_step <= 0:
            raise ValidationError("iteration counts and steps must be positive")
        if self.step_rule not in ("constant", "sqrt"):
            raise ValidationError(f"unknown step rule {self.step_rule!r}")
        if self.smoothing is not None and self.smoothing <= 0:
            raise ValidationError("smoothing parameter must be positive")
        if self.record_every < 1:
            raise ValidationError("record_every must be at least 1")
        return self

    def step(self, i):
        if self.step_rule == "constant":
            return self.step_size
        return self.step_size / math.sqrt(i + 1.0)


@dataclass
class TraceSample:
    t: float
    q_value: float  # raw (unsmoothed, unshifted) Q at the differential
    f_value: float
    r_cum: float
    step: float
    q_smooth: Optional[float] = None


@dataclass
class FlowTrace:
    samples: list = field(default_factory=list)
    final_point: Optional[ProductPDPoint] = None
    final_direction: Optional[TangentBlock] = None
    certificate: Optional[BoundaryCertificate] = None
    energy_residual: Optional[float] = None
    status: str = "unknown"
    iterations: int = 0
    best_q: float = math.inf
    best_spectra: Optional[list] = None
    renormalizations: int = 0
    # per-step energy data (populated by integrate_flow)
    energy_times: list = field(default_factory=list)
    energy_half_q2: list = field(default_factory=list)
    energy_conj_half: list = field(default_factory=list)
    energy_f: list = field(default_factory=list)

    @property
    def r_cumulative(self):
        return self.samples[-1].r_cum if self.samples else 0.0


@dataclass
class KempfNessProblem:
    """Minimum S-gradient-norm problem data for a tensor scaling instance."""

    v: np.ndarray
    modes: Optional[tuple] = None

    def __post_init__(self):
        self.v = tensors.normalize(self.v)
        if self.modes is None:
            self.modes = tuple(range(self.v.ndim))
        else:
            self.modes = tuple(self.modes)

    @property
    def signature(self):
        return tuple(self.v.shape[i] for i in self.modes)

    def value(self, x):
        return tensors.kempf_ness(self.v, x, self.modes)

    def differential(self, x):
        return tensors.kempf_ness_differential(self.v, x, self.modes)

    def recession(self, xi, support_tol=tensors.SUPPORT_TOL):
        return tensors.recession(self.v, xi, self.modes, support_tol)

    def identity_point(self):
        return ProductPDPoint.identity(self.signature)


def _step_from_base(x, sp, direction, scale):
    """exp_x of the transported base direction: x^1/2 exp(scale*G) x^1/2.

    G has eigenvalues `direction` in the eigenbases of the pass `sp`.
    """
    blocks = []
    for xb, E in zip(x.blocks, sp.lift([np.exp(scale * d) for d in direction])):
        xs = sqrtm_pd(xb)
        B = xs @ E @ xs
        blocks.append(0.5 * (B + B.conj().T))
    return ProductPDPoint(x.euclid.copy(), blocks)


def q_gradient(problem, Q, x):
    """The Q-gradient of f at x (a tangent vector at x); Q must be smooth."""
    if not Q.smooth:
        raise UnsupportedObjectiveError(
            f"objective {Q.label!r} is not smooth; wrap it with moreau_objective"
        )
    sp = spectral_pass(Q, problem.differential(x))
    g0 = sp.lift([sp.value * m for m in sp.direction])
    return transport_from_base(x, TangentBlock(np.zeros(0), g0, at=None))


def integrate_flow(problem, Q, x0, config):
    """Geodesic-Euler discretization of the Q-gradient flow.

    Steps are halved whenever the recorded Q value would increase, a backstop
    for the continuous-time monotonicity of t -> Q(df_x(t)).  The dynamics
    use Q - inf Q, which keeps the Q-factor nonnegative.
    """
    config.validate()
    lam = None
    if not Q.smooth:
        if config.smoothing is None:
            raise UnsupportedObjectiveError(
                f"objective {Q.label!r} is not smooth; set config.smoothing"
            )
        lam = config.smoothing
    # the Moreau envelope carries no half-square conjugate
    hsc = Q.oracle.half_square_conjugate if lam is None else None
    trace = FlowTrace()
    x = x0
    t = 0.0
    r_cum = 0.0
    h = config.ode_step
    h_min = config.ode_step * 2.0 ** -40
    q_prev = None
    shift = -infimum(Q)
    sp = spectral_pass(Q, problem.differential(x), lam)
    for i in range(config.max_iters):
        q_s = sp.smoothed
        fac = q_s + shift
        direction = [fac * m for m in sp.direction]
        f_val = problem.value(x)
        trace.energy_times.append(t)
        trace.energy_half_q2.append(0.5 * fac ** 2)
        trace.energy_conj_half.append(
            None if hsc is None
            else float(hsc(np.concatenate([np.sort(d)[::-1] for d in direction])))
        )
        trace.energy_f.append(f_val)
        trace.best_q = min(trace.best_q, sp.value)
        if i % config.record_every == 0:
            trace.samples.append(
                TraceSample(t, sp.value, f_val, r_cum, h, q_smooth=q_s)
            )
        # trial step with halving backstop
        while True:
            x_new = _step_from_base(x, sp, direction, -h)
            sp_new = spectral_pass(Q, problem.differential(x_new), lam)
            if sp_new.smoothed <= q_s + 1e-9 or h <= h_min:
                break
            h *= 0.5
        x, sp = x_new, sp_new
        t += h
        r_cum += h * fac
        trace.iterations = i + 1
        if q_prev is not None and abs(q_prev - q_s) <= config.tol_stall * (1.0 + abs(q_s)):
            trace.status = "stalled"
            break
        q_prev = q_s
    if trace.status == "unknown":
        trace.status = "max_iters"
    trace.best_q = min(trace.best_q, sp.value)
    trace.samples.append(
        TraceSample(t, sp.value, problem.value(x), r_cum, h, q_smooth=sp.smoothed)
    )
    trace.final_point = x
    extract_certificate(trace, x0)
    return trace


def _subgradient_loop(trace, S, config, differential, step, f_value):
    """The Q-subgradient iteration Z_i in d((Q - inf Q)^2/2)(df), shared by the
    manifold and group forms.

    Each iteration makes one spectral pass at differential(): it gives the
    raw and smoothed values, the best spectra and the direction, whose
    eigenvalues (in the pass's eigenbases) go to step(i, sp, direction,
    delta), which advances the caller's iterate.  Stops at max_iters or when
    the best value has not improved for stall_window iterations.
    """
    best_window = math.inf
    since_improve = 0
    r_cum = 0.0
    shift = -infimum(S)

    def record(sp):
        if sp.value < trace.best_q:
            trace.best_q = sp.value
            trace.best_spectra = sp.spectra

    for i in range(config.max_iters):
        lam = config.smoothing
        if lam is not None and config.smoothing_schedule:
            lam = config.smoothing / math.sqrt(i + 1.0)
        sp = spectral_pass(S, differential(), lam)
        record(sp)
        delta = config.step(i)
        if i % config.record_every == 0:
            trace.samples.append(
                TraceSample(float(i), sp.value, f_value(), r_cum, delta,
                            q_smooth=None if lam is None else sp.smoothed)
            )
        fac = sp.smoothed + shift
        step(i, sp, [fac * m for m in sp.direction], delta)
        r_cum += delta * fac
        trace.iterations = i + 1
        # stall detection on best-so-far improvement
        if trace.best_q < best_window - config.tol_stall * (1.0 + abs(trace.best_q)):
            best_window = trace.best_q
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= config.stall_window:
                trace.status = "stalled"
                break
    if trace.status == "unknown":
        trace.status = "max_iters"
    sp = spectral_pass(S, differential())
    record(sp)
    trace.samples.append(
        TraceSample(float(trace.iterations), sp.value, f_value(), r_cum, 0.0)
    )
    return trace


def subgradient_method(problem, Q, x0, config):
    """Q-subgradient method: x <- exp_x(-delta_i Z_i), Z_i in d(Q^2/2)(df)."""
    config.validate()
    x = x0

    def step(i, sp, direction, delta):
        nonlocal x
        x = _step_from_base(x, sp, direction, -delta)

    trace = _subgradient_loop(FlowTrace(), Q, config, lambda: problem.differential(x),
                              step, lambda: problem.value(x))
    trace.final_point = x
    extract_certificate(trace, x0)
    return trace


def group_subgradient_method(v, S, g0, config, modes=None):
    """Subgradient method in group form: g <- exp(-delta Z/2) g.

    Tracks spectra of the moment map along the run; x_i = g_i^+ g_i
    reproduces the manifold iterates.  Factors are renormalized to unit
    |det| periodically to stop scalar drift.
    """
    config.validate()
    v = tensors.normalize(v)
    if modes is None:
        modes = tuple(range(v.ndim))
    modes = tuple(modes)
    g = [np.array(gi, dtype=complex) for gi in g0]
    scale_log = [0.0] * len(g)
    trace = FlowTrace()

    def step(i, sp, direction, delta):
        for j, E in enumerate(sp.lift([np.exp(-0.5 * delta * d) for d in direction])):
            g[j] = E @ g[j]
        if config.renorm_every and (i + 1) % config.renorm_every == 0:
            for j in range(len(g)):
                n = g[j].shape[0]
                det = abs(np.linalg.det(g[j]))
                if det > 0 and abs(math.log(det)) > 1e-12:
                    g[j] = g[j] / det ** (1.0 / n)
                    # remember the scalar factor: it carries the trace part
                    # of the direction at infinity
                    scale_log[j] += math.log(det) / n
                    trace.renormalizations += 1

    _subgradient_loop(trace, S, config,
                      lambda: tensors.moment_map(act_normalized(g, v, modes), modes),
                      step, lambda: 0.0)
    x_final = ProductPDPoint(
        np.zeros(0), [0.5 * (gi.conj().T @ gi + (gi.conj().T @ gi).conj().T) for gi in g]
    )
    trace.final_point = x_final
    # log x_T = log(g^+ g) from the SVD g = U diag(s) V^+, which stays accurate
    # when the factors are too ill-conditioned for an eigendecomposition of
    # g^+ g; the divided-out determinant factors e^c add 2c to every eigenvalue
    logs = []
    for gi, c in zip(g, scale_log):
        _, sv, vh = np.linalg.svd(gi)
        logs.append((vh.conj().T * (2.0 * np.log(sv) + 2.0 * c)) @ vh)
    x0 = ProductPDPoint.identity(tuple(v.shape[m] for m in modes))
    extract_certificate(trace, x0, log_final=TangentBlock(np.zeros(0), logs))
    return trace, g


def act_normalized(g, v, modes):
    w = tensors.act(g, v, modes)
    return w / np.linalg.norm(w)


def extract_certificate(trace, x0, r_floor=1e-8, dist_floor=1e-6, log_final=None):
    """Direction at infinity from a finished trace: u = log_map(x_T)/R.

    `log_final`, when given, is log_map(x_T, x0) as the caller computed it;
    the group form passes the log it builds from its factors.

    When R (or the travelled distance) is negligible the flow sat at an
    interior near-minimizer and no boundary certificate exists; the trace
    status records this instead of failing.
    """
    R = trace.r_cumulative
    x_final = trace.final_point
    if x_final is None:
        return None
    u_raw = log_final
    if u_raw is None:
        u_raw = log_map(x_final, None if _is_identity(x0) else x0)
    norm_u = metric_norm(x0, TangentBlock(u_raw.euclid, u_raw.blocks, at=x0))
    if R <= r_floor or norm_u <= dist_floor:
        trace.status = trace.status + "+interior_optimum"
        trace.certificate = None
        trace.final_direction = None
        return None
    u = u_raw.scaled(1.0 / R)
    u.at = x0
    trace.final_direction = u
    trace.certificate = asymptotic_at_base(x0, u)
    return trace.certificate


def _is_identity(x):
    return all(
        np.allclose(B, np.eye(B.shape[0]), atol=1e-14) for B in x.blocks
    ) and not np.any(x.euclid)


def energy_residual(trace, problem=None, Q=None):
    """Relative defect of the energy identity over a recorded flow trace.

    Uses trapezoidal quadrature of (1/2)Q^2(df) + (Q^2/2)^*(-xdot) against
    the drop in f.  Requires the objective's half-square conjugate, recorded
    during integrate_flow.
    """
    ts = trace.energy_times
    if len(ts) < 2:
        raise ValidationError("trace has too few samples for the energy identity")
    if any(c is None for c in trace.energy_conj_half):
        raise UnsupportedObjectiveError(
            "objective provides no half-square conjugate; energy identity unavailable"
        )
    integrand = np.asarray(trace.energy_half_q2) + np.asarray(trace.energy_conj_half)
    integral = float(np.sum(np.diff(ts) * (integrand[1:] + integrand[:-1]) / 2.0))
    f0 = trace.energy_f[0]
    fT = trace.energy_f[-1]
    return abs(fT - f0 + integral) / (1.0 + abs(f0 - fT))


def dual_value(problem, Q, xi):
    """Dual objective -f^inf(xi) - Q*(-Y_xi); lower-bounds inf_x Q(df_x)."""
    Y = xi.tangent_at_base()
    conj = conjugate_eval(Q, [-B for B in Y.blocks])
    if not np.isfinite(conj):
        return -math.inf
    rec = problem.recession(xi)
    return -rec - conj


# Search bracket for scales of rays whose conjugate has no gauge (finite on
# every ray, as for the entropy).
RAY_BRACKET = 1e2
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Golden-section steps: the bracket shrinks by GOLDEN**44, about 6e-10.
GOLDEN_STEPS = 44


def best_dual_on_ray(problem, Q, cert):
    """The largest dual value over the line {c * cert : c real}.

    c -> dual_value(c * cert) is concave, and finite where Q*(-c Y) is: on
    [-1/gauge(w), 1/gauge(-w)] for an objective with a conjugate gauge (w the
    certificate's weights), everywhere otherwise, where the search keeps to
    [-RAY_BRACKET, RAY_BRACKET].  A golden-section search maximizes it; both
    ends of the bracket and c = 0, whose dual is inf Q, are candidates too.
    With no certificate the result is inf Q.
    """
    best = infimum(Q)
    if cert is None:
        return best

    def phi(c):
        val = dual_value(problem, Q, cert.scaled(c))
        return -math.inf if math.isnan(val) else val

    gauge = Q.oracle.conjugate_gauge
    lo, hi = -RAY_BRACKET, RAY_BRACKET
    if gauge is not None:
        w = np.concatenate(cert.weights)
        lo, hi = -1.0 / gauge(w), 1.0 / gauge(-w)
    a, b = lo, hi
    c1, c2 = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    f1, f2 = phi(c1), phi(c2)
    for _ in range(GOLDEN_STEPS):
        if f1 < f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + GOLDEN * (b - a)
            f2 = phi(c2)
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - GOLDEN * (b - a)
            f1 = phi(c1)
    return max(best, phi(lo), phi(hi), f1, f2)
