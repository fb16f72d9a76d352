"""Q-gradient flow and Q-subgradient methods on products of PD manifolds.

Both solvers carry group factors g, with iterate x = e^{2c} g^+ g (c the
log-determinant share divided out at renormalization).  The differential of
f at x, transported to the base by g, is the moment map of g.v; the driving
direction Z is d(Q^2/2) there (Q times a subgradient of Q), and the step
g <- exp(-h Z/2) g moves x to g^+ exp(-h Z) g along a geodesic, so iterates
stay exactly positive definite.

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
from .spectral import _check_blocks, infimum, spectral_pass
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
    certificate: Optional[BoundaryCertificate] = None
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


def q_gradient(problem, Q, x):
    """The Q-gradient of f at x (a tangent vector at x); Q must be smooth."""
    if not Q.smooth:
        raise UnsupportedObjectiveError(
            f"objective {Q.label!r} is not smooth; wrap it with moreau_objective"
        )
    sp = spectral_pass(Q, problem.differential(x))
    g0 = sp.lift([sp.value * m for m in sp.direction])
    return transport_from_base(x, TangentBlock(np.zeros(0), g0, at=None))


def _q_shift(Q):
    """-inf Q, the shift that keeps the Q-factor Q - inf Q nonnegative."""
    shift = -infimum(Q)
    if not math.isfinite(shift):
        raise UnsupportedObjectiveError(
            f"objective {Q.label!r} is unbounded below (Q*(0) = +inf)"
        )
    return shift


class _Orbit:
    """Group factors g of the iterate x = e^{2c} g^+ g acting on a unit tensor v;
    c is the per-block log |det| share divided out at renormalization."""

    def __init__(self, v, modes, g, c=None):
        self.v, self.modes, self.g = v, modes, g
        self.c = [0.0] * len(g) if c is None else c

    def evaluate(self):
        """The base-transported differential mu(g.v / ||g.v||) and
        f(x) = log <v, x.v> = 2 log ||g.v|| + 2 sum c, from one tensor action."""
        w = tensors.act(self.g, self.v, self.modes)
        nrm = np.linalg.norm(w)
        f = 2.0 * (math.log(nrm) + sum(self.c))
        return tensors.moment_map(w / nrm, self.modes), f

    def advanced(self, sp, direction, delta):
        """The orbit after g <- exp(-delta Z/2) g, that is x <- g^+ exp(-delta Z) g,
        where Z has eigenvalues `direction` in the eigenbases of the pass `sp`."""
        E = sp.lift([np.exp(-0.5 * delta * d) for d in direction])
        return _Orbit(self.v, self.modes, [Ej @ gj for Ej, gj in zip(E, self.g)],
                      list(self.c))

    def renormalize(self):
        """Rescale each factor to unit |det|, moving the share into c so that x
        is unchanged; returns the number of factors rescaled."""
        count = 0
        for j, gj in enumerate(self.g):
            n = gj.shape[0]
            det = abs(np.linalg.det(gj))
            if det > 0 and abs(math.log(det)) > 1e-12:
                self.g[j] = gj / det ** (1.0 / n)
                self.c[j] += math.log(det) / n
                count += 1
        return count

    def log_and_point(self):
        """log x and x from the SVD g = U diag(s) V^+: V diag(2 log s + 2c) V^+
        and its exponential.  The SVD stays accurate when the factors are too
        ill-conditioned for an eigendecomposition of g^+ g."""
        logs, blocks = [], []
        for gj, cj in zip(self.g, self.c):
            _, sv, vh = np.linalg.svd(gj)
            ev = 2.0 * np.log(sv) + 2.0 * cj
            logs.append((vh.conj().T * ev) @ vh)
            B = (vh.conj().T * np.exp(ev)) @ vh
            blocks.append(0.5 * (B + B.conj().T))
        return TangentBlock(np.zeros(0), logs), ProductPDPoint(np.zeros(0), blocks)


def integrate_flow(problem, Q, x0, config):
    """Euler steps of the Q-gradient flow in group form, from g0 = x0^1/2.

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
    shift = _q_shift(Q)
    if x0.euclid.size:
        raise ValidationError("Kempf-Ness points carry no Euclidean factor")
    # the Moreau envelope carries no half-square conjugate
    hsc = Q.oracle.half_square_conjugate if lam is None else None
    trace = FlowTrace()
    orbit = _Orbit(problem.v, problem.modes, [sqrtm_pd(B) for B in x0.blocks])
    t = 0.0
    r_cum = 0.0
    h = config.ode_step
    h_min = config.ode_step * 2.0 ** -40
    q_prev = None
    mu, f_val = orbit.evaluate()
    sp = spectral_pass(Q, mu, lam)
    for i in range(config.max_iters):
        q_s = sp.smoothed
        fac = q_s + shift
        direction = [fac * m for m in sp.direction]
        trace.energy_times.append(t)
        trace.energy_half_q2.append(0.5 * fac ** 2)
        trace.energy_conj_half.append(
            None if hsc is None else float(hsc(np.concatenate(direction)))
        )
        trace.energy_f.append(f_val)
        trace.best_q = min(trace.best_q, sp.value)
        if i % config.record_every == 0:
            trace.samples.append(
                TraceSample(t, sp.value, f_val, r_cum, h, q_smooth=q_s)
            )
        # trial step with halving backstop
        while True:
            trial = orbit.advanced(sp, direction, h)
            mu, f_trial = trial.evaluate()
            sp_new = spectral_pass(Q, mu, lam)
            if sp_new.smoothed <= q_s + 1e-9 or h <= h_min:
                break
            h *= 0.5
        orbit, sp, f_val = trial, sp_new, f_trial
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
        TraceSample(t, sp.value, f_val, r_cum, h, q_smooth=sp.smoothed)
    )
    _, trace.final_point = orbit.log_and_point()
    extract_certificate(trace, x0)
    return trace


def group_subgradient_method(v, S, g0, config, modes=None):
    """Q-subgradient method in group form: g <- exp(-delta_i Z_i/2) g, with
    Z_i in d((S - inf S)^2/2) at the moment map of g.v.

    Factors are renormalized to unit |det| every renorm_every iterations; the
    divided-out shares c stay in the iterate x = e^{2c} g^+ g.  Stops at
    max_iters or when the best value has not improved for stall_window
    iterations.
    """
    config.validate()
    shift = _q_shift(S)
    v = tensors.normalize(v)
    modes = tuple(range(v.ndim)) if modes is None else tuple(modes)
    orbit = _Orbit(v, modes, [np.array(gi, dtype=complex) for gi in g0])
    trace = FlowTrace()
    best_window = math.inf
    since_improve = 0
    r_cum = 0.0

    def evaluate(lam=None):
        mu, f = orbit.evaluate()
        sp = spectral_pass(S, mu, lam)
        if sp.value < trace.best_q:
            trace.best_q = sp.value
            trace.best_spectra = sp.spectra
        return sp, f

    for i in range(config.max_iters):
        lam = config.smoothing
        if lam is not None and config.smoothing_schedule:
            lam = config.smoothing / math.sqrt(i + 1.0)
        sp, f = evaluate(lam)
        delta = config.step(i)
        if i % config.record_every == 0:
            trace.samples.append(
                TraceSample(float(i), sp.value, f, r_cum, delta,
                            q_smooth=None if lam is None else sp.smoothed)
            )
        fac = sp.smoothed + shift
        orbit = orbit.advanced(sp, [fac * m for m in sp.direction], delta)
        if config.renorm_every and (i + 1) % config.renorm_every == 0:
            trace.renormalizations += orbit.renormalize()
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
    sp, f = evaluate()
    trace.samples.append(TraceSample(float(trace.iterations), sp.value, f, r_cum, 0.0))
    log_final, trace.final_point = orbit.log_and_point()
    x0 = ProductPDPoint.identity(tuple(v.shape[m] for m in modes))
    extract_certificate(trace, x0, log_final=log_final)
    return trace, orbit.g


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
        return None
    u = u_raw.scaled(1.0 / R)
    u.at = x0
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


# Largest entry of k^+ k - I accepted in a certificate basis k.  Bases from
# the solvers and from records are unitary to about 1e-15; dual_value reads
# the spectrum of k diag(w) k^+ as w, which a non-unitary k breaks (with
# k = 0.5 I the spectrum is w/4 and the reported "bound" can exceed inf Q).
UNITARY_TOL = 1e-8


def _ray_spectrum(Q, xi):
    """The concatenated weights of a certificate, checked to have one unitary
    basis and one weight vector per block of Q."""
    _check_blocks(Q, xi.bases)
    weights = [np.asarray(w, dtype=float) for w in xi.weights]
    if [w.shape for w in weights] != [(n,) for n in Q.block_dims]:
        raise ValidationError(f"weight shapes {[w.shape for w in weights]} "
                              f"do not match block dims {Q.block_dims}")
    for k in xi.bases:
        k = np.asarray(k)
        dev = float(np.max(np.abs(k.conj().T @ k - np.eye(len(k)))))
        if not dev <= UNITARY_TOL:
            raise ValidationError(f"certificate basis is not unitary: "
                                  f"max|k^+ k - I| = {dev:.3e}")
    return np.concatenate(weights)


def dual_value(problem, Q, xi):
    """Dual objective -f^inf(xi) - Q*(-Y_xi); lower-bounds inf_x Q(df_x).

    Q* is unitarily invariant, so with Y_xi = k diag(w) k^+ for unitary
    bases k it only sees the spectrum -w, and the oracle's conjugate, a
    symmetric function, takes the weights in any order.
    """
    conj = float(Q.oracle.conjugate_eval(-_ray_spectrum(Q, xi)))
    if not np.isfinite(conj):
        return -math.inf
    return -problem.recession(xi) - conj


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
