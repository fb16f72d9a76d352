"""Q-gradient flow and Q-subgradient method on products of PD manifolds.

Both solvers run one loop over group factors g, with iterate x = e^{2c} g^+ g
(c the log-determinant share divided out at renormalization).  The moment map
of g.v is the differential of f at x transported to the base; step i drives
g <- exp(-h Z/2) g, a geodesic step x <- g^+ exp(-h Z) g, with Z = d(Q^2/2)
there, and smooths Q to its Moreau envelope at level lambda_i = smoothing
(over sqrt(i+1) under smoothing_schedule) when smoothing is set.  Two step
policies set h and the stop: the subgradient method's schedule and
best-window stall; the flow's constant step with a halving backstop, energy
record and consecutive-value stall.  Certificates u = log_map(x_T)/R, with
R = integral of Q along the trajectory, lower-bound inf_x Q(df_x) by weak
duality.
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
    """Settings of both solvers.  Whenever smoothing is set, both solvers
    (integrate_flow on a smooth Q too) follow the Moreau envelope of Q at level
    lambda_i = smoothing, or smoothing / sqrt(i+1) under smoothing_schedule."""

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
        # written so that NaN fails every test
        if not (self.max_iters >= 0 and 0 < self.step_size < math.inf
                and 0 < self.ode_step < math.inf):
            raise ValidationError("iteration counts and steps must be positive and finite")
        if self.step_rule not in ("constant", "sqrt"):
            raise ValidationError(f"unknown step rule {self.step_rule!r}")
        if self.smoothing is not None and not 0 < self.smoothing < math.inf:
            raise ValidationError("smoothing parameter must be positive and finite")
        if not 0 <= self.tol_stall < math.inf:
            raise ValidationError("stall tolerance must be nonnegative and finite")
        if self.record_every < 1:
            raise ValidationError("record_every must be at least 1")
        return self

    def step(self, i):
        if self.step_rule == "constant":
            return self.step_size
        return self.step_size / math.sqrt(i + 1.0)

    def smoothing_at(self, i):
        if self.smoothing is None or not self.smoothing_schedule:
            return self.smoothing
        return self.smoothing / math.sqrt(i + 1.0)


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
        self.modes = tuple(range(self.v.ndim)) if self.modes is None else tuple(self.modes)

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

    def advanced(self, sp, fac, delta):
        """The orbit after g <- exp(-delta Z/2) g, that is x <- g^+ exp(-delta Z) g,
        where Z has eigenvalues fac * sp.direction in the eigenbases of `sp`."""
        E = sp.lift([np.exp(-0.5 * delta * (fac * m)) for m in sp.direction])
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


def _descend(problem, g0, Q, config, policy, x0=None):
    """The loop of both solvers, from the factors g0.  It folds each orbit's
    pass into best_q and the samples; `policy.advance` steps the orbit and
    returns the next orbit, its pass (taken once) and f, the step taken and
    whether the run stalled; `policy.t` and `policy.h` are the clock and step
    of the samples.  Certificates are relative to x0, by default the identity."""
    config.validate()
    shift = -infimum(Q)  # Q - inf Q keeps the Q-factor nonnegative
    if not math.isfinite(shift):
        raise UnsupportedObjectiveError(
            f"objective {Q.label!r} is unbounded below (Q*(0) = +inf)"
        )
    orbit = _Orbit(problem.v, problem.modes, [np.array(gi, dtype=complex) for gi in g0])
    trace = FlowTrace()
    r_cum = 0.0

    def pass_at(orbit, i):
        mu, f = orbit.evaluate()
        return spectral_pass(Q, mu, config.smoothing_at(i)), f

    def observe(sp, f, keep):
        if sp.value < trace.best_q:
            trace.best_q, trace.best_spectra = sp.value, sp.spectra
        if keep:
            trace.samples.append(
                TraceSample(policy.t, sp.value, f, r_cum, policy.h, q_smooth=sp.smoothed))

    sp, f = pass_at(orbit, 0)
    stalled = False
    for i in range(config.max_iters):
        observe(sp, f, i % config.record_every == 0)
        fac = sp.smoothed + shift
        orbit, sp, f, h, stalled = policy.advance(trace, orbit, sp, fac, f, i,
                                                  lambda o: pass_at(o, i + 1))
        r_cum += h * fac
        trace.iterations = i + 1
        if stalled:
            break
    trace.status = "stalled" if stalled else "max_iters"
    observe(sp, f, True)
    log_final, trace.final_point = orbit.log_and_point()
    # the default base is the identity, where the factors give log x_T directly
    base = problem.identity_point() if x0 is None else x0
    extract_certificate(trace, base, log_final=log_final if x0 is None else None)
    return trace, orbit.g


class _SubgradientSteps:
    """group_subgradient_method's steps, on the clock t = step count.  The
    stall rule reads best_q before the next orbit's value is folded in."""

    def __init__(self, config):
        self.config, self.t, self.h = config, 0.0, config.step(0)
        self.best_window, self.improved = math.inf, -1

    def advance(self, trace, orbit, sp, fac, f, i, pass_at):
        delta, self.t, self.h = self.h, float(i + 1), self.config.step(i + 1)
        orbit = orbit.advanced(sp, fac, delta)
        if self.config.renorm_every and (i + 1) % self.config.renorm_every == 0:
            trace.renormalizations += orbit.renormalize()
        tol = self.config.tol_stall * (1.0 + abs(trace.best_q))
        if trace.best_q < self.best_window - tol:
            self.best_window, self.improved = trace.best_q, i
        # a step that improves best_q never stalls, whatever stall_window is
        stalled = 0 < i - self.improved >= self.config.stall_window
        return (orbit, *pass_at(orbit), delta, stalled)


class _FlowSteps:
    """integrate_flow's steps, on the clock t = sum of the steps taken."""

    def __init__(self, Q, config):
        self.h, self.h_min = config.ode_step, config.ode_step * 2.0 ** -40
        # q_prev = inf: the first step has no previous value and never stalls
        self.config, self.t, self.q_prev = config, 0.0, math.inf
        # the Moreau envelope carries no half-square conjugate
        self.hsc = Q.oracle.half_square_conjugate if config.smoothing is None else None

    def advance(self, trace, orbit, sp, fac, f, i, pass_at):
        trace.energy_times.append(self.t)
        trace.energy_half_q2.append(0.5 * fac ** 2)
        trace.energy_conj_half.append(None if self.hsc is None else
                                      float(self.hsc(fac * np.concatenate(sp.direction))))
        trace.energy_f.append(f)
        q, self.q_prev = self.q_prev, sp.smoothed
        stalled = abs(q - sp.smoothed) <= self.config.tol_stall * (1.0 + abs(sp.smoothed))
        # trials are smoothed at the next level; when a schedule shrinks lambda,
        # the envelope rises, so this orbit is measured again at that level
        same = self.config.smoothing_at(i + 1) == self.config.smoothing_at(i)
        q_bar = sp.smoothed if same else pass_at(orbit)[0].smoothed
        while True:
            trial = orbit.advanced(sp, fac, self.h)
            sp_next, f = pass_at(trial)
            if sp_next.smoothed <= q_bar + 1e-9 or self.h <= self.h_min:
                self.t += self.h
                return trial, sp_next, f, self.h, stalled
            self.h *= 0.5


def integrate_flow(problem, Q, x0, config):
    """Euler steps of the Q-gradient flow in group form, from g0 = x0^1/2.

    The step ode_step is halved for good whenever the smoothed Q value would
    rise, a backstop for the monotonicity of t -> Q(df_x(t)); the run stalls
    when two consecutive values agree within tol_stall.  A nonsmooth Q needs
    config.smoothing; a set smoothing, even on a smooth Q, makes the flow
    follow the Moreau envelope at the subgradient method's level lambda_i and
    leaves the energy record without the half-square conjugate.
    """
    if not Q.smooth and config.smoothing is None:
        raise UnsupportedObjectiveError(
            f"objective {Q.label!r} is not smooth; set config.smoothing"
        )
    if x0.euclid.size:
        raise ValidationError("Kempf-Ness points carry no Euclidean factor")
    g0 = [sqrtm_pd(B) for B in x0.blocks]
    return _descend(problem, g0, Q, config, _FlowSteps(Q, config), x0)[0]


def group_subgradient_method(v, S, g0, config, modes=None):
    """Q-subgradient method in group form: g <- exp(-delta_i Z_i/2) g, with
    delta_i = config.step(i) and Z_i in d((S - inf S)^2/2) at the moment map
    of g.v.

    Factors are renormalized to unit |det| every renorm_every iterations; the
    divided-out shares c stay in the iterate x = e^{2c} g^+ g.  Stops at
    max_iters or when the best value has not improved by tol_stall for
    stall_window iterations.
    """
    return _descend(KempfNessProblem(v, modes), g0, S, config, _SubgradientSteps(config))


def extract_certificate(trace, x0, r_floor=1e-8, dist_floor=1e-6, log_final=None):
    """Direction at infinity from a finished trace: u = log_map(x_T)/R.

    `log_final`, when given, is log_map(x_T, x0) as the caller computed it;
    the subgradient method passes the log it builds from its factors.

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
