"""Q-gradient flow and Q-subgradient method on products of PD manifolds.

Both solvers run one loop over group factors g, with iterate x = e^{2c} g^+ g.
The moment map of g.v is the differential of f at x transported to the base;
step i is the geodesic step x <- g^+ exp(-h Z) g, with Z = d(Q^2/2) there:
per block, its unit-determinant part acts on g and its scalar goes into c (f
is linear in that scalar, the moment map blind to it), so |det g| stays fixed.
Q is smoothed to its Moreau envelope at level lambda_i = smoothing (over
sqrt(i+1) under smoothing_schedule) when smoothing is set.  Two step policies
set h and the stop: the subgradient method's schedule and best-window stall;
the flow's constant step with a halving backstop and consecutive-value
stall.  A caller's threshold on the best value, when given, stops the loop
early with status `certified`.  Certificates
u = log_{x0}(x_T)/R from the start x0 = g0^+ g0, R = integral of Q, read off
one SVD of e^c g g0^-1 per block, lower-bound inf_x Q(df_x) by weak duality.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, UnsupportedObjectiveError, ValidationError
from .geometry import BoundaryCertificate, ProductPDPoint, sqrtm_pd, unitary_qr_factor
from .spectral import DOMAIN_SLACK, infimum, spectral_pass
from . import tensors

# A run with R (the integral of Q) at most R_FLOOR, or that ends at most
# DIST_FLOOR from its start, sat at an interior near-minimizer: it has no
# boundary certificate.
R_FLOOR = 1e-8
DIST_FLOOR = 1e-6


# The subgradient method stops `stalled` once its best value has not improved
# by tol_stall for this many iterations: the value every caller uses.
STALL_WINDOW = 500


@dataclass
class FlowConfig:
    """Settings of both solvers.  Whenever smoothing is set, both solvers
    (integrate_flow on a smooth Q too) follow the Moreau envelope of Q at level
    lambda_i = smoothing, or smoothing / sqrt(i+1) under smoothing_schedule."""

    max_iters: int = 2000
    step_size: float = 1.0  # the subgradient method's step i: step_size / sqrt(i+1)
    smoothing: Optional[float] = None  # Moreau parameter lambda
    smoothing_schedule: bool = False  # lambda_i = smoothing / sqrt(i+1)
    ode_step: float = 1e-2  # the flow's Euler step
    tol_stall: float = 1e-9

    def validate(self):
        # written so that NaN fails every test
        if not (self.max_iters >= 0 and 0 < self.step_size < math.inf
                and 0 < self.ode_step < math.inf):
            raise ValidationError("iteration counts and steps must be positive and finite")
        if self.smoothing is not None and not 0 < self.smoothing < math.inf:
            raise ValidationError("smoothing parameter must be positive and finite")
        if not 0 <= self.tol_stall < math.inf:
            raise ValidationError("stall tolerance must be nonnegative and finite")
        if not isinstance(self.max_iters, numbers.Integral):
            raise ValidationError("max_iters must be an int")
        return self

    def step(self, i):
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
    # (1/2)Q^2 + (Q^2/2)^* of the step direction, with Q shifted by -inf Q;
    # None without a half-square conjugate (or with smoothing set)
    energy: Optional[float] = None


@dataclass
class FlowTrace:
    """A run: a sample per step and at the end, final factors, certificate."""

    samples: list = field(default_factory=list)
    final_factors: Optional[list] = None
    certificate: Optional[BoundaryCertificate] = None
    status: str = "unknown"
    best_spectra: Optional[list] = None

    @property
    def iterations(self):
        """Steps taken: the samples are the start and one per step."""
        return max(len(self.samples) - 1, 0)

    @property
    def best_q(self):
        """The least sample value (NaN values skipped), inf without one."""
        return min((s.q_value for s in self.samples if not math.isnan(s.q_value)),
                   default=math.inf)

    @property
    def r_cumulative(self):
        return self.samples[-1].r_cum if self.samples else 0.0

    @property
    def final_point(self):
        """x_T = G^+ G per block of the final factors G."""
        return None if self.final_factors is None else ProductPDPoint(
            [G.conj().T @ G for G in self.final_factors])


@dataclass
class KempfNessProblem:
    """Minimum S-gradient-norm problem data for a tensor scaling instance: the
    tensor as given, the modes it is scaled along, and its unit normalization
    v, made when first asked for.  The signature and the recession, which is
    scale-invariant, read the tensor as given, so a certificate check never
    normalizes it."""

    tensor: np.ndarray
    modes: Optional[tuple] = None

    def __post_init__(self):
        self.tensor = tensors.as_tensor(self.tensor)
        self.modes = tensors.check_modes(self.tensor, self.modes)

    @functools.cached_property
    def v(self):
        """The unit tensor: the tensor over its norm."""
        return tensors.normalize(self.tensor)

    @property
    def signature(self):
        return tuple(self.tensor.shape[i] for i in self.modes)

    def recession(self, xi):
        return tensors.recession(self.tensor, xi, self.modes)

    def identity_point(self):
        return ProductPDPoint.identity(self.signature)


class _Orbit:
    """Group factors g of the iterate x = e^{2c} g^+ g acting on a unit tensor v;
    c holds each block's scale, so steps leave |det g| unchanged."""

    def __init__(self, v, modes, g, c=None):
        self.v, self.modes, self.g = v, modes, g
        self.c = [0.0] * len(g) if c is None else c

    def evaluate(self):
        """The base-transported differential mu(g.v / ||g.v||) and
        f(x) = log <v, x.v> = 2 log ||g.v|| + 2 sum c, from one tensor action."""
        w = tensors.act(self.g, self.v, self.modes)
        nrm = tensors.norm(w)
        f = 2.0 * (math.log(nrm) + sum(self.c))
        return tensors.moment_map(w / nrm, self.modes), f

    def advanced(self, sp, fac, delta):
        """The orbit after x <- g^+ exp(-delta Z) g, where Z = U diag(fac m) U^+
        per block, U and m the eigenbasis and direction in `sp`: with
        z = -delta fac m/2, g <- U diag(e^{z - mean z}) U^+ g and c <- c + mean z."""
        zs = [(-0.5 * delta * fac) * m for m in sp.direction]
        # on these short vectors ndarray.mean costs ten times as much
        means = [sum(z.tolist()) / len(z) for z in zs]
        E = sp.lift([np.exp(z - mz) for z, mz in zip(zs, means)])
        return _Orbit(self.v, self.modes, [Ej @ gj for Ej, gj in zip(E, self.g)],
                      [cj + mz for cj, mz in zip(self.c, means)])


def _certify(g, g0, R):
    """The certificate log_{x0}(x)/R of a run from x0 = g0^+ g0 to x = g^+ g,
    R the integral of Q along it, from one SVD per block: with g g0^-1 =
    U diag(s) V^+, ev = 2 log s and a = g0^+ V, x = a diag(e^ev) a^+ and the
    ray has weights ev/R on the unitary QR factor of a (positive diagonal).
    The SVD stays accurate on factors too ill-conditioned for an
    eigendecomposition of x.  Below R_FLOOR or DIST_FLOOR there is none."""
    bases, evs = [], []
    for gj, g0j in zip(g, g0):
        _, sv, vh = np.linalg.svd(np.linalg.solve(g0j.T, gj.T).T)
        bases.append(unitary_qr_factor(g0j.conj().T @ vh.conj().T))
        evs.append(2.0 * np.log(sv))
    if R <= R_FLOOR or np.linalg.norm(np.concatenate(evs)) <= DIST_FLOOR:
        return None
    return BoundaryCertificate(np.zeros(0), bases, [ev / R for ev in evs])


def _descend(problem, g0, Q, config, policy, stop_below=None):
    """The loop of both solvers, from the factors g0.  It folds each orbit's
    pass into best_q and the samples; `policy.advance` steps the orbit and
    returns the next orbit, its pass (taken once) and f, the step taken and
    whether the run stalled; `policy.t` and `policy.h` are the clock and step
    of the samples.  Certificates are relative to the start x0 = g0^+ g0.

    With stop_below set, the loop stops after the first step at which
    best_q < stop_below, and the status is `certified` whenever the final
    best_q is below it; the caller picks a threshold that decides its
    answer.  With stop_below None the run is the same, step for step.
    Returns the trace, whose final factors e^c g give x_T = (e^c g)^+ (e^c g)."""
    config.validate()
    shift = -infimum(Q)  # Q - inf Q keeps the Q-factor nonnegative
    if not math.isfinite(shift):
        raise UnsupportedObjectiveError(
            f"objective {Q.label!r} is unbounded below (Q*(0) = +inf)"
        )
    # the Moreau envelope carries no half-square conjugate
    hsc = Q.half_square_conjugate if config.smoothing is None else None
    g0 = [np.array(gi, dtype=complex) for gi in g0]
    orbit = _Orbit(problem.v, problem.modes, g0)
    trace = FlowTrace()
    r_cum, best_q = 0.0, math.inf

    def pass_at(orbit, i):
        mu, f = orbit.evaluate()
        return spectral_pass(Q, mu, config.smoothing_at(i)), f

    def observe(sp, f):
        nonlocal best_q
        if sp.value < best_q:
            best_q, trace.best_spectra = sp.value, sp.spectra
        fac = sp.smoothed + shift
        energy = None if hsc is None else (
            0.5 * fac ** 2 + float(hsc(fac * np.concatenate(sp.direction))))
        trace.samples.append(TraceSample(policy.t, sp.value, f, r_cum, policy.h,
                                         q_smooth=sp.smoothed, energy=energy))
        return fac

    sp, f = pass_at(orbit, 0)
    if not math.isfinite(sp.value):
        raise DomainError(f"objective {Q.label!r} is {sp.value} at the start point")
    # no best_q is below -inf: without a threshold the run never certifies
    stop = -math.inf if stop_below is None else stop_below
    stalled = False
    for i in range(config.max_iters):
        fac = observe(sp, f)
        orbit, sp, f, h, stalled = policy.advance(best_q, orbit, sp, fac, i,
                                                  lambda o: pass_at(o, i + 1))
        r_cum += h * fac
        if stalled or best_q < stop:
            break
    observe(sp, f)
    trace.status = ("certified" if best_q < stop else
                    "stalled" if stalled else "max_iters")
    trace.final_factors = [math.exp(cj) * gj for cj, gj in zip(orbit.c, orbit.g)]
    trace.certificate = _certify(trace.final_factors, g0, trace.r_cumulative)
    if trace.certificate is None:
        trace.status += "+interior_optimum"
    return trace


class _SubgradientSteps:
    """group_subgradient_method's steps, on the clock t = step count.  The
    stall rule reads the run's best_q before the next orbit's value is folded
    in."""

    def __init__(self, config):
        self.config, self.t, self.h = config, 0.0, config.step(0)
        self.best_window, self.improved = math.inf, -1

    def advance(self, best_q, orbit, sp, fac, i, pass_at):
        delta, self.t, self.h = self.h, float(i + 1), self.config.step(i + 1)
        orbit = orbit.advanced(sp, fac, delta)
        tol = self.config.tol_stall * (1.0 + abs(best_q))
        if best_q < self.best_window - tol:
            self.best_window, self.improved = best_q, i
        stalled = i - self.improved >= STALL_WINDOW
        return (orbit, *pass_at(orbit), delta, stalled)


class _FlowSteps:
    """integrate_flow's steps, on the clock t = sum of the steps taken."""

    def __init__(self, config):
        self.h, self.h_min = config.ode_step, config.ode_step * 2.0 ** -40
        # q_prev = inf: the first step has no previous value and never stalls
        self.config, self.t, self.q_prev = config, 0.0, math.inf

    def advance(self, best_q, orbit, sp, fac, i, pass_at):
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
    leaves the samples without energy.  The
    certificate is relative to x0 (one SVD per block, see _certify).
    """
    if not Q.smooth and config.smoothing is None:
        raise UnsupportedObjectiveError(
            f"objective {Q.label!r} is not smooth; set config.smoothing"
        )
    x0.validate()
    g0 = [sqrtm_pd(B) for B in x0.blocks]
    return _descend(problem, g0, Q, config, _FlowSteps(config))


def group_subgradient_method(v, S, g0, config, modes=None):
    """Q-subgradient method in group form: g <- exp(-delta_i Z_i/2) g, with
    delta_i = step_size / sqrt(i+1) and Z_i in d((S - inf S)^2/2) at the
    moment map of g.v.

    Each step keeps |det g| and moves its scalar part into the shares c of
    the iterate x = e^{2c} g^+ g; the returned factors carry c back, so their
    g^+ g is the final point.  Stops at max_iters or when the best value has
    not improved by tol_stall for STALL_WINDOW iterations.  The certificate
    is relative to x0 = g0^+ g0.
    """
    trace = _descend(KempfNessProblem(v, modes), g0, S, config,
                     _SubgradientSteps(config))
    return trace, trace.final_factors


def extract_certificate(trace, x0):
    """Direction at infinity from a finished trace: u = log_{x0}(x_T)/R, by
    the solvers' formula (_certify) on its final factors and g0 = x0^1/2.
    Below R_FLOOR or DIST_FLOOR the run sat at an interior near-minimizer
    and the result is None.  The trace is left as it is."""
    g = trace.final_factors
    if g is None:
        return None
    if x0.dims != tuple(len(gj) for gj in g):
        raise ValidationError("x0 and x_T must be Kempf-Ness points of one signature")
    x0.validate()
    return _certify(g, [sqrtm_pd(B) for B in x0.blocks], trace.r_cumulative)


def energy_residual(trace):
    """Relative defect of the energy identity over a recorded flow trace.

    Trapezoidal quadrature of the energy (1/2)Q^2(df) + (Q^2/2)^*(-xdot) of
    the samples that start a step (all but the last) against the drop in f.
    Requires the objective's half-square conjugate.
    """
    nodes = trace.samples[:-1]
    if len(nodes) < 2:
        raise ValidationError("trace has too few samples for the energy identity")
    if any(s.energy is None for s in nodes):
        raise UnsupportedObjectiveError(
            "objective provides no half-square conjugate; energy identity unavailable"
        )
    ts, e = np.array([(s.t, s.energy) for s in nodes]).T
    integral = float(np.sum(np.diff(ts) * (e[1:] + e[:-1]) / 2.0))
    f0, fT = nodes[0].f_value, nodes[-1].f_value
    return abs(fT - f0 + integral) / (1.0 + abs(f0 - fT))


def _check_dual_args(problem, Q):
    if tuple(Q.block_dims) != problem.signature:
        raise ValidationError(f"objective block dims {Q.block_dims} do not match "
                              f"the problem's signature {problem.signature}")


def _dual_from(Q, rec, y):
    """-rec/s - Q*(y/s), with s = max(1, gauge(y)) for an objective with a
    conjugate gauge and 1 otherwise; -inf off the conjugate's domain."""
    gauge = Q.conjugate_gauge
    s = 1.0 if gauge is None else max(1.0, float(gauge(y)))
    conj = float(Q.conjugate_eval(y if s == 1.0 else y / s))
    if not (s <= 1.0 + DOMAIN_SLACK and math.isfinite(conj)):
        return -math.inf
    return -rec / s - conj


def _minus_weights(xi):
    return -np.concatenate(xi.weights, dtype=float)


def dual_value(problem, Q, xi):
    """Dual objective -f^inf(xi) - Q*(-Y_xi); lower-bounds inf_x Q(df_x).

    Q* is unitarily invariant, so with Y_xi = k diag(w) k^+ for unitary
    bases k it only sees the spectrum -w, and the objective's conjugate, a
    symmetric function, takes the weights in any order.  The recession
    f^inf(xi) checks xi, which must be a BoundaryCertificate, and rotates v
    into its bases in one pass over its blocks (tensors.recession).  A ray
    whose conjugate gauge lies in (1, 1 + DOMAIN_SLACK], which the conjugate
    accepts, is rated as xi/gauge, so that the slack cannot lift the dual
    above the primal.
    """
    _check_dual_args(problem, Q)
    rec = problem.recession(xi)
    return _dual_from(Q, rec, _minus_weights(xi))


# Search bracket for scales of rays whose conjugate has no gauge (finite on
# every ray, as for the entropy).
RAY_BRACKET = 1e2
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Golden-section steps: the bracket shrinks by GOLDEN**44, about 6e-10.
GOLDEN_STEPS = 44


def best_ray_on_line(problem, Q, cert):
    """The ray cert.scaled(c) of largest dual over real c; None without cert.

    c -> dual_value(c * cert) is concave, and finite where Q*(-c Y) is: on
    [-1/gauge(w), 1/gauge(-w)] for an objective with a conjugate gauge (w the
    certificate's weights), everywhere otherwise, where the search keeps to
    [-RAY_BRACKET, RAY_BRACKET].  The search rotates v once: the recession
    of c * cert is c times the largest weight sum over the support for c >= 0
    and c times the smallest for c < 0 (tensors.support_sums), so a
    golden-section search maximizes phi(c) = -c (largest or smallest) / s(c)
    - Q*(-c w / s(c)), which evaluates only the conjugate.  Both ends of the
    bracket are candidates too; c = 0, whose dual is inf Q, is none, as the
    floor certificate's dual S(uniform) is at least that on every builtin.
    The ray is not rated here (`apps._Floor` rates it with dual_value).  A
    checked certificate with zero weights is returned as it is (its line is
    the single point c = 0, where a gauge would be 0).
    """
    if cert is None:
        return None
    _check_dual_args(problem, Q)
    sums = tensors.support_sums(problem.tensor, cert, problem.modes)
    y = _minus_weights(cert)
    if not y.any():
        return cert
    largest = float(sums.max())
    smallest = float(sums[sums > -math.inf].min(initial=math.inf))

    def phi(c):
        val = _dual_from(Q, c * (largest if c >= 0.0 else smallest), c * y)
        return -math.inf if math.isnan(val) else val

    gauge = Q.conjugate_gauge
    lo, hi = -RAY_BRACKET, RAY_BRACKET
    if gauge is not None:  # y = -w
        lo, hi = -1.0 / gauge(-y), 1.0 / gauge(y)
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
    _, c = max((phi(lo), lo), (phi(hi), hi), (f1, c1), (f2, c2))
    return cert.scaled(c)
