"""Applications of tensor-scaling flows: quantum functional, G-stable rank,
and noncommutative rank of matrix pencils.

Each application minimizes a spectral objective of the moment map over the
scaling orbit through `scale`, which reports the best primal value found and
the dual bound of the boundary certificate extracted from the run; the
applications only convert the two into their own units.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import tensors
from .errors import DomainError, ParameterError, ValidationError
from .geometry import BoundaryCertificate, expm_herm
from .solver import (
    FlowConfig,
    FlowTrace,
    KempfNessProblem,
    TraceSample,
    _descend,
    _SubgradientSteps,
    best_ray_on_line,
    dual_value,
)
from .spectral import EighResult, _block_spectra, _split, block_groups, builtin_objective, eigh


@dataclass
class MatrixPencil:
    """A linear matrix pencil A(x) = sum_k A_k x_k of square matrices.

    The pencil is a snapshot taken at construction: `matrices` is a tuple of
    read-only copies of the inputs and `tensor()` one read-only tensor built
    from them then, so later writes to the inputs leave the pencil as it was
    and the matrices and the tensor cannot disagree."""

    matrices: tuple

    def __post_init__(self):
        mats = [np.array(M, dtype=complex) for M in self.matrices]
        if not mats:
            raise ValidationError("pencil needs at least one matrix")
        for M in mats:
            if M.ndim != 2:
                raise ValidationError(f"pencil matrices must be 2-D, got shape {M.shape}")
        n = mats[0].shape[0]
        for M in mats:
            if M.shape != (n, n):
                raise ValidationError(
                    f"pencil matrices must all be {n}x{n}, got {M.shape}"
                )
        if n == 0:
            raise ValidationError("pencil matrices must be at least 1x1")
        if all(np.max(np.abs(M)) == 0.0 for M in mats):
            raise ValidationError("pencil must contain a nonzero matrix")
        # a C-ordered copy of the transposed stack, bitwise np.stack(mats, axis=-1)
        self._tensor = np.array(mats).transpose(1, 2, 0).copy()
        for M in (*mats, self._tensor):
            M.flags.writeable = False
        self.matrices = tuple(mats)

    @property
    def n(self):
        return self.matrices[0].shape[0]

    @property
    def m(self):
        return len(self.matrices)

    def tensor(self):
        """The n x n x m tensor with slices A_k along the last mode, built once
        at construction (read-only)."""
        return self._tensor


@dataclass
class ApplicationResult:
    primal_value: float
    dual_value: float
    gap: float
    certificate: Optional[BoundaryCertificate]
    spectra: Optional[list]
    iterations: int
    status: str
    rank: Optional[int] = None
    rank_lower: Optional[float] = None
    rank_upper: Optional[float] = None
    trace: Optional[object] = field(default=None, repr=False)


# Solver defaults per application: (max_iters, step_size, smoothing), each
# smoothed on the schedule smoothing / sqrt(i+1).
_DEFAULTS = {"qfunc": (2000, 0.5, 0.05), "gstable": (3000, 0.3, 0.1),
             "ncrank": (5000, 0.3, 0.1), "scale": (1000, 0.3, 0.1)}


def default_config(app):
    """Solver defaults per application (also used by the CLI as a base)."""
    if app not in _DEFAULTS:
        raise ParameterError(f"unknown application {app!r}")
    max_iters, step_size, smoothing = _DEFAULTS[app]
    return FlowConfig(max_iters=max_iters, step_size=step_size,
                      smoothing=smoothing, smoothing_schedule=True)


def _as_pencil(A):
    if isinstance(A, MatrixPencil):
        return A
    return MatrixPencil(list(A))


def _identity_factors(v, modes):
    return [np.eye(v.shape[i], dtype=complex) for i in modes]


# ---------------------------------------------------------------------------
# the common solve


# The scaling phase stops with `scaled_to_floor` once S - floor <= FLOOR_TOL *
# (1 + |floor|).  The tolerance only decides when to stop: the primal is S at
# an orbit point and the dual is the floor's dual_value (`_Floor`), bounds
# whatever the tolerance, and the gap reported is their actual difference.  It
# must sit above the rounding of S near uniform marginals and cost few steps.
# On gaussian_tensor((3,3,3), 0), with the entropy (theta 0.2, 0.3, 0.5) and
# op_norm_max_weighted (alpha 1), alternating sweeps alone brought the gap
# below 1e-6 (1 + |floor|) after 49 and 215 sweeps and below 1e-9 (1 + |floor|)
# after 131 and 381, and stalled near 1e-14; with the Newton steps below the
# phase passes both marks at step 5 and step 8 and stalls at 4e-16.  1e-9
# stays five orders above that noise and six below the digits the
# applications report.
FLOOR_TOL = 1e-9

# Near the floor the phase tries a Newton step on the Kempf-Ness function
# (see `_scaling_phase`), once S - floor <= NEWTON_GAP (1 + |floor|).  The
# constant only trades the cost of rejected steps against sweeps: a step is
# kept only where it lowers S, and every bound still rests on dual_value.
# Over qfunc (theta 0.2, 0.3, 0.5) and gstable (alpha 1) on gaussian_tensor
# with shapes 3x3x3 and 4x4x4 (seeds 1 to 3) and on the five 3x3x3 Gaussian
# tensors of the tensor_entropy benchmark (seeds 1 to 5), 22 solves in all,
# every one closed `scaled_to_floor` (time: median of 7 runs of all 22, one
# BLAS thread, 2-core VM):
#   NEWTON_GAP   steps  Newton  rejected  most steps  time
#   1e-1         125    95      12        8           82 ms
#   3e-2         137    83      7         8           80 ms
#   1e-2         153    75      4         10          81 ms
#   3e-3         192    67      1         14          94 ms
#   1e-3         239    53      0         23          105 ms
#   no Newton    1092   0       0         158         417 ms
# The rejected steps are the first ones tried, where the quadratic model of
# f is still poor.  From 1e-2 up the time is flat, as fewer sweeps pay for
# more rejected steps; 1e-2 is the smallest such gap, so it rejects the
# fewest.  Below it the phase sweeps longer before the quadratic rate
# starts.
NEWTON_GAP = 1e-2


def _near_floor(value, floor):
    return value - floor <= FLOOR_TOL * (1.0 + abs(floor))


def _floor_certificate(S):
    """The ray with identity bases and weights -d, d the mean over each block of
    S.subgradient at the concatenated uniform spectra 1/n_i (one call, no
    eigendecomposition): constant on each block for a symmetric S, so its
    dual_value is S(uniform) on every builtin (the zero ray, dual inf S = 0,
    for trace_dist_to_uniform).  The bound rests on dual_value alone, not on
    this derivation."""
    dims = S.block_dims
    d = S.subgradient(np.repeat(1.0 / np.array(dims), dims))
    # m.sum() / n is np.mean's arithmetic, without its dispatch
    return BoundaryCertificate(np.zeros(0), [np.eye(n, dtype=complex) for n in dims],
                               [np.full(n, -(m.sum() / n)) for n, m in zip(dims, _split(d, dims))])


class _Floor:
    """The dual side of `scale`'s bracket: the best ray `cert` so far, from
    the floor certificate on, and its dual_value `value`.  `offer` is the
    floor's one rating site: it rates a ray (None is none) and keeps it when
    at least as good as `cert`, so a later source wins a tie.

    `ray` is a caller's function of no arguments that returns a boundary ray
    of v (or None); `consult` calls it once and offers the ray.  The scaling
    phase consults at its first step k >= 1 that neither certifies nor
    closes, or at its stop when that comes first, and tests its best S
    against the floor at once.  It waits for step 1 because full-rank
    pencils certify by then, so they never build the ray."""

    def __init__(self, problem, S, ray=None):
        self.problem, self.S, self.ray = problem, S, ray
        self.cert, self.value = None, -math.inf
        self.offer(_floor_certificate(S))

    def offer(self, cert):
        if cert is not None:
            value = dual_value(self.problem, self.S, cert)
            if value >= self.value:
                self.cert, self.value = cert, value

    def consult(self):
        ray, self.ray = self.ray, None
        self.offer(None if ray is None else ray())


def _scaling_phase(problem, S, floor, max_steps, stop_below=None):
    """Alternating scaling of problem.v from the identity, g_i <- (n_i mu_i)^-1/2
    g_i mode by mode, finished by Newton steps on the Kempf-Ness function, for
    at most `max_steps` steps; each sweep makes every marginal uniform in turn.
    `floor` is a `_Floor` on the same problem and S.

    Once S - floor <= NEWTON_GAP (1 + |floor|), and only when stop_below is
    unset, each step first tries g_i <- e^X_i g_i with X the Newton step of
    f(X) = log ||(e^X_1 x ... x e^X_d).w||^2 at w = g.v (traceless Hermitian
    X_i; `tensors.kempf_ness_newton`), which converges quadratically to
    uniform marginals where the orbit reaches them.  The step is kept when S
    at the new orbit point is lower; otherwise the sweep is taken from the
    same point, so a rejected step leaves the run as it was.  `ncrank` sets
    stop_below and never takes one: its FULL_RANK_EPS margin was measured on
    sweeps alone.

    Each step reads S alone at g.v, from the marginals stacked by block size
    (`tensors.marginals`), one checked eigendecomposition per stack
    (`spectral._block_spectra`) and S.eval, with no subgradient; the sweep's
    mode 0 reuses the decomposition of mu_0.

    Returns a FlowTrace with one sample per step and no certificate (step 0
    is the start; t counts sweeps and Newton steps; f = log ||g.v||^2 is the
    Kempf-Ness value at x = g^+ g, which exact scaling keeps at 0; the step
    is 1 for a sweep, as x <- g^+ exp(-log(n_i mu_i)) g is the group step of
    length 1 along log(n_i mu_i), and the Frobenius norm
    (sum_i ||X_i||^2)^1/2 of X for a Newton step; R is 0), stopped with
    status

    - `certified` once S < stop_below (tested first),
    - `scaled_to_floor` once S - floor <= FLOOR_TOL (1 + |floor|),
    - `stalled` at the first step that does not lower S (also when S is not
      finite at the start),
    - `singular` when some marginal is numerically singular, and
    - `max_iters` after `max_steps` steps.

    The last three leave the infimum to the subgradient method.  The floor
    is consulted as `_Floor` says.

    S is read at g.v acted out from v at every step, an orbit point of the
    stored g up to the rounding of one action (step 0 reads v itself); the
    tensor is updated in place only within a sweep.  (Carried across sweeps,
    the rounding of early steps is amplified by later ones into a tensor off
    the orbit: on planted pencils S then fell below 2/n - FULL_RANK_EPS.)
    On escaping orbits the first-non-improving stop leaves before cond(g)
    reaches rounding noise (measured at FULL_RANK_EPS)."""
    stop = -math.inf if stop_below is None else stop_below
    v, modes = problem.v, problem.modes
    g = _identity_factors(v, modes)
    trace, best, step = FlowTrace(), math.inf, 1.0

    groups = block_groups(S.block_dims)

    def read(w):
        # S, the spectra per block, and mode 0's eigendecomposition: the first
        # block of the first group
        spectra, values, bases = _block_spectra(S, tensors.marginals(w, modes))
        return (float(S.eval(spectra)), groups.unstack(values),
                EighResult(values[0][0], bases[0][0]))

    w = v
    value, spectra, r0 = read(w)
    for k in itertools.count():
        trace.samples.append(TraceSample(float(k), value,
                                         2.0 * math.log(tensors.norm(w)), 0.0, step))
        if not value < best:
            trace.status = "stalled"
            break
        best, trace.best_spectra = value, spectra
        if k >= 1 and not (value < stop or _near_floor(value, floor.value)):
            floor.consult()
        trace.status = ("certified" if value < stop else
                        "scaled_to_floor" if _near_floor(value, floor.value) else
                        "max_iters" if k == max_steps else None)
        if trace.status is not None:
            break
        if stop_below is None and value - floor.value <= NEWTON_GAP * (1.0 + abs(floor.value)):
            X = tensors.kempf_ness_newton(w, modes)
            trial = [expm_herm(Xi) @ gi for Xi, gi in zip(X, g)]
            w_trial = tensors.act(trial, v, modes)
            value_trial, spectra_trial, r0_trial = read(w_trial)
            if value_trial < value:
                g, w, value, spectra, r0 = trial, w_trial, value_trial, spectra_trial, r0_trial
                step = math.sqrt(sum(np.vdot(Xi, Xi).real for Xi in X))
                continue
        for j, ax in enumerate(modes):
            # mode 0 reuses the read's eigendecomposition of mu_0
            r = r0 if j == 0 else eigh(tensors.moment_map(w, (ax,))[0])
            n = r.values.size
            # mu = A A^+ / ||A||^2 is known to about eps lambda_max, so a
            # smaller eigenvalue carries no digit and its inverse root is noise
            if not r.values[-1] > n * np.finfo(float).eps * r.values[0]:
                trace.status = "singular"
                break
            h = (r.basis * (n * r.values) ** -0.5) @ r.basis.conj().T
            g[j] = h @ g[j]
            # the last mode's action would be overwritten by the act-out below
            if j + 1 < len(modes):
                w = tensors.act([h], w, [ax])
        if trace.status == "singular":
            break
        w = tensors.act(g, v, modes)
        value, spectra, r0 = read(w)
        step = 1.0
    if floor.ray is not None and trace.status not in ("certified", "scaled_to_floor"):
        floor.consult()
        if _near_floor(best, floor.value):
            trace.status = "scaled_to_floor"
    return trace


def scale(v, S, config=None, modes=None, stop_below=None, ray=None):
    """Minimize S of the moment map over the scaling orbit of v, with a bracket.

    Every builtin S is symmetric and convex, so its least value on the
    product of simplices is S(uniform).  The floor starts at the dual_value
    of the floor certificate (identity bases, weights minus the subgradient
    of S there): a lower bound on inf S by weak duality, equal to S(uniform)
    on the builtins.  When the uniform point lies in the moment polytope of
    the orbit closure, alternating scaling drives S to it at a linear rate
    (Gurvits 2004; Burgisser, Garg, Oliveira, Walter and Wigderson 2018), and
    Newton steps on the Kempf-Ness function finish the approach at a
    quadratic one (Allen-Zhu, Garg, Li, Oliveira and Wigderson 2018;
    `_scaling_phase`, at most config.max_iters sweeps and Newton steps); the
    run then stops with status `scaled_to_floor`, primal_value the value
    reached and dual_value the floor.  With stop_below set, it stops first
    with status `certified` as soon as S is below it, and the phase takes
    sweeps only; a caller sets it where that alone decides its answer.

    A caller that knows a boundary ray of v passes `ray` (see `_Floor`); the
    phase then stops with status `scaled_to_floor` at the first step whose S
    lies within the same tolerance of the floor it leaves.

    Otherwise (a sweep that does not lower S, a singular marginal, or the
    sweep budget spent) the subgradient method runs from the identity, as if
    the phase had not run, and offers the floor the best ray on the line of
    its certificate (`best_ray_on_line`); primal_value is the best value of
    S along that run, and the stop_below test applies there too.  Both
    stages read the one unit tensor of `KempfNessProblem(v, modes)`.

    The certificate and dual_value are the floor's, so `certify` on the
    certificate returns dual_value, and the status drops the run's
    `+interior_optimum` suffix.  The trace is that of the stage that ran,
    as it left it.
    """
    config = (default_config("scale") if config is None else config).validate()
    problem = KempfNessProblem(v, modes)
    floor = _Floor(problem, S, ray)
    trace = _scaling_phase(problem, S, floor, config.max_iters, stop_below)
    if trace.status not in ("certified", "scaled_to_floor"):
        trace = _descend(problem, _identity_factors(problem.v, problem.modes), S, config,
                         _SubgradientSteps(config), stop_below)
        floor.offer(best_ray_on_line(problem, S, trace.certificate))
    return ApplicationResult(
        primal_value=trace.best_q,
        dual_value=floor.value,
        gap=trace.best_q - floor.value,
        certificate=floor.cert,
        spectra=trace.best_spectra,
        iterations=trace.iterations,
        status=trace.status.removesuffix("+interior_optimum"),
        trace=trace,
    )


# ---------------------------------------------------------------------------
# quantum functional


def quantum_functional(v, theta, config=None):
    """Weighted entropy maximum over the scaling orbit, with a dual bound.

    `scale` minimizes the negated weighted entropy; the result negates its
    bracket.  primal_value is the best sum of theta-weighted von Neumann
    entropies of the moment map found along the run (a lower bound).
    dual_value is an upper bound: sum theta_i log2 n_i, the entropy of the
    uniform spectra, when the scaling phase reaches it (status
    `scaled_to_floor`; the Gaussian tensors' case); otherwise the
    variational expression Phi^inf(X) + sum theta_i log2 tr 2^(-X_i/theta_i)
    at the best ray X on the line of the subgradient run's certificate, when
    that is below sum theta_i log2 n_i.  Both bracket the entropy functional,
    and `certify` on the result's certificate returns minus dual_value.
    """
    v = tensors.as_tensor(v)
    S = builtin_objective("neg_entropy_weighted", v.shape, theta=theta)
    res = scale(v, S, config or default_config("qfunc"))
    return replace(res, primal_value=-res.primal_value, dual_value=-res.dual_value)


# ---------------------------------------------------------------------------
# G-stable rank


def g_stable_rank(v, alpha, config=None):
    """Bracket of the alpha-weighted stable rank under the scaling action.

    `scale` brackets the smallest max_i ||mu_i||_op / alpha_i over the orbit;
    rank_lower and rank_upper are the reciprocals of its primal and dual
    values; the dual is at least the floor max_i 1 / (n_i alpha_i) > 0.  When
    the scaling phase reaches uniform marginals (status `scaled_to_floor`),
    the bracket closes: [3 - 8.0e-9, 3] on gaussian_tensor((3, 3, 3), 0) with
    alpha = 1, after 5 sweeps and 3 Newton steps.  Otherwise the run's
    certificate may give a larger dual.
    """
    v = tensors.as_tensor(v)
    S = builtin_objective("op_norm_max_weighted", v.shape, alpha=alpha)
    res = scale(v, S, config or default_config("gstable"))
    return replace(res, rank_lower=1.0 / res.primal_value,
                   rank_upper=1.0 / res.dual_value)


# ---------------------------------------------------------------------------
# noncommutative rank


# Singular values of the stacked slices below KERNEL_TOL times the largest
# count as zero in check_common_kernel.
KERNEL_TOL = 1e-10


def check_common_kernel(A):
    """Dimensions of the common right and left kernels of the pencil slices."""
    A = _as_pencil(A)
    stacked = np.vstack(A.matrices)
    stacked_h = np.vstack([M.conj().T for M in A.matrices])
    out = {}
    for name, S in (("right_kernel_dim", stacked), ("left_kernel_dim", stacked_h)):
        s = np.linalg.svd(S, compute_uv=False)
        rank = int(np.sum(s > KERNEL_TOL * s[0])) if s.size and s[0] > 0 else 0
        out[name] = A.n - rank
    out["ok"] = out["right_kernel_dim"] == 0 or out["left_kernel_dim"] == 0
    return out


# Margin of the full-rank test best_q < 2/n - FULL_RANK_EPS.  Exactly, a
# rank-deficient pencil has S >= 2/n at every point of its orbit, and
# inf S = 2/n when its rank is n - 1; its runs approach 2/n, and in floating
# point they reach it from below: 0.6666666666666661 < 2/3 on a planted 3x3
# pencil of rank 2.  The computed S is off from the exact S of the iterate by
# the rounding of the tensor action, the moment map and the eigh of n x n
# marginals of trace 1: a few n^2 eps for well-conditioned factors.  On 32
# planted pencils of rank n - 1 (n = 3 to 6, default config, cond(g) up to
# 2e6) best_q fell at most 8e-16 below 2/n.  1e-9 stays six orders above
# that, and far below the margin by which best_q undercuts 2/n on full-rank
# pencils when the stop fires (at least 0.04 on the 50 seeded random
# pencils of acceptance criterion 7), so it does not delay the stop there.
# The scaling phase of `scale` tests the same threshold first.  On the 18
# planted pencils planted_pencil(default_rng(10n + r), n, r, s, 3) with n = 3
# to 6, r = 1 to n and s = n + 1 - r (rank n - 1; r = 1 and r = n leave a
# marginal singular at the start), it left at its first non-improving sweep
# with cond(g) at most 1.3e6 and S at least 2/n + 4e-15.  Updating the tensor
# in place across sweeps instead of acting out g.v, two of them went on
# improving to cond(g) 2e11 and S = 2/n - 1.1e-9, a false proof: the phase
# must stay in the conditioning this margin was measured on.  RANK_EPS below
# is derived from it.
FULL_RANK_EPS = 1e-9

# ncrank reports the one integer k with rank_lower - RANK_EPS <= k <=
# rank_upper + RANK_EPS, and no rank when there is none or more than one.
# rank_lower and rank_upper bound the nc-rank up to the rounding of S and of
# the dual, so RANK_EPS must exceed that rounding: on 225 planted pencils
# (n = 2 to 6, every zero block, m = 2 and 3, three seeds each) rank_upper
# lay within 4.4e-16 of the nc-rank and rank_lower at most 2.7e-15 above it.
# It must also leave one integer in a closed bracket:
# - the full-rank stop leaves rank_lower above n - 1 + (n/2) FULL_RANK_EPS,
#   at least RANK_EPS above n - 1 for every n >= 1, and rank_upper at n (the
#   dual is at least the floor, 0);
# - the Wong-pair close leaves rank_upper at r up to rounding and rank_lower
#   at most (n/2) FLOOR_TOL (1 + |floor|) below it (3.6e-9 on the 81 of those
#   pencils that close so, as the phase stops at its first sweep within
#   FLOOR_TOL of the pair's dual).
# Half of FULL_RANK_EPS meets both, five orders above the rounding.
RANK_EPS = FULL_RANK_EPS / 2


# wong_ray counts the singular values of M above RANK_MARGIN * n * eps *
# sigma_1(M) as its rank.  By Weyl's inequality a perturbation E moves each
# singular value by at most ||E||, and the rounding of M and of the slices is
# a few n eps sigma_1.  On 1,848 planted pencils (n = 2 to 7, every r x s zero
# block with r + s > n, m = 2 to 4, eight seeds each) the zero singular values
# of M sat at most 0.55 n eps sigma_1 and the nonzero ones at least 1.2e12
# n eps sigma_1; on the 50 seeded random pencils of acceptance criterion 7 the
# smallest sat at 2.2e13.  100 stays two orders above the noise.  Below the
# margin the zero block is trusted: a block perturbed by less than about
# RANK_MARGIN n eps of its peak still reads as zero, and dual_value rates the
# ray with tensors.recession, which drops entries below SUPPORT_TOL (1e-8)
# of the peak.  That gap is not closed here; only an exact computation on
# rational pencils closes it.
RANK_MARGIN = 100.0


def wong_ray(A):
    """A boundary ray from a shrunk subspace pair of the pencil, or None.

    M = sum_k c_k A_k, with c drawn from a fixed seed, has rank r at most
    the nc-rank (counted with RANK_MARGIN).  When r < n, the second Wong
    sequence W_0 = 0, W_{i+1} = span_k A_k M^-1(W_i) rises to a fixed point
    W* (Ivanyos, Karpinski, Qiao and Santha, STACS 2014).  If W* lies in
    im M, X = M^-1(W*) and Y = (W*)^perp satisfy Y^+ A_k X = 0 with
    dim X + dim Y = 2n - r, so the nc-rank is r.  The ray has bases that
    complete Y and conj(X) to unitaries, leading columns first, and weights
    +1 on the leading columns and -1 on the rest, so `fortin_reutenauer_pair`
    reads the pair off it; for trace_dist_to_uniform its dual_value is
    2(n - r)/n.  None when r = n or when W* leaves im M (the skew pencil:
    commutative rank 2, nc-rank 3).  Nothing here is trusted: a bound from
    the ray rests on dual_value alone.
    """
    A = _as_pencil(A)
    n = A.n
    rng = np.random.default_rng(0)
    c = rng.standard_normal(A.m) + 1j * rng.standard_normal(A.m)
    M = sum(ck * Ak for ck, Ak in zip(c, A.matrices))
    tol = RANK_MARGIN * n * np.finfo(float).eps
    s = np.linalg.svd(M, compute_uv=False)
    r = int(np.sum(s > tol * s[0]))
    if r == n:
        return None
    span_tol = tol * np.linalg.norm(np.hstack(A.matrices), 2)
    dw = 0
    W = np.zeros((n, 0), dtype=complex)
    while True:
        # M^-1(W) = {x : M x in W} is the kernel of (I - W W^+) M
        sx, vh = np.linalg.svd(M - W @ (W.conj().T @ M))[1:]
        dx = n - int(np.sum(sx > tol * s[0]))
        u, sw = np.linalg.svd(np.hstack([Ak @ vh[n - dx:].conj().T
                                         for Ak in A.matrices]))[:2]
        # the W_i increase, so the first step that adds no dimension ends it
        grown = int(np.sum(sw > span_tol))
        if grown <= dw:
            break
        dw, W = grown, u[:, :grown]
    if dx + n - dw != 2 * n - r:
        return None
    lead = [np.arange(n) < n - dw, np.arange(n) < dx]
    return BoundaryCertificate(np.zeros(0),
                               [np.roll(u, -dw, axis=1), np.roll(vh.T, dx, axis=1)],
                               [np.where(x, 1.0, -1.0) for x in lead])


def ncrank(A, config=None):
    """Noncommutative rank of a pencil via left-right tensor scaling.

    `scale` brackets the summed trace distance S of the first two moment-map
    marginals to the uniform density; n - (n/2) S converts its primal and
    dual values into rank_lower and rank_upper.  By duality the nc-rank lies
    in that bracket, and `rank` is the one integer in it, widened by RANK_EPS
    on each side for rounding; None when it holds no integer or several.

    Any orbit point with S < 2/n proves full rank (the 1/n test of Garg,
    Gurvits, Oliveira and Wigderson): rank_lower > n - 1.  So the run stops
    with status `certified` and rank n once its best value is below
    2/n - FULL_RANK_EPS (the margin is argued at FULL_RANK_EPS); on full-rank
    pencils `scale`'s alternating scaling gets there within a sweep, and
    rank_upper is then n (the floor certificate is the zero ray, dual 0).

    `ncrank` hands `scale` a ray, consulted as `_Floor` says, so a pencil
    that certifies by its first sweep never builds it.  That ray first
    refuses a pencil with both a common left and a common right kernel
    (`check_common_kernel`), which has S >= 2/n on its whole orbit, and then
    returns `wong_ray`.  Its dual 2(n - r)/n, r the rank of a random
    combination of the slices, is inf S when r is the nc-rank; the phase
    stops with status `scaled_to_floor` and rank_upper r at its first sweep
    whose S lies within FLOOR_TOL of it.  On the planted pencils with both
    marginals regular at the start (n = 3 to 6, every zero block, m = 2 and
    3), that was sweep 1 to 26.  Otherwise the subgradient run goes on to
    its stall or max_iters stop, with the ray's dual in its bracket; a short
    run may leave several integers in it, and then no rank.
    """
    A = _as_pencil(A)
    n = A.n

    def ray():
        kern = check_common_kernel(A)
        if not kern["ok"]:
            raise DomainError(
                "pencil has a common left kernel (dim {left}) and a common right "
                "kernel (dim {right}); reduce it to smaller matrices first".format(
                    left=kern["left_kernel_dim"], right=kern["right_kernel_dim"]
                )
            )
        return wong_ray(A)

    S = builtin_objective("trace_dist_to_uniform", (n, n))
    res = scale(A.tensor(), S, config or default_config("ncrank"), modes=(0, 1),
                stop_below=2.0 / n - FULL_RANK_EPS, ray=ray)
    lower = n - 0.5 * n * res.primal_value
    upper = n - 0.5 * n * res.dual_value
    k = math.ceil(lower - RANK_EPS)
    return replace(res, rank=k if k <= upper + RANK_EPS < k + 1 else None,
                   rank_lower=lower, rank_upper=upper)


def ncrank_blowup_oracle(A):
    """Independent rank oracle: substitute random n x n matrices (seeds 0, 1,
    2) for the variables and divide the rank of the blown-up matrix by n.
    The max over the seeds is generically exact for desk-scale pencils."""
    A = _as_pencil(A)
    n = A.n
    best = 0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        M = np.zeros((n * n, n * n), dtype=complex)
        for Ak in A.matrices:
            T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            M += np.kron(Ak, T)
        r = int(np.linalg.matrix_rank(M))
        best = max(best, int(round(r / n)))
    return best


# ---------------------------------------------------------------------------
# certificates


def certify(instance, S, xi, modes=None):
    """Dual value of a boundary certificate for a tensor or pencil instance.

    This is the user-facing refutation check: the returned number lower-bounds
    the minimum of S over the whole scaling orbit, whatever run produced xi.
    """
    if isinstance(instance, MatrixPencil):
        v = instance.tensor()
        if modes is None:
            modes = (0, 1)
    else:
        v = tensors.as_tensor(instance)
        if modes is None:
            modes = tuple(range(v.ndim))
    problem = KempfNessProblem(v, modes)
    return dual_value(problem, S, xi)


# fortin_reutenauer_pair cuts a certificate's flags at weight gaps above
# FR_GAP_TOL and takes a block of the rotated tensor as zero when its entries
# are at most FR_ZERO_TOL times the largest.
FR_GAP_TOL = 1e-4
FR_ZERO_TOL = 1e-6


def fortin_reutenauer_pair(A, cert):
    """Candidate subspace pair (Y, X) with Y^+ A_k X = 0 from a certificate.

    Truncates the certificate flags at weight gaps exceeding FR_GAP_TOL and
    scans prefix/suffix blocks of the rotated tensor for one whose entries are
    at most FR_ZERO_TOL times its peak, maximizing dim Y + dim X.  Returns
    None when there is no such block; otherwise the pair with its residual
    max_k ||Y^+ A_k X||_max (`verify_subspace_pair`), to which no threshold
    is applied.  Raises what dual_value raises on a bad certificate.
    """
    A = _as_pencil(A)
    v = A.tensor()
    (k1, k2), (w1, w2), w = tensors._certificate_weights(v, cert, (0, 1))
    peak = float(np.max(np.abs(w)))
    n = A.n

    def cuts(weights):
        out = [0, n]
        for i in range(1, n):
            if weights[i - 1] - weights[i] > FR_GAP_TOL:
                out.append(i)
        return sorted(set(out))

    best = None
    for a in cuts(w1):
        for rows in (np.arange(a), np.arange(a, n)):
            if rows.size == 0:
                continue
            for b in cuts(w2):
                for cols in (np.arange(b), np.arange(b, n)):
                    if cols.size == 0:
                        continue
                    block = w[np.ix_(rows, cols)]
                    if float(np.max(np.abs(block))) <= FR_ZERO_TOL * peak:
                        dim = rows.size + cols.size
                        if best is None or dim > best["dim_sum"]:
                            best = {
                                "dim_sum": dim,
                                "Y_basis": k1[:, rows],
                                "X_basis": k2[:, cols].conj(),
                            }
    if best is not None:
        best["residual"] = verify_subspace_pair(A, best["Y_basis"], best["X_basis"])
    return best


def verify_subspace_pair(A, Y, X):
    """max_k || Y^+ A_k X ||_max — zero iff the pair annihilates the pencil."""
    A = _as_pencil(A)
    return max(float(np.max(np.abs(Y.conj().T @ M @ X))) for M in A.matrices)
