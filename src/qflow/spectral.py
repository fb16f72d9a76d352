"""Convex analysis of symmetric vector functions and their unitarily invariant
lifts to tuples of Hermitian matrices.

A symmetric convex function f on R^n lifts to a unitarily invariant convex
function F on Hermitian matrices via F(k diag(lam) k^+) = f(lam).  Evaluation,
conjugation, subgradients and Moreau smoothing of F all reduce to the vector
level through the eigenvalues, which is what this module implements for tuples
of blocks (one block per tensor mode).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ParameterError, UnsupportedObjectiveError, ValidationError

LN2 = math.log(2.0)

# Spread below which eigenvalues are treated as a tie group when selecting
# subgradients (keeps the lifted subgradient basis-stable).
TIE_TOL = 1e-9

# Relative slack of the domain test of a norm's conjugate, dual(x) <= 1 (and
# of the trace-ball indicator).  Rays rescaled onto the dual unit sphere, such
# as the ends 1/gauge(w) of the certificate line search, land a few ulps off it
# in floating point; the slack keeps them in, at the price of a dual bound up
# to this fraction above the one of the ray scaled back onto the ball.
DOMAIN_SLACK = 1e-9

# Relative step below which the entropy prox's Newton solves stop: a few ulps,
# about the rounding noise of a step near the root.  Both solves only accept
# steps toward the root, which bounds their iterations.
NEWTON_TOL = 4 * np.finfo(float).eps

# Floor of the exponents of a log-sum-exp shifted by its largest term: a sum
# that holds the term e^0 = 1 cannot feel terms below e^-700 (its ulp is
# about e^-36), and e^-700 is still a normal number, so exp never underflows.
LSE_FLOOR = -700.0


def _square(H, name):
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {H.shape}")
    return H


def check_hermitian(H, name="matrix"):
    """Raise ValidationError unless H is Hermitian within roundoff."""
    H = _square(H, name)
    _check_hermitian_stack(H[None], name)
    return H


def _check_hermitian_stack(H, name="matrix"):
    """Raise ValidationError unless every matrix of the (k, n, n) stack H is
    Hermitian within roundoff of its own entries, naming the first that is
    not.  Every tolerance is at least 1e-12, so one reduction passes a stack
    whose largest deviation is below that."""
    if not H.size:
        return
    dev = np.abs(H - H.conj().swapaxes(1, 2))
    if np.maximum.reduce(dev, axis=None) <= 1e-12:
        return
    worst = dev.max(axis=(1, 2))
    bad = np.flatnonzero(worst > 1e-12 * (1.0 + np.abs(H).max(axis=(1, 2))))
    if bad.size:
        b = bad[0]
        i, j = np.unravel_index(int(np.argmax(dev[b])), dev[b].shape)
        raise ValidationError(
            f"{name} is not Hermitian: |H[{i},{j}] - conj(H[{j},{i}])| = {worst[b]:.3e}"
        )


@dataclass(frozen=True)
class EighResult:
    """Eigenvalues sorted nonincreasing with an aligned unitary basis."""

    values: np.ndarray
    basis: np.ndarray


def _eigh_stack(H, name="matrix"):
    """One np.linalg.eigh of the (k, n, n) stack H, after one Hermitian check:
    the (k, n) eigenvalues, nonincreasing along each row, and the (k, n, n)
    aligned bases, a reversed view of numpy's."""
    _check_hermitian_stack(H, name)
    w, U = np.linalg.eigh(H)
    return w[:, ::-1].copy(), U[..., ::-1]


def eigh(H, name="matrix"):
    """Hermitian eigendecomposition with nonincreasing eigenvalues.

    The input is checked to be Hermitian.  Deterministic for a fixed input
    because numpy's eigh is; the phase of each eigenvector column is whatever
    numpy returns, with no canonicalization, since every consumer of a basis
    (lifts, recessions, duals, subspace pairs) is invariant under a phase on
    each column.
    """
    values, basis = _eigh_stack(_square(H, name)[None], name)
    return EighResult(values=values[0], basis=basis[0])


def tie_groups(lam):
    """Partition indices of a nonincreasing vector into near-equal groups."""
    lam = np.asarray(lam, dtype=float)
    n = lam.size
    scale = TIE_TOL * (1.0 + (np.max(np.abs(lam)) if n else 0.0))
    groups = []
    start = 0
    for i in range(1, n):
        if lam[start] - lam[i] > scale:
            groups.append(slice(start, i))
            start = i
    if n:
        groups.append(slice(start, n))
    return groups


@dataclass(kw_only=True)
class SpectralObjective:
    """A K-invariant convex objective on tuples of Hermitian blocks, as the
    symmetric convex function f of their concatenated spectra that it lifts.

    The callables act on the concatenation of per-block vectors (lengths
    `block_dims`).  `prox` solves min_q f(q) + ||p-q||^2/(2*lam); it may be
    None for objectives without a usable proximal map.  `smooth` marks an f
    whose subgradient is its gradient.  `half_square_conjugate`, when set, is
    (f^2/2)*.  `conjugate_gauge`, when set, is a gauge whose unit ball is the
    domain of the conjugate (norm-type objectives: finite only there).
    """

    eval: Callable[[np.ndarray], float]
    conjugate_eval: Callable[[np.ndarray], float]
    subgradient: Callable[[np.ndarray], np.ndarray]
    prox: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    smooth: bool = False
    half_square_conjugate: Optional[Callable[[np.ndarray], float]] = None
    conjugate_gauge: Optional[Callable[[np.ndarray], float]] = None
    block_dims: tuple
    label: str = ""


def _check_length(p, dims):
    p = np.asarray(p, dtype=float)
    if p.size != sum(dims):
        raise ValidationError(f"vector length {p.size} != sum of block dims {dims}")
    return p


def _split(p, dims):
    p = _check_length(p, dims)
    return [p[end - n:end] for n, end in zip(dims, itertools.accumulate(dims))]


@dataclass(frozen=True)
class BlockGroups:
    """The blocks of a tuple grouped by size (`block_groups`).

    Group j holds the blocks `members[j]`, in order, each sizes[j] x
    sizes[j]; the groups come in the order of their first blocks.  The
    solver loop keeps a tuple of matrices as one (k, n, n) stack per group
    and a tuple of vectors as one (k, n) array per group, so that one numpy
    call serves a group where one served a block.  `gather` lists the
    coordinates of a vector in block order that the concatenated groups
    hold, and `scatter` inverts it; both are None when the two orders agree.
    """

    dims: tuple
    sizes: tuple
    members: tuple
    gather: Optional[np.ndarray]
    scatter: Optional[np.ndarray]

    @functools.cached_property
    def shapes(self):
        """The (k, n, n) shape of each group's stack."""
        return [(len(mem), n, n) for n, mem in zip(self.sizes, self.members)]

    def stack(self, blocks):
        """One matrix per block, in block order, as the groups' stacks."""
        if len(blocks) != len(self.dims):
            raise ValidationError(f"expected {len(self.dims)} blocks, got {len(blocks)}")
        for d, B in zip(self.dims, blocks):
            if np.shape(B) != (d, d):
                raise ValidationError(f"block shape {np.shape(B)} incompatible with dim {d}")
        return [np.stack([blocks[i] for i in mem]) for mem in self.members]

    def unstack(self, parts):
        """Per-group arrays, indexed by member first, as a list in block order."""
        out = [None] * len(self.dims)
        for part, mem in zip(parts, self.members):
            for t, i in enumerate(mem):
                out[i] = part[t]
        return out

    def join(self, parts):
        """Per-group (k, n) vectors as one vector in block order."""
        if not parts:
            return np.zeros(0)
        p = np.concatenate(parts, axis=None)
        return p if self.scatter is None else p[self.scatter]

    def split(self, p):
        """A vector in block order as per-group (k, n) arrays."""
        if self.gather is not None:
            p = p[self.gather]
        out, start = [], 0
        for n, mem in zip(self.sizes, self.members):
            stop = start + n * len(mem)
            out.append(p[start:stop].reshape(len(mem), n))
            start = stop
        return out


@functools.cache
def block_groups(dims):
    """The BlockGroups of a tuple of block dims, built once per tuple."""
    dims = tuple(int(n) for n in dims)
    members = {}
    for i, n in enumerate(dims):
        members.setdefault(n, []).append(i)
    ends = list(itertools.accumulate(dims))
    gather = np.array([j for mem in members.values() for i in mem
                       for j in range(ends[i] - dims[i], ends[i])], dtype=int)
    scatter = np.argsort(gather)
    if np.array_equal(gather, np.arange(gather.size)):
        gather = scatter = None
    return BlockGroups(dims, tuple(members), tuple(tuple(m) for m in members.values()),
                       gather, scatter)


def _block_spectra(S, Y):
    """One checked eigendecomposition per group of the stacks Y of
    `block_groups(S.block_dims)`: the spectra, concatenated in block order,
    and the per-group (k, n) eigenvalues, nonincreasing, and (k, n, n) bases."""
    groups = block_groups(S.block_dims)
    if [np.shape(H) for H in Y] != groups.shapes:
        raise ValidationError(f"block stacks of shapes {[np.shape(H) for H in Y]} "
                              f"do not match the block dims {S.block_dims}")
    values, bases = [], []
    for H in Y:
        w, U = _eigh_stack(H)
        values.append(w)
        bases.append(U)
    return groups.join(values), values, bases


def lift_eval(S, Y):
    """Value of the lifted objective at Hermitian blocks Y."""
    spectra, _, _ = _block_spectra(S, block_groups(S.block_dims).stack(Y))
    return float(S.eval(spectra))


def conjugate_eval(S, X):
    """Value of the Fenchel conjugate of the lifted objective at blocks X."""
    spectra, _, _ = _block_spectra(S, block_groups(S.block_dims).stack(X))
    return float(S.conjugate_eval(spectra))


def infimum(S):
    """inf S = -S*(0): the dual value of the zero ray, and minus the smallest
    shift that makes S nonnegative."""
    return 0.0 - float(S.conjugate_eval(np.zeros(sum(S.block_dims))))


@dataclass
class SpectralPass:
    """Everything one eigendecomposition of each block gives, stacked by
    block size as `groups` says.

    `value` is the objective at the blocks and `smoothed` its Moreau envelope
    (equal to `value` without smoothing).  Per group, `values` holds the
    (k, n) eigenvalues, nonincreasing, and `bases` the (k, n, n) eigenbases.
    `direction` holds, per group and in those eigenbases, the vector
    subgradient (or envelope gradient) averaged over each eigenvalue tie
    group, so its lift does not depend on the arbitrary basis inside a
    degenerate eigenspace.
    """

    value: float
    smoothed: float
    groups: BlockGroups
    values: list
    bases: list
    direction: list

    @property
    def spectra(self):
        """The eigenvalues per block, in block order."""
        return self.groups.unstack(self.values)

    def lift(self, parts):
        """Hermitian stacks U diag(m) U^+ from per-group (k, n) vectors m in
        the pass's eigenbases U: one broadcast product and one batched matmul
        per group."""
        out = []
        for U, m in zip(self.bases, parts):
            G = (U * m[:, None, :]) @ U.conj().swapaxes(1, 2)
            out.append(0.5 * (G + G.conj().swapaxes(1, 2)))
        return out


def spectral_pass(S, Y, smoothing=None):
    """Value, Moreau-smoothed value and tie-averaged direction at the
    Hermitian blocks stacked in Y as `block_groups(S.block_dims)` stacks them.

    With `smoothing` = lam the direction is the gradient of the Moreau
    envelope of S with parameter lam; otherwise it is a subgradient of S.
    A block whose consecutive eigenvalue gaps all exceed TIE_TOL (1 +
    max|lam|) has only singleton tie groups; one vectorized test per group
    finds the other blocks, and only those go through `tie_groups`, the one
    rule of what a tie is.
    """
    spectra, values, bases = _block_spectra(S, Y)
    value = float(S.eval(spectra))
    if smoothing is None:
        smoothed, grad = value, S.subgradient(spectra)
    else:
        _check_smoothing(S, smoothing)
        smoothed, grad = _moreau_value_grad(S, spectra, smoothing)
    groups = block_groups(S.block_dims)
    direction = groups.split(_check_length(grad, S.block_dims))
    for j, lam in enumerate(values):
        n = lam.shape[1]
        if n == 1:
            continue
        # consecutive gaps of the flattened group, those across two blocks
        # set to inf, against the largest tolerance of its blocks: a group
        # whose gaps all exceed it holds no tie
        flat = lam.ravel()
        gaps = flat[:-1] - flat[1:]
        gaps[n - 1::n] = math.inf
        if np.minimum.reduce(gaps) > TIE_TOL * (1.0 + np.maximum.reduce(np.abs(flat))):
            continue
        scale = TIE_TOL * (1.0 + np.abs(lam).max(axis=1, keepdims=True))
        m = direction[j] = direction[j].copy()
        for b in np.flatnonzero(~(lam[:, :-1] - lam[:, 1:] > scale).all(axis=1)):
            for grp in tie_groups(lam[b]):
                if grp.stop - grp.start > 1:
                    m[b, grp] = np.mean(m[b, grp])
    return SpectralPass(value, smoothed, groups, values, bases, direction)


def value_and_subgradient(S, Y):
    """lift_eval and a subgradient as Hermitian blocks, from one spectral pass."""
    groups = block_groups(S.block_dims)
    sp = spectral_pass(S, groups.stack(Y))
    return sp.value, groups.unstack(sp.lift(sp.direction))


def _moreau_value_grad(S, p, lam):
    """Moreau envelope value and gradient of S's vector function at p.

    One prox call q = prox(p, lam) gives both: f(q) + ||p-q||^2/(2 lam) and
    (p - q)/lam.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(S.prox(p, lam), dtype=float)
    d = p - q
    return float(S.eval(q)) + float(np.add.reduce(d ** 2)) / (2 * lam), d / lam


def _check_smoothing(S, lam_smooth):
    if S.prox is None:
        raise UnsupportedObjectiveError(
            f"objective {S.label!r} has no prox oracle; Moreau smoothing unavailable"
        )
    if not lam_smooth > 0:
        raise ParameterError("smoothing parameter must be positive")


def moreau_objective(S, lam_smooth):
    """The Moreau envelope of S as a smooth SpectralObjective.

    Its conjugate is S* + (lam/2)||.||^2, its prox composes with the prox of
    S and its conjugate gauge is S's, so the envelope is again a fully
    equipped objective, with no half-square conjugate.
    """
    _check_smoothing(S, lam_smooth)
    lam = float(lam_smooth)

    def env_eval(p):
        return _moreau_value_grad(S, p, lam)[0]

    def env_grad(p):
        return _moreau_value_grad(S, p, lam)[1]

    def env_conj(x):
        x = np.asarray(x, dtype=float)
        return float(S.conjugate_eval(x)) + 0.5 * lam * float(x @ x)

    def env_prox(p, t):
        p = np.asarray(p, dtype=float)
        q = np.asarray(S.prox(p, t + lam), dtype=float)
        return p + (t / (t + lam)) * (q - p)

    return SpectralObjective(
        eval=env_eval, conjugate_eval=env_conj, subgradient=env_grad, prox=env_prox,
        smooth=True, conjugate_gauge=S.conjugate_gauge, block_dims=S.block_dims,
        label=f"moreau[{lam:g}]({S.label})")


# ---------------------------------------------------------------------------
# vector-level building blocks


def project_weighted_l1_ball(p, w, r):
    """Euclidean projection onto {x : sum_j w_j |x_j| <= r}, w > 0."""
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    a = np.abs(p)
    if float(a @ w) <= r:
        return p.copy()
    # ndarray methods: numpy's functions of the same names, without their
    # Python wrappers
    ratio = a / w
    order = ratio.argsort()[::-1]
    aw = (a * w)[order]
    w2 = (w * w)[order]
    theta_cand = (aw.cumsum() - r) / w2.cumsum()
    ok = (theta_cand < ratio[order]).nonzero()[0]
    theta = theta_cand[ok[-1]] if ok.size else theta_cand[0]
    return np.sign(p) * np.maximum(a - theta * w, 0.0)


def _log_w_exp(y, u=None):
    """ln W(e^y), W the Lambert function: the root u of e^u + u = y, by Newton
    steps down from a start on its right (by default ln y for y > 1, else y),
    so that e^u cannot overflow."""
    if u is None:
        u = np.where(y > 1.0, np.log(np.maximum(y, 1.0)), y)
    while True:
        eu = np.exp(u)
        step = np.maximum((eu + u - y) / (eu + 1.0), 0.0)
        u = u - step
        if not np.any(step > NEWTON_TOL * (1.0 + np.abs(u))):
            return u


def _entropy_prox_block(p, lam, theta):
    """Prox of q -> theta * sum q log2 q restricted to the simplex.

    With a = theta / ln 2 the optimality conditions give q_j = a lam W(e^y_j),
    y_j = (p_j - max p) / (a lam) + s, for the s at which sum q = 1.  Both
    e^u + u - y and that sum are convex and increasing, so Newton falls
    monotonically to their roots from the right: here from s = psi(1/(a lam)),
    psi(x) = x + ln x, where the largest q is 1, and each W solve from the
    last one's roots, since the y only decrease.
    """
    al = theta / LN2 * lam
    d = (p - np.max(p)) / al
    s = 1.0 / al - math.log(al)
    u = None
    while True:
        u = _log_w_exp(d + s, u)
        w = np.exp(u)
        step = (al * np.sum(w) - 1.0) / (al * np.sum(w / (1.0 + w)))
        if not step > NEWTON_TOL * (1.0 + abs(s)):
            return w / np.sum(w)
        s -= step


def _entropy_value_block(q, theta):
    qpos = q[q > 0.0]
    return theta * float(np.sum(qpos * np.log2(qpos)))


# ---------------------------------------------------------------------------
# built-in objectives


def _positive(name, values, d):
    """`values` as d positive finite weights (written so that NaN fails)."""
    w = np.asarray(values, dtype=float).reshape(-1)
    if w.size != d or not np.all((w > 0) & (w < math.inf)):
        raise ParameterError(f"{name} must be {d} positive finite values, got {w}")
    return w


def _block_norm_pair(dims, w):
    """The block-l1 norm sum_i w_i ||p_i||_1 and its dual, the block-linf norm
    max_i ||p_i||_inf / w_i, with a subgradient of the first and the
    projections onto the lam-balls of both (a clip for the block-linf ball)."""
    wc = np.repeat(w, dims)

    def l1(p):
        return float(np.abs(np.asarray(p, dtype=float)) @ wc)

    def linf(p):
        # one vector op: x -> x / w_i is monotone in floating point too, so the
        # max of |p_j| / w_j over a block is max |p_i| / w_i
        return float((np.abs(np.asarray(p, dtype=float)) / wc).max())

    def l1_sub(p):
        return wc * np.sign(np.asarray(p, dtype=float))

    def l1_ball(p, lam):
        return project_weighted_l1_ball(p, wc, lam)

    def linf_ball(p, lam):
        # np.clip's arithmetic (the bounds are nonzero, so no signed zero
        # tells the two apart), without its dispatch
        return np.minimum(np.maximum(p, -lam * wc), lam * wc)

    return l1, linf, l1_sub, l1_ball, linf_ball


def _norm_objective(label, dims, norm, dual, dual_ball, sub, shift=None, smooth=False):
    """p -> norm(p - u) from a norm, its dual, the projection dual_ball(p, lam)
    onto {dual <= lam}, a subgradient of the norm and a shift u (per-block
    vectors; None is u = 0).  The conjugate is x.u on the dual unit ball and
    +inf off it (so the conjugate gauge is the dual norm), the prox is
    u + p' - dual_ball(p', lam) with p' = p - u (Moreau decomposition), and a
    smooth norm's half-square conjugate is dual^2/2."""
    u = None if shift is None else np.concatenate(shift)
    blocks = [slice(end - n, end) for n, end in zip(dims, itertools.accumulate(dims))]

    def conj(x):
        if not dual(x) <= 1.0 + DOMAIN_SLACK:
            return math.inf
        if u is None:
            return 0.0
        # x.u block by block: one dot of the concatenations rounds otherwise,
        # which moves a dual that cancels to about 0 by an ulp of its terms
        x = np.asarray(x, dtype=float)
        return sum(float(x[b] @ c) for b, c in zip(blocks, shift))

    def prox(p, lam):
        p = np.asarray(p, dtype=float)
        if u is None:
            return p - dual_ball(p, lam)
        q = p - u
        return u + (q - dual_ball(q, lam))

    return SpectralObjective(
        eval=norm if u is None else lambda p: norm(np.asarray(p, dtype=float) - u),
        conjugate_eval=conj,
        subgradient=sub if u is None else lambda p: sub(np.asarray(p, dtype=float) - u),
        prox=prox,
        smooth=smooth,
        half_square_conjugate=(lambda x: 0.5 * dual(x) ** 2) if smooth else None,
        conjugate_gauge=dual,
        block_dims=dims, label=label,
    )


# objective kind -> the one parameter it takes; a kind not listed takes none
OBJECTIVE_PARAMS = {"op_norm_max_weighted": "alpha", "trace_norm_sum_weighted": "weights",
                    "neg_entropy_weighted": "theta", "indicator_trace_ball": "radius"}


def builtin_objective(kind, block_dims, **params):
    """One of the built-in spectral objectives, as a SpectralObjective labelled
    by its kind.

    kinds: frobenius, op_norm_max_weighted (alpha), trace_norm_sum_weighted
    (weights), neg_entropy_weighted (theta), trace_dist_to_uniform,
    indicator_trace_ball (radius).

    All but the entropy come from norms.  frobenius is self-dual; the block-l1
    norm sum_i w_i ||p_i||_1 (trace_norm_sum_weighted) and the block-linf norm
    max_i ||p_i||_inf / w_i (op_norm_max_weighted) are a dual pair.
    trace_dist_to_uniform is block-l1 with unit weights at p minus the
    uniform spectra; indicator_trace_ball is the indicator of the radius ball
    of block-l1 with unit weights, and its conjugate radius times block-linf.
    """
    # the one parameter each kind takes, if any: any other is an error
    stray = sorted(set(params) - {OBJECTIVE_PARAMS.get(kind)})
    if stray:
        raise ParameterError(f"objective {kind} takes no {', '.join(stray)}")
    dims = tuple(int(n) for n in block_dims)
    if any(n <= 0 for n in dims):
        raise ParameterError(f"block dims must be positive, got {dims}")
    d = len(dims)

    if kind == "frobenius":
        def norm(p):
            # np.linalg.norm's arithmetic on a real vector, sqrt(p . p),
            # without its dispatch
            p = np.asarray(p, dtype=float).ravel()
            return math.sqrt(p @ p)

        def ball(p, lam):
            nrm = norm(p)
            return p * (lam / nrm) if nrm > lam else p

        def sub(p):
            p = np.asarray(p, dtype=float)
            nrm = norm(p)
            return p / nrm if nrm > 0 else np.zeros_like(p)

        return _norm_objective(kind, dims, norm, norm, ball, sub, smooth=True)

    if kind == "op_norm_max_weighted":
        alpha = _positive("alpha", params.get("alpha", np.ones(d)), d)
        l1, linf, _, l1_ball, _ = _block_norm_pair(dims, alpha)

        def sub(p):
            blocks = _split(p, dims)
            vals = np.array([np.max(np.abs(b)) / a for b, a in zip(blocks, alpha)])
            m = float(np.max(vals))
            g = [np.zeros(n) for n in dims]
            if m > 0:
                tied = np.nonzero(vals >= m - 1e-10 * (1.0 + m))[0]
                share = 1.0 / tied.size
                for i in tied:
                    b = blocks[i]
                    ninf = np.max(np.abs(b))
                    at = np.abs(b) >= ninf - 1e-10 * (1.0 + ninf)
                    cnt = int(np.count_nonzero(at))
                    g[i][at] = share * np.sign(b[at]) / (alpha[i] * cnt)
            return np.concatenate(g)

        return _norm_objective(kind, dims, linf, l1, l1_ball, sub)

    if kind == "trace_norm_sum_weighted":
        weights = _positive("weights", params.get("weights", np.ones(d)), d)
        l1, linf, l1_sub, _, linf_ball = _block_norm_pair(dims, weights)
        return _norm_objective(kind, dims, l1, linf, linf_ball, l1_sub)

    if kind == "neg_entropy_weighted":
        theta = np.asarray(params.get("theta", ()), dtype=float)
        # written so that NaN and a missing theta fail
        if not (theta.size == d and np.all(theta > 0)
                and abs(np.sum(theta) - 1.0) <= 1e-12):
            raise ParameterError(
                f"theta must be a strictly positive probability vector of length {d}"
            )

        def _clamp_block(q):
            if q.min() < -1e-10:
                raise DomainError(
                    f"entropy objective: eigenvalue {float(q.min()):.3e} below domain"
                )
            return q.clip(0.0, None)

        def ev(p):
            total = 0.0
            for b, th in zip(_split(p, dims), theta):
                q = _clamp_block(b)
                if abs(q.sum() - 1.0) > 1e-6:
                    return math.inf
                total += _entropy_value_block(q, th)
            return total

        starts = np.cumsum((0,) + dims[:-1])
        block = np.repeat(np.arange(d), dims)  # the block of each coordinate
        theta_rep = theta[block]

        def conj(x):
            # one log-sum-exp per block, shifted by the block's max so that no
            # term overflows, and floored at LSE_FLOOR so that none underflows
            z = _check_length(x, dims) * LN2 / theta_rep
            m = np.maximum.reduceat(z, starts)
            terms = np.exp(np.maximum(z - m[block], LSE_FLOOR))
            lse = m + np.log(np.add.reduceat(terms, starts))
            return float(np.add.reduce(theta * lse / LN2))

        def sub(p):
            out = []
            for b, th in zip(_split(p, dims), theta):
                q = _clamp_block(b).clip(1e-300, None)
                out.append(th * np.log2(q))
            return np.concatenate(out)

        def prox(p, lam):
            return np.concatenate(
                [
                    _entropy_prox_block(b, lam, th)
                    for b, th in zip(_split(p, dims), theta)
                ]
            )

        return SpectralObjective(eval=ev, conjugate_eval=conj, subgradient=sub,
                                 prox=prox, block_dims=dims, label=kind)

    if kind == "trace_dist_to_uniform":
        l1, linf, l1_sub, _, linf_ball = _block_norm_pair(dims, np.ones(d))
        uniform = [np.full(n, 1.0 / n) for n in dims]
        return _norm_objective(kind, dims, l1, linf, linf_ball, l1_sub, shift=uniform)

    if kind == "indicator_trace_ball":
        (radius,) = _positive("radius", params.get("radius", 1.0), 1)
        l1, linf, _, l1_ball, _ = _block_norm_pair(dims, np.ones(d))
        return SpectralObjective(
            eval=lambda p: 0.0 if l1(p) <= radius * (1.0 + DOMAIN_SLACK) else math.inf,
            conjugate_eval=lambda x: radius * linf(x),
            subgradient=lambda p: np.zeros(sum(dims)),
            # the projection onto the ball; lam is irrelevant for an indicator
            prox=lambda p, lam: l1_ball(p, radius),
            block_dims=dims, label=kind,
        )

    raise ParameterError(f"unknown objective kind {kind!r}")
