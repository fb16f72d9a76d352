"""A per-block reference of the solver loop that only the tests use: the
iteration of `solver._descend` with one moment-map Gram, one checked eigh,
one tie-averaging pass and one lift per block, as the loop ran before it
kept its blocks stacked by size.  The step policies (`solver._SubgradientSteps`,
`solver._FlowSteps`) and the certificate formula (`solver._certify`) are the
library's own; they act on whatever orbit and pass they are handed.

The stacked loop must give these traces bitwise.  Both sum each block's step
in order: here through Python's `sum` of a list, which adds in order up to
Python 3.11 (the tested stack)."""

import math

import numpy as np

from qflow import solver, spectral, tensors
from qflow.errors import DomainError, UnsupportedObjectiveError


def moment_map(v, modes):
    v = tensors.as_tensor(v)
    nrm2 = float(np.vdot(v, v).real)
    out = []
    for i in modes:
        A = tensors.flattening(v, i)
        M = (A @ A.conj().T) / nrm2
        out.append(0.5 * (M + M.conj().T))
    return out


def eigh(H):
    H = spectral.check_hermitian(H)
    w, U = np.linalg.eigh(H)
    return spectral.EighResult(values=w[::-1].copy(), basis=U[:, ::-1])


class Pass:
    def __init__(self, value, smoothed, decomps, direction):
        self.value, self.smoothed = value, smoothed
        self.decomps, self.direction = decomps, direction

    @property
    def spectra(self):
        return [r.values for r in self.decomps]

    def lift(self, parts):
        out = []
        for r, m in zip(self.decomps, parts):
            G = (r.basis * m) @ r.basis.conj().T
            out.append(0.5 * (G + G.conj().T))
        return out


def spectral_pass(S, Y, smoothing=None):
    decomps = [eigh(B) for B in Y]
    spectra = np.concatenate([r.values for r in decomps])
    value = float(S.eval(spectra))
    if smoothing is None:
        smoothed, grad = value, S.subgradient(spectra)
    else:
        spectral._check_smoothing(S, smoothing)
        smoothed, grad = spectral._moreau_value_grad(S, spectra, smoothing)
    direction = []
    for r, m in zip(decomps, spectral._split(grad, S.block_dims)):
        m = m.copy()
        for grp in spectral.tie_groups(r.values):
            if grp.stop - grp.start > 1:
                m[grp] = np.mean(m[grp])
        direction.append(m)
    return Pass(value, smoothed, decomps, direction)


class Orbit:
    def __init__(self, v, modes, g, c=None):
        self.v, self.modes, self.g = v, modes, g
        self.c = [0.0] * len(g) if c is None else c

    def evaluate(self):
        w = tensors.act(self.g, self.v, self.modes)
        nrm = tensors.norm(w)
        f = 2.0 * (math.log(nrm) + sum(self.c))
        return moment_map(w / nrm, self.modes), f

    def advanced(self, sp, fac, delta):
        zs = [(-0.5 * delta * fac) * m for m in sp.direction]
        means = [sum(z.tolist()) / len(z) for z in zs]
        E = sp.lift([np.exp(z - mz) for z, mz in zip(zs, means)])
        return Orbit(self.v, self.modes, [Ej @ gj for Ej, gj in zip(E, self.g)],
                     [cj + mz for cj, mz in zip(self.c, means)])


def descend(problem, g0, Q, config, policy, stop_below=None):
    """`solver._descend` block by block."""
    config.validate()
    shift = -spectral.infimum(Q)
    if not math.isfinite(shift):
        raise UnsupportedObjectiveError(
            f"objective {Q.label!r} is unbounded below (Q*(0) = +inf)")
    hsc = Q.half_square_conjugate if config.smoothing is None else None
    g0 = [np.array(gi, dtype=complex) for gi in g0]
    orbit = Orbit(problem.v, problem.modes, g0)
    trace = solver.FlowTrace()
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
        trace.samples.append(solver.TraceSample(policy.t, sp.value, f, r_cum, policy.h,
                                                q_smooth=sp.smoothed, energy=energy))
        return fac

    sp, f = pass_at(orbit, 0)
    if not math.isfinite(sp.value):
        raise DomainError(f"objective {Q.label!r} is {sp.value} at the start point")
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
    trace.certificate = solver._certify(trace.final_factors, g0, trace.r_cumulative)
    if trace.certificate is None:
        trace.status += "+interior_optimum"
    return trace
