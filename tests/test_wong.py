"""The second Wong sequence's boundary ray (`apps.wong_ray`) and the ncrank
solves it closes."""

import numpy as np
import pytest
from _pencils import planted_pencil
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow import apps, tensors
from qflow.generate import random_pencil, skew_pencil
from qflow.solver import KempfNessProblem, dual_value
from qflow.spectral import builtin_objective

# the four planted pencils of the ROADMAP baseline, then every excess-1 shape
# whose marginals are regular at the start (r = 1 and r = n are singular)
PLANTED = sorted({(4, 3, 2), (5, 3, 3), (3, 2, 2), (6, 4, 3)}
                 | {(n, r, n + 1 - r) for n in range(3, 7) for r in range(2, n)})


# every zero block of n = 3 to 6 that caps the rank and leaves both
# marginals regular at the start: across the three slices, the r rows of the
# block have 3(n - s) entries outside it and its s columns 3(n - r)
REGULAR = [(n, r, s) for n in range(3, 7) for r in range(1, n + 1)
           for s in range(1, n + 1) if r + s > n and r <= 3 * (n - s) and s <= 3 * (n - r)]


def baseline_pencil(n, r, s):
    return planted_pencil(np.random.default_rng(10 * n + r), n, r, s, 3)


@pytest.mark.parametrize("n,r,s", REGULAR)
def test_ncrank_closes_planted_pencils_with_the_pair(n, r, s):
    """The phase reaches the ray's dual d = 2(n - rank)/n: rank_upper is the
    rank, and the certificate is the pair's and carries it.  ncrank consults
    the pair after its first sweep, so it stops at the first sweep whose S
    lies within FLOOR_TOL (1 + d) of d, read from the same phase run without
    a ray."""
    A = baseline_pencil(n, r, s)
    rank = apps.ncrank_blowup_oracle(A)
    S = builtin_objective("trace_dist_to_uniform", (n, n))
    problem = KempfNessProblem(tensors.normalize(A.tensor()), (0, 1))
    ray = apps.wong_ray(A)
    d = dual_value(problem, S, ray)
    phase, _ = apps._scaling_phase(problem, S, apps._floor_certificate(S), 5000,
                                   stop_below=2 / n - apps.FULL_RANK_EPS)
    first = next(k for k, x in enumerate(phase.samples)
                 if x.q_value - d <= apps.FLOOR_TOL * (1 + abs(d)))
    res = apps.ncrank(A)
    assert res.rank == rank == 2 * n - r - s
    assert (res.status, res.iterations) == ("scaled_to_floor", first)
    assert abs(res.rank_upper - rank) <= 1e-9
    assert res.rank_upper == n - 0.5 * n * d
    assert res.iterations <= 50
    assert res.dual_value <= res.primal_value
    assert res.primal_value - res.dual_value <= apps.FLOOR_TOL * (1 + abs(d))
    for got, want in ((res.certificate.bases, ray.bases),
                      (res.certificate.weights, ray.weights)):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
    pair = apps.fortin_reutenauer_pair(A, res.certificate)
    assert pair["dim_sum"] == 2 * n - rank
    assert pair["residual"] < 1e-12 * max(np.max(np.abs(M)) for M in A.matrices)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), data=st.data())
def test_wong_ray_is_sound_on_planted_pencils(seed, n, data):
    """The ray's dual is at most S at the phase's best point, and the rank
    bound n - (n/2) dual it gives is at least the rank."""
    r = data.draw(st.integers(1, n), label="r")
    s = data.draw(st.integers(max(1, n + 1 - r), n if r < n else n - 1), label="s")
    m = data.draw(st.integers(1, 4), label="m")
    A = planted_pencil(np.random.default_rng(seed), n, r, s, m)
    cert = apps.wong_ray(A)
    assert cert is not None
    problem = KempfNessProblem(A.tensor(), (0, 1))
    S = builtin_objective("trace_dist_to_uniform", (n, n))
    dual = dual_value(problem, S, cert)
    phase, _ = apps._scaling_phase(problem, S, apps._floor_certificate(S), 200)
    assert dual <= phase.best_q + 1e-12
    assert n - 0.5 * n * dual >= apps.ncrank_blowup_oracle(A) - 1e-9


def test_wong_ray_refuses_pencils_without_a_pair_at_its_rank():
    """The skew pencil's random combinations have rank 2 below its nc-rank 3,
    so the sequence leaves im M; a zero block perturbed by 1e-6 or 1e-10 of
    the peak, above the rank margin, leaves the combination full rank."""
    assert apps.wong_ray(skew_pencil()) is None
    for noise in (1e-6, 1e-10):
        for n, r, s in PLANTED:
            A = planted_pencil(np.random.default_rng(10 * n + r), n, r, s, 3, noise)
            assert apps.wong_ray(A) is None, (n, r, s, noise)


def test_scale_consults_the_ray_after_the_first_sweep_or_at_the_stop():
    """The phase consults the ray once, at its first step after the start
    that neither certifies nor closes, or at its stop when that comes first.
    A full-rank pencil certifies by sweep 1 and never builds the ray; a
    pencil with a singular marginal stops at the start, consults the ray
    there and falls back, and a ray of None leaves the fallback as it is
    without one."""
    calls = []

    def no_ray():
        calls.append(1)
        return None

    A = random_pencil(3, 2, 0)
    S = builtin_objective("trace_dist_to_uniform", (3, 3))
    res = apps.scale(A.tensor(), S, modes=(0, 1), stop_below=2 / 3 - apps.FULL_RANK_EPS,
                     ray=no_ray)
    assert res.status == "certified" and calls == []
    E11, E12 = np.zeros((2, 2)), np.zeros((2, 2))
    E11[0, 0] = E12[0, 1] = 1.0
    v = apps.MatrixPencil([E11, E12]).tensor()
    S = builtin_objective("trace_dist_to_uniform", (2, 2))
    cfg = apps.default_config("ncrank")
    with_ray = apps.scale(v, S, cfg, modes=(0, 1), ray=no_ray)
    without = apps.scale(v, S, cfg, modes=(0, 1))
    assert calls == [1] and with_ray.status == without.status == "stalled"
    assert ((with_ray.primal_value, with_ray.dual_value, with_ray.iterations)
            == (without.primal_value, without.dual_value, without.iterations))


def test_full_rank_pencils_never_build_the_ray(monkeypatch):
    """Criterion 7's pencils and Gaussian pencils of the benchmark's four
    full-rank shapes certify by sweep 1, so ncrank neither checks the common
    kernels nor builds the Wong pair."""
    calls = []
    for name in ("check_common_kernel", "wong_ray"):
        def counted(A, name=name, fn=getattr(apps, name)):
            calls.append(name)
            return fn(A)
        monkeypatch.setattr(apps, name, counted)
    pencils = [random_pencil(2 + seed % 3, 1 + seed % 4, seed) for seed in range(50)]
    pencils += [random_pencil(n, m, seed) for n, m in ((2, 1), (3, 2), (4, 3), (2, 4))
                for seed in range(5)]
    for A in pencils:
        res = apps.ncrank(A)
        assert (res.status, res.rank) == ("certified", A.n)
    assert calls == []
