"""The second Wong sequence's boundary ray (`apps.wong_ray`) and the ncrank
solves it closes."""

import numpy as np
import pytest
from _pencils import planted_pencil
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow import apps
from qflow.generate import random_pencil, skew_pencil
from qflow.solver import KempfNessProblem, dual_value
from qflow.spectral import builtin_objective

# the four planted pencils of the ROADMAP baseline, then every excess-1 shape
# whose marginals are regular at the start (r = 1 and r = n are singular)
PLANTED = sorted({(4, 3, 2), (5, 3, 3), (3, 2, 2), (6, 4, 3)}
                 | {(n, r, n + 1 - r) for n in range(3, 7) for r in range(2, n)})


def baseline_pencil(n, r, s):
    return planted_pencil(np.random.default_rng(10 * n + r), n, r, s, 3)


@pytest.mark.parametrize("n,r,s", PLANTED)
def test_ncrank_closes_planted_pencils_with_the_pair(n, r, s):
    """The phase reaches the ray's dual 2(n - rank)/n: rank_upper is the rank
    after a few dozen sweeps, and the certificate carries the pair."""
    A = baseline_pencil(n, r, s)
    rank = apps.ncrank_blowup_oracle(A)
    res = apps.ncrank(A)
    assert res.rank == rank == 2 * n - r - s
    assert res.status == "scaled_to_floor"
    assert abs(res.rank_upper - rank) <= 1e-9
    assert res.iterations <= 50
    assert res.dual_value <= res.primal_value
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
    phase = apps._scaling_phase(problem, S, 0.0, 200)
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


def test_scale_consults_the_ray_only_when_the_phase_ends_otherwise():
    """A full-rank pencil certifies in the phase and never builds the ray; a
    pencil with a singular marginal falls back, and a ray of None leaves the
    fallback as it is without one."""
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
