import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from qflow.errors import (
    DomainError,
    ParameterError,
    UnsupportedObjectiveError,
    ValidationError,
)
from qflow.spectral import (
    _entropy_prox_block,
    _log_w_exp,
    builtin_objective,
    conjugate_eval,
    eigh,
    infimum,
    lift_eval,
    moreau_objective,
    project_weighted_l1_ball,
    spectral_pass,
    tie_groups,
    value_and_subgradient,
)

RNG = np.random.default_rng(42)


def random_hermitian(n, rng=RNG):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (M + M.conj().T)


def random_density(n, rng=RNG):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    P = M @ M.conj().T + 0.05 * np.eye(n)
    return P / np.trace(P).real


ALL_KINDS = [
    ("frobenius", {}),
    ("op_norm_max_weighted", {"alpha": [1.0, 2.0]}),
    ("trace_norm_sum_weighted", {"weights": [1.0, 0.5]}),
    ("neg_entropy_weighted", {"theta": [0.4, 0.6]}),
    ("trace_dist_to_uniform", {}),
    ("indicator_trace_ball", {"radius": 3.0}),
]

DIMS = (3, 2)


def make(kind, params):
    return builtin_objective(kind, DIMS, **params)


def sample_point(kind, rng):
    if kind == "neg_entropy_weighted":
        return [random_density(n, rng) for n in DIMS]
    if kind == "indicator_trace_ball":
        blocks = [random_hermitian(n, rng) for n in DIMS]
        tot = sum(np.sum(np.abs(np.linalg.eigvalsh(B))) for B in blocks)
        return [0.5 * B / tot for B in blocks]
    return [random_hermitian(n, rng) for n in DIMS]


def test_eigh_sorted_and_deterministic():
    H = random_hermitian(4)
    r1 = eigh(H)
    r2 = eigh(H.copy())
    assert np.all(np.diff(r1.values) <= 1e-12)
    assert np.allclose(r1.basis, r2.basis)
    assert np.allclose((r1.basis * r1.values) @ r1.basis.conj().T, H, atol=1e-10)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_tie_groups():
    lam = np.array([2.0, 2.0, 1.0, 1.0 - 1e-12, 0.0])
    groups = tie_groups(lam)
    assert [g.indices(5)[:2] for g in groups] == [(0, 2), (2, 4), (4, 5)]


def test_l1_projection_against_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = rng.standard_normal(4)
        w = rng.uniform(0.5, 2.0, 4)
        r = rng.uniform(0.1, 2.0)
        x = project_weighted_l1_ball(p, w, r)
        assert np.abs(x) @ w <= r + 1e-9
        # no feasible point is closer (random probes)
        d0 = np.sum((x - p) ** 2)
        for _ in range(200):
            y = x + 0.1 * rng.standard_normal(4)
            if np.abs(y) @ w <= r:
                assert np.sum((y - p) ** 2) >= d0 - 1e-9


@pytest.mark.parametrize("kind,params", ALL_KINDS)
def test_fenchel_young_equality(kind, params):
    S = make(kind, params)
    rng = np.random.default_rng(7)
    for _ in range(30):
        Y = sample_point(kind, rng)
        val = lift_eval(S, Y)
        G = value_and_subgradient(S, Y)[1]
        conj = conjugate_eval(S, G)
        pair = sum(float(np.real(np.trace(A @ B))) for A, B in zip(Y, G))
        assert abs(val + conj - pair) < 1e-8


@pytest.mark.parametrize("kind,params", ALL_KINDS)
def test_unitary_invariance(kind, params):
    S = make(kind, params)
    rng = np.random.default_rng(11)
    for _ in range(10):
        Y = sample_point(kind, rng)
        rotated = []
        for B in Y:
            n = B.shape[0]
            U = np.linalg.qr(
                rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            )[0]
            rotated.append(U @ B @ U.conj().T)
        assert abs(lift_eval(S, Y) - lift_eval(S, rotated)) < 1e-10


@pytest.mark.parametrize("kind,params", ALL_KINDS)
def test_prox_optimality(kind, params):
    """prox output must beat random feasible competitors on the prox objective."""
    S = make(kind, params)
    rng = np.random.default_rng(13)
    lam = 0.7
    for _ in range(10):
        p = np.concatenate(
            [np.sort(np.linalg.eigvalsh(B))[::-1] for B in sample_point(kind, rng)]
        )
        q = np.asarray(S.prox(p, lam), dtype=float)
        base = S.eval(q) + np.sum((p - q) ** 2) / (2 * lam)
        assert math.isfinite(base)
        for _ in range(60):
            if kind == "neg_entropy_weighted":
                blocks = []
                for n in DIMS:
                    z = rng.dirichlet(np.ones(n))
                    blocks.append(np.sort(z)[::-1])
                y = np.concatenate(blocks)
            else:
                y = q + 0.05 * rng.standard_normal(q.size)
            cand = S.eval(y) + np.sum((p - y) ** 2) / (2 * lam)
            assert cand >= base - 1e-6


def test_entropy_conjugate_matches_brute_force():
    S = make("neg_entropy_weighted", {"theta": [0.4, 0.6]})
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = rng.standard_normal(sum(DIMS))
        # sup over the product of simplices via dense grid on each block
        got = S.conjugate_eval(x)
        brute = 0.0
        offset = 0
        for n, th in zip(DIMS, (0.4, 0.6)):
            xb = x[offset : offset + n]
            offset += n
            best = -np.inf
            for _ in range(4000):
                q = rng.dirichlet(np.ones(n))
                qpos = np.clip(q, 1e-300, None)
                best = max(best, xb @ q - th * np.sum(q * np.log2(qpos)))
            brute = brute + best
        assert brute <= got + 1e-9
        assert got - brute < 5e-3


def _entropy_prox_cases(rng):
    yield 1.0, 1e-9, np.array([1660.0, 1160.0, 0.0])  # exact prox: [1, 0, 0]
    for n, th, lam in itertools.product(range(1, 7), (0.01, 0.3, 1.0),
                                        (1e-9, 1e-6, 1e-3, 0.05, 1.0, 1e3, 1e6)):
        for _ in range(3):
            yield th, lam, rng.dirichlet(np.ones(n))
            yield th, lam, rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)


def test_entropy_prox_meets_kkt():
    """On the simplex, a (ln q_j + 1) + (q_j - p_j) / lam is the same for
    every j with q_j > 0 (a = theta / ln 2): the prox's optimality condition,
    checked where q_j is not denormal, so that ln q_j is accurate."""
    rng = np.random.default_rng(29)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for th, lam, p in _entropy_prox_cases(rng):
            q = _entropy_prox_block(p, lam, th)
            assert np.all(np.isfinite(q)) and np.all(q >= 0.0), (th, lam, p, q)
            assert abs(np.sum(q) - 1.0) <= 1e-12, (th, lam, p, q)
            a = th / math.log(2.0)
            on = q >= 1e-250
            terms = a * (np.log(q[on]) + 1.0) + (q[on] - p[on]) / lam
            scale = np.max(a * (np.abs(np.log(q[on])) + 1.0) + (q[on] + np.abs(p[on])) / lam)
            assert np.ptp(terms) <= 1e-10 * scale, (th, lam, p, q)
    S = builtin_objective("neg_entropy_weighted", (3,), theta=[1.0])
    q = S.prox(np.array([1660.0, 1160.0, 0.0]), 1e-9)
    np.testing.assert_allclose(q, [1.0, 0.0, 0.0], rtol=0.0, atol=1e-12)


def test_log_w_exp_matches_scipy_lambertw():
    special = pytest.importorskip("scipy.special")
    y = np.linspace(-700.0, 700.0, 20001)
    w = np.exp(_log_w_exp(y))
    ref = special.lambertw(np.exp(y)).real
    assert np.max(np.abs(w - ref) / ref) <= 1e-14
    y = np.concatenate([y, np.geomspace(700.0, 1e6, 2000)])
    w = np.exp(_log_w_exp(y))
    assert np.all(np.abs(w + np.log(w) - y) <= 1e-14 * np.maximum(1.0, np.abs(y)))


def test_entropy_conjugate_matches_scipy_logsumexp():
    """Entries up to 1e4 theta put e^(x ln 2 / theta) far past the float range;
    the conjugate must still be finite, warn of no overflow and match scipy."""
    special = pytest.importorskip("scipy.special")
    theta = (0.4, 0.6)
    S = make("neg_entropy_weighted", {"theta": list(theta)})
    rng = np.random.default_rng(31)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e-3, 1.0, 1e2, 1e4):
            for _ in range(20):
                x = rng.uniform(-scale, scale, sum(DIMS)) * np.repeat(theta, DIMS)
                got = S.conjugate_eval(x)
                parts = [th * special.logsumexp(b * math.log(2.0) / th) / math.log(2.0)
                         for b, th in zip(np.split(x, [DIMS[0]]), theta)]
                assert math.isfinite(got)
                assert abs(got - sum(parts)) <= 1e-14 * sum(abs(v) for v in parts)


def _entropy_conjugate_by_block(x, dims, theta):
    """The conjugate one block at a time: theta_i log2 sum_j 2^(x_j / theta_i),
    as a log-sum-exp shifted by the block's max.  Returns the value and the
    sum of the magnitudes of its block terms."""
    ln2 = math.log(2.0)
    terms = []
    for b, th in zip(np.split(x, np.cumsum(dims)[:-1]), theta):
        z = b * ln2 / th
        m = np.max(z)
        with np.errstate(under="ignore"):
            terms.append(th * float(m + np.log(np.sum(np.exp(z - m)))) / ln2)
    return sum(terms), sum(abs(t) for t in terms)


@pytest.mark.parametrize("dims", [(1,), (1, 4, 1), (3, 2, 2), (4, 3, 2)])
def test_entropy_conjugate_matches_the_blockwise_reference(dims):
    """One log-sum-exp over all blocks (maximum.reduceat, add.reduceat)
    matches the per-block one within 1e-15, relative to the sum of the block
    terms' magnitudes, on entries up to 1e6 theta, where e^(z - max z)
    underflows for all but the largest entries of a block; no floating-point
    warning is raised.  The two sum a block's exponentials in different
    orders, so values that cancel between blocks agree only to that scale."""
    rng = np.random.default_rng(sum(dims))
    theta = np.arange(1.0, len(dims) + 1.0)
    theta /= theta.sum()
    S = builtin_objective("neg_entropy_weighted", dims, theta=theta)
    cases = []
    for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        for _ in range(40):
            cases.append(rng.uniform(-scale, scale, sum(dims)) * np.repeat(theta, dims))
        cases.append(np.full(sum(dims), scale))
        cases.append(np.repeat(theta, dims) * scale * (-1.0) ** np.arange(sum(dims)))
    for x in cases:
        with np.errstate(all="raise"):
            got = S.conjugate_eval(x)
        ref, size = _entropy_conjugate_by_block(x, dims, theta)
        assert abs(got - ref) <= 1e-15 * size, (x, got, ref)


def test_moreau_envelope_below_function_and_smooth():
    S = make("trace_dist_to_uniform", {})
    E = moreau_objective(S, 0.5)
    assert E.smooth
    rng = np.random.default_rng(19)
    for _ in range(10):
        Y = [random_density(n, rng) for n in DIMS]
        assert lift_eval(E, Y) <= lift_eval(S, Y) + 1e-12


def test_moreau_conjugate_identity():
    """(e_lam S)* = S* + (lam/2)||.||^2, checked through Fenchel-Young pairs."""
    lam = 0.3
    for kind, params in ALL_KINDS:
        S = make(kind, params)
        E = moreau_objective(S, lam)
        rng = np.random.default_rng(23)
        for _ in range(20):
            Y = sample_point(kind, rng)
            val, G = value_and_subgradient(E, Y)
            conj = conjugate_eval(E, G)
            pair = sum(float(np.real(np.trace(A @ B))) for A, B in zip(Y, G))
            assert abs(val + conj - pair) < 1e-6
            # and the conjugate is the shifted-quadratic form of S*
            g = np.concatenate([np.sort(np.linalg.eigvalsh(B))[::-1] for B in G])
            expected = S.conjugate_eval(g) + 0.5 * lam * float(g @ g)
            assert abs(conj - expected) < 1e-9


def test_smoothed_pass_matches_moreau_objective():
    """The solver's smoothed pass gives the value and gradient of the
    envelope objective."""
    lam = 0.3
    for kind, params in ALL_KINDS:
        S = make(kind, params)
        E = moreau_objective(S, lam)
        rng = np.random.default_rng(29)
        for _ in range(5):
            Y = sample_point(kind, rng)
            sp = spectral_pass(S, Y, smoothing=lam)
            val, G = value_and_subgradient(E, Y)
            assert sp.value == lift_eval(S, Y)
            assert sp.smoothed == val
            for A, B in zip(sp.lift(sp.direction), G):
                assert np.max(np.abs(A - B)) < 1e-14


@pytest.mark.parametrize("kind,params", [("frobenius", {}),
                                         ("trace_norm_sum_weighted", {"weights": [1.0, 0.5]})])
def test_moreau_prox_matches_direct_minimization(kind, params):
    """The envelope's prox, p + t/(t + lam) (prox of S at p with t + lam,
    minus p), minimizes e(q) + ||p - q||^2/(2t), e the envelope: checked
    against BFGS on that smooth, strongly convex function."""
    optimize = pytest.importorskip("scipy.optimize")
    lam = 0.3
    E = moreau_objective(make(kind, params), lam)
    rng = np.random.default_rng(37)
    for t in (0.05, 0.7, 5.0):
        for _ in range(5):
            p = 2.0 * rng.standard_normal(sum(DIMS))

            def fun(q):
                return E.eval(q) + float((p - q) @ (p - q)) / (2 * t)

            def jac(q):
                return E.subgradient(q) + (q - p) / t

            ref = optimize.minimize(fun, p, jac=jac, method="BFGS",
                                    options={"gtol": 1e-12}).x
            q = E.prox(p, t)
            assert fun(q) <= fun(ref) + 1e-12 * (1.0 + abs(fun(ref))), (t, p)
            assert np.max(np.abs(q - ref)) <= 1e-8, (t, p, q, ref)


def test_moreau_requires_prox():
    S = make("frobenius", {})
    stripped = dataclasses.replace(S, prox=None)
    with pytest.raises(UnsupportedObjectiveError):
        moreau_objective(stripped, 0.1)
    with pytest.raises(UnsupportedObjectiveError):
        spectral_pass(stripped, [np.eye(n) for n in DIMS], smoothing=0.1)


@pytest.mark.parametrize("kind,params", ALL_KINDS)
def test_infimum_is_minus_conjugate_at_zero(kind, params):
    S = make(kind, params)
    inf_s = infimum(S)
    assert inf_s == -conjugate_eval(S, [np.zeros((n, n)) for n in DIMS])
    assert inf_s == infimum(moreau_objective(S, 0.1))
    if kind == "neg_entropy_weighted":
        ceiling = sum(th * math.log2(n) for th, n in zip(params["theta"], DIMS))
        assert abs(inf_s + ceiling) <= 4e-16
    else:
        assert math.copysign(1.0, inf_s) == 1.0 and inf_s == 0.0
    rng = np.random.default_rng(3)
    for _ in range(20):
        assert lift_eval(S, sample_point(kind, rng)) >= inf_s - 1e-12


@pytest.mark.parametrize("kind,params", ALL_KINDS)
def test_conjugate_gauge_is_domain(kind, params):
    S = make(kind, params)
    gauge = S.conjugate_gauge
    assert moreau_objective(S, 0.1).conjugate_gauge is gauge
    if kind in ("neg_entropy_weighted", "indicator_trace_ball"):
        assert gauge is None
        return
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.standard_normal(sum(DIMS))
        g = gauge(x)
        assert abs(gauge(2.5 * x) - 2.5 * g) <= 1e-12 * g
        assert math.isfinite(S.conjugate_eval(x / g))
        assert S.conjugate_eval(1.01 * x / g) == math.inf


def test_block_norms_are_a_dual_pair():
    """op_norm_max_weighted(alpha) is the block-linf norm max_i ||p_i||_inf /
    alpha_i and trace_norm_sum_weighted(weights=alpha) the block-l1 norm
    sum_i alpha_i ||p_i||_1: each one's conjugate gauge is the other, which
    is the support function of its unit ball.  trace_dist_to_uniform is the
    block-l1 norm with unit weights of p minus the uniform spectra."""
    alpha = [0.7, 2.0]
    linf = make("op_norm_max_weighted", {"alpha": alpha})
    l1 = make("trace_norm_sum_weighted", {"weights": alpha})
    dist = make("trace_dist_to_uniform", {})
    l1_unit = make("trace_norm_sum_weighted", {"weights": [1.0, 1.0]})
    wc = np.repeat(alpha, DIMS)
    uniform = np.concatenate([np.full(n, 1.0 / n) for n in DIMS])
    rng = np.random.default_rng(31)
    for _ in range(50):
        p = rng.standard_normal(sum(DIMS)) * 10.0 ** rng.uniform(-3, 3)
        assert linf.conjugate_gauge(p) == l1.eval(p)
        assert l1.conjugate_gauge(p) == linf.eval(p)
        assert dist.eval(p) == l1_unit.eval(p - uniform)
        # the definitions, block by block (the block-l1 sum in another order)
        blocks = np.split(p, np.cumsum(DIMS)[:-1])
        assert linf.eval(p) == max(np.max(np.abs(b)) / a for b, a in zip(blocks, alpha))
        block_sum = sum(a * np.sum(np.abs(b)) for b, a in zip(blocks, alpha))
        assert abs(block_sum - l1.eval(p)) <= 1e-14 * l1.eval(p)
        # support functions of the unit balls, bit for bit: the block-l1 ball
        # has vertices +-e_j / w_j, the block-linf ball the sign patterns times w
        assert np.max(np.abs(p) / wc) == linf.eval(p)
        assert np.abs(p) @ wc == l1.eval(p)


def test_subgradient_basis_stability_under_ties():
    S = make("trace_norm_sum_weighted", {"weights": [1.0, 0.5]})
    rng = np.random.default_rng(29)
    Y = [np.eye(3), np.eye(2)]  # fully degenerate spectra
    G1 = value_and_subgradient(S, Y)[1]
    # perturb by a tiny rotation: subgradient should barely move
    U = np.linalg.qr(np.eye(3) + 1e-13 * rng.standard_normal((3, 3)))[0]
    G2 = value_and_subgradient(S, [U @ Y[0] @ U.T, Y[1]])[1]
    assert np.max(np.abs(G1[0] - G2[0])) < 1e-9


def test_entropy_domain_errors():
    S = make("neg_entropy_weighted", {"theta": [0.4, 0.6]})
    bad = [np.diag([1.2, 0.1, -0.3]), np.eye(2) / 2]
    with pytest.raises(DomainError):
        lift_eval(S, bad)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        builtin_objective("neg_entropy_weighted", DIMS, theta=[0.7, 0.7])
    with pytest.raises(ParameterError):
        builtin_objective("neg_entropy_weighted", DIMS)
    with pytest.raises(ParameterError):
        builtin_objective("op_norm_max_weighted", DIMS, alpha=[1.0, -1.0])
    with pytest.raises(ParameterError):
        builtin_objective("indicator_trace_ball", DIMS, radius=-1.0)
    with pytest.raises(ParameterError):
        builtin_objective("no_such_kind", DIMS)
    # a parameter the kind does not take is an error, not ignored
    with pytest.raises(ParameterError, match="takes no scale"):
        builtin_objective("trace_dist_to_uniform", DIMS, scale=1.7)
    with pytest.raises(ParameterError, match="takes no alpha"):
        builtin_objective("frobenius", DIMS, alpha=[1.0, 1.0])
    # non-finite parameters, NaN included
    bad = [("op_norm_max_weighted", {"alpha": [math.nan, 1.0]}),
           ("op_norm_max_weighted", {"alpha": [math.inf, 1.0]}),
           ("trace_norm_sum_weighted", {"weights": [math.inf, 1.0]}),
           ("trace_norm_sum_weighted", {"weights": [1.0, math.nan]}),
           ("neg_entropy_weighted", {"theta": [math.nan, math.nan]}),
           ("neg_entropy_weighted", {"theta": [math.inf, 0.5]}),
           ("indicator_trace_ball", {"radius": math.nan}),
           ("indicator_trace_ball", {"radius": math.inf})]
    for kind, params in bad:
        with pytest.raises(ParameterError):
            builtin_objective(kind, DIMS, **params)


def test_frobenius_half_square_conjugate():
    S = make("frobenius", {})
    s = np.array([1.0, -2.0, 0.5, 0.0, 1.5])
    assert abs(S.half_square_conjugate(s) - 0.5 * s @ s) < 1e-12
