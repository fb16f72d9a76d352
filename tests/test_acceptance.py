"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all).
The checks are property-based plus small-instance oracle equivalence; all
random data is seeded and the oracles (finite differences, blow-up ranks,
brute-force projections) are independent of the code paths under test.
"""

import math
import time

import numpy as np

from qflow import apps, geometry as geom, io, tensors
from qflow.cli import main as cli_main
from qflow.generate import gaussian_tensor, identity_pencil, random_pencil, skew_pencil
from qflow.solver import (
    FlowConfig,
    KempfNessProblem,
    dual_value,
    energy_residual,
    group_subgradient_method,
    integrate_flow,
)
from qflow.spectral import (
    builtin_objective,
    conjugate_eval,
    lift_eval,
    moreau_objective,
    spectral_subgradient,
    value_and_subgradient,
)

_NCRANK_CACHE = {}


def _report(num, name, ok, detail=""):
    print(f"\n[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _random_hermitian(n, rng):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (M + M.conj().T)


def _random_pd_point(dims, rng):
    blocks = []
    for n in dims:
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blocks.append(M @ M.conj().T + 0.3 * np.eye(n))
    return geom.ProductPDPoint(blocks)


def test_criterion_01_moment_map_validity():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_trace = worst_eig = worst_entry = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        dims = tuple(int(rng.integers(2, 6)) for _ in range(d))
        v = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        mu = tensors.moment_map(v)
        nrm2 = float(np.vdot(v, v).real)
        for i in range(d):
            worst_trace = max(worst_trace, abs(np.trace(mu[i]).real - 1.0))
            worst_eig = max(worst_eig, -float(np.min(np.linalg.eigvalsh(mu[i]))))
            # independent entrywise contraction over all other modes
            others = tuple(j for j in range(d) if j != i)
            direct = np.tensordot(v, v.conj(), axes=(others, others)) / nrm2
            worst_entry = max(worst_entry, float(np.max(np.abs(mu[i] - direct))))
    elapsed = time.time() - t0
    ok = worst_trace < 1e-10 and worst_eig < 1e-10 and worst_entry < 1e-12 and elapsed < 30
    _report(1, "moment-map validity", ok,
            f"(trace {worst_trace:.1e}, eig {worst_eig:.1e}, "
            f"entry {worst_entry:.1e}, {elapsed:.1f}s)")


def test_criterion_02_kempf_ness_differential():
    t0 = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    for trial in range(200):
        d = int(rng.integers(2, 4))
        dims = tuple(int(rng.integers(2, 4)) for _ in range(d))
        v = tensors.normalize(
            rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        )
        x = _random_pd_point(dims, rng)
        p0 = tensors.kempf_ness_differential(v, x)
        for _ in range(5):
            H0 = [_random_hermitian(n, rng) for n in dims]
            Hx = geom.transport_from_base(x, geom.TangentBlock(H0))
            eps = 1e-5
            fd = (
                tensors.kempf_ness(v, geom.geodesic(x, Hx, eps))
                - tensors.kempf_ness(v, geom.geodesic(x, Hx, -eps))
            ) / (2 * eps)
            pred = sum(float(np.real(np.trace(P @ H))) for P, H in zip(p0, H0))
            worst = max(worst, abs(fd - pred) / (1 + abs(fd)))
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 60
    _report(2, "Kempf-Ness differential vs finite differences", ok,
            f"(rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_03_monotonicity_and_energy():
    t0 = time.time()
    worst_increase = -math.inf
    worst_res = 0.0
    worst_ratio = math.inf
    for seed in range(20):
        dims = (3, 2, 2)
        v = tensors.normalize(gaussian_tensor(dims, 1030 + seed))
        prob = KempfNessProblem(v)
        # monotonicity under Moreau smoothing of a nonsmooth objective
        S = builtin_objective("trace_dist_to_uniform", dims)
        tr = integrate_flow(prob, S, prob.identity_point(),
                            FlowConfig(max_iters=150, ode_step=1e-2, smoothing=0.05))
        qs = [s.q_smooth for s in tr.samples]
        worst_increase = max(
            worst_increase, max(qs[i + 1] - qs[i] for i in range(len(qs) - 1))
        )
        # energy identity for the smooth (Frobenius) flow, h vs h/2
        F = builtin_objective("frobenius", dims)
        res = []
        for h, iters in ((1e-3, 400), (5e-4, 800)):
            trf = integrate_flow(prob, F, prob.identity_point(),
                                 FlowConfig(max_iters=iters, ode_step=h))
            res.append(energy_residual(trf))
        worst_res = max(worst_res, res[0])
        worst_ratio = min(worst_ratio, res[0] / res[1])
    elapsed = time.time() - t0
    ok = (worst_increase < 1e-7 and worst_res < 1e-3 and worst_ratio >= 1.5
          and elapsed < 120)
    _report(3, "flow monotonicity and energy identity", ok,
            f"(increase {worst_increase:.1e}, residual {worst_res:.1e}, "
            f"ratio {worst_ratio:.2f}, {elapsed:.1f}s)")


def test_criterion_04_weak_duality_universal():
    t0 = time.time()
    rng = np.random.default_rng(104)
    pairs = 0
    violations = 0
    worst_slack = -math.inf
    objectives = (
        ("trace_dist_to_uniform", {}),
        ("frobenius", {}),
        ("op_norm_max_weighted", {"alpha": [1.0, 1.0, 1.0]}),
    )
    for trial in range(30):
        dims = (3, 2, 2)
        v = tensors.normalize(gaussian_tensor(dims, 1040 + trial))
        prob = KempfNessProblem(v)
        for kind, kw in objectives:
            S = builtin_objective(kind, dims, **kw)
            cfg = FlowConfig(max_iters=150, step_size=0.3, smoothing=0.1,
                             smoothing_schedule=True)
            tr, _ = group_subgradient_method(
                v, S, [np.eye(n, dtype=complex) for n in dims], cfg
            )
            primal = tr.best_q
            certs = []
            for _ in range(20):  # random rays
                bases = []
                weights = []
                for n in dims:
                    U = np.linalg.qr(rng.standard_normal((n, n))
                                     + 1j * rng.standard_normal((n, n)))[0]
                    bases.append(U)
                    weights.append(np.sort(rng.standard_normal(n))[::-1] * 0.4)
                certs.append(geom.BoundaryCertificate(np.zeros(0), bases, weights))
            if tr.certificate is not None:
                peak = max(np.max(np.abs(w)) for w in tr.certificate.weights)
                for c in (0.3, 1.0, 1.0 / peak):  # extracted, rescaled
                    certs.append(tr.certificate.scaled(c))
                jit = tr.certificate.scaled(1.0 / peak)  # perturbed
                certs.append(geom.BoundaryCertificate(
                    jit.euclid_dir, jit.bases,
                    [np.sort(np.asarray(w) + 1e-3 * rng.standard_normal(len(w)))[::-1]
                     for w in jit.weights]))
            for xi in certs:
                d = dual_value(prob, S, xi)
                pairs += 1
                slack = d - primal
                if np.isfinite(d):
                    worst_slack = max(worst_slack, slack)
                if slack > 1e-8:
                    violations += 1
    elapsed = time.time() - t0
    ok = pairs >= 2000 and violations == 0 and elapsed < 120
    _report(4, "universal weak duality", ok,
            f"({pairs} pairs, {violations} violations, "
            f"max slack {worst_slack:.1e}, {elapsed:.1f}s)")


def test_criterion_05_spectral_calculus():
    t0 = time.time()
    rng = np.random.default_rng(105)
    dims = (3, 2)
    kinds = [
        ("frobenius", {}),
        ("op_norm_max_weighted", {"alpha": [1.0, 2.0]}),
        ("trace_norm_sum_weighted", {"weights": [1.0, 0.5]}),
        ("neg_entropy_weighted", {"theta": [0.4, 0.6]}),
        ("trace_dist_to_uniform", {}),
        ("indicator_trace_ball", {"radius": 3.0}),
    ]

    def sample(kind):
        if kind == "neg_entropy_weighted":
            blocks = []
            for n in dims:
                M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                P = M @ M.conj().T + 0.05 * np.eye(n)
                blocks.append(P / np.trace(P).real)
            return blocks
        blocks = [_random_hermitian(n, rng) for n in dims]
        if kind == "indicator_trace_ball":
            tot = sum(np.sum(np.abs(np.linalg.eigvalsh(B))) for B in blocks)
            blocks = [0.5 * B / tot for B in blocks]
        return blocks

    fy = unit = fd = mor = 0.0
    n_fy = n_unit = n_fd = n_mor = 0
    for kind, kw in kinds:
        S = builtin_objective(kind, dims, **kw)
        E = moreau_objective(S, 0.3)
        for _ in range(90):
            Y = sample(kind)
            # Fenchel-Young equality at subgradient pairs
            val = lift_eval(S, Y)
            G = spectral_subgradient(S, Y)
            pair = sum(float(np.real(np.trace(A @ B))) for A, B in zip(Y, G))
            fy = max(fy, abs(val + conjugate_eval(S, G) - pair))
            n_fy += 1
            # unitary invariance
            rot = []
            for B in Y:
                n = B.shape[0]
                U = np.linalg.qr(rng.standard_normal((n, n))
                                 + 1j * rng.standard_normal((n, n)))[0]
                rot.append(U @ B @ U.conj().T)
            unit = max(unit, abs(val - lift_eval(S, rot)))
            n_unit += 1
            # lifted gradient vs finite differences (smooth envelope)
            ev, Ge = value_and_subgradient(E, Y)
            Ht = [_random_hermitian(n, rng) for n in dims]
            t = 1e-6
            fplus = lift_eval(E, [A + t * B for A, B in zip(Y, Ht)])
            fminus = lift_eval(E, [A - t * B for A, B in zip(Y, Ht)])
            pred = sum(float(np.real(np.trace(A @ B))) for A, B in zip(Ge, Ht))
            fd = max(fd, abs((fplus - fminus) / (2 * t) - pred))
            n_fd += 1
            # Moreau conjugate identity (e_lam S)* = S* + lam/2 ||.||^2
            g = np.concatenate(
                [np.sort(np.linalg.eigvalsh(B))[::-1] for B in Ge]
            )
            lhs = conjugate_eval(E, Ge)
            rhs = S.oracle.conjugate_eval(g) + 0.5 * 0.3 * float(g @ g)
            mor = max(mor, abs(lhs - rhs))
            n_mor += 1
    elapsed = time.time() - t0
    ok = (n_fy >= 500 and n_unit >= 500 and n_fd >= 500 and n_mor >= 500
          and fy < 1e-8 and unit < 1e-10 and fd < 1e-5 and mor < 1e-6
          and elapsed < 60)
    _report(5, "spectral calculus", ok,
            f"(FY {fy:.1e}, unitary {unit:.1e}, FD {fd:.1e}, "
            f"Moreau {mor:.1e}, {elapsed:.1f}s)")


def test_criterion_06_quantum_functional_unit_tensors():
    thetas = ([1 / 3, 1 / 3, 1 / 3], [0.5, 0.25, 0.25], [0.2, 0.3, 0.5])
    ok_all = True
    details = []
    for n in (2, 3, 4):
        v = tensors.unit_tensor(n, 3)
        for theta in thetas:
            t0 = time.time()
            theta = list(theta)
            theta[-1] = 1.0 - sum(theta[:-1])
            cfg = FlowConfig(max_iters=800, step_size=0.5,
                             smoothing=0.05, smoothing_schedule=True)
            res = apps.quantum_functional(v, theta, cfg)
            elapsed = time.time() - t0
            good = (abs(res.primal_value - math.log2(n)) < 1e-2
                    and res.gap < 2e-2 and res.iterations <= 10**4
                    and elapsed < 60)
            ok_all = ok_all and good
            details.append(f"n={n} err={abs(res.primal_value - math.log2(n)):.1e} "
                           f"gap={res.gap:.1e} {elapsed:.0f}s")
    _report(6, "quantum functional of unit tensors", ok_all,
            "(" + "; ".join(details[:3]) + " ...)")


def test_criterion_07_ncrank_oracle_equivalence():
    t0 = time.time()
    match = 0
    total = 0
    for seed in range(50):
        n = 2 + seed % 3
        m = 1 + seed % 4
        A = random_pencil(n, m, seed)
        oracle = apps.ncrank_blowup_oracle(A)
        res = apps.ncrank(A)
        _NCRANK_CACHE[seed] = (A, res.rank, oracle)
        total += 1
        if res.rank == oracle and res.iterations <= 5 * 10**4:
            match += 1
    named_ok = True
    for A, expected in ((skew_pencil(), 3), (identity_pencil(4), 4)):
        res = apps.ncrank(A)
        oracle = apps.ncrank_blowup_oracle(A)
        named_ok = named_ok and res.rank == expected == oracle
    elapsed = time.time() - t0
    ok = match / total >= 0.95 and named_ok and elapsed < 600
    _report(7, "nc-rank oracle equivalence", ok,
            f"({match}/{total} random, named ok={named_ok}, {elapsed:.0f}s)")


def test_criterion_08_gstable_brackets_ncrank():
    t0 = time.time()
    ok = True
    details = []
    for seed in range(10):
        if seed in _NCRANK_CACHE:
            A, rank, _ = _NCRANK_CACHE[seed]
        else:
            n = 2 + seed % 3
            m = 1 + seed % 4
            A = random_pencil(n, m, seed)
            rank = apps.ncrank(A).rank
        n = A.n
        res = apps.g_stable_rank(tensors.normalize(A.tensor()), [1.0, 1.0, n])
        good = res.rank_lower <= rank + 1e-6 and res.rank_upper >= rank - 1e-6
        ok = ok and good
        details.append(f"seed {seed}: [{res.rank_lower:.2f},"
                       f"{res.rank_upper if math.isfinite(res.rank_upper) else float('inf'):.2f}]"
                       f" ncrk {rank}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    _report(8, "G-stable rank brackets nc-rank", ok,
            f"({details[0]}; ...; {elapsed:.0f}s)")


def test_criterion_09_recession_function():
    t0 = time.time()
    rng = np.random.default_rng(109)
    worst = 0.0
    done = 0
    dims = (3, 2, 2)
    while done < 100:
        # direction with separated support values
        H0 = []
        for n in dims:
            w = np.sort(rng.standard_normal(n) * 1.5)[::-1]
            U = np.linalg.qr(rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n)))[0]
            H = (U * w) @ U.conj().T
            H0.append(0.5 * (H + H.conj().T))
        ws = [np.linalg.eigvalsh(B)[::-1] for B in H0]
        grid = ws[0][:, None, None] + ws[1][None, :, None] + ws[2][None, None, :]
        flat = np.sort(grid.ravel())[::-1]
        if flat[0] - flat[1] < 0.1:
            continue
        jstar = np.unravel_index(int(np.argmax(grid)), grid.shape)
        # tensor with its coefficient mass concentrated on the maximizing
        # support cell: the finite-t slope carries a log(mass)/t bias, so the
        # comparison at t = 50 resolves below 1e-3 only for mass near 1
        c = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        c *= math.sqrt(0.005) / np.linalg.norm(c)
        c[jstar] = math.sqrt(1.0 - np.linalg.norm(c) ** 2 + abs(c[jstar]) ** 2)
        c /= np.linalg.norm(c)
        ks = [np.linalg.eigh(B)[1][:, ::-1] for B in H0]
        v = tensors.act(ks, c)
        Y = geom.TangentBlock(H0)
        rec = tensors.recession(v, Y)
        t = 50.0
        val = tensors.kempf_ness(
            v, geom.geodesic(geom.ProductPDPoint.identity(dims), Y, t)
        ) / t
        worst = max(worst, abs(rec - val))
        done += 1
    elapsed = time.time() - t0
    ok = worst < 1e-3 and elapsed < 30
    _report(9, "recession function vs asymptotic slope", ok,
            f"(max err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_10_cli_determinism(tmp_path):
    import json

    t0 = time.time()
    ok = True
    # generator determinism
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for args in (
        ["gen", "gaussian", "--dims", "3,2,2", "--seed", "11"],
        ["gen", "random_pencil", "--dims", "3,2", "--seed", "4"],
    ):
        codes = [cli_main(args + ["--out", str(p)]) for p in (a, b)]
        ok = ok and codes == [0, 0] and a.read_bytes() == b.read_bytes()
    # solver-command determinism
    unit = tmp_path / "unit.json"
    unit.write_text(json.dumps(io.tensor_to_record(tensors.unit_tensor(2, 3))))
    pencil = tmp_path / "pencil.json"
    pencil.write_text(json.dumps(io.pencil_to_record(random_pencil(3, 2, 9))))
    for args in (
        ["moment", str(unit)],
        ["scale", str(unit), "--objective", "frobenius", "--max-iters", "50"],
        ["qfunc", str(unit), "--theta", "0.4,0.3,0.3", "--max-iters", "300"],
        ["gstable", str(unit), "--alpha", "1,1,1", "--max-iters", "300"],
        ["ncrank", str(pencil), "--max-iters", "400"],
    ):
        codes = [cli_main(args + ["--out", str(p)]) for p in (a, b)]
        ok = ok and codes == [0, 0] and a.read_bytes() == b.read_bytes()
    elapsed = time.time() - t0
    _report(10, "CLI determinism", ok, f"({elapsed:.1f}s)")
