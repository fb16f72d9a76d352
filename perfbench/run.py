#!/usr/bin/env python3
"""qflow benchmark: one seeded workload, end-to-end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload pencil_rank --seed 1 --seconds 20 --trace 0

qflow is imported from ``src/`` next to this directory; nothing is installed.
One caller runs the workload's ops in a closed loop, one op after another, in
whole passes over the instance set while the next pass is expected to end
within ``--seconds`` (at least one pass).  BLAS is capped at one thread.

Times are reported in reference-speed seconds: a speed probe (``speed.py``)
samples the machine's speed during the run and each op's wall time is
rescaled by it, because a shared virtual CPU can change speed by up to 2x
from one second to the next.  The raw median pass time is printed in
the line before the result.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first repeats the
untraced measurement, then measures again with benchmark-side spans around
qflow's layers, checks that both give the same answer digest, and reports the
per-layer metrics (the untraced end-to-end metrics go in the line before);
the spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, the configs and the answer digest.  ``python3 -m
pytest perfbench`` runs the benchmark's self-tests.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_ROUNDS = 3
IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:]
t = time.perf_counter()
import qflow, qflow.io
dt = time.perf_counter() - t
import speed
print(dt / speed.speed_factor())
"""


def _import_probe():
    """Reference-speed seconds to import qflow in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                         cwd=ROOT, capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


TAIL_CHUNK = 250


def _tail(times):
    """Highest percentile with at least 10 samples beyond it, and its value."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


def _chunked_tail(times):
    """`_tail` of consecutive chunks of TAIL_CHUNK samples, median over chunks,
    so the percentile is the same (p96) however many samples a run takes."""
    if not times:
        return 100.0, 0.0
    chunks = [times[i:i + TAIL_CHUNK]
              for i in range(0, max(len(times) - TAIL_CHUNK, 0) + 1, TAIL_CHUNK)]
    tails = [_tail(c) for c in chunks]
    return (statistics.median(p for p, _ in tails),
            statistics.median(t for _, t in tails))


def _environment(args, configs):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "configs": configs,
    }


def _ops(passes, kind=None):
    return [op for p in passes for op in p.ops if kind is None or op.kind == kind]


def _ms_p50(passes, kind):
    times = [op.seconds for op in _ops(passes, kind)]
    return 1e3 * statistics.median(times) if times else 0.0


def _consistent(passes, W):
    """Answers of later passes must repeat the first pass's answers."""
    first = W.answers(passes[0])
    return all(W.answers(p) == first for p in passes[1:])


def _ok_frac(ops):
    """Share of distinct ops (by key) that passed every time they ran."""
    failed = {op.key for op in ops if op.failures}
    keys = {op.key for op in ops}
    return (len(keys) - len(failed)) / len(keys)


def end_to_end(W, workload, passes, setup_s, rss_kib):
    percentile, tail = _chunked_tail([op.seconds for op in _ops(passes, "certify")])
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "op_ms_p50": (_ms_p50(passes, W.HEADLINE[workload]), "ms"),
        "certify_ms_p50": (_ms_p50(passes, "certify"), "ms"),
        "certify_ms_tail": (1e3 * tail, "ms"),
        "ok_frac": (_ok_frac(_ops(passes)), "share"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }
    return metrics, {"certify_tail_percentile": percentile}


def _frac(num, den):
    return num / den if den else 0.0


def per_layer(W, tracer, untraced, traced, speed):
    """Per-layer metrics per pass; span times are scaled to reference speed
    by the probe's median over the traced phase."""
    k = len(traced)
    layers = tracer.layer_totals()
    m = {}
    ops = _ops(untraced[:1])
    solves = [op for op in ops if op.kind != "certify"]
    iters = sum(op.info["iterations"] for op in solves)
    m["solver.iterations"] = (iters, "count")
    for stop in ("max_iters", "stalled", "interior_optimum"):
        m[f"solver.stop.{stop}"] = (
            sum(stop in op.info["status"] for op in solves), "count")
    for short, kind in (("ncrank", "ncrank"), ("qfunc", "quantum_functional"),
                        ("gstable", "g_stable_rank")):
        these = [op for op in solves if op.kind == kind]
        m[f"{short}.useful_iter_frac"] = (
            _frac(sum(op.info["useful"] for op in these),
                  sum(op.info["iterations"] for op in these)), "share")
    gsm = layers["solver.group_subgradient_method"]
    m["solver.iter_ms"] = (_frac(1e3 * speed * gsm[2] / k, iters), "ms")

    def span(name, *fields):
        calls, self_s, total_s = layers[name]
        values = {"calls": (calls / k, "count"), "self_s": (speed * self_s / k, "s"),
                  "total_s": (speed * total_s / k, "s")}
        for f in fields:
            m[f"{name}.{f}"] = values[f]

    span("solver.group_subgradient_method", "self_s")
    span("solver.extract_certificate", "total_s")
    span("solver.dual_value", "calls", "total_s")
    span("spectral.value_and_subgradient", "calls", "self_s")
    span("spectral.lift_eval", "calls", "self_s")
    span("spectral.eigh", "calls", "self_s")
    span("spectral.moreau_objective", "calls")
    span("spectral.conjugate_eval", "calls", "self_s")
    span("linalg.eigh", "calls", "self_s")
    in_solver = tracer.calls_under("solver.group_subgradient_method", "linalg.eigh")
    m["linalg.eigh_per_iter"] = (_frac(in_solver / k, iters), "count")
    span("geometry.expm_herm", "calls", "self_s")
    span("geometry.log_map", "self_s")
    span("geometry.asymptotic_at_base", "self_s")
    for name in ("act", "moment_map", "spectrum", "recession"):
        span(f"tensors.{name}", "calls", "self_s")
    for name in ("ncrank", "g_stable_rank", "quantum_functional", "certify"):
        span(f"apps.{name}", "self_s")
    span("apps.fortin_reutenauer_pair", "total_s")
    span("io.certificate_from_record", "calls", "self_s")

    pencils = [op for op in solves if op.kind == "ncrank"]
    planted = [op for op in pencils if "witness" in op.info]
    qfunc = [op for op in solves if op.kind == "quantum_functional"]
    m["apps.ncrank.rank_exact_frac"] = (
        _frac(sum(op.info["rank_exact"] for op in pencils), len(pencils)), "share")
    m["apps.ncrank.witness_frac"] = (
        _frac(sum(op.info["witness"] for op in planted), len(planted)), "share")
    m["apps.quantum_functional.gap_mean"] = (
        _frac(sum(op.info["gap"] for op in qfunc), len(qfunc)), "bits")
    for name in ("ncrank", "g_stable_rank", "quantum_functional"):
        m[f"apps.{name}.ms_p50"] = (_ms_p50(untraced, name), "ms")
    untraced_wall = statistics.median(p.wall for p in untraced)
    traced_wall = statistics.median(p.wall for p in traced)
    m["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "share")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qflow" / "__init__.py").is_file():
        print(f"run.py: qflow sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy is imported
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]

    t0 = time.perf_counter()
    import qflow
    import qflow.io  # noqa: F401
    import_s = time.perf_counter() - t0
    if Path(qflow.__file__).resolve().parent != SRC / "qflow":
        print(f"run.py: imported qflow from {qflow.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import speed
    import workloads as W

    import_s = [import_s / speed.speed_factor()]

    if args.workload not in W.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(W.WORKLOADS)}", file=sys.stderr)
        return 2

    import_s += [_import_probe() for _ in range(SETUP_ROUNDS - 1)]
    probe = speed.SpeedProbe()
    probe.start()
    try:
        return _measure(args, W, probe, import_s)
    finally:
        probe.stop()


def _measure(args, W, probe, import_s):
    rounds, oracle_s, fingerprints = [], [], set()
    try:
        for _ in range(SETUP_ROUNDS):
            t = time.perf_counter()
            inputs = W.build_inputs(args.workload, args.seed)
            refs, o_s = W.prepare(args.workload, inputs)
            W.warm_up(args.workload)
            rounds.append(float(probe.scale(t, time.perf_counter())))
            oracle_s.append(o_s)
            fingerprints.add(W.canonical_bytes(inputs))
    except W.BenchmarkAbort as exc:
        print(f"run.py: aborted, benchmark construction is inconsistent: {exc}",
              file=sys.stderr)
        return 3
    if len(fingerprints) != 1:
        print("run.py: the same seed gave different inputs", file=sys.stderr)
        return 3
    setup_s = statistics.median(import_s) + statistics.median(rounds)

    untraced, rss_kib = W.measure(args.workload, inputs, refs, args.seconds)
    W.rescale(untraced, probe)
    answers = W.answers(untraced[0])
    detail = {"environment": _environment(args, W.configs(args.workload)),
              "digest": W.digest(answers),
              "solves": {op.key: [op.answer, op.info["iterations"], op.info["status"],
                                  round(op.seconds, 3)]
                         for op in untraced[0].ops if op.kind != "certify"},
              "passes": len(untraced),
              "certify_keys": len({op.key for op in untraced[0].ops
                                   if op.kind == "certify"}),
              "raw_wall_s": statistics.median(
                  sum(op.t1 - op.t0 for op in p.ops) for p in untraced)}
    correct = _consistent(untraced, W)
    passes = list(untraced)
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        t_traced = time.perf_counter()
        try:
            traced, _ = W.measure(args.workload, inputs, refs, args.seconds, tracer)
        finally:
            tracer.remove()
        speed_traced = probe.factor(t_traced, time.perf_counter())
        W.rescale(traced, probe)
        passes += traced
        detail["traced_digest"] = W.digest(W.answers(traced[0]))
        correct = correct and _consistent(traced, W) and (
            detail["traced_digest"] == detail["digest"])
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    e2e, extra = end_to_end(W, args.workload, untraced, setup_s, rss_kib)
    detail.update(extra)
    if args.trace:
        detail["end_to_end"] = {k: {"value": float(v), "unit": u} for k, (v, u) in e2e.items()}
        metrics = per_layer(W, tracer, untraced, traced, speed_traced)
        metrics["apps.ncrank_blowup_oracle.total_s"] = (statistics.median(oracle_s), "s")
    else:
        metrics = e2e
    detail["probe_ms"] = probe.median_ms()

    ops = _ops(passes)
    failures = [(op.key, op.failures) for op in ops if op.failures]
    detail["failures"] = failures[:20]
    correct = correct and not failures
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": float(v), "unit": u}
                    for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
