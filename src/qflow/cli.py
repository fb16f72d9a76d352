"""Command-line front end.

Exit codes: 0 success, 2 invalid input or configuration, 3 numerical failure
(non-finite results), 4 failed precondition (e.g. common-kernel rejection).
Set QFLOW_LOG=DEBUG|INFO|... to control logging verbosity.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import apps, generate, io, tensors
from .errors import DomainError, ParameterError, ValidationError
from .spectral import builtin_objective

log = logging.getLogger("qflow")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_PRECONDITION = 4


def _setup_logging():
    level = os.environ.get("QFLOW_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(name)s %(levelname)s %(message)s")


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _floats(s):
    return [float(x) for x in s.split(",")]


def _add_solver_flags(p):
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--smooth", type=float, default=None,
                   help="Moreau smoothing parameter (0 disables)")
    p.add_argument("--tol", type=float, default=None, help="stall tolerance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--record-every", type=int, default=None)
    p.add_argument("--out", default=None)


def _config(args, app):
    cfg = apps.default_config(app)
    over = {"seed": args.seed}
    if args.max_iters is not None:
        over["max_iters"] = args.max_iters
    if args.step is not None:
        over["step_size"] = args.step
    if args.smooth is not None:
        over["smoothing"] = None if args.smooth <= 0 else args.smooth  # NaN fails validate
        if args.smooth <= 0:
            over["smoothing_schedule"] = False
    if args.tol is not None:
        over["tol_stall"] = args.tol
    if args.record_every is not None:
        over["record_every"] = args.record_every
    return replace(cfg, **over)


def _objective_from_args(args, dims):
    kind = args.objective
    params = {}
    if kind == "op_norm_max_weighted" and args.alpha:
        params["alpha"] = _floats(args.alpha)
    if kind == "trace_norm_sum_weighted" and args.alpha:
        params["weights"] = _floats(args.alpha)
    if kind == "neg_entropy_weighted":
        if not args.theta:
            raise ParameterError("neg_entropy_weighted requires --theta")
        params["theta"] = _floats(args.theta)
    if kind == "indicator_trace_ball" and args.radius is not None:
        params["radius"] = args.radius
    return builtin_objective(kind, dims, **params)


def _load_tensor(path):
    kind, inst = io.load_instance(path)
    if kind == "pencil":
        return inst.tensor()
    return inst


def _check_finite(result):
    for val in (result.primal_value, result.dual_value):
        if val is not None and math.isnan(val):
            raise FloatingPointError(f"non-finite result value {val}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_moment(args):
    v = _load_tensor(args.input)
    mu = tensors.moment_map(v)
    rec = {
        "instance": _digest(args.input),
        "spectra": [s.tolist() for s in tensors.spectrum(mu)],
        "moment_map": [io._matrix_to_json(B) for B in mu],
    }
    _emit(json.dumps(rec, sort_keys=True, indent=1), args.out)
    return EXIT_OK


def cmd_scale(args):
    v = _load_tensor(args.input)
    S = _objective_from_args(args, v.shape)
    cfg = _config(args, "scale")
    result = apps.scale(v, S, cfg)
    if not math.isfinite(result.primal_value):
        raise FloatingPointError("solver produced a non-finite primal value")
    rec = io.result_record("scale", cfg, result,
                           extra={"instance": _digest(args.input),
                                  "objective": S.label})
    _emit(io.save_record(rec), args.out)
    return EXIT_OK


def cmd_qfunc(args):
    v = _load_tensor(args.input)
    if not args.theta:
        theta = [1.0 / v.ndim] * v.ndim
        theta[-1] = 1.0 - sum(theta[:-1])
    else:
        theta = _floats(args.theta)
    cfg = _config(args, "qfunc")
    result = apps.quantum_functional(v, theta, cfg)
    _check_finite(result)
    rec = io.result_record("qfunc", cfg, result,
                           extra={"instance": _digest(args.input),
                                  "theta": list(theta)})
    _emit(io.save_record(rec), args.out)
    return EXIT_OK


def cmd_gstable(args):
    v = _load_tensor(args.input)
    if not args.alpha:
        raise ParameterError("gstable requires --alpha")
    alpha = _floats(args.alpha)
    if len(alpha) != v.ndim:
        raise ParameterError(
            f"alpha has length {len(alpha)} but the tensor has {v.ndim} modes"
        )
    cfg = _config(args, "gstable")
    result = apps.g_stable_rank(v, alpha, cfg)
    _check_finite(result)
    rec = io.result_record("gstable", cfg, result,
                           extra={"instance": _digest(args.input),
                                  "alpha": list(alpha)})
    _emit(io.save_record(rec), args.out)
    return EXIT_OK


def cmd_ncrank(args):
    kind, inst = io.load_instance(args.input)
    if kind != "pencil":
        raise ValidationError("ncrank requires a pencil file")
    cfg = _config(args, "ncrank")
    result = apps.ncrank(inst, cfg)
    _check_finite(result)
    rec = io.result_record("ncrank", cfg, result,
                           extra={"instance": _digest(args.input)})
    _emit(io.save_record(rec), args.out)
    print(f"ncrank: rank={result.rank} value={result.value:.6f}",
          file=sys.stderr)
    return EXIT_OK


def cmd_certify(args):
    kind, inst = io.load_instance(args.input)
    with open(args.certificate) as fh:
        cert = io.certificate_from_record(json.load(fh))
    v = inst.tensor() if kind == "pencil" else inst
    modes = tuple(range(len(cert.bases))) if kind != "pencil" else (0, 1)
    if tuple(v.shape[i] for i in modes) != cert.dims:
        raise ValidationError(
            f"certificate dims {cert.dims} do not match instance modes "
            f"{tuple(v.shape[i] for i in modes)}"
        )
    S = _objective_from_args(args, cert.dims)
    value = apps.certify(inst, S, cert, modes=modes)
    rec = {"dual_value": value, "instance": _digest(args.input),
           "objective": S.label}
    if args.primal is not None:
        rec["primal_value"] = args.primal
        rec["weak_duality_ok"] = bool(value <= args.primal + 1e-8)
    _emit(json.dumps(rec, sort_keys=True, indent=1), args.out)
    return EXIT_OK


def cmd_gen(args):
    dims = [int(x) for x in args.dims.split(",")]
    obj = generate.generate(args.kind, dims, seed=args.seed)
    if isinstance(obj, apps.MatrixPencil):
        rec = io.pencil_to_record(obj)
    else:
        rec = io.tensor_to_record(obj)
    rec["seed"] = args.seed
    rec["generator"] = args.kind
    _emit(json.dumps(rec, sort_keys=True, indent=1), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="qflow",
        description="Tensor scaling flows: moment maps, quantum functional, "
        "G-stable rank, noncommutative rank.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("moment", help="moment map and spectra of a tensor")
    sp.add_argument("input")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_moment)

    sp = sub.add_parser("scale", help="minimize a spectral objective of the moment map")
    sp.add_argument("input")
    sp.add_argument("--objective", default="frobenius")
    sp.add_argument("--theta", default=None)
    sp.add_argument("--alpha", default=None)
    sp.add_argument("--radius", type=float, default=None)
    _add_solver_flags(sp)
    sp.set_defaults(fn=cmd_scale)

    sp = sub.add_parser("qfunc", help="weighted-entropy quantum functional")
    sp.add_argument("input")
    sp.add_argument("--theta", default=None)
    _add_solver_flags(sp)
    sp.set_defaults(fn=cmd_qfunc)

    sp = sub.add_parser("gstable", help="G-stable rank bracket")
    sp.add_argument("input")
    sp.add_argument("--alpha", default=None)
    _add_solver_flags(sp)
    sp.set_defaults(fn=cmd_gstable)

    sp = sub.add_parser("ncrank", help="noncommutative rank of a pencil")
    sp.add_argument("input")
    _add_solver_flags(sp)
    sp.set_defaults(fn=cmd_ncrank)

    sp = sub.add_parser("certify", help="evaluate a boundary certificate")
    sp.add_argument("input")
    sp.add_argument("certificate")
    sp.add_argument("--objective", default="frobenius")
    sp.add_argument("--theta", default=None)
    sp.add_argument("--alpha", default=None)
    sp.add_argument("--radius", type=float, default=None)
    sp.add_argument("--primal", type=float, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_certify)

    sp = sub.add_parser("gen", help="generate a seeded tensor or pencil file")
    sp.add_argument("kind", choices=["gaussian", "unit", "rank_one",
                                     "skew_pencil", "random_pencil"])
    sp.add_argument("--dims", default="2,2,2")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_gen)

    return p


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except DomainError as exc:
        log.error("precondition failed: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ValidationError, ParameterError, OSError, json.JSONDecodeError) as exc:
        log.error("invalid input: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        log.error("numerical failure: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
