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
from dataclasses import fields, replace

import numpy as np

from . import apps, generate, io, tensors
from .errors import DomainError, ParameterError, UnsupportedObjectiveError, ValidationError
from .solver import FlowConfig
from .spectral import OBJECTIVE_PARAMS, builtin_objective

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


def _emit(rec, out):
    text = io.save_record(rec, out)
    if not out:
        print(text)


def _list_of(item):
    """argparse type: a comma-separated list of `item` values."""
    def parse(text):
        return [item(x) for x in text.split(",")]
    parse.__name__ = f"{item.__name__} list"  # argparse names the type by it
    return parse


_FLOATS = _list_of(float)


def _add_solver_flags(p):
    """Each flag's dest is the FlowConfig field it overrides."""
    p.add_argument("--max-iters", type=int)
    p.add_argument("--step", dest="step_size", metavar="STEP", type=float)
    p.add_argument("--smooth", dest="smoothing", metavar="SMOOTH", type=float,
                   help="Moreau smoothing parameter (0 disables)")
    p.add_argument("--tol", dest="tol_stall", metavar="TOL", type=float,
                   help="stall tolerance")


def _config(args):
    """The command's default config, overridden by the solver flags given."""
    over = {f.name: getattr(args, f.name) for f in fields(FlowConfig)
            if getattr(args, f.name, None) is not None}
    if over.get("smoothing") == 0:  # any other value, NaN too, goes to validate
        over.update(smoothing=None, smoothing_schedule=False)
    return replace(apps.default_config(args.command), **over)


def _add_objective_flags(p):
    p.add_argument("--objective", default="frobenius")
    p.add_argument("--theta", type=_FLOATS)
    p.add_argument("--alpha", type=_FLOATS)
    p.add_argument("--radius", type=float)


def _objective_from_args(args, dims):
    kind = args.objective
    given = {f: getattr(args, f) for f in ("theta", "alpha", "radius")
             if getattr(args, f) is not None}
    param = OBJECTIVE_PARAMS.get(kind)
    # the CLI's one spelling of its own: --alpha sets trace_norm_sum_weighted's
    # weights; an unknown kind takes no flag, and builtin_objective rejects it
    flag = "alpha" if param == "weights" else param
    stray = sorted(given.keys() - {flag})
    if stray:
        raise ParameterError(
            f"objective {kind} takes no {', '.join('--' + f for f in stray)}")
    return builtin_objective(kind, dims, **{param: v for v in given.values()})


def _load_tensor(path):
    kind, inst = io.load_instance(path)
    if kind == "pencil":
        return inst.tensor()
    return inst


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
    _emit(rec, args.out)
    return EXIT_OK


def _run_scale(args, cfg):
    v = _load_tensor(args.input)
    S = _objective_from_args(args, v.shape)
    return apps.scale(v, S, cfg), {"objective": S.label}


def _run_qfunc(args, cfg):
    v = _load_tensor(args.input)
    theta = args.theta
    if theta is None:
        theta = [1.0 / v.ndim] * v.ndim
        theta[-1] = 1.0 - sum(theta[:-1])
    return apps.quantum_functional(v, theta, cfg), {"theta": theta}


def _run_gstable(args, cfg):
    v = _load_tensor(args.input)
    return apps.g_stable_rank(v, args.alpha, cfg), {"alpha": args.alpha}


def _run_ncrank(args, cfg):
    kind, inst = io.load_instance(args.input)
    if kind != "pencil":
        raise ValidationError("ncrank requires a pencil file")
    result = apps.ncrank(inst, cfg)
    print(f"ncrank: rank={result.rank} "
          f"bracket=[{result.rank_lower:.6f}, {result.rank_upper:.6f}]", file=sys.stderr)
    return result, {}


# solve command -> (help, run(args, config) -> (result, extra record fields),
#                   adds the command's own flags)
_SOLVE_COMMANDS = {
    "scale": ("minimize a spectral objective of the moment map", _run_scale,
              _add_objective_flags),
    "qfunc": ("weighted-entropy quantum functional", _run_qfunc,
              lambda p: p.add_argument("--theta", type=_FLOATS)),
    "gstable": ("G-stable rank bracket", _run_gstable,
                lambda p: p.add_argument("--alpha", type=_FLOATS, required=True)),
    "ncrank": ("noncommutative rank of a pencil", _run_ncrank, lambda p: None),
}


def cmd_solve(args):
    cfg = _config(args)
    result, extra = args.run(args, cfg)
    # the dual may be infinite (no bound found) but never NaN
    if not math.isfinite(result.primal_value) or math.isnan(result.dual_value):
        raise FloatingPointError(f"non-finite result: primal {result.primal_value}, "
                                 f"dual {result.dual_value}")
    rec = io.result_record(args.command, cfg, result,
                           instance=_digest(args.input), **extra)
    _emit(rec, args.out)
    return EXIT_OK


def cmd_certify(args):
    # JSON has no NaN or infinity, and weak duality needs a number to compare
    if args.primal is not None and not math.isfinite(args.primal):
        raise ParameterError(f"--primal must be finite, got {args.primal}")
    kind, inst = io.load_instance(args.input)
    with open(args.certificate) as fh:
        cert = io.certificate_from_record(json.load(fh))
    # every mode of a tensor, as `scale` uses: a certificate with another
    # block count is for another problem and is rejected
    modes = (0, 1) if kind == "pencil" else tuple(range(inst.ndim))
    S = _objective_from_args(args, cert.dims)
    value = apps.certify(inst, S, cert, modes=modes)
    rec = {"dual_value": value, "instance": _digest(args.input),
           "objective": S.label, "modes": list(modes)}
    if args.primal is not None:
        rec["primal_value"] = args.primal
        rec["weak_duality_ok"] = bool(value <= args.primal + 1e-8)
    _emit(rec, args.out)
    return EXIT_OK


def cmd_gen(args):
    if min(args.dims) < 1 or args.seed < 0:
        raise ParameterError(f"gen needs positive dims and a nonnegative seed, "
                             f"got dims {args.dims} and seed {args.seed}")
    obj = generate.generate(args.kind, args.dims, seed=args.seed)
    if isinstance(obj, apps.MatrixPencil):
        rec = io.pencil_to_record(obj)
    else:
        rec = io.tensor_to_record(obj)
    rec["seed"] = args.seed
    rec["generator"] = args.kind
    _emit(rec, args.out)
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
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_moment)

    for name, (help_, run, add_flags) in _SOLVE_COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("input")
        add_flags(sp)
        _add_solver_flags(sp)
        sp.add_argument("--out")
        sp.set_defaults(fn=cmd_solve, run=run)

    sp = sub.add_parser("certify", help="evaluate a boundary certificate")
    sp.add_argument("input")
    sp.add_argument("certificate")
    _add_objective_flags(sp)
    sp.add_argument("--primal", type=float)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_certify)

    sp = sub.add_parser("gen", help="generate a seeded tensor or pencil file")
    sp.add_argument("kind", choices=["gaussian", "unit", "rank_one",
                                     "skew_pencil", "random_pencil"])
    sp.add_argument("--dims", type=_list_of(int), default="2,2,2")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
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
    except (ValidationError, ParameterError, UnsupportedObjectiveError, OSError,
            json.JSONDecodeError) as exc:
        log.error("invalid input: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        log.error("numerical failure: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
