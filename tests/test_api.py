"""The public names, the fields of the manifold dataclasses and the names the
benchmark's tracer wraps."""

import dataclasses
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qflow

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_public_api_pinned():
    assert qflow.__all__ == [
        "ApplicationResult",
        "BoundaryCertificate",
        "FlowConfig",
        "FlowTrace",
        "KempfNessProblem",
        "MatrixPencil",
        "ProductPDPoint",
        "SpectralObjective",
        "TangentBlock",
        "asymptotic_at_base",
        "builtin_objective",
        "certify",
        "check_common_kernel",
        "dual_value",
        "energy_residual",
        "extract_certificate",
        "g_stable_rank",
        "geodesic",
        "group_subgradient_method",
        "integrate_flow",
        "log_map",
        "moment_map",
        "moreau_objective",
        "ncrank",
        "ncrank_blowup_oracle",
        "quantum_functional",
        "recession",
        "unit_tensor",
    ]
    for name in qflow.__all__:
        assert hasattr(qflow, name), name


def test_traced_names_resolve():
    """The tracer getattr()s every target when it installs, so a renamed or
    deleted qflow function breaks traced benchmark runs."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for span, (mod, attr) in tracing.TARGETS.items():
        assert callable(getattr(mod, attr, None)), span


def test_manifold_dataclass_fields_pinned():
    """Points and tangents hold only their PD blocks; euclid_dir stays in
    BoundaryCertificate, always empty, for the certificate record format."""
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(qflow.ProductPDPoint) == ["blocks"]
    assert names(qflow.TangentBlock) == ["blocks"]
    assert names(qflow.BoundaryCertificate) == ["euclid_dir", "bases", "weights"]


def test_run_dataclass_fields_pinned():
    """A solver setting, a fact of a run or a result field is added or removed
    on purpose: the config and the result are echoed in every result record,
    and a run keeps each fact once (the energy in its samples, x_T as its
    final factors, the step count and the best value read off the samples)."""
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(qflow.FlowConfig) == [
        "max_iters", "step_size", "smoothing", "smoothing_schedule",
        "ode_step", "tol_stall"]
    assert names(qflow.FlowTrace) == [
        "samples", "final_factors", "certificate", "status", "best_spectra"]
    trace = qflow.FlowTrace()
    assert (trace.iterations, trace.best_q) == (0, float("inf"))
    for name in ("iterations", "best_q"):
        with pytest.raises(AttributeError):
            setattr(trace, name, 0)
    assert names(qflow.solver.TraceSample) == [
        "t", "q_value", "f_value", "r_cum", "step", "q_smooth", "energy"]
    # every field but the certificate and the trace is a result-record key
    assert names(qflow.ApplicationResult) == [
        "primal_value", "dual_value", "gap", "certificate", "spectra", "iterations",
        "status", "rank", "rank_lower", "rank_upper", "trace"]


def test_objective_fields_pinned():
    """An objective is one record: its vector callables, its block dims and
    its label, set by keyword."""
    assert [f.name for f in dataclasses.fields(qflow.SpectralObjective)] == [
        "eval", "conjugate_eval", "subgradient", "prox", "smooth",
        "half_square_conjugate", "conjugate_gauge", "block_dims", "label"]
    S = qflow.builtin_objective("frobenius", (2, 2))
    with pytest.raises(TypeError):
        qflow.SpectralObjective(S.eval, S.conjugate_eval, S.subgradient,
                                block_dims=(2, 2))


def test_runtime_imports_no_scipy():
    """numpy is qflow's only runtime dependency: importing the library, its
    record I/O and its CLI loads no scipy module (a scipy-backed feature must
    import it lazily)."""
    code = ("import sys, qflow, qflow.io, qflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
