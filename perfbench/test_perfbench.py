"""Self-tests of the benchmark's generators and checker.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as W  # noqa: E402
from qflow import apps  # noqa: E402
from qflow.solver import FlowConfig  # noqa: E402


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    a = W.canonical_bytes(W.build_inputs(workload, 7))
    b = W.canonical_bytes(W.build_inputs(workload, 7))
    assert a == b


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_other_seed_gives_other_inputs(workload):
    a = W.canonical_bytes(W.build_inputs(workload, 7))
    b = W.canonical_bytes(W.build_inputs(workload, 8))
    assert a != b


def test_planted_reference_matches_oracle():
    for inst in W.build_inputs("pencil_rank", 3)["pencils"]:
        assert apps.ncrank_blowup_oracle(inst["pencil"]) == inst["rank"]


def test_near_zero_rays_put_tiny_entries_on_the_top_weights():
    from qflow import tensors

    inst = W.build_inputs("certify_stream", 5)["instances"][0]
    v = inst["tensor"]
    for name, cert in inst["rays"]:
        if name.startswith("near_zero"):
            eps = float(name[len("near_zero"):])
            w = tensors.act([k.conj().T for k in cert.bases], v, inst["modes"])
            assert abs(w[0, 0, 0]) <= 10 * eps * float(abs(w).max())


def test_checker_counts_corrupted_reference_rank():
    inst = {"key": "identity", "pencil": apps.MatrixPencil([[[1, 0], [0, 1]]]),
            "rank": 2, "planted": False}
    cfg = FlowConfig(max_iters=20, step_size=0.3, smoothing=0.1,
                     smoothing_schedule=True)
    good = W.Pass()
    W.run_ncrank_op(good, inst, None, cfg)
    assert [op.failures for op in good.ops] == [[]]

    bad = W.Pass()
    W.run_ncrank_op(bad, dict(inst, rank=1), None, cfg)
    assert len(bad.ops) == 1 and bad.ops[0].failures
    assert any("reference 1" in r for r in bad.ops[0].failures)


def test_raising_op_is_counted_not_raised():
    p = W.Pass()
    out, op = p.call("ncrank", "boom", lambda: 1 / 0)
    assert out is None and op.failures == ["raised ZeroDivisionError: division by zero"]
