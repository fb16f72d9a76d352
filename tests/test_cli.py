import json

import numpy as np
import pytest

from qflow import apps, io, tensors
from qflow.cli import main
from qflow.errors import ValidationError
from qflow.generate import identity_pencil, random_pencil, skew_pencil


def write_unit(tmp_path, n=2, d=3, name="unit.json"):
    path = tmp_path / name
    rec = io.tensor_to_record(tensors.unit_tensor(n, d))
    path.write_text(json.dumps(rec))
    return str(path)


def write_pencil(tmp_path, pencil, name="pencil.json"):
    path = tmp_path / name
    path.write_text(json.dumps(io.pencil_to_record(pencil)))
    return str(path)


# ---------------------------------------------------------------------------
# file formats


def test_tensor_record_roundtrip():
    v = tensors.unit_tensor(2, 3) + 0.5j * tensors.rank_one(
        [np.array([0.0, 1.0])] * 3
    )
    rec = io.tensor_to_record(v)
    back = io.tensor_from_record(rec)
    assert np.max(np.abs(back - v)) == 0


def test_duplicate_index_rejected():
    rec = {"dims": [2, 2],
           "entries": [{"idx": [0, 0], "re": 1.0, "im": 0.0},
                       {"idx": [0, 0], "re": 2.0, "im": 0.0}]}
    with pytest.raises(ValidationError):
        io.tensor_from_record(rec)


def test_out_of_range_index_rejected():
    rec = {"dims": [2, 2], "entries": [{"idx": [0, 5], "re": 1.0, "im": 0.0}]}
    with pytest.raises(ValidationError):
        io.tensor_from_record(rec)


def test_pencil_record_roundtrip():
    A = random_pencil(3, 2, 0)
    back = io.pencil_from_record(io.pencil_to_record(A))
    for M, N in zip(A.matrices, back.matrices):
        assert np.max(np.abs(M - N)) < 1e-15


def test_certificate_roundtrip():
    from qflow.geometry import BoundaryCertificate

    rng = np.random.default_rng(0)
    bases = [np.linalg.qr(rng.standard_normal((n, n))
                          + 1j * rng.standard_normal((n, n)))[0] for n in (2, 3)]
    cert = BoundaryCertificate(np.zeros(0), bases,
                               [np.array([1.0, -1.0]), np.array([0.5, 0.0, -0.5])])
    back = io.certificate_from_record(io.certificate_to_record(cert))
    for a, b in zip(cert.bases, back.bases):
        assert np.max(np.abs(a - b)) < 1e-15
    with pytest.raises(ValidationError):
        io.certificate_from_record({"weights": []})


# ---------------------------------------------------------------------------
# commands


def test_moment_unit_tensor(tmp_path, capsys):
    path = write_unit(tmp_path)
    assert main(["moment", path]) == 0
    out = json.loads(capsys.readouterr().out)
    for s in out["spectra"]:
        assert abs(s[0] - 0.5) < 1e-12 and abs(s[1] - 0.5) < 1e-12


def test_moment_rank_one(tmp_path, capsys):
    path = tmp_path / "r1.json"
    v = tensors.rank_one([np.array([1.0, 0.0])] * 3)
    path.write_text(json.dumps(io.tensor_to_record(v)))
    assert main(["moment", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    for s in out["spectra"]:
        assert abs(s[0] - 1.0) < 1e-12


def test_malformed_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dims": [2, 2],
                                "entries": [{"idx": [0, 0], "re": 1.0},
                                            {"idx": [0, 0], "re": 1.0}]}))
    assert main(["moment", str(path)]) == 2
    assert "[0, 0]" in capsys.readouterr().err


def test_missing_file_exit_2(tmp_path):
    assert main(["moment", str(tmp_path / "nope.json")]) == 2


def test_ncrank_identity(tmp_path, capsys):
    path = write_pencil(tmp_path, identity_pencil(3))
    assert main(["ncrank", path, "--max-iters", "400"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["rank"] == 3


def test_ncrank_common_kernel_exit_4(tmp_path, capsys):
    E11 = np.zeros((2, 2), dtype=complex)
    E11[0, 0] = 1.0
    path = write_pencil(tmp_path, apps.MatrixPencil([E11]))
    assert main(["ncrank", path]) == 4
    assert "kernel" in capsys.readouterr().err


def test_gstable_alpha_mismatch_exit_2(tmp_path):
    path = write_unit(tmp_path)
    assert main(["gstable", path, "--alpha", "1,1"]) == 2


def test_qfunc_unit_tensor(tmp_path, capsys):
    path = write_unit(tmp_path, n=2)
    assert main(["qfunc", path, "--theta", "0.4,0.3,0.3",
                 "--max-iters", "600"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["result"]["primal_value"] - 1.0) < 1e-6
    assert out["config"]["seed"] == 0
    assert out["config"]["smoothing"] is not None


def test_scale_frobenius_unit(tmp_path, capsys):
    path = write_unit(tmp_path)
    assert main(["scale", path, "--objective", "frobenius",
                 "--max-iters", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    # at iterate 0 the marginals are uniform: ||(I/2,I/2,I/2)|| = sqrt(3)/sqrt(2)
    assert abs(out["result"]["primal_value"] - np.sqrt(3.0 / 2.0)) < 1e-10


def test_gen_unit(tmp_path, capsys):
    assert main(["gen", "unit", "--dims", "2,3"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["dims"] == [2, 2, 2]
    assert len(rec["entries"]) == 2


def test_gen_rank_one_spectra(tmp_path, capsys):
    out_path = tmp_path / "r1.json"
    assert main(["gen", "rank_one", "--dims", "2,2", "--seed", "3",
                 "--out", str(out_path)]) == 0
    kind, v = io.load_instance(str(out_path))
    s = tensors.spectrum(tensors.moment_map(v))
    assert abs(s[0][0] - 1.0) < 1e-12


def test_determinism_gen(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["gen", "gaussian", "--dims", "2,2,2", "--seed", "5", "--out", str(a)])
    main(["gen", "gaussian", "--dims", "2,2,2", "--seed", "5", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_determinism_solver_runs(tmp_path):
    path = write_unit(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["qfunc", path, "--max-iters", "300", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_certify_roundtrip(tmp_path, capsys):
    """A certificate exported from a run evaluates to the recorded dual."""
    E11 = np.zeros((2, 2), dtype=complex)
    E11[0, 0] = 1.0
    E12 = np.zeros((2, 2), dtype=complex)
    E12[0, 1] = 1.0
    A = apps.MatrixPencil([E11, E12])
    pencil_path = write_pencil(tmp_path, A)
    out_path = tmp_path / "run.json"
    assert main(["ncrank", pencil_path, "--max-iters", "1200",
                 "--out", str(out_path)]) == 0
    run = json.loads(out_path.read_text())
    assert run["certificate"] is not None
    cert_path = tmp_path / "cert.json"
    cert = io.certificate_from_record(run["certificate"])
    peak = max(np.max(np.abs(np.asarray(w))) for w in cert.weights)
    cert_path.write_text(json.dumps(io.certificate_to_record(cert.scaled(1 / peak))))
    assert main(["certify", pencil_path, str(cert_path),
                 "--objective", "trace_dist_to_uniform",
                 "--primal", str(run["result"]["primal_value"])]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["weak_duality_ok"]
    assert abs(rec["dual_value"] - run["result"]["dual_value"]) < 1e-9


def test_certify_dims_mismatch_exit_2(tmp_path):
    path = write_unit(tmp_path)
    cert_path = tmp_path / "cert.json"
    from qflow.geometry import BoundaryCertificate

    cert = BoundaryCertificate(np.zeros(0), [np.eye(3, dtype=complex)] * 3,
                               [np.zeros(3)] * 3)
    cert_path.write_text(json.dumps(io.certificate_to_record(cert)))
    assert main(["certify", path, str(cert_path)]) == 2


def test_certify_non_unitary_exit_2(tmp_path, capsys):
    path = write_unit(tmp_path)
    from qflow.geometry import BoundaryCertificate

    theta = ",".join([repr(1 / 3)] * 3)
    for scale, code in ((1.0, 0), (0.5, 2)):
        cert = BoundaryCertificate(np.zeros(0), [scale * np.eye(2, dtype=complex)] * 3,
                                   [np.array([-1.0, -1.0])] * 3)
        cert_path = tmp_path / f"cert{scale}.json"
        cert_path.write_text(json.dumps(io.certificate_to_record(cert)))
        assert main(["certify", path, str(cert_path), "--objective",
                     "neg_entropy_weighted", "--theta", theta]) == code
    assert abs(json.loads(capsys.readouterr().out)["dual_value"] + 1.0) < 1e-12


def test_max_iters_zero_reports_initial(tmp_path, capsys):
    path = write_unit(tmp_path)
    assert main(["scale", path, "--objective", "frobenius",
                 "--max-iters", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["iterations"] == 0


def test_record_every_zero_exit_2(tmp_path, capsys):
    path = write_unit(tmp_path)
    assert main(["scale", path, "--record-every", "0"]) == 2
    assert "record_every" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--step", "inf"), ("--step", "nan"),
                                        ("--smooth", "nan"), ("--smooth", "inf"),
                                        ("--tol", "nan"), ("--tol", "-1")])
def test_invalid_solver_settings_exit_2(tmp_path, capsys, flag, value):
    path = write_unit(tmp_path)
    assert main(["scale", path, flag, value]) == 2
    assert "finite" in capsys.readouterr().err


def test_scale_entropy_descends(tmp_path, capsys):
    """The entropy objective is negative: the run must still descend from
    the identity and report a finite dual bound."""
    path = str(tmp_path / "g.json")
    assert main(["gen", "gaussian", "--dims", "3,3,3", "--seed", "7",
                 "--out", path]) == 0
    assert main(["scale", path, "--objective", "neg_entropy_weighted",
                 "--theta", "0.2,0.3,0.5", "--max-iters", "100"]) == 0
    out = json.loads(capsys.readouterr().out)
    start = out["trace"][0]["q_value"]
    res = out["result"]
    assert res["primal_value"] < start - 0.1
    assert "interior_optimum" not in res["status"]
    assert np.isfinite(res["dual_value"])
    assert res["dual_value"] <= res["primal_value"] + 1e-8
    assert "shift" not in out["config"]


def test_scale_dual_never_below_infimum(tmp_path, capsys):
    """trace_dist_to_uniform is nonnegative, and so is the dual that scale
    reports for it (c = 0 is always a candidate)."""
    path = str(tmp_path / "g.json")
    assert main(["gen", "gaussian", "--dims", "3,3,3", "--seed", "7",
                 "--out", path]) == 0
    assert main(["scale", path, "--objective", "trace_dist_to_uniform",
                 "--max-iters", "200"]) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["dual_value"] >= 0.0
    assert res["dual_value"] <= res["primal_value"] + 1e-8
