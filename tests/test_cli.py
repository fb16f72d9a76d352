import argparse
import dataclasses
import json

import numpy as np
import pytest
from _pencils import planted_pencil

from qflow import apps, cli, io, tensors
from qflow.cli import main
from qflow.errors import ValidationError
from qflow.generate import identity_pencil, random_pencil, skew_pencil
from qflow.geometry import BoundaryCertificate


def write_unit(tmp_path, n=2, d=3, name="unit.json"):
    path = tmp_path / name
    rec = io.tensor_to_record(tensors.unit_tensor(n, d))
    path.write_text(json.dumps(rec))
    return str(path)


def write_cert(tmp_path, bases, weights, name="cert.json"):
    path = tmp_path / name
    cert = BoundaryCertificate(np.zeros(0), bases, weights)
    path.write_text(json.dumps(io.certificate_to_record(cert)))
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


@pytest.mark.parametrize("im", [[[0, 0], [0, 0]], 0], ids=["other_shape", "scalar"])
def test_certificate_record_rejects_im_not_shaped_like_re(im):
    """re and im of a basis must be matrices of one shape: numpy would
    broadcast either into a basis the record does not hold."""
    rec = {"euclid_dir": [], "bases": [{"re": [[1]], "im": im}], "weights": [[0.0]]}
    with pytest.raises(ValidationError, match="malformed certificate record"):
        io.certificate_from_record(rec)
    rec["bases"][0]["im"] = [[0]]
    assert io.certificate_from_record(rec).bases[0].shape == (1, 1)


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


@pytest.mark.parametrize("command,text", [
    ("moment", {"dims": [2, 2], "entries": [{"idx": [0, 0], "re": "abc"}]}),
    ("moment", {"dims": [2, 2], "entries": [{"re": 1.0}]}),
    ("moment", [{"dims": [2, 2]}]),
    ("moment", {"dims": 5}),
    ("moment", {"dims": [2.5, 3, 3], "entries": [{"idx": [0, 0, 0], "re": 1.0}]}),
    ("moment", {"dims": [2, 2], "entries": [{"idx": [0, 0.5], "re": 1.0}]}),
    ("certify", {"euclid_dir": [], "weights": [[1.0, 0.0]] * 3,
                 "bases": [{"re": [[1.0, 0.0], [0.0]], "im": [[0.0, 0.0]] * 2}] * 3}),
    ("certify", {"euclid_dir": [7.0, -3.0], "weights": [[0.1, -0.1]] * 3,
                 "bases": [{"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0]] * 2}] * 3}),
    ("certify", {"euclid_dir": [], "weights": [[0.1, -0.1]] * 3,
                 "bases": [{"re": 1.0, "im": 0.0}] * 3}),
])
def test_malformed_input_exit_2(tmp_path, capsys, command, text):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(text))
    args = [command, str(bad)] if command == "moment" else [command, write_unit(tmp_path),
                                                             str(bad)]
    assert main(args) == 2
    assert "error:" in capsys.readouterr().err


def test_ncrank_identity(tmp_path, capsys):
    path = write_pencil(tmp_path, identity_pencil(3))
    assert main(["ncrank", path, "--max-iters", "400"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["rank"] == 3


def test_ncrank_wide_bracket_reports_no_rank(tmp_path, capsys):
    """With no iterations the bracket [-0.77, 2] holds three integers: the run
    exits 0 with rank null, and stderr gives the bracket."""
    A = planted_pencil(np.random.default_rng(132), 3, 2, 2, 2)
    path = write_pencil(tmp_path, A)
    assert main(["ncrank", path, "--max-iters", "0"]) == 0
    out = capsys.readouterr()
    result = json.loads(out.out)["result"]
    assert result["rank"] is None
    assert "+unrounded" not in result["status"] and "value" not in result
    assert "rank=None bracket=[-0.76" in out.err


def test_ncrank_common_kernel_exit_4(tmp_path, capsys):
    E11 = np.zeros((2, 2), dtype=complex)
    E11[0, 0] = 1.0
    path = write_pencil(tmp_path, apps.MatrixPencil([E11]))
    assert main(["ncrank", path]) == 4
    assert "kernel" in capsys.readouterr().err


@pytest.mark.parametrize("args,extra", [
    (["scale", "UNIT"], {"objective"}),
    (["qfunc", "UNIT"], {"theta"}),
    (["gstable", "UNIT", "--alpha", "1,1,1"], {"alpha"}),
    (["ncrank", "PENCIL"], set()),
])
def test_result_record_keys(tmp_path, capsys, args, extra):
    """A solve record's "result" holds every ApplicationResult field but the
    certificate and the trace, which are records of their own."""
    paths = {"UNIT": write_unit(tmp_path), "PENCIL": write_pencil(tmp_path, identity_pencil(2))}
    assert main([paths.get(a, a) for a in args] + ["--max-iters", "5"]) == 0
    rec = json.loads(capsys.readouterr().out)
    fields = {f.name for f in dataclasses.fields(apps.ApplicationResult)}
    assert set(rec["result"]) == fields - {"certificate", "trace"}
    assert set(rec) == {"command", "config", "versions", "result", "certificate",
                        "instance", "trace"} | extra
    # the FlowConfig fields: adding or removing a solver knob changes records
    assert set(rec["config"]) == {"max_iters", "step_size", "smoothing",
                                  "smoothing_schedule", "ode_step", "tol_stall"}


@pytest.mark.parametrize("args,flag", [
    (["gen", "unit", "--dims", "2.5,3"], "dims"),
    (["gen", "gaussian", "--dims", "2,2", "--seed", "-1"], "seed"),
    (["gen", "gaussian", "--dims", "0,3"], "dims"),
    (["gstable", "UNIT", "--alpha", "1,,1"], "alpha"),
    (["qfunc", "UNIT", "--theta", "abc"], "theta"),
    (["certify", "UNIT", "CERT", "--primal", "nan"], "primal"),
])
def test_malformed_flag_values_exit_2(tmp_path, capsys, args, flag):
    paths = {"UNIT": write_unit(tmp_path),
             "CERT": write_cert(tmp_path, [np.eye(2, dtype=complex)] * 3,
                                [np.array([-1.0, -1.0])] * 3)}
    assert main([paths.get(a, a) for a in args]) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("args,flag,kind", [
    (["scale", "UNIT", "--alpha", "1,2,3"], "--alpha", "frobenius"),
    (["scale", "UNIT", "--objective", "trace_dist_to_uniform", "--theta", "0.2,0.3,0.5"],
     "--theta", "trace_dist_to_uniform"),
    (["scale", "UNIT", "--objective", "neg_entropy_weighted", "--theta", "0.2,0.3,0.5",
      "--radius", "2"], "--radius", "neg_entropy_weighted"),
    (["certify", "UNIT", "CERT", "--objective", "op_norm_max_weighted", "--theta", "1,0,0"],
     "--theta", "op_norm_max_weighted"),
])
def test_objective_flag_the_kind_does_not_take_exit_2(tmp_path, capsys, args, flag, kind):
    paths = {"UNIT": write_unit(tmp_path),
             "CERT": write_cert(tmp_path, [np.eye(2, dtype=complex)] * 3,
                                [np.array([-1.0, -1.0])] * 3)}
    assert main([paths.get(a, a) for a in args]) == 2
    err = capsys.readouterr().err
    assert flag in err and kind in err


def test_gstable_alpha_mismatch_exit_2(tmp_path):
    path = write_unit(tmp_path)
    assert main(["gstable", path, "--alpha", "1,1"]) == 2


def test_qfunc_unit_tensor(tmp_path, capsys):
    path = write_unit(tmp_path, n=2)
    assert main(["qfunc", path, "--theta", "0.4,0.3,0.3",
                 "--max-iters", "600"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["result"]["primal_value"] - 1.0) < 1e-6
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
    args = ["qfunc", path, "--max-iters", "300"]
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


def test_ncrank_writes_the_pair_certificate(tmp_path, capsys):
    """A planted pencil of rank 3 closes on the Wong pair: the record gives
    rank and rank_upper 3, and its certificate alone certifies 2(n - r)/n."""
    A = planted_pencil(np.random.default_rng(43), 4, 3, 2, 3)
    pencil_path = write_pencil(tmp_path, A)
    out_path = tmp_path / "run.json"
    assert main(["ncrank", pencil_path, "--out", str(out_path)]) == 0
    run = json.loads(out_path.read_text())
    assert run["result"]["rank"] == 3 and run["result"]["status"] == "scaled_to_floor"
    assert abs(run["result"]["rank_upper"] - 3) < 1e-12
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(run["certificate"]))
    capsys.readouterr()
    assert main(["certify", pencil_path, str(cert_path),
                 "--objective", "trace_dist_to_uniform"]) == 0
    assert abs(json.loads(capsys.readouterr().out)["dual_value"] - 2 * (4 - 3) / 4) < 1e-12


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_records_are_strict_json(tmp_path, capsys):
    """An infinite bound is written as null: the dual -inf of a ray outside
    the conjugate's domain."""
    path = write_unit(tmp_path)
    cert = write_cert(tmp_path, [np.eye(2, dtype=complex)] * 3,
                      [np.array([-1.0, 1.0])] * 3)
    assert main(["certify", path, cert]) == 0
    assert _strict_json(capsys.readouterr().out)["dual_value"] is None
    out = tmp_path / "gstable.json"
    # a Gaussian tensor is off the floor at the start; with no sweep and no
    # step the run has no certificate, and the floor 1/2 is the dual
    gauss = str(tmp_path / "g.json")
    assert main(["gen", "gaussian", "--dims", "2,2,2", "--seed", "3",
                 "--out", gauss]) == 0
    assert main(["gstable", gauss, "--alpha", "1,1,1", "--max-iters", "0",
                 "--out", str(out)]) == 0
    assert _strict_json(out.read_text())["result"]["rank_upper"] == 2.0
    no_steps = dataclasses.replace(apps.default_config("gstable"), max_iters=0)
    _, v = io.load_instance(gauss)
    assert apps.g_stable_rank(v, [1.0] * 3, no_steps).rank_upper == 2.0
    # a unit tensor sits at the floor: sweep 0 closes its bracket
    assert apps.g_stable_rank(tensors.unit_tensor(2, 3), [1.0] * 3,
                              no_steps).rank_upper == 2.0


def test_certify_uses_every_tensor_mode(tmp_path, capsys):
    """A tensor's certificate is checked on all its modes, as `scale` solves:
    a 2-block certificate is for another problem than a 3-mode tensor's."""
    certs = {blocks: write_cert(tmp_path, [np.eye(2, dtype=complex)] * blocks,
                                [np.zeros(2)] * blocks, name=f"cert{blocks}.json")
             for blocks in (2, 3)}
    path = write_unit(tmp_path)
    assert main(["certify", path, certs[2]]) == 2
    assert main(["certify", path, certs[3]]) == 0
    assert json.loads(capsys.readouterr().out)["modes"] == [0, 1, 2]
    pencil = write_pencil(tmp_path, identity_pencil(2))
    assert main(["certify", pencil, certs[2]]) == 0
    assert json.loads(capsys.readouterr().out)["modes"] == [0, 1]


def test_certify_dims_mismatch_exit_2(tmp_path):
    path = write_unit(tmp_path)
    # 3x3 bases on a 2x2x2 tensor, and more blocks than the tensor has modes
    for n, blocks in ((3, 3), (2, 4)):
        cert = write_cert(tmp_path, [np.eye(n, dtype=complex)] * blocks,
                          [np.zeros(n)] * blocks)
        assert main(["certify", path, cert]) == 2


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


@pytest.mark.parametrize("value", ["0", "-0"])
def test_smooth_zero_disables_smoothing(tmp_path, capsys, value):
    path = write_unit(tmp_path)
    assert main(["qfunc", path, "--theta", "0.2,0.3,0.5", "--smooth", value,
                 "--max-iters", "2"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["smoothing"] is None and config["smoothing_schedule"] is False


def test_solver_flags_name_config_fields():
    """cli._config overrides the FlowConfig field that a solver flag's dest
    names, and silently skips a dest that names no field."""
    p = argparse.ArgumentParser()
    cli._add_solver_flags(p)
    dests = {a.dest for a in p._actions if a.dest != "help"}
    assert dests and dests <= {f.name for f in dataclasses.fields(cli.FlowConfig)}


@pytest.mark.parametrize("flag,value", [("--step", "inf"), ("--step", "nan"),
                                        ("--smooth", "nan"), ("--smooth", "inf"),
                                        ("--smooth", "-0.5"),
                                        ("--tol", "nan"), ("--tol", "-1")])
def test_invalid_solver_settings_exit_2(tmp_path, capsys, flag, value):
    path = write_unit(tmp_path)
    assert main(["scale", path, flag, value]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["gstable", "UNIT", "--alpha", "nan,1,1"],
    ["scale", "UNIT", "--objective", "trace_norm_sum_weighted", "--alpha", "inf,1,1"],
    ["scale", "UNIT", "--objective", "op_norm_max_weighted", "--alpha", "1,nan,1"],
    ["scale", "UNIT", "--objective", "indicator_trace_ball", "--radius", "nan"],
])
def test_non_finite_objective_parameters_exit_2(tmp_path, capsys, args):
    path = write_unit(tmp_path, n=3)
    assert main([path if a == "UNIT" else a for a in args]) == 2
    assert "finite" in capsys.readouterr().err


def test_objective_infinite_at_start_exit_4(tmp_path, capsys):
    """The default radius 1 is below ||mu||_1 = 3 of every 3-mode moment map."""
    path = str(tmp_path / "g.json")
    assert main(["gen", "gaussian", "--dims", "2,2,2", "--seed", "3",
                 "--out", path]) == 0
    assert main(["scale", path, "--objective", "indicator_trace_ball"]) == 4
    assert "indicator_trace_ball" in capsys.readouterr().err


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
