"""JSON file formats: sparse tensor/pencil files, certificates, and result
records.  Everything is human-diffable; complex numbers are {re, im} pairs and
matrices are row-major nested lists."""

from __future__ import annotations

import dataclasses
import json
import math
import numbers

import numpy as np

from .apps import MatrixPencil
from .errors import ValidationError
from .geometry import BoundaryCertificate


def tensor_to_record(v, kind="tensor"):
    """Sparse JSON record of a dense tensor (zero entries omitted)."""
    v = np.asarray(v, dtype=complex)
    entries = []
    for idx in np.argwhere(v != 0):
        z = v[tuple(idx)]
        entries.append({"idx": [int(i) for i in idx], "re": float(z.real),
                        "im": float(z.imag)})
    return {"kind": kind, "dims": [int(n) for n in v.shape], "entries": entries}


def _integer(x, what):
    """x as an int; bools, strings and non-integral numbers are rejected."""
    if isinstance(x, float) and x.is_integer():
        x = int(x)
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValidationError(f"{what} must be integers, got {x!r}")
    return x


def _real(x, what):
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not math.isfinite(x):
        raise ValidationError(f"{what} must be a finite number, got {x!r}")
    return float(x)


def tensor_from_record(rec):
    dims = rec.get("dims") if isinstance(rec, dict) else None
    if not isinstance(dims, list) or not dims:
        raise ValidationError(f"bad dims field: {dims!r}")
    dims = tuple(_integer(n, "dims") for n in dims)
    if any(n <= 0 for n in dims):
        raise ValidationError(f"bad dims field: {list(dims)!r}")
    v = np.zeros(dims, dtype=complex)
    entries = rec.get("entries", [])
    if not isinstance(entries, list):
        raise ValidationError(f"entries must be a list, got {entries!r}")
    seen = set()
    for e in entries:
        if not isinstance(e, dict) or not isinstance(e.get("idx"), list):
            raise ValidationError(f"entry {e!r} has no idx list")
        idx = tuple(_integer(i, "indices") for i in e["idx"])
        if len(idx) != len(dims) or any(
            not 0 <= i < n for i, n in zip(idx, dims)
        ):
            raise ValidationError(f"index {list(idx)} out of range for dims {list(dims)}")
        if idx in seen:
            raise ValidationError(f"duplicate index {list(idx)}")
        seen.add(idx)
        v[idx] = _real(e.get("re", 0.0), "re") + 1j * _real(e.get("im", 0.0), "im")
    return v


def pencil_to_record(A):
    return tensor_to_record(A.tensor(), kind="pencil")


def pencil_from_record(rec):
    v = tensor_from_record(rec)
    if v.ndim != 3 or v.shape[0] != v.shape[1]:
        raise ValidationError(
            f"pencil file must have dims (n, n, m), got {list(v.shape)}"
        )
    return MatrixPencil([v[:, :, k] for k in range(v.shape[2])])


def load_instance(path):
    """Read a tensor or pencil file; returns ('tensor', ndarray) or
    ('pencil', MatrixPencil)."""
    with open(path) as fh:
        rec = json.load(fh)
    if not isinstance(rec, dict):
        raise ValidationError(f"{path}: expected a JSON object, got {type(rec).__name__}")
    kind = rec.get("kind", "tensor")
    if kind == "pencil":
        return kind, pencil_from_record(rec)
    if kind == "tensor":
        return kind, tensor_from_record(rec)
    raise ValidationError(f"unknown file kind {kind!r}")


def _finite(x):
    """x with every non-finite float, an infinite bound for one, as None."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _finite(y) for k, y in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite(y) for y in x]
    return x


def save_record(rec, path=None):
    """Write rec as strict JSON: a non-finite float (no bound) becomes null."""
    text = json.dumps(_finite(rec), sort_keys=True, indent=1, allow_nan=False)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def _matrix_to_json(M):
    M = np.asarray(M, dtype=complex)
    return {"re": M.real.tolist(), "im": M.imag.tolist()}


def _matrix_from_json(d):
    """A square complex matrix from its {re, im} record; re and im must have
    one shape, so that neither is broadcast."""
    M = np.array(d["re"], dtype=complex)
    im = np.asarray(d["im"], dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or im.shape != M.shape:
        raise ValidationError(f"a basis must be a square matrix with re and im of "
                              f"one shape, got shapes {M.shape} and {im.shape}")
    M.imag = im
    return M


def certificate_to_record(cert):
    if cert is None:
        return None
    return {
        "euclid_dir": np.asarray(cert.euclid_dir, dtype=float).tolist(),
        "bases": [_matrix_to_json(k) for k in cert.bases],
        "weights": [np.asarray(w, dtype=float).tolist() for w in cert.weights],
    }


def certificate_from_record(rec):
    try:
        cert = BoundaryCertificate(
            euclid_dir=np.asarray(rec["euclid_dir"], dtype=float),
            bases=[_matrix_from_json(d) for d in rec["bases"]],
            weights=[np.asarray(w, dtype=float) for w in rec["weights"]],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed certificate record: {exc}")
    return cert


_TRACE_SAMPLES = 50


def trace_summary(trace):
    """Downsampled (t, Q, f, R) table from a flow trace."""
    samples = trace.samples
    if len(samples) > _TRACE_SAMPLES:
        idx = np.unique(np.linspace(0, len(samples) - 1, _TRACE_SAMPLES).astype(int))
        samples = [samples[i] for i in idx]
    return [
        {"t": s.t, "q_value": s.q_value, "f_value": s.f_value, "r_cum": s.r_cum}
        for s in samples
    ]


def result_record(command, config, result, **extra):
    """The canonical result record of a CLI run; the certificate and the trace
    of `result` get records of their own."""
    from . import __version__

    values = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)
              if f.name not in ("certificate", "trace")}
    if values["spectra"] is not None:
        values["spectra"] = [np.asarray(s).tolist() for s in values["spectra"]]
    rec = {
        "command": command,
        "config": dataclasses.asdict(config),
        "versions": {"qflow": __version__},
        "result": values,
        "certificate": certificate_to_record(result.certificate),
    }
    if result.trace is not None:
        rec["trace"] = trace_summary(result.trace)
    rec.update(extra)
    return rec
