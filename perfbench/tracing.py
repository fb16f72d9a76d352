"""Benchmark-side spans around qflow's layer boundaries.

`Tracer.install` replaces each traced function with a wrapper in every module
namespace that holds it, because ``solver`` and ``apps`` import names such as
``expm_herm`` or ``dual_value`` into their own namespaces and ``tensors`` and
``geometry`` hold their own ``eigh``.  ``numpy.linalg.eigh`` is traced at its
boundary as the ``linalg`` layer.  qflow itself is not modified.

Spans stay in memory as parallel arrays (name id, start, end, parent span, op
id) and are written out by `Tracer.save` when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

import qflow
from qflow import apps, geometry, io, solver, spectral, tensors

# span name -> (module, attribute) of the traced function
TARGETS = {
    "apps.ncrank": (apps, "ncrank"),
    "apps.g_stable_rank": (apps, "g_stable_rank"),
    "apps.quantum_functional": (apps, "quantum_functional"),
    "apps.certify": (apps, "certify"),
    "apps.fortin_reutenauer_pair": (apps, "fortin_reutenauer_pair"),
    "solver.group_subgradient_method": (solver, "group_subgradient_method"),
    "solver.extract_certificate": (solver, "extract_certificate"),
    "solver.dual_value": (solver, "dual_value"),
    "spectral.value_and_subgradient": (spectral, "value_and_subgradient"),
    "spectral.lift_eval": (spectral, "lift_eval"),
    "spectral.eigh": (spectral, "eigh"),
    "spectral.moreau_objective": (spectral, "moreau_objective"),
    "spectral.conjugate_eval": (spectral, "conjugate_eval"),
    "geometry.expm_herm": (geometry, "expm_herm"),
    "geometry.log_map": (geometry, "log_map"),
    "geometry.asymptotic_at_base": (geometry, "asymptotic_at_base"),
    "tensors.act": (tensors, "act"),
    "tensors.moment_map": (tensors, "moment_map"),
    "tensors.spectrum": (tensors, "spectrum"),
    "tensors.recession": (tensors, "recession"),
    "io.certificate_from_record": (io, "certificate_from_record"),
    "linalg.eigh": (np.linalg, "eigh"),
}


def _namespaces():
    mods = [m for name, m in sys.modules.items()
            if m is not None and (name == "qflow" or name.startswith("qflow."))]
    return [qflow, *mods, np.linalg]


class Tracer:
    def __init__(self):
        self.names = list(TARGETS)
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self._op = -1
        self._undo = []

    def next_op(self):
        self._op += 1

    def _wrap(self, nid, fn):
        name_id, start, end, parent, op = (self.name_id, self.start, self.end,
                                           self.parent, self.op)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self._op)
            end.append(0.0)
            stack.append(sid)
            start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        spaces = _namespaces()
        for nid, (mod, attr) in enumerate(TARGETS.values()):
            orig = getattr(mod, attr)
            wrapper = self._wrap(nid, orig)
            for ns in spaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        setattr(ns, key, wrapper)
                        self._undo.append((ns, key, orig))

    def remove(self):
        for ns, key, orig in reversed(self._undo):
            setattr(ns, key, orig)
        self._undo.clear()

    def arrays(self):
        # copies, so the arrays stay free to grow
        return (np.array(self.name_id, dtype=np.int32),
                np.array(self.start, dtype=float),
                np.array(self.end, dtype=float),
                np.array(self.parent, dtype=np.int32),
                np.array(self.op, dtype=np.int32))

    def layer_totals(self):
        """Per span name: calls, self seconds and total seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        name, start, end, parent, _ = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        selft = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=selft, minlength=k)
        total_s = np.bincount(name, weights=dur, minlength=k)
        return {n: (int(calls[i]), float(self_s[i]), float(total_s[i]))
                for i, n in enumerate(self.names)}

    def calls_under(self, ancestor, name):
        """Number of `name` spans that run inside an `ancestor` span."""
        names, _, _, parent, _ = self.arrays()
        a, n = self.names.index(ancestor), self.names.index(name)
        inside = names == a
        has_parent = parent >= 0
        up = np.where(has_parent, parent, 0)
        while True:
            grown = inside | (has_parent & inside[up])
            if np.array_equal(grown, inside):
                break
            inside = grown
        return int(np.count_nonzero(inside & (names == n)))

    def save(self, path):
        name, start, end, parent, op = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, start=start,
                 end=end, parent=parent, op=op)
