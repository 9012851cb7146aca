"""Outside-in span tracer for tasksim's layers.

``Tracer.install`` rebinds the public functions listed in ``_layers`` on
every tasksim module (and the classes that own the ``predict`` and
``from_json_dict`` entry points) to wrappers that record a span per call.
``uninstall`` puts the originals back, so untraced ops run the program
exactly as shipped.  Nothing under ``src/`` is modified.

A span is (name, start, end, parent, op id).  Spans stay in flat arrays
while the run lasts and are written out by ``save`` at its end.  A call
into a layer that is already the innermost open span (``builtin`` calling
``rxor``, ``learners.predict`` calling the model's ``predict``) opens no
new span, so no work is counted twice.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

ROOT = "bench.op"


def _layers():
    """Layer name -> (owner, attribute) pairs, resolved after tasksim is importable."""
    from tasksim import cli, distributions, empirical, geometry, learners, similarity

    return {
        "geometry.intersection_area": [(geometry, "intersection_area")],
        "geometry.validate_partition": [(geometry, "validate_partition")],
        "similarity.label_mass_profiles": [(similarity, "label_mass_profiles")],
        "similarity.matrix": [
            (similarity, "analytic_matrix"),
            (similarity, "ts"),
            (similarity, "ats"),
        ],
        "distributions.sample": [(distributions, "sample")],
        "distributions.build": [
            (distributions, "builtin"),
            (distributions, "xor"),
            (distributions, "quads"),
            (distributions, "rxor"),
            (distributions, "fxor"),
            (distributions, "grid_distribution"),
            (distributions, "load_distribution"),
            (distributions.PartitionDistribution, "from_json_dict"),
        ],
        "distributions.validate_distribution": [(distributions, "validate_distribution")],
        "learners.fit_tree": [(learners, "fit_tree")],
        "learners.fit_histogram": [(learners, "fit_histogram")],
        "learners.adapt_to_target": [(learners, "adapt_to_target")],
        "learners.predict": [
            (learners, "predict"),
            (learners.ComposeableDecisionFunction, "predict"),
        ],
        "empirical.ets": [(empirical, "ets")],
        "empirical.harness": [
            (empirical, "empirical_matrix"),
            (empirical, "convergence_study"),
            (empirical, "transfer_experiment"),
            (empirical, "run_replications"),
        ],
        "cli.main": [(cli, "main")],
    }


class Tracer:
    def __init__(self):
        self.layers = _layers()
        self.names = [ROOT, *self.layers]
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self._op_id = -1
        self._pairs: set = set()
        self._patches: list = []
        # per-layer work counters, summed over traced ops
        self.counts = {
            k: 0.0
            for k in (
                "intersection_nonempty", "clips_in_profiles", "cell_pairs", "profile_pairs",
                "sample_rows", "sample_cells", "tree_rows", "tree_leaves", "predict_rows",
            )
        }

    # -- recording --------------------------------------------------------

    def _call(self, lid: int, fn, args, kwargs):
        stack = self._stack
        if stack and self.name[stack[-1]] == lid:
            return fn(*args, **kwargs)
        idx = len(self.start)
        self.name.append(lid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            stack.pop()

    def run_op(self, op_id: int, fn):
        """Run ``fn()`` as one op under a root span."""
        self._op_id = op_id
        self._pairs = set()
        try:
            return self._call(0, fn, (), {})
        finally:
            self.counts["profile_pairs"] += len(self._pairs)

    def _count(self, layer: str, args, result) -> None:
        c = self.counts
        if layer == "geometry.intersection_area":
            c["intersection_nonempty"] += result > 0.0
            if self._stack and self.names[self.name[self._stack[-1]]] == "similarity.label_mass_profiles":
                c["clips_in_profiles"] += 1
        elif layer == "similarity.label_mass_profiles":
            target, source = args[0], args[1]
            c["cell_pairs"] += len(target.partition.cells) * len(source.partition.cells)
            self._pairs.add((target.name, source.name))
        elif layer == "distributions.sample":
            c["sample_rows"] += args[1]
            c["sample_cells"] += len(args[0].partition.cells)
        elif layer == "learners.fit_tree":
            c["tree_rows"] += len(args[0])
            c["tree_leaves"] += result.fn.transformer.n_regions
        elif layer == "learners.predict":
            c["predict_rows"] += len(args[-1])

    def _wrap(self, layer: str, fn):
        lid = self._ids[layer]

        def traced(*args, **kwargs):
            reentrant = bool(self._stack) and self.name[self._stack[-1]] == lid
            result = self._call(lid, fn, args, kwargs)
            if not reentrant:
                self._count(layer, args, result)
            return result

        return traced

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "tasksim" or n.startswith("tasksim.")]
        for layer, targets in self.layers.items():
            for owner, attr in targets:
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(layer, raw.__func__))
                    else:
                        new = self._wrap(layer, raw)
                    self._patches.append((owner, attr, raw))
                    setattr(owner, attr, new)
                    continue
                original = getattr(owner, attr)
                new = self._wrap(layer, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting --------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def self_times(self) -> np.ndarray:
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=dur.size)
        return dur - covered

    def problems(self) -> list[str]:
        """Structural checks: spans nest inside their parent, within one op."""
        a = self.arrays()
        if a["start"].size == 0:
            return ["no spans recorded"]
        out = []
        child = np.nonzero(a["parent"] >= 0)[0]
        par = a["parent"][child]
        if (a["op"][child] != a["op"][par]).any():
            out.append("a span's parent belongs to another op")
        if (a["start"][child] < a["start"][par]).any() or (a["end"][child] > a["end"][par]).any():
            out.append("a span ends outside its parent")
        if (a["name"][a["parent"] < 0] != 0).any():
            out.append("a span outside any op")
        return out

    def layer_metrics(self, time_scale: float = 1.0) -> dict[str, float]:
        """Per-op means of every layer's calls, self time and work counters;
        times are multiplied by ``time_scale``."""
        a = self.arrays()
        roots = a["parent"] < 0
        n_ops = max(1, int(roots.sum()))
        self_t = self.self_times() * time_scale
        calls = np.bincount(a["name"], minlength=len(self.names))
        self_s = np.bincount(a["name"], weights=self_t, minlength=len(self.names))
        c = self.counts

        def per_op(x):
            return float(x) / n_ops

        def ratio(num, den):
            return float(num) / float(den) if den else 0.0

        m = {f"{n}.self_s": per_op(self_s[i]) for i, n in enumerate(self.names)}
        m.update({f"{n}.calls": per_op(calls[i]) for i, n in enumerate(self.names) if i})
        ia = self._ids["geometry.intersection_area"]
        lmp = self._ids["similarity.label_mass_profiles"]
        m.update({
            "geometry.intersection_area.nonempty_ratio": ratio(c["intersection_nonempty"], calls[ia]),
            "similarity.cell_pairs": per_op(c["cell_pairs"]),
            "similarity.bbox_pass_ratio": ratio(c["clips_in_profiles"], c["cell_pairs"]),
            "similarity.profiles_per_pair": ratio(calls[lmp], c["profile_pairs"]),
            "distributions.sample.rows": per_op(c["sample_rows"]),
            "distributions.sample.cells": per_op(c["sample_cells"]),
            "learners.fit_tree.rows": per_op(c["tree_rows"]),
            "learners.fit_tree.leaves": per_op(c["tree_leaves"]),
            "learners.predict.rows": per_op(c["predict_rows"]),
            "trace.op_s": per_op((a["end"][roots] - a["start"][roots]).sum() * time_scale),
            "trace.spans": per_op(a["start"].size),
        })
        return m

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
