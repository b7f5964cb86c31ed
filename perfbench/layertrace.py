"""Spans around the calls into phodge's layers, installed from outside the
program.

install() wraps the public functions behind the per-layer metrics.  Class
methods are replaced on their class; module-level functions are replaced in
every loaded module that holds them, because phodge modules import each other
by name (godement holds its own reference to spectral.total_complex, absolute
to ext.ExtComplex).  Each call records one span (id, parent id, name, start,
end) in memory; self time is a span's duration minus the durations of its
child spans.  metrics() turns the spans and the counters into the per-layer
numbers, and write_spans() saves the spans when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

# metric name -> (unit, better)
PER_LAYER = {
    "linalg.rref_calls": ("count", "lower"),
    "linalg.rref_memo_hit_ratio": ("1", "higher"),
    "linalg.rref_self_s": ("s", "lower"),
    "linalg.rref_max_cells": ("count", "lower"),
    "linalg.rref_work": ("count", "lower"),
    "linalg.rref_max_bits": ("bits", "lower"),
    "linalg.rref_density": ("1", "lower"),
    "linalg.solve_calls": ("count", "lower"),
    "linalg.solve_self_s": ("s", "lower"),
    "linalg.solve_matrix_calls": ("count", "lower"),
    "linalg.solve_matrix_self_s": ("s", "lower"),
    "linalg.coords_of_calls": ("count", "lower"),
    "linalg.subspace_calls": ("count", "lower"),
    "linalg.subspace_self_s": ("s", "lower"),
    "linalg.intersect_calls": ("count", "lower"),
    "linalg.quotient_self_s": ("s", "lower"),
    "linalg.apply_self_s": ("s", "lower"),
    "linalg.mul_self_s": ("s", "lower"),
    "complexes.cohomology_calls": ("count", "lower"),
    "complexes.cohomology_memo_hit_ratio": ("1", "higher"),
    "complexes.cohomology_self_s": ("s", "lower"),
    "complexes.quasi_iso_self_s": ("s", "lower"),
    "complexes.induced_self_s": ("s", "lower"),
    "phc.quasi_iso_self_s": ("s", "lower"),
    "ext.build_calls": ("count", "lower"),
    "ext.build_self_s": ("s", "lower"),
    "ext.filtered_hom_self_s": ("s", "lower"),
    "ext.induced_map_self_s": ("s", "lower"),
    "ext.max_total_dim": ("count", "lower"),
    "absolute.duality_self_s": ("s", "lower"),
    "absolute.gysin_self_s": ("s", "lower"),
    "absolute.syntomic_self_s": ("s", "lower"),
    "absolute.cup_self_s": ("s", "lower"),
    "spectral.pages_calls": ("count", "lower"),
    "spectral.pages_self_s": ("s", "lower"),
    "spectral.total_complex_self_s": ("s", "lower"),
    "filtered.strict_self_s": ("s", "lower"),
    "filtered.graded_self_s": ("s", "lower"),
    "godement.bar_self_s": ("s", "lower"),
    "godement.sections_self_s": ("s", "lower"),
    "godement.sections_map_calls": ("count", "lower"),
    "godement.sections_map_self_s": ("s", "lower"),
    "godement.max_sections_dim": ("count", "lower"),
    "godement.route_cech_s": ("s", "lower"),
    "godement.route_gd_s": ("s", "lower"),
    "godement.route_gd2_s": ("s", "lower"),
    "io.load_self_s": ("s", "lower"),
    "io.files_loaded": ("count", "lower"),
    "cli.command_self_s": ("s", "lower"),
    "trace.overhead_ratio": ("1", "lower"),
}

# span group -> wrapped targets: (module, class or None, attribute)
TARGETS = {
    "linalg.rref": [("phodge.linalg", "Matrix", "rref")],
    "linalg.solve": [("phodge.linalg", "Matrix", "solve")],
    "linalg.solve_matrix": [("phodge.linalg", "Matrix", "solve_matrix")],
    "linalg.coords_of": [("phodge.linalg", "Subspace", "coords_of")],
    "linalg.subspace": [("phodge.linalg", "Subspace", "__init__")],
    "linalg.intersect": [("phodge.linalg", "Subspace", "intersect")],
    "linalg.quotient": [("phodge.linalg", "Subspace", "quotient")],
    "linalg.apply": [("phodge.linalg", "Matrix", "apply")],
    "linalg.mul": [("phodge.linalg", "Matrix", "__mul__")],
    "complexes.cohomology": [("phodge.complexes", "Complex", "cohomology")],
    "complexes.quasi_iso": [
        ("phodge.complexes", "ChainMap", "is_quasi_iso"),
        ("phodge.complexes", None, "is_quasi_iso"),
    ],
    "complexes.induced": [("phodge.complexes", "ChainMap", "induced_on_cohomology")],
    "phc.quasi_iso": [("phodge.phc", None, "is_quasi_iso_phc")],
    "ext.build": [("phodge.ext", "ExtComplex", "__init__")],
    "ext.filtered_hom": [("phodge.ext", "FilteredHom", "__init__")],
    "ext.induced_map": [("phodge.ext", None, "induced_map")],
    "absolute.duality": [
        ("phodge.absolute", "DualityMachine", "__init__"),
        ("phodge.absolute", "DualityMachine", "report"),
    ],
    "absolute.gysin": [("phodge.absolute", None, "gysin_map")],
    "absolute.syntomic": [("phodge.absolute", "SyntomicCone", "__init__")],
    "absolute.cup": [("phodge.absolute", None, "cup_absolute")],
    "spectral.pages": [
        ("phodge.spectral", None, "pages"),
        ("phodge.spectral", None, "filtration_pages"),
    ],
    "spectral.total_complex": [("phodge.spectral", None, "total_complex")],
    "filtered.strict": [("phodge.filtered", None, "is_strict_complex")],
    "filtered.graded": [("phodge.filtered", None, "graded")],
    "godement.bar": [
        ("phodge.godement", "BarResolution", "__init__"),
        ("phodge.godement", None, "bar_is_quasi_iso"),
    ],
    "godement.sections": [("phodge.godement", None, "sections")],
    "godement.sections_map": [("phodge.godement", None, "sections_map")],
    "godement.route": [("phodge.godement", None, "sheaf_cohomology")],
    "io.load": [("phodge.io", None, "load_object")],
    "cli.command": [
        ("phodge.cli", None, name)
        for name in ("cmd_validate", "cmd_ext", "cmd_abs", "cmd_les", "cmd_duality",
                     "cmd_gysin", "cmd_ss", "cmd_godement", "cmd_cup")
    ],
}


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return 0


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []  # [id, parent id, group, start, end]
        self.stack = [0]
        self.counts = defaultdict(int)
        self.peaks = defaultdict(int)
        self.route_s = defaultdict(float)

    def _span(self, group, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            note = before(args, kwargs) if before else None
            span = [len(spans) + 1, stack[-1], group, clock(), 0.0]
            spans.append(span)
            stack.append(span[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if after:
                after(args, kwargs, out, note, span)
            return out

        return wrapper

    # counters measured where the work happens

    def _rref_before(self, args, kwargs):
        return args[0]._rref is not None

    def _rref_after(self, args, kwargs, out, hit, span):
        c = self.counts
        if hit:
            c["rref_hits"] += 1
            return
        m = args[0]
        red, pivots = out
        cells = m.rows * m.cols
        c["rref_cells"] += cells
        c["rref_work"] += cells * len(pivots)
        c["rref_nonzero"] += sum(1 for row in m.entries for x in row if x != 0)
        self.peaks["rref_max_cells"] = max(self.peaks["rref_max_cells"], cells)
        bits = max((_bits(x) for row in red.entries for x in row), default=0)
        self.peaks["rref_max_bits"] = max(self.peaks["rref_max_bits"], bits)

    def _cohomology_before(self, args, kwargs):
        return args[1] in args[0]._cohomology

    def _cohomology_after(self, args, kwargs, out, hit, span):
        self.counts["cohomology_hits"] += hit

    def _ext_after(self, args, kwargs, out, note, span):
        total = sum(args[0].total.dims.values())
        self.peaks["ext_max_total_dim"] = max(self.peaks["ext_max_total_dim"], total)

    def _sections_after(self, args, kwargs, out, note, span):
        self.peaks["max_sections_dim"] = max(self.peaks["max_sections_dim"], out[0].dim)

    def _route_after(self, args, kwargs, out, note, span):
        via = args[1] if len(args) > 1 else kwargs.get("via", "cech")
        self.route_s[via] += span[4] - span[3]

    def install(self) -> None:
        """Replace every target by its traced wrapper."""
        import importlib

        hooks = {
            "linalg.rref": (self._rref_before, self._rref_after),
            "complexes.cohomology": (self._cohomology_before, self._cohomology_after),
            "ext.build": (None, self._ext_after),
            "godement.sections": (None, self._sections_after),
            "godement.route": (None, self._route_after),
        }
        for group, targets in TARGETS.items():
            before, after = hooks.get(group, (None, None))
            for modname, clsname, attr in targets:
                mod = importlib.import_module(modname)
                if clsname:
                    cls = getattr(mod, clsname)
                    orig = cls.__dict__[attr]
                    if group == "linalg.subspace":
                        setattr(cls, attr, self._subspace_init(orig))
                    else:
                        setattr(cls, attr, self._span(group, orig, before, after))
                    continue
                orig = getattr(mod, attr)
                wrapped = self._span(group, orig, before, after)
                for other in list(sys.modules.values()):
                    names = getattr(other, "__dict__", None)
                    if not names:
                        continue
                    for key, value in list(names.items()):
                        if value is orig:
                            setattr(other, key, wrapped)

    def _subspace_init(self, orig):
        """Only non-canonical builds eliminate; canonical ones pass through."""
        traced = self._span("linalg.subspace", orig)

        @functools.wraps(orig)
        def wrapper(self_, ambient_dim, basis, *, canonical=False):
            if canonical:
                return orig(self_, ambient_dim, basis, canonical=True)
            return traced(self_, ambient_dim, basis)

        return wrapper

    def metrics(self) -> dict:
        """The per-layer metrics (all but trace.overhead_ratio)."""
        child = defaultdict(float)
        for sid, parent, group, start, end in self.spans:
            child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for sid, parent, group, start, end in self.spans:
            self_s[group] += (end - start) - child[sid]
            calls[group] += 1
        c, p = self.counts, self.peaks
        rref_calls = calls["linalg.rref"]
        coh_calls = calls["complexes.cohomology"]
        out = {
            "linalg.rref_calls": rref_calls,
            "linalg.rref_memo_hit_ratio": c["rref_hits"] / rref_calls if rref_calls else 0.0,
            "linalg.rref_max_cells": p["rref_max_cells"],
            "linalg.rref_work": c["rref_work"],
            "linalg.rref_max_bits": p["rref_max_bits"],
            "linalg.rref_density": c["rref_nonzero"] / c["rref_cells"] if c["rref_cells"] else 0.0,
            "linalg.solve_calls": calls["linalg.solve"],
            "linalg.solve_matrix_calls": calls["linalg.solve_matrix"],
            "linalg.coords_of_calls": calls["linalg.coords_of"],
            "linalg.subspace_calls": calls["linalg.subspace"],
            "linalg.intersect_calls": calls["linalg.intersect"],
            "complexes.cohomology_calls": coh_calls,
            "complexes.cohomology_memo_hit_ratio": c["cohomology_hits"] / coh_calls if coh_calls else 0.0,
            "ext.build_calls": calls["ext.build"],
            "ext.max_total_dim": p["ext_max_total_dim"],
            "spectral.pages_calls": calls["spectral.pages"],
            "godement.sections_map_calls": calls["godement.sections_map"],
            "godement.max_sections_dim": p["max_sections_dim"],
            "io.files_loaded": calls["io.load"],
        }
        for via in ("cech", "gd", "gd2"):
            out[f"godement.route_{via}_s"] = self.route_s[via]
        for name in PER_LAYER:
            if name.endswith("_self_s"):
                out[name] = self_s[name[: -len("_self_s")]]
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def merge(totals: dict, part: dict) -> dict:
    """Combine the metrics of two traced processes: counts and times add,
    maxima take the larger, ratios are weighted by their call counts."""
    out = dict(totals)
    weights = {
        "linalg.rref_memo_hit_ratio": "linalg.rref_calls",
        "complexes.cohomology_memo_hit_ratio": "complexes.cohomology_calls",
        "linalg.rref_density": "linalg.rref_calls",
    }
    for name, value in part.items():
        if name in weights:
            w_old, w_new = totals.get(weights[name], 0), part.get(weights[name], 0)
            out[name] = (totals.get(name, 0.0) * w_old + value * w_new) / (w_old + w_new) if w_old + w_new else 0.0
        elif "_max_" in name:
            out[name] = max(totals.get(name, 0), value)
        else:
            out[name] = totals.get(name, 0) + value
    return out
