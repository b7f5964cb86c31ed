"""The four benchmark workloads.

Each workload draws a fixed base pool once (the inputs of the acceptance
criterion it follows, from that criterion's seed), and every operation runs on
a fresh presentation of one pool item drawn from the run's seed: a random
sign on every basis vector for the in-process workloads (relabel.py), a
renaming of the site elements for the sheaf workload, and the order of the
commands for the CLI workload.  A pass runs every pool item once, in pool order; a run is a
whole number of passes, so every pool item carries the same weight in every
run and the work per run does not depend on the seed.

The answer of every operation is compared with the answer recorded for its
pool item in expected.json.  The answers are invariant under the change of
presentation, so the comparison holds for every seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH / "expected.json"
CLI_REFS_PATH = BENCH / "cli_refs.json"
TRACE_DIR = ROOT / ".bench_build" / "trace"


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def serialize(obj):
    """A plain, order-stable description of a program object, for digests."""
    from phodge.complexes import ChainMap, Complex
    from phodge.filtered import FilteredComplex
    from phodge.linalg import Matrix, Subspace
    from phodge.phc import PHodgeComplex, PHodgeMap
    from phodge.spectral import DoubleComplex

    if isinstance(obj, Matrix):
        return [[str(x) for x in row] for row in obj.entries] or [obj.rows, obj.cols]
    if isinstance(obj, Subspace):
        return serialize(obj.basis)
    if isinstance(obj, Complex):
        return {"dims": serialize(obj.dims), "d": serialize(obj.d)}
    if isinstance(obj, ChainMap):
        return serialize(obj.components)
    if isinstance(obj, FilteredComplex):
        return {"carrier": serialize(obj.carrier), "records": serialize(obj.filtration.records)}
    if isinstance(obj, PHodgeComplex):
        return [serialize(x) for x in (obj.rig.complex, obj.rig.phi, obj.k, obj.dr, obj.c, obj.s)]
    if isinstance(obj, PHodgeMap):
        return [serialize(x) for x in (obj.source, obj.target, obj.f_rig, obj.f_k, obj.f_dr)]
    if isinstance(obj, DoubleComplex):
        return [serialize(x) for x in (obj.spaces, obj.dh, obj.dv)]
    if isinstance(obj, dict):
        return [[serialize(k), serialize(v)] for k, v in sorted(obj.items())]
    if isinstance(obj, (list, tuple)):
        return [serialize(x) for x in obj]
    if isinstance(obj, (bool, int, str, Fraction)) or obj is None:
        return obj if not isinstance(obj, Fraction) else str(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# An odd pool size puts p50 and p75 inside the latencies of one pool item
# instead of on the edge between two items (a pass of 16 items puts p50 and
# p75 exactly between the 8th and 9th, 12th and 13th slowest), where the
# machine's noise decides which item they read.
POOL_SIZE = 15


class Workload:
    """One workload: a base pool, per-operation inputs and the checked operation."""

    name = ""
    default_seed = 0
    # op_tail_ms is this percentile: the highest of p50, p75, p90, p95, p99
    # that had at least ten samples beyond it in every 20 s run of the
    # baseline.  It is fixed per workload, so that every run reports the same
    # percentile; 100 (the slowest operation) where a run holds few.
    tail_pct = 100.0

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        recorded = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
        self.expected = recorded.get(self.name, {}).get("tiny" if tiny else "full", {})
        self.pool = self.base_pool()

    def base_pool(self) -> List:
        raise NotImplementedError

    def describe(self, inp):
        """What the program receives, in a form a digest can cover."""
        return serialize(inp)

    def inputs_ok(self, first_pass: List) -> bool:
        """Set-up check of the generated inputs against expected.json: the
        base pool always, and for the default seed the first pass too."""
        ok = digest(serialize(self.pool)) == self.expected.get("pool")
        if self.seed == self.default_seed:
            ok = ok and digest([self.describe(x) for x in first_pass]) == self.expected.get("first_pass")
        return ok

    def rng(self, pass_index: int, item: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{pass_index}:{item}")

    def make_input(self, pass_index: int, item: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def answer(self, item: int, out):
        """The canonical answer of one operation, as stored in expected.json."""
        return serialize(out)

    def valid(self, out) -> bool:
        """The invariant every answer of this workload must satisfy."""
        return True

    def ok(self, item: int, out) -> bool:
        return self.valid(out) and self.answer(item, out) == self.expected["answers"][item]


class ExtQiso(Workload):
    """Criterion 3: quasi_iso_invariance(m, g) on fresh objects.

    The pool is the first POOL_SIZE pairs of criterion 3's stream whose Hom
    size is at most max_hom_size.  The cap drops the few pairs that take 2-9 s
    each, so that a run holds several passes and enough operations for a
    tail percentile; the pairs kept still take 0.01-1.1 s and reach the
    dense eliminations of the stream."""

    name = "ext_qiso"
    default_seed = 203
    tail_pct = 75.0
    max_hom_size = 96

    @staticmethod
    def hom_size(m, g) -> int:
        """Sum over the Hom pairs of both Ext cones of the products of the
        total dimensions: a size known before any elimination."""
        def total(c):
            return sum(c.dims.values())

        size = 0
        for t in (g.source, g.target):
            for a, b in ((m.rig.complex, t.rig.complex), (m.k, t.k), (m.dr.carrier, t.dr.carrier),
                         (m.rig.complex, t.k), (m.dr.carrier, t.k)):
                size += total(a) * total(b)
        return size

    def base_pool(self):
        from phodge.frames import CoefficientFrame

        from gen import rand_phc, rand_quasi_iso_extension

        frame = CoefficientFrame(p=5)
        rng = random.Random(self.default_seed)
        pool = []
        while len(pool) < (1 if self.tiny else POOL_SIZE):
            m = rand_phc(rng, frame, lo=0, hi=1, max_dim=2)
            g = rand_quasi_iso_extension(rng, rand_phc(rng, frame, lo=0, hi=1, max_dim=2))
            if self.hom_size(m, g) <= self.max_hom_size:
                pool.append((m, g))
        return pool

    def make_input(self, pass_index, item):
        import relabel

        m, g = self.pool[item]
        rng = self.rng(pass_index, item)
        return relabel.phc(m, relabel.phc_signs(rng, m)), relabel.phc_map(g, rng)

    def run(self, inp):
        from phodge import ext

        return ext.quasi_iso_invariance(*inp)

    def answer(self, item, out):
        return serialize(out.degrees)

    def valid(self, out):
        return out.all_isomorphisms


class SpectralPages(Workload):
    """Criteria 9 and 10, alternating: convergence of a double complex in both
    directions, and strictness of a filtered complex by three routes."""

    name = "spectral_pages"
    default_seed = 209
    tail_pct = 90.0
    filtered_seed = 210

    def base_pool(self):
        from gen import rand_double_complex, rand_filtered_complex

        rng_dc = random.Random(self.default_seed)
        rng_fc = random.Random(self.filtered_seed)
        pool = []
        for item in range(2 if self.tiny else POOL_SIZE):
            if item % 2 == 0:
                pool.append(rand_double_complex(rng_dc, p_count=3, q_lo=0, q_hi=2, max_dim=2))
            else:
                pool.append(rand_filtered_complex(rng_fc, max_dim=3))
        return pool

    def make_input(self, pass_index, item):
        import relabel
        from phodge.spectral import DoubleComplex

        base = self.pool[item]
        rng = self.rng(pass_index, item)
        if isinstance(base, DoubleComplex):
            return relabel.double_complex(base, rng)
        return relabel.filtered(base, relabel.signs_for(rng, base.carrier.dims))

    def run(self, inp):
        from phodge import filtered, spectral

        if isinstance(inp, spectral.DoubleComplex):
            return (spectral.convergence_check(inp, "col"), spectral.convergence_check(inp, "row"))
        return (
            filtered.is_strict_complex(inp),
            filtered.is_strict_complex(inp, via="direct"),
            spectral.degenerates_at_e1(inp),
        )

    def valid(self, out):
        # both convergence identities hold; strict = direct = E1-degeneration
        return out == (True, True) if len(out) == 2 else out[0] == out[1] == out[2]


SPHERE = {0: 1, 1: 0, 2: 1}
PSEUDOCIRCLE = {0: 1, 1: 1}


class SheafSphere(Workload):
    """Sheaf cohomology of constK on the sphere by cech, gd and gd2, then the
    bar-resolution check, on a freshly named copy of the site."""

    name = "sheaf_sphere"
    default_seed = 211
    routes = ("cech", "gd", "gd2")

    def base_pool(self):
        from phodge import io as pio

        site = "pseudocircle.site" if self.tiny else "sphere.site"
        return [json.loads(pio.resolve(site).read_text())]

    def make_input(self, pass_index, item):
        import relabel
        from phodge import io as pio

        site = pio.parse_site(relabel.site_data(self.pool[item], self.rng(pass_index, item)))
        return pio.load_object(pio.resolve("constK.sheaf"), site=site)

    def run(self, sheaf):
        from phodge import godement

        out = {via: godement.sheaf_cohomology(sheaf, via) for via in self.routes}
        out["bar"] = godement.bar_is_quasi_iso(sheaf, length=sheaf.site.height + 1)
        return out

    def describe(self, sheaf):
        site = sheaf.site
        return [list(site.elements), sorted(site.hasse), list(site.points), serialize(sheaf.values)]

    def valid(self, out):
        return out["bar"] and out["cech"] == out["gd"] == out["gd2"] == (SPHERE if not self.tiny else PSEUDOCIRCLE)


class CorpusCli(Workload):
    """One `python -m phodge.cli` subprocess per operation, compared byte for
    byte (stdout and exit code) with the stored references."""

    name = "corpus_cli"
    default_seed = 212
    tail_pct = 75.0

    def __init__(self, seed: int, tiny: bool, refs_path: Path = CLI_REFS_PATH, shim: bool = False):
        self.refs = json.loads(Path(refs_path).read_text())
        self.shim = shim
        self.layers = {}
        self.commands_run = 0
        super().__init__(seed, tiny)

    def base_pool(self):
        return self.refs[:2] if self.tiny else self.refs

    def describe(self, ref):
        return ref["args"]

    def make_input(self, pass_index, item):
        # one seeded order of the commands per pass
        order = list(range(len(self.pool)))
        random.Random(f"{self.name}:{self.seed}:{pass_index}").shuffle(order)
        return self.pool[order[item]]

    def command(self, args) -> List[str]:
        if self.shim:
            return [sys.executable, str(BENCH / "cli_shim.py"), *args]
        return [sys.executable, "-m", "phodge.cli", *args]

    def run(self, ref):
        extra = {}
        if self.shim:
            self.commands_run += 1
            stem = TRACE_DIR / f"{self.name}-{self.seed}-{self.commands_run}"
            extra = {"PERFBENCH_TRACE_OUT": f"{stem}.json", "PERFBENCH_SPANS_OUT": f"{stem}.spans.jsonl"}
        proc = subprocess.run(self.command(ref["args"]), cwd=ROOT, env=child_env(extra), capture_output=True)
        if self.shim:
            import layertrace

            self.layers = layertrace.merge(self.layers, json.loads(Path(extra["PERFBENCH_TRACE_OUT"]).read_text()))
        return ref, proc.returncode, proc.stdout

    def trace_totals(self) -> dict:
        """Per-layer metrics summed over every traced command."""
        return self.layers

    def answer(self, item, out):
        ref, code, stdout = out
        return [ref["args"], code, hashlib.sha256(stdout).hexdigest()]

    def valid(self, out):
        ref, code, stdout = out
        return code == ref["exit"] and stdout == ref["stdout"].encode("utf-8")

    def ok(self, item, out):
        # the references are per command, so the pass order does not matter
        return self.valid(out)


WORKLOADS = {w.name: w for w in (ExtQiso, SpectralPages, SheafSphere, CorpusCli)}


def child_env(extra: Dict[str, str] = None) -> Dict[str, str]:
    """Environment of every process the benchmark starts: the checkout's
    sources first on the path, bytecode that run.py compiled before anything
    is timed (and never written while timing), a fixed hash seed and one
    thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.update(extra or {})
    return env
