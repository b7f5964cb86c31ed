"""Acceptance suite: one test per criterion, each printing a verdict line.

Derived values are asserted against tests/data/oracle_expected.json, which is
produced by the independent elimination script tools/oracle.py.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from phodge.absolute import (
    abs_cohomology,
    duality_check,
    gysin_map,
    long_exact_sequence,
    syntomic_complex,
    unit_cone_matches_ext,
)
from phodge.complexes import Complex
from phodge.errors import PreconditionError
from phodge.ext import ExtComplex, cup_product, quasi_iso_invariance
from phodge.filtered import is_strict_complex
from phodge.godement import bar_is_quasi_iso, pullback_bar_is_quasi_iso, sheaf_cohomology
from phodge.linalg import Matrix
from phodge.phc import tate_object, tensor_phc, unit_object
from phodge.spectral import convergence_check, degenerates_at_e1, simplicial_collapse

from helpers import (
    rand_degree0_phc,
    rand_double_complex,
    rand_element,
    rand_filtered_complex,
    rand_phc,
    rand_quasi_iso_extension,
)

ORACLE = json.loads((Path(__file__).parent / "data" / "oracle_expected.json").read_text())


def report(num, text):
    print(f"[criterion {num:>2}] PASS  {text}")


def test_criterion_01_ext_shape_degree_zero_objects(frame):
    rng = random.Random(201)
    t0 = time.time()
    for _ in range(100):
        m = rand_degree0_phc(rng, frame, max_dim=4)
        m2 = rand_degree0_phc(rng, frame, max_dim=4)
        e = ExtComplex(m, m2)
        for n in list(range(-3, 0)) + list(range(2, 5)):
            assert e.ext_dim(n) == 0
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"ran in {elapsed:.1f}s"
    report(1, f"100 random degree-0 pairs vanish outside degrees 0,1 ({elapsed:.1f}s)")


def test_criterion_02_unit_values(frame):
    unit = unit_object(frame)
    e00 = ExtComplex(unit, unit)
    assert e00.ext_dim(0) == 1 and e00.ext_dim(1) == 1
    e01 = ExtComplex(unit, tate_object(frame, 1))
    assert e01.ext_dim(1) == 1 and e01.ext_dim(0) == 0
    report(2, "ext(K,K,0)=ext(K,K,1)=1; ext(K,K(1),1)=1, ext(K,K(1),0)=0")


def test_criterion_03_quasi_iso_invariance(frame):
    rng = random.Random(203)
    for _ in range(50):
        m = rand_phc(rng, frame, lo=0, hi=1, max_dim=2)
        g = rand_quasi_iso_extension(rng, rand_phc(rng, frame, lo=0, hi=1, max_dim=2))
        rep = quasi_iso_invariance(m, g)
        assert rep.all_isomorphisms
    # negative control: jump crossing level zero
    from phodge.complexes import ChainMap, Complex
    from phodge.filtered import FilteredComplex, Filtration
    from phodge.frobenius import FrobeniusComplex
    from phodge.linalg import Subspace
    from phodge.phc import PHodgeComplex, PHodgeMap

    single = Complex.single(0)
    rig = FrobeniusComplex(frame, single, {0: Matrix.identity(1)})
    dr_low = FilteredComplex(single, Filtration({0: 1}, {0: [(-1, Subspace.full(1))]}))
    ident = ChainMap.identity(single)
    src = PHodgeComplex(frame, rig, dr_low, single, ident, ident)
    bad = PHodgeMap(src, unit_object(frame), ident, ident, ident)
    rep = quasi_iso_invariance(unit_object(frame), bad, require=False)
    assert not rep.is_quasi_iso and not rep.all_isomorphisms
    report(3, "50 random quasi-isomorphisms induce isomorphisms; negative control reported")


def test_criterion_04_syntomic_cones(frame):
    rng = random.Random(204)
    for trial in range(50):
        m = rand_phc(rng, frame, lo=-1, hi=1, max_dim=3, iso_comparisons=(trial % 2 == 0))
        n = rng.choice((-1, 0, 1, 2))
        ok, table = unit_cone_matches_ext(m, n)
        assert ok, (trial, n, table)
        if m.c.is_quasi_iso(via="degreewise"):
            assert long_exact_sequence(syntomic_complex(m, n), "rigid").exact
        if m.s.is_quasi_iso(via="degreewise"):
            assert long_exact_sequence(syntomic_complex(m, n), "derham").exact
    report(4, "unit cone matches the Hom cone on 50 random objects; sequences exact when flagged")


def test_criterion_05_shipped_values(corpus):
    t0 = time.time()
    point = corpus("point.datum")
    assert abs_cohomology(point, 0, 0)[0] == 1
    for i in (0, 1, 2):
        assert abs_cohomology(point, 1, i)[0] == 1
    t_point = time.time() - t0
    t0 = time.time()
    p1 = corpus("p1.datum")
    assert abs_cohomology(p1, 2, 1)[0] == 1
    t_p1 = time.time() - t0
    t0 = time.time()
    gm = corpus("gm.datum")
    assert abs_cohomology(gm, 1, 1)[0] == 2
    t_gm = time.time() - t0
    assert max(t_point, t_p1, t_gm) < 1.0
    for name in ("point", "p1", "gm", "elliptic"):
        datum = corpus(f"{name}.datum")
        for key, expected in ORACLE[name]["abs"].items():
            n, i = (int(t) for t in key.split(","))
            assert abs_cohomology(datum, n, i)[0] == expected
    report(5, "shipped datum values match the frozen oracle exactly, under 1s each")


def test_criterion_06_duality(corpus):
    for name in ("point", "p1", "elliptic"):
        datum = corpus(f"{name}.datum")
        d = datum.d
        for i in range(0, d + 1):
            for n in range(0, 2 * d + 1):
                rep = duality_check(datum, i, n)
                expected = ORACLE[name]["duality"][f"{n},{i}"]
                assert (rep.lhs_dim, rep.rhs_dim) == tuple(expected)
                assert rep.passed, (name, n, i, rep.steps)
    with pytest.raises(PreconditionError):
        duality_check(corpus("degenerate.datum"), 0, 0)
    report(6, "duality witnessed on point, projective line, elliptic data; degenerate control rejected")


def test_criterion_07_gysin(corpus):
    ident = corpus("p1_identity.map")
    out = gysin_map(ident, 2, 1)
    assert out["matrix"] == Matrix.identity(1)
    const = corpus("p1_to_point.map")
    out = gysin_map(const, 2, 1)
    assert out["source_dim"] == out["target_dim"] == 1 and out["matrix"].rank == 1
    report(7, "identity gives identity; the collapse sends the cycle-class line isomorphically")


def test_criterion_08_cup_products(frame, corpus):
    rng = random.Random(208)
    unit = unit_object(frame)
    checked = 0
    while checked < 100:
        m = rand_phc(rng, frame, lo=0, hi=1, max_dim=2)
        m2 = rand_phc(rng, frame, lo=0, hi=1, max_dim=2)
        em, em2 = ExtComplex(unit, m), ExtComplex(unit, m2)
        et = ExtComplex(unit, tensor_phc(m, m2))
        for alpha in (0, 1, F(1, 2)):
            for a in sorted(em.total.dims):
                for b in sorted(em2.total.dims):
                    u = rand_element(rng, em.total.dim(a))
                    v = rand_element(rng, em2.total.dim(b))
                    uv = cup_product(em, em2, et, a, u, b, v, alpha)
                    lhs = et.total.diff(a + b).apply(uv)
                    du = em.total.diff(a).apply(u)
                    dv = em2.total.diff(b).apply(v)
                    du_v = cup_product(em, em2, et, a + 1, du, b, v, alpha)
                    u_dv = cup_product(em, em2, et, a, u, b + 1, dv, alpha)
                    sign = 1 if a % 2 == 0 else -1
                    assert tuple(lhs) == tuple(x + sign * y for x, y in zip(du_v, u_dv))
                    checked += 1
    # induced products agree across alpha on the shipped data
    from phodge.absolute import cup_absolute

    for name in ("point", "p1", "gm", "elliptic"):
        datum = corpus(f"{name}.datum")
        for (q, i, r, j) in ((0, 0, 0, 0), (0, 0, 2 * datum.d, 1), (0, 1, 1, 0)):
            outs = [cup_absolute(datum, q, i, r, j, alpha=al)["products"] for al in (0, 1, F(1, 2))]
            assert outs[0] == outs[1] == outs[2]
    report(8, f"chain-map law on {checked} random pairs for three weights; products weight-independent")


def test_criterion_09_spectral(frame):
    rng = random.Random(209)
    for _ in range(100):
        dc = rand_double_complex(rng, p_count=3, q_lo=0, q_hi=2, max_dim=2)
        assert convergence_check(dc, "col")
        assert convergence_check(dc, "row")
    c2 = Complex({0: 2, 1: 2}, {0: Matrix.from_rows([[0, 1], [0, 0]])})
    for n in (0, 2, 4):
        assert simplicial_collapse(Complex.single(0), n).passed
        assert simplicial_collapse(c2, n).passed
    report(9, "convergence identity on 100 random double complexes; collapse pattern for N in {0,2,4}")


def test_criterion_10_strictness(frame, corpus):
    rng = random.Random(210)
    strict_count = 0
    for _ in range(100):
        fc = rand_filtered_complex(rng, max_dim=3)
        a = is_strict_complex(fc)
        b = is_strict_complex(fc, via="direct")
        c = degenerates_at_e1(fc)
        assert a == b == c
        strict_count += a
    strict = corpus("strict.filtered")
    nonstrict = corpus("nonstrict.filtered")
    assert is_strict_complex(strict) and degenerates_at_e1(strict)
    assert not is_strict_complex(nonstrict) and not degenerates_at_e1(nonstrict)
    report(10, f"strictness agrees with degeneration on 100 random cases ({strict_count} strict) and exemplars")


def test_criterion_11_godement(corpus):
    sites = {
        "sierpinski.site": {0: 1, 1: 0},
        "pseudocircle.site": {0: 1, 1: 1},
        "sphere.site": {0: 1, 1: 0, 2: 1},
    }
    for name, expected in sites.items():
        site = corpus(name)
        sheaf = corpus("constK.sheaf", site=site)
        assert bar_is_quasi_iso(sheaf, length=site.height + 1)
        for via in ("gd", "gd2", "cech"):
            assert sheaf_cohomology(sheaf, via) == expected, (name, via)
        sky = corpus("skyscraperC.sheaf", site=site) if "sierpinski" in name else None
        if sky is not None:
            assert bar_is_quasi_iso(sky)
    bad_site = corpus("sierpinski_nopoints.site")
    sky = corpus("skyscraperC.sheaf", site=bad_site)
    assert not bar_is_quasi_iso(sky)
    assert pullback_bar_is_quasi_iso(sky)
    report(11, "resolutions quasi-iso with enough points; two-tier negative control; three routes agree")


GOLDEN = [
    ["validate", "point.datum"],
    ["ext", "tate0.phc", "tate1.phc"],
    ["abs", "point.datum", "--twist", "1"],
    ["abs", "p1.datum", "--twist", "1", "--format", "json"],
    ["les", "gm.datum", "--twist", "1"],
    ["duality", "p1.datum", "--twist", "1"],
    ["duality", "point.datum", "--twist", "0", "--format", "json"],
    ["gysin", "p1_to_point.map", "--degree", "2", "--twist", "1"],
    ["ss", "d2page.dcomplex"],
    ["godement", "pseudocircle.site", "constK.sheaf"],
    ["godement", "sierpinski.site", "constK.sheaf", "--format", "json"],
    ["cup", "p1.datum", "--twist1", "0", "--twist2", "1", "--deg1", "0", "--deg2", "2"],
]


def test_criterion_12_determinism():
    def run_all():
        outs = []
        for args in GOLDEN:
            r = subprocess.run(
                [sys.executable, "-m", "phodge.cli", *args],
                capture_output=True,
                cwd=Path(__file__).parent.parent,
            )
            assert r.returncode == 0, (args, r.stderr)
            outs.append((r.stdout, r.stderr))
        return outs

    assert run_all() == run_all()
    report(12, f"{len(GOLDEN)} golden command outputs byte-identical across two runs")
