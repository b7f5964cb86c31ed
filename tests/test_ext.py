import random
from fractions import Fraction as F

import pytest

from phodge.complexes import ChainMap
from phodge.errors import PreconditionError
from phodge.ext import ExtComplex, cup_product, ext, induced_map, quasi_iso_invariance, unit_class
from phodge.phc import (
    PHodgeMap,
    cone_phc,
    direct_sum_phc,
    tate_object,
    tensor_phc,
    unit_object,
)

from helpers import rand_element, rand_phc, rand_quasi_iso_extension


def test_unit_pair(frame):
    e = ExtComplex(unit_object(frame), unit_object(frame))
    assert e.gamma0.dim(0) == 3 and e.gamma1.dim(0) == 3
    assert e.ext_dims() == {0: 1, 1: 1}
    # the glue annihilates the diagonal
    assert all(v == 0 for v in e.glue.component(0).apply((1, 1, 1)))


def test_unit_against_first_twist(frame):
    e = ExtComplex(unit_object(frame), tate_object(frame, 1))
    assert e.ext_dim(0) == 0 and e.ext_dim(1) == 1 and e.ext_dim(5) == 0
    assert e.ext_dims() == {1: 1}


def test_acyclic_target(frame):
    acyclic = cone_phc(PHodgeMap.identity(tate_object(frame, 1)))
    e = ExtComplex(unit_object(frame), acyclic)
    assert not e.ext_dims()


def test_glue_is_the_difference_of_the_two_actions(frame):
    rng = random.Random(61)
    for _ in range(5):
        m = rand_phc(rng, frame, lo=0, hi=1, max_dim=2)
        m2 = rand_phc(rng, frame, lo=0, hi=1, max_dim=2)
        e = ExtComplex(m, m2)
        for n in e.gamma0.dims:
            assert e.glue.component(n) == e.f_map.component(n) - e.g_map.component(n)


def test_degree_zero_objects_support(frame):
    rng = random.Random(62)
    for _ in range(10):
        m = rand_phc(rng, frame, lo=0, hi=0, max_dim=4)
        m2 = rand_phc(rng, frame, lo=0, hi=0, max_dim=4)
        e = ExtComplex(m, m2)
        for n in range(-3, 5):
            if n not in (0, 1):
                assert e.ext_dim(n) == 0


def test_second_variable_exactness(frame):
    # componentwise short exact sequence of targets: m2 -> m2 (+) b -> b
    rng = random.Random(63)
    for _ in range(8):
        m = rand_phc(rng, frame, lo=0, hi=1, max_dim=2)
        m2 = rand_phc(rng, frame, lo=0, hi=1, max_dim=2)
        b = rand_phc(rng, frame, lo=0, hi=1, max_dim=2)
        total = direct_sum_phc([m2, b])
        e_sub = ExtComplex(m, m2)
        e_tot = ExtComplex(m, total)
        e_quot = ExtComplex(m, b)
        for n in set(e_tot.total.dims) | {0}:
            assert e_tot.ext_dim(n) == e_sub.ext_dim(n) + e_quot.ext_dim(n)


def test_quasi_iso_invariance_positive_and_negative(frame):
    rng = random.Random(64)
    m = rand_phc(rng, frame, lo=0, hi=1, max_dim=2)
    g = PHodgeMap.identity(rand_phc(rng, frame, lo=0, hi=1, max_dim=2))
    rep = quasi_iso_invariance(m, g)
    assert rep.all_isomorphisms
    ext_g = rand_quasi_iso_extension(rng, rand_phc(rng, frame, lo=0, hi=1, max_dim=2))
    rep2 = quasi_iso_invariance(m, ext_g)
    assert rep2.all_isomorphisms
    # negative control: the de Rham part is not a filtered quasi-isomorphism
    # (the jump crosses level zero, so even the unit Ext groups change)
    from phodge.complexes import ChainMap as CM, Complex
    from phodge.filtered import FilteredComplex, Filtration
    from phodge.frobenius import FrobeniusComplex
    from phodge.linalg import Matrix, Subspace
    from phodge.phc import PHodgeComplex

    single = Complex.single(0)
    rig = FrobeniusComplex(frame, single, {0: Matrix.identity(1)})
    dr_low = FilteredComplex(single, Filtration({0: 1}, {0: [(-1, Subspace.full(1))]}))
    ident = CM.identity(single)
    src = PHodgeComplex(frame, rig, dr_low, single, ident, ident)
    tgt = unit_object(frame)
    bad = PHodgeMap(src, tgt, ident, ident, ident)
    with pytest.raises(PreconditionError):
        quasi_iso_invariance(m, bad)
    rep3 = quasi_iso_invariance(unit_object(frame), bad, require=False)
    assert not rep3.is_quasi_iso
    assert not rep3.all_isomorphisms
    assert any(not ok for _, _, ok in rep3.degrees.values())


def test_cup_chain_map_law_random(frame):
    rng = random.Random(65)
    unit = unit_object(frame)
    checked = 0
    for _ in range(6):
        m = rand_phc(rng, frame, lo=0, hi=1, max_dim=2)
        m2 = rand_phc(rng, frame, lo=0, hi=1, max_dim=2)
        em, em2 = ExtComplex(unit, m), ExtComplex(unit, m2)
        et = ExtComplex(unit, tensor_phc(m, m2))
        for alpha in (0, 1, F(1, 2), F(3, 7)):
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
                    rhs = tuple(x + sign * y for x, y in zip(du_v, u_dv))
                    assert tuple(lhs) == rhs
                    checked += 1
    assert checked >= 100


def test_cup_unit_class_identity(frame):
    unit = unit_object(frame)
    e = ExtComplex(unit, unit)
    u = unit_class(e)
    et = ExtComplex(unit, tensor_phc(unit, unit))
    for alpha in (0, 1, F(1, 2)):
        assert cup_product(e, e, et, 0, u, 0, u, alpha) == u


def test_cup_alpha_independence_on_cohomology(frame):
    rng = random.Random(66)
    unit = unit_object(frame)
    for _ in range(5):
        m = rand_phc(rng, frame, lo=0, hi=1, max_dim=2)
        m2 = rand_phc(rng, frame, lo=0, hi=1, max_dim=2)
        em, em2 = ExtComplex(unit, m), ExtComplex(unit, m2)
        et = ExtComplex(unit, tensor_phc(m, m2))
        for a in sorted(em.total.dims):
            for b in sorted(em2.total.dims):
                ha, hb = em.classes(a), em2.classes(b)
                ht = et.classes(a + b)
                for ia in range(ha.dim):
                    for ib in range(hb.dim):
                        u = ha.representatives.col_tuple(ia)
                        v = hb.representatives.col_tuple(ib)
                        outs = [
                            ht.project(cup_product(em, em2, et, a, u, b, v, alpha))
                            for alpha in (0, 1, F(1, 2))
                        ]
                        assert outs[0] == outs[1] == outs[2]


def test_ext_function_surface(frame):
    dim, reps = ext(unit_object(frame), tate_object(frame, 1), 1)
    assert dim == 1 and reps.cols == 1


@pytest.mark.parametrize("contravariant", [False, True])
def test_induced_map_commutes_with_glue(frame, contravariant):
    rng = random.Random(67)
    m = rand_phc(rng, frame, lo=0, hi=1, max_dim=2)
    m2 = rand_phc(rng, frame, lo=0, hi=1, max_dim=2)
    g = rand_quasi_iso_extension(rng, m2)
    if contravariant:
        # pre-composition: g: m2 -> m2' gives Hom(m2', m) -> Hom(m2, m)
        e_src = ExtComplex(g.target, m)
        e_tgt = ExtComplex(g.source, m)
    else:
        e_src = ExtComplex(m, g.source)
        e_tgt = ExtComplex(m, g.target)
    t = induced_map(e_src, g, e_tgt, contravariant=contravariant)
    ChainMap(t.source, t.target, t.components)  # chain map revalidation


def test_second_variable_exactness_nonsplit(frame):
    """A non-split componentwise extension still gives middle exactness of
    the induced maps on the Hom-cone cohomology."""
    from phodge.complexes import ChainMap, Complex
    from phodge.filtered import FilteredComplex
    from phodge.frobenius import FrobeniusComplex
    from phodge.linalg import Matrix
    from phodge.phc import PHodgeComplex

    single = Complex.single(0)
    double = Complex({0: 2}, {})
    ident2 = ChainMap.identity(double)
    # Jordan-block Frobenius: the extension of the unit by the unit
    jordan = FrobeniusComplex(frame, double, {0: Matrix.from_rows([[1, 1], [0, 1]])})
    e_mid = PHodgeComplex(
        frame, jordan, FilteredComplex.with_trivial_filtration(double), double, ident2, ident2
    )
    unit = unit_object(frame)
    inc = PHodgeMap(
        unit,
        e_mid,
        ChainMap(single, double, {0: Matrix.from_rows([[1], [0]])}),
        ChainMap(single, double, {0: Matrix.from_rows([[1], [0]])}),
        ChainMap(single, double, {0: Matrix.from_rows([[1], [0]])}),
    )
    quo = PHodgeMap(
        e_mid,
        unit,
        ChainMap(double, single, {0: Matrix.from_rows([[0, 1]])}),
        ChainMap(double, single, {0: Matrix.from_rows([[0, 1]])}),
        ChainMap(double, single, {0: Matrix.from_rows([[0, 1]])}),
    )
    rng = random.Random(68)
    for m in (unit, rand_phc(rng, frame, lo=0, hi=0, max_dim=2)):
        e_sub = ExtComplex(m, unit)
        e_tot = ExtComplex(m, e_mid)
        e_quot = ExtComplex(m, unit)
        ti = induced_map(e_sub, inc, e_tot)
        tp = induced_map(e_tot, quo, e_quot)
        for n in set(e_tot.total.dims) | {0, 1}:
            a = ti.induced_on_cohomology(n)
            b = tp.induced_on_cohomology(n)
            assert (b * a).is_zero()
            assert a.rank == b.cols - b.rank  # middle exactness


def test_cup_associativity_on_unit_cases(frame):
    unit = unit_object(frame)
    e = ExtComplex(unit, unit)
    et = ExtComplex(unit, tensor_phc_local(unit, unit))
    ett = ExtComplex(unit, tensor_phc_local(tensor_phc_local(unit, unit), unit))
    u = unit_class(e)
    h1 = e.classes(1)
    w = h1.representatives.col_tuple(0)
    for alpha in (0, 1, F(1, 2)):
        # (u . u) . w against u . (u . w), both in the triple cone
        uv = cup_product(e, e, et, 0, u, 0, u, alpha)
        lhs = cup_product(et, e, ett, 0, uv, 1, w, alpha)
        vw = cup_product(e, e, et, 0, u, 1, w, alpha)
        rhs = cup_product(e, et, ett, 0, u, 1, vw, alpha)
        assert ett.classes(1).project(lhs) == ett.classes(1).project(rhs)


def tensor_phc_local(a, b):
    from phodge.phc import tensor_phc as t

    return t(a, b)


def test_homology_of_acyclic_argument(frame):
    acyclic = cone_phc(PHodgeMap.identity(tate_object(frame, 1)))
    e = ExtComplex(acyclic, tate_object(frame, 0))
    assert not e.ext_dims()
