import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from phodge.absolute import (
    DualityMachine,
    SyntomicCone,
    abs_cohomology,
    abs_cohomology_compact,
    abs_homology,
    cup_absolute,
    duality_check,
    ext_to_unit_cone,
    gysin_map,
    long_exact_sequence,
    syntomic_complex,
    unit_cone_matches_ext,
)
from phodge.errors import PreconditionError
from phodge.ext import ExtComplex
from phodge.linalg import Matrix, assemble
from phodge.phc import twist, unit_object

from helpers import rand_phc

ORACLE = json.loads((Path(__file__).parent / "data" / "oracle_expected.json").read_text())


def _all_data(point_datum, p1_datum, gm_datum, elliptic_datum):
    return {
        "point": point_datum,
        "p1": p1_datum,
        "gm": gm_datum,
        "elliptic": elliptic_datum,
    }


def test_abs_matches_oracle(point_datum, p1_datum, gm_datum, elliptic_datum):
    for name, datum in _all_data(point_datum, p1_datum, gm_datum, elliptic_datum).items():
        for key, expected in ORACLE[name]["abs"].items():
            n, i = (int(t) for t in key.split(","))
            assert abs_cohomology(datum, n, i)[0] == expected, (name, n, i)
        for key, expected in ORACLE[name]["abs_c"].items():
            n, i = (int(t) for t in key.split(","))
            assert abs_cohomology_compact(datum, n, i)[0] == expected, (name, n, i)


def test_homology_matches_oracle(point_datum, p1_datum, gm_datum, elliptic_datum):
    for name, datum in _all_data(point_datum, p1_datum, gm_datum, elliptic_datum).items():
        for key, expected in ORACLE[name]["homology"].items():
            n, i = (int(t) for t in key.split(","))
            assert abs_homology(datum, n, i) == expected, (name, n, i)


def test_point_values(point_datum):
    assert abs_cohomology(point_datum, 0, 0)[0] == 1
    assert abs_cohomology(point_datum, 1, 0)[0] == 1
    for i in (1, 2):
        assert abs_cohomology(point_datum, 0, i)[0] == 0
        assert abs_cohomology(point_datum, 1, i)[0] == 1
    assert abs_homology(point_datum, 0, 0) == 1


def test_p1_values(p1_datum):
    assert abs_cohomology(p1_datum, 2, 1)[0] == 1
    assert abs_cohomology(p1_datum, 0, 0)[0] == 1
    # the degree-one group with twist one is a line (pinned by the oracle run)
    assert abs_cohomology(p1_datum, 1, 1)[0] == ORACLE["p1"]["abs"]["1,1"] == 1
    assert abs_homology(p1_datum, 2, 1) == 1


def test_gm_values(gm_datum):
    assert abs_cohomology(gm_datum, 1, 1)[0] == 2


def test_elliptic_values(elliptic_datum):
    assert abs_cohomology(elliptic_datum, 1, 1)[0] == 1
    assert abs_homology(elliptic_datum, 1, 0) == 1


def test_unit_cone_matches_ext_on_corpus(point_datum, p1_datum, gm_datum, elliptic_datum):
    for datum in (point_datum, p1_datum, gm_datum, elliptic_datum):
        for i in (-1, 0, 1, 2):
            ok, table = unit_cone_matches_ext(datum.rgamma, i)
            assert ok, (datum.name, i, table)


def test_unit_cone_matches_ext_random(frame):
    rng = random.Random(71)
    for _ in range(12):
        m = rand_phc(rng, frame, lo=-1, hi=1, max_dim=3)
        n = rng.choice((-1, 0, 1, 2))
        ok, table = unit_cone_matches_ext(m, n)
        assert ok, (n, table)


def test_les_exactness(point_datum, p1_datum, gm_datum, elliptic_datum):
    for datum in (point_datum, p1_datum, gm_datum, elliptic_datum):
        for i in (0, 1):
            rep = long_exact_sequence(syntomic_complex(datum.rgamma, i), "rigid")
            assert rep.exact, (datum.name, i)
            rep = long_exact_sequence(syntomic_complex(datum.rgamma_c, i), "derham")
            assert rep.exact, (datum.name, i, "compact")


def test_les_requires_flag(frame):
    rng = random.Random(72)
    # build an object whose comparison maps are generically not quasi-isos
    m = rand_phc(rng, frame, lo=0, hi=0, max_dim=3)
    if not m.c.is_quasi_iso(via="degreewise"):
        with pytest.raises(PreconditionError):
            long_exact_sequence(syntomic_complex(m, 0), "rigid")


def test_les_normalization_equivalence(p1_datum):
    """The cleared normalization (phi - p^i vs p^{-i} phi - 1) has the same
    kernels and cokernels on cohomology."""
    x = p1_datum
    i = 1
    m = x.rgamma
    for q in (0, 2):
        h = m.rig.complex.cohomology(q)
        phi = m.rig.induced_on_cohomology(q)
        a = phi.scale(F(1, 5 ** i)) - Matrix.identity(h.dim)
        b = phi - Matrix.identity(h.dim).scale(F(5 ** i))
        assert a.rank == b.rank
        assert a.kernel_basis().cols == b.kernel_basis().cols


def test_duality_grids(point_datum, p1_datum, gm_datum, elliptic_datum):
    for datum in (point_datum, p1_datum, gm_datum, elliptic_datum):
        d = datum.d
        for i in range(0, d + 1):
            machine = DualityMachine(datum, i)
            for n in range(0, 2 * d + 1):
                rep = machine.report(n)
                expected = ORACLE[datum.name]["duality"][f"{n},{i}"]
                assert rep.lhs_dim == expected[0] and rep.rhs_dim == expected[1]
                assert rep.passed, (datum.name, n, i, rep.steps)


def test_point_duality_rich_grid(point_datum):
    for n in (0, 1):
        for i in (0, 1):
            rep = duality_check(point_datum, i, n)
            assert rep.lhs_dim == rep.rhs_dim and rep.passed


def test_duality_rejects_degenerate(corpus):
    degenerate = corpus("degenerate.datum")
    with pytest.raises(PreconditionError):
        duality_check(degenerate, 0, 0)


def test_gysin_identity(corpus):
    f = corpus("p1_identity.map")
    out = gysin_map(f, 2, 1)
    assert out["matrix"] == Matrix.identity(1)
    out0 = gysin_map(f, 0, 0)
    assert out0["matrix"] == Matrix.identity(1)


def test_gysin_p1_to_point(corpus):
    f = corpus("p1_to_point.map")
    out = gysin_map(f, 2, 1)
    assert out["source_dim"] == 1 and out["target_dim"] == 1
    assert out["matrix"].rank == 1
    assert out["shift"] == -2 and out["twist_shift"] == -1


def test_gysin_elliptic_doubling(corpus):
    f = corpus("elliptic_doubling.map")
    out = gysin_map(f, 0, 0)
    assert out["matrix"] == Matrix.identity(1).scale(2)


def test_cup_unit_acts_as_identity(point_datum, p1_datum, gm_datum, elliptic_datum):
    for datum in (point_datum, p1_datum, gm_datum, elliptic_datum):
        d = datum.d
        for r in range(0, 2 * d + 2):
            for j in (0, 1):
                out = cup_absolute(datum, 0, 0, r, j)
                src = out["source_dims"]
                if src[0] == 0 or src[1] == 0:
                    continue
                # the unit class is the first (and only) basis class in degree 0
                for b_idx in range(src[1]):
                    vec = out["products"][(0, b_idx)]
                    expect = tuple(F(1) if t == b_idx else F(0) for t in range(out["target_dim"]))
                    assert vec == expect, (datum.name, r, j)


def test_cup_p1_surjects_onto_top(p1_datum):
    out = cup_absolute(p1_datum, 0, 0, 2, 1)
    assert out["target_dim"] == 1
    mat = Matrix(1, 1, [list(out["products"][(0, 0)])])
    assert mat.rank == 1


def test_cup_bilinear_over_scalars(p1_datum):
    # linearity is structural; pin one instance by rescaling a basis class
    out1 = cup_absolute(p1_datum, 0, 0, 2, 1)
    out2 = cup_absolute(p1_datum, 0, 0, 2, 1, alpha=1)
    assert out1["products"] == out2["products"]


def test_pairing_square_on_cohomology(p1_datum, elliptic_datum):
    """The two routes through the comparison identifications agree: pairing
    then cospecialization equals (specialization (x) id) then pairing."""
    for datum in (p1_datum, elliptic_datum):
        m, n = datum.rgamma, datum.rgamma_c
        top = 2 * datum.d
        from phodge.complexes import tensor

        t_dr = tensor(m.dr.carrier, n.dr.carrier)
        t_rig = tensor(m.rig.complex, n.rig.complex)
        for a in m.dr.carrier.dims:
            b = top - a
            if not n.dr.carrier.dim(b):
                continue
            h_dr = m.dr.carrier.cohomology(a)
            h_rc = n.rig.complex.cohomology(b)
            for s_ in range(h_dr.dim):
                x = h_dr.representatives.col_tuple(s_)
                for t_ in range(h_rc.dim):
                    y = h_rc.representatives.col_tuple(t_)
                    # route 1: cosp(y) upstairs, pair in de Rham
                    hk = n.k.cohomology(b)
                    y_k = hk.project(n.c.component(b).apply(y))
                    hdr_c = n.dr.carrier.cohomology(b)
                    sstar = hk.class_matrix(n.s.component(b) * hdr_c.representatives)
                    y_dr = sstar.inverse().apply(y_k)
                    y_dr_vec = hdr_c.representatives.apply(y_dr)
                    pair_dr = datum.pairing.dr[top].apply(t_dr.pure_tensor(a, x, b, y_dr_vec))
                    v1 = datum.trace.dr.apply(pair_dr)[0]
                    # route 2: sp(x) downstairs, pair in rigid, then trace
                    h_rig = m.rig.complex.cohomology(a)
                    hk_m = m.k.cohomology(a)
                    x_k = hk_m.project(m.s.component(a).apply(x))
                    cstar = hk_m.class_matrix(m.c.component(a) * h_rig.representatives)
                    x_rig = cstar.inverse().apply(x_k)
                    x_rig_vec = h_rig.representatives.apply(x_rig)
                    pair_rig = datum.pairing.rig[top].apply(t_rig.pure_tensor(a, x_rig_vec, b, y))
                    v2 = datum.trace.rig.apply(pair_rig)[0]
                    assert v1 == v2, (datum.name, a, b)


def test_pairing_hom_matches_unit_vector_route(p1_datum, elliptic_datum):
    """Column k of the assembled pairing matrix is the Hom element of e_k:
    y -> trunc(pairing(e_k (x) pre(y))), packed slot by slot."""
    from phodge.absolute import _pairing_hom
    from phodge.complexes import ChainMap, hom_complex, tensor
    from phodge.linalg import assemble, kron

    from helpers import rand_complex, rand_matrix

    def check(hom_node, t, pairing, trunc, pre_maps):
        for a in sorted(set(t.a.dims) | set(hom_node.complex.dims)):
            got = _pairing_hom(hom_node, a, pairing, t, trunc, pre_maps)
            left = t.a.dim(a)
            assert (got.rows, got.cols) == (hom_node.complex.dim(a), left)
            for col in range(left):
                e_k = Matrix.column([F(int(j == col)) for j in range(left)])
                comps = {}
                for q, r, c, off in hom_node.slots(a):
                    found = t.layout.offset(a + q, a)
                    pre = Matrix.identity(c) if pre_maps is None else pre_maps.get(q)
                    if found is None or pre is None or (a + q) not in pairing:
                        continue
                    inner = found[1] // left
                    embed = assemble(t.complex.dim(a + q), inner, [(found[0], 0, kron(e_k, Matrix.identity(inner)))])
                    comps[q] = trunc.component(a + q) * pairing[a + q] * embed * pre
                assert got.col_tuple(col) == hom_node.pack(a, comps), (a, col)

    for datum in (p1_datum, elliptic_datum):
        m, n = datum.rgamma, datum.rgamma_c
        for i in (0, 1):
            dm = DualityMachine(datum, i)
            e1 = dm.e_p1
            # the projections N -> P1 = tau_{>= 2d} N of the rig, k and dR components
            trunc_rig, trunc_k, trunc_dr = (t.map for t in dm.trunc_p1)
            ends = [(t.source, t.target) for t in (trunc_rig, trunc_k, trunc_dr)]
            assert ends == [(n.rig.complex, dm.p1.rig.complex), (n.k, dm.p1.k), (n.dr.carrier, dm.p1.dr.carrier)]
            rig = (tensor(m.rig.complex, n.rig.complex), datum.pairing.rig, trunc_rig)
            k = (tensor(m.k, n.k), datum.pairing.k, trunc_k)
            dr = (tensor(m.dr.carrier, n.dr.carrier), datum.pairing.dr, trunc_dr)
            check(e1.h_rr, *rig, None)
            check(e1.h_kk, *k, None)
            check(e1.h_dd, *dr, None)
            check(e1.h_rr, *rig, {q: n.rig.phi_at(q) for q in n.rig.complex.dims})
            check(e1.h_rk, *k, {q: n.c.component(q) for q in n.rig.complex.dims})
            check(e1.h_dk, *k, {q: n.s.component(q) for q in n.dr.carrier.dims})
    # the corpus slots all have one row or a symmetric piece; random pairings
    # into an untruncated target make the packing order visible
    rng = random.Random(509)
    for _ in range(5):
        a_c, b_c, b2_c, c_c = (rand_complex(rng, 0, 1, 3) for _ in range(4))
        t = tensor(a_c, b_c)
        pairing = {d: rand_matrix(rng, c_c.dim(d), t.complex.dim(d)) for d in t.complex.dims}
        ident = ChainMap.identity(c_c)
        check(hom_complex(b_c, c_c), t, pairing, ident, None)
        pre_maps = {q: rand_matrix(rng, b_c.dim(q), b2_c.dim(q)) for q in b2_c.dims}
        check(hom_complex(b2_c, c_c), t, pairing, ident, pre_maps)


def test_homology_frobenius_dual_description(point_datum, p1_datum, gm_datum, elliptic_datum):
    """Pairs (x0, x_dR) computing Hom out of one cohomology object satisfy the
    dual Frobenius equation; the matching class under the pairing has
    eigenvalue p^{d-i}."""
    for datum in (point_datum, p1_datum, gm_datum, elliptic_datum):
        d = datum.d
        n_obj = datum.rgamma_c
        for n in n_obj.k.dims:
            for i in (0, 1):
                h0 = n_obj.rig.complex.cohomology(n)
                if h0.dim == 0:
                    continue
                phi = n_obj.rig.induced_on_cohomology(n)
                # functionals x0 with x0 phi = p^i x0
                cond = phi.transpose() - Matrix.identity(h0.dim).scale(F(5) ** i)
                sols = cond.kernel_basis()
                for j in range(sols.cols):
                    x0 = sols.col_tuple(j)
                    # the pairing partner z in degree 2d-n has phi z = p^{d-i} z
                    b = 2 * d - n
                    hz = datum.rgamma.rig.complex.cohomology(b)
                    if hz.dim == 0:
                        continue
                    from phodge.complexes import tensor

                    t_rig = tensor(datum.rgamma.rig.complex, n_obj.rig.complex)
                    gram = []
                    for z_idx in range(hz.dim):
                        z = hz.representatives.col_tuple(z_idx)
                        row = []
                        for y_idx in range(h0.dim):
                            y = h0.representatives.col_tuple(y_idx)
                            out = datum.pairing.rig[2 * d].apply(t_rig.pure_tensor(b, z, n, y))
                            row.append(datum.trace.rig.apply(out)[0])
                        gram.append(row)
                    g = Matrix(hz.dim, h0.dim, gram)
                    sol = g.transpose().solve(x0)
                    assert sol is not None
                    z_class = tuple(sol)
                    phi_z = datum.rgamma.rig.induced_on_cohomology(b)
                    lhs = phi_z.apply(z_class)
                    rhs = tuple(v * F(5) ** (d - i) for v in z_class)
                    assert lhs == rhs, (datum.name, n, i)


def test_leray_short_sequences(point_datum, p1_datum, gm_datum, elliptic_datum):
    """dim H_n = dim Hom(H^n-object, unit) + dim Hom(H^{n+1}-object, unit[1])
    on the shipped data."""
    from phodge.complexes import ChainMap, Complex
    from phodge.filtered import FilteredComplex, Filtration
    from phodge.frobenius import FrobeniusComplex
    from phodge.linalg import Subspace
    from phodge.phc import PHodgeComplex

    for datum in (point_datum, p1_datum, gm_datum, elliptic_datum):
        n_obj = datum.rgamma_c
        frame = datum.frame

        def class_object(q):
            dims = {}
            h0 = n_obj.rig.complex.cohomology(q)
            hk = n_obj.k.cohomology(q)
            hdr = n_obj.dr.carrier.cohomology(q)
            if h0.dim == 0 and hk.dim == 0 and hdr.dim == 0:
                return None
            c0 = Complex({0: h0.dim}, {}) if h0.dim else Complex({}, {})
            ck = Complex({0: hk.dim}, {}) if hk.dim else Complex({}, {})
            cdr = Complex({0: hdr.dim}, {}) if hdr.dim else Complex({}, {})
            rig = FrobeniusComplex(frame, c0, {0: n_obj.rig.induced_on_cohomology(q)} if h0.dim else {})
            # induced filtration on de Rham classes
            recs = {}
            if hdr.dim:
                entry = []
                for lvl in n_obj.dr.filtration.jump_levels(q):
                    sub = n_obj.dr.level(q, lvl).intersect(hdr.cocycles)
                    classes = [hdr.project(sub.basis.col_tuple(j)) for j in range(sub.dim)]
                    space = Subspace.from_vectors(classes, hdr.dim)
                    if space.dim:
                        entry.append((lvl, space))
                cleaned = []
                for lvl, space in entry:
                    if cleaned and cleaned[-1][1].dim == space.dim:
                        cleaned[-1] = (lvl, cleaned[-1][1])
                    else:
                        cleaned.append((lvl, space))
                recs[0] = cleaned
            dr = FilteredComplex(cdr, Filtration(dict(cdr.dims), recs))
            cmap = ChainMap(c0, ck, {0: n_obj.k.cohomology(q).class_matrix(n_obj.c.component(q) * h0.representatives)} if h0.dim and hk.dim else {})
            smap = ChainMap(cdr, ck, {0: n_obj.k.cohomology(q).class_matrix(n_obj.s.component(q) * hdr.representatives)} if hdr.dim and hk.dim else {})
            return PHodgeComplex(frame, rig, dr, ck, cmap, smap)

        unit = unit_object(frame)
        for i in (0, 1):
            for n in range(0, 2 * datum.d + 1):
                lhs = abs_homology(datum, n, i)
                obj_n = class_object(n)
                obj_n1 = class_object(n + 1)
                t0 = ExtComplex(twist(obj_n, i), unit).ext_dim(0) if obj_n else 0
                t1 = ExtComplex(twist(obj_n1, i), unit).ext_dim(1) if obj_n1 else 0
                assert lhs == t0 + t1, (datum.name, n, i, lhs, t0, t1)


def _offset_syntomic(u):
    """eta, projection and inclusion of the unit cone with every summand
    offset worked out by hand: A = M0 (+) F^n, B = M0 (+) M_K."""
    m = u.phc
    p_pow = F(m.frame.p) ** (-u.twist)
    eta = {}
    for q in u.a_complex.dims:
        d0 = m.rig.complex.dim(q)
        blocks = [(0, 0, m.rig.phi_at(q).scale(p_pow) - Matrix.identity(d0)), (d0, 0, m.c.component(q))]
        if u.fsub.dim(q):
            blocks.append((d0, d0, -(m.s.component(q) * u.fsub_incl.component(q))))
        eta[q] = assemble(u.b_complex.dim(q), u.a_complex.dim(q), blocks)
    proj = {}
    for q in u.total.dims:
        rows = u.a_complex.dim(q)
        proj[q] = assemble(rows, u.total.dim(q), [(0, u.b_complex.dim(q - 1), Matrix.identity(rows))])
    incl = {}
    for q in u.b_complex.dims:
        incl[q + 1] = assemble(u.total.dim(q + 1), u.b_complex.dim(q), [(0, 0, Matrix.identity(u.b_complex.dim(q)))])
    return eta, proj, incl


def _offset_collapse(e, u):
    """ext_to_unit_cone by hand: Gamma1^{q-1} = h_rr (+) h_rk (+) h_dk and
    Gamma0^q = h_rr (+) h_kk (+) h_ff, each after the Gamma1 part."""
    m = u.phc
    comps = {}
    for q in e.total.dims:
        d0 = m.rig.complex.dim(q - 1)
        o_e = e.h_rr.complex.dim(q - 1)
        o_f = o_e + e.h_rk.complex.dim(q - 1)
        id_k = Matrix.identity(m.k.dim(q - 1))
        blocks = [(0, 0, Matrix.identity(d0)), (d0, o_e, id_k), (d0, o_f, id_k)]
        base_r, base_c = u.b_complex.dim(q - 1), e.gamma1.dim(q - 1)
        d0q = m.rig.complex.dim(q)
        blocks.append((base_r, base_c, Matrix.identity(d0q)))
        if e.h_ff.complex.dim(q):
            trans = m.dr.level(q, u.twist).coords_matrix(e.h_ff.bases[q].basis)
            o_c = e.h_rr.complex.dim(q) + e.h_kk.complex.dim(q)
            blocks.append((base_r + d0q, base_c + o_c, trans))
        comps[q] = assemble(u.total.dim(q), e.total.dim(q), blocks)
    return comps


def _offset_modified(dm):
    """psi_prime: M0 (+) M_dR (+) F^i -> M0 (+) M_K (+) M_dR, and the map of
    its shifted cone into the Hom cone, by hand."""
    m, e = dm.x.rgamma, dm.e_gamma
    fsub_incl = dm.m_fsub_incl
    p_pow = F(m.frame.p) ** (-dm.i)
    psi = {}
    for q in dm.m_a.dims:
        d0, dk, ddr = m.rig.complex.dim(q), m.k.dim(q), m.dr.carrier.dim(q)
        blocks = [
            (0, 0, m.rig.phi_at(q).scale(p_pow) - Matrix.identity(d0)),
            (d0, 0, m.c.component(q)),
            (d0, d0, -m.s.component(q)),
            (d0 + dk, d0, Matrix.identity(ddr)),
        ]
        if fsub_incl.source.dim(q):
            blocks.append((d0 + dk, d0 + ddr, -fsub_incl.component(q)))
        psi[q] = assemble(dm.m_b.dim(q), dm.m_a.dim(q), blocks)
    to_gamma = {}
    for q in dm.modified.dims:
        d0, dk = m.rig.complex.dim(q - 1), m.k.dim(q - 1)
        o_e = e.h_rr.complex.dim(q - 1)
        o_f = o_e + e.h_rk.complex.dim(q - 1)
        blocks = [(0, 0, Matrix.identity(d0)), (o_e, d0, Matrix.identity(dk)), (o_f, d0 + dk, m.s.component(q - 1))]
        base_r, base_c = e.gamma1.dim(q - 1), dm.m_b.dim(q - 1)
        d0q, ddr = m.rig.complex.dim(q), m.dr.carrier.dim(q)
        o_b = e.h_rr.complex.dim(q)
        blocks += [(base_r, base_c, Matrix.identity(d0q)), (base_r + o_b, base_c + d0q, m.s.component(q))]
        if fsub_incl.source.dim(q):
            trans = e.h_ff.bases[q].coords_matrix(fsub_incl.component(q))
            blocks.append((base_r + o_b + e.h_kk.complex.dim(q), base_c + d0q + ddr, trans))
        to_gamma[q] = assemble(e.total.dim(q), dm.modified.dim(q), blocks)
    return psi, to_gamma


def _assert_components(f, comps, label):
    for q in set(f.source.dims) | set(comps):
        expected = comps.get(q, Matrix.zeros(f.target.dim(q), f.source.dim(q)))
        assert f.component(q) == expected, (label, q)


def test_cone_maps_match_offset_reference(frame, point_datum, p1_datum, gm_datum, elliptic_datum):
    data = (point_datum, p1_datum, gm_datum, elliptic_datum)
    rng = random.Random(88)
    objects = [(x.name, m) for x in data for m in (x.rgamma, x.rgamma_c)]
    objects += [(f"random {k}", rand_phc(rng, frame, lo=-1, hi=1, max_dim=3)) for k in range(6)]
    for name, m in objects:
        for i in (-1, 0, 1, 2):
            u = SyntomicCone(m, i)
            eta, proj, incl = _offset_syntomic(u)
            _assert_components(u.eta, eta, (name, i, "eta"))
            _assert_components(u.projection_to_sum(), proj, (name, i, "projection"))
            _assert_components(u.inclusion_of_shifted(), incl, (name, i, "inclusion"))
            e = ExtComplex(unit_object(m.frame), twist(m, i))
            _assert_components(ext_to_unit_cone(e, u), _offset_collapse(e, u), (name, i, "collapse"))
    for x in data:
        for i in (-1, 0, 1, 2):
            dm = DualityMachine(x, i)
            psi, to_gamma = _offset_modified(dm)
            _assert_components(dm.psi_prime, psi, (x.name, i, "psi_prime"))
            _assert_components(dm.modified_to_gamma, to_gamma, (x.name, i, "modified_to_gamma"))
