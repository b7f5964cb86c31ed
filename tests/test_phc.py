import random
from fractions import Fraction as F

import pytest

from phodge.complexes import ChainMap, Complex, cone
from phodge.errors import PreconditionError, ValidationError
from phodge.filtered import FilteredComplex, Filtration, jump_records
from phodge.frobenius import FrobeniusComplex
from phodge.frames import CoefficientFrame
from phodge.linalg import Matrix, Subspace, assemble
from phodge.phc import (
    PHodgeComplex,
    PHodgeMap,
    Zigzag,
    collapse_zigzag,
    cone_phc,
    direct_sum_phc,
    is_quasi_iso_phc,
    is_unit_like,
    quasi_pullback,
    quasi_pushout,
    shift_phc,
    tate_object,
    tensor_phc,
    truncate_phc,
    twist,
    unit_object,
)

from helpers import rand_complex, rand_phc, rand_quasi_iso_extension, rand_chain_map


def test_tate_objects(frame):
    k0 = tate_object(frame, 0)
    assert is_unit_like(k0)
    assert k0.rig.phi_at(0) == Matrix.identity(1)
    assert k0.dr.filtration.jump_levels(0) == (0,)
    km1 = tate_object(frame, -1)
    assert km1.rig.phi_at(0) == Matrix.identity(1).scale(5)
    assert km1.dr.filtration.jump_levels(0) == (1,)
    k1 = tate_object(frame, 1)
    assert k1.rig.phi_at(0) == Matrix.identity(1).scale(F(1, 5))
    assert k1.dr.filtration.jump_levels(0) == (-1,)


def test_tate_tensor_adds_exponents(frame):
    a, b = 2, -1
    t = tensor_phc(tate_object(frame, a), tate_object(frame, b))
    expect = tate_object(frame, a + b)
    assert t.rig.phi_at(0) == expect.rig.phi_at(0)
    assert t.dr.filtration.jump_levels(0) == expect.dr.filtration.jump_levels(0)


def test_tensor_with_unit_is_identity(frame):
    rng = random.Random(51)
    m = rand_phc(rng, frame)
    t = tensor_phc(m, unit_object(frame))
    assert t.rig.complex.dims == m.rig.complex.dims
    assert all(t.rig.phi_at(n) == m.rig.phi_at(n) for n in m.rig.complex.dims)
    for n in m.dr.carrier.dims:
        assert t.dr.filtration.jump_levels(n) == m.dr.filtration.jump_levels(n)
        for lvl in m.dr.filtration.jump_levels(n):
            assert t.dr.level(n, lvl) == m.dr.level(n, lvl)


def test_twist_matches_tensor_with_tate(frame):
    rng = random.Random(52)
    for n in (-2, 1, 3):
        m = rand_phc(rng, frame)
        tw = twist(m, n)
        tt = tensor_phc(m, tate_object(frame, n))
        assert all(tw.rig.phi_at(q) == tt.rig.phi_at(q) for q in m.rig.complex.dims)
        for q in m.dr.carrier.dims:
            assert tw.dr.filtration.jump_levels(q) == tt.dr.filtration.jump_levels(q)
        back = twist(tw, -n)
        assert all(back.rig.phi_at(q) == m.rig.phi_at(q) for q in m.rig.complex.dims)


def test_twist_moves_p1_jump(corpus):
    p1 = corpus("p1.datum")
    tw = twist(p1.rgamma, 1)
    assert p1.rgamma.dr.filtration.jump_levels(2) == (1,)
    assert tw.dr.filtration.jump_levels(2) == (0,)
    assert tw.rig.phi_at(2) == Matrix.identity(1)


def test_tensor_kunneth_counts(corpus):
    p1 = corpus("p1.datum")
    ell = corpus("elliptic.datum")
    t = tensor_phc(ell.rgamma, p1.rgamma)
    assert t.k.cohomology(2).dim == 2  # H^0 x H^2 + H^2 x H^0 on the middle component
    for n in range(0, 5):
        expect = sum(
            ell.rgamma.k.cohomology(i).dim * p1.rgamma.k.cohomology(n - i).dim for i in range(0, 3)
        )
        assert t.k.cohomology(n).dim == expect


def test_quasi_iso_phc(frame):
    rng = random.Random(53)
    m = rand_phc(rng, frame)
    assert is_quasi_iso_phc(PHodgeMap.identity(m))
    g = rand_quasi_iso_extension(rng, m)
    assert is_quasi_iso_phc(g)


def test_filtration_shift_breaks_filtered_quasi_iso(frame):
    # same carrier and Frobenius, only the jump moves
    single = Complex.single(0)
    rig = FrobeniusComplex(frame, single, {0: Matrix.identity(1)})
    dr0 = FilteredComplex(single, Filtration({0: 1}, {0: [(0, Subspace.full(1))]}))
    dr1 = FilteredComplex(single, Filtration({0: 1}, {0: [(1, Subspace.full(1))]}))
    ident = ChainMap.identity(single)
    m0 = PHodgeComplex(frame, rig, dr0, single, ident, ident)
    m1 = PHodgeComplex(frame, rig, dr1, single, ident, ident)
    f = PHodgeMap(m0, m1, ident, ident, ident)
    assert f.f_k.is_quasi_iso() and not is_quasi_iso_phc(f)


def test_cone_phc_of_quasi_iso_acyclic(frame):
    rng = random.Random(54)
    m = rand_phc(rng, frame)
    g = rand_quasi_iso_extension(rng, m)
    assert cone_phc(g).is_acyclic()
    assert cone_phc(PHodgeMap.identity(m)).is_acyclic()


def _blockwise_cone_phc(f):
    """The componentwise cone with its Frobenius, filtration records and
    comparison maps placed block by block: degree q is target^q (+) source^(q+1)."""
    m, n = f.source, f.target
    rig_cone, k_cone, dr_cone = (cone(g)[0] for g in (f.f_rig, f.f_k, f.f_dr))
    phi = {}
    for q in rig_cone.dims:
        bt = n.rig.phi_at(q)
        phi[q] = assemble(rig_cone.dim(q), rig_cone.dim(q), [(0, 0, bt), (bt.rows, bt.rows, m.rig.phi_at(q + 1))])
    records = {}
    for q in dr_cone.dims:
        entry = []
        for level in sorted(set(n.dr.filtration.jump_levels(q)) | set(m.dr.filtration.jump_levels(q + 1))):
            st, ss = n.dr.level(q, level), m.dr.level(q + 1, level)
            blocks = [(0, 0, st.basis), (n.dr.carrier.dim(q), st.dim, ss.basis)]
            space = Subspace(dr_cone.dim(q), assemble(dr_cone.dim(q), st.dim + ss.dim, blocks))
            if space.dim:
                entry.append((level, space))
        records[q] = jump_records(entry, dr_cone.dim(q))
    c, s = {}, {}
    for q in k_cone.dims:
        ct, st = n.c.component(q), n.s.component(q)
        c[q] = assemble(k_cone.dim(q), rig_cone.dim(q), [(0, 0, ct), (ct.rows, ct.cols, m.c.component(q + 1))])
        s[q] = assemble(k_cone.dim(q), dr_cone.dim(q), [(0, 0, st), (st.rows, st.cols, m.s.component(q + 1))])
    return rig_cone, phi, dr_cone, records, k_cone, c, s


def test_cone_phc_matches_blockwise_reference():
    rng = random.Random(7)
    frame = CoefficientFrame(p=5)
    for _ in range(60):
        m = rand_phc(rng, frame)
        for f in (PHodgeMap.identity(m), rand_quasi_iso_extension(rng, m)):
            got = cone_phc(f)
            rig_cone, phi, dr_cone, records, k_cone, c, s = _blockwise_cone_phc(f)
            assert (got.rig.complex, got.dr.carrier, got.k) == (rig_cone, dr_cone, k_cone)
            assert all(got.rig.phi_at(q) == phi[q] for q in rig_cone.dims)
            assert got.dr.filtration.records == Filtration(dr_cone.dims, records).records
            assert all(got.c.component(q) == c[q] and got.s.component(q) == s[q] for q in k_cone.dims)
            assert set(got.c.components) <= set(k_cone.dims) and set(got.s.components) <= set(k_cone.dims)


def test_quasi_pushout_properties(frame):
    rng = random.Random(55)
    # identity legs: both maps to the pushout are quasi-isos
    c1 = rand_complex(rng, max_dim=3)
    idm = ChainMap.identity(c1)
    q, m1, m3, h = quasi_pushout(idm, idm)
    assert m1.is_quasi_iso() and m3.is_quasi_iso()
    # f quasi-iso forces the other inclusion to be one
    for _ in range(10):
        m2 = rand_complex(rng, max_dim=3)
        tgt = rand_complex(rng, max_dim=3)
        g = rand_chain_map(rng, m2, tgt)
        q2, a1, a3, h2 = quasi_pushout(ChainMap.identity(m2), g)
        assert a3.is_quasi_iso(via="degreewise")
        # the recorded homotopy witnesses the square
        for n in m2.dims:
            lhs = q2.diff(n - 1) * h2[n] + h2.get(n + 1, Matrix.zeros(q2.dim(n), m2.dim(n + 1))) * m2.diff(n)
            rhs = a1.component(n) - a3.component(n) * g.component(n)
            assert lhs == rhs
    # zero legs from an acyclic source give the direct sum
    acy = Complex({0: 1, 1: 1}, {0: Matrix.identity(1)})
    lhs = Complex.single(0)
    rhs = Complex({0: 2}, {})
    q3, _, _, _ = quasi_pushout(ChainMap.zero(acy, lhs), ChainMap.zero(acy, rhs))
    assert q3.cohomology(0).dim == 3


def test_quasi_pullback(frame):
    rng = random.Random(56)
    c1 = rand_complex(rng, max_dim=3)
    p, p1, p3 = quasi_pullback(ChainMap.identity(c1), ChainMap.identity(c1))
    assert p1.is_quasi_iso() and p3.is_quasi_iso()


def _identity_zigzag(frame, nodes_count):
    single = Complex.single(0)
    rig_end = FrobeniusComplex(frame, single, {0: Matrix.identity(1)})
    dr_end = FilteredComplex.with_trivial_filtration(single)
    ident = ChainMap.identity(single)
    middles = (single,) * (nodes_count - 2)
    nodes = (rig_end,) + middles + (dr_end,)
    arrows = tuple(
        ("fwd" if i % 2 == 0 else "bwd", ident, i % 2 == 1) for i in range(nodes_count - 1)
    )
    return Zigzag(frame, nodes, arrows)


def test_collapse_three_node_unchanged(frame):
    z = _identity_zigzag(frame, 3)
    m = collapse_zigzag(z)
    assert m.k == Complex.single(0)
    assert m.c.component(0) == Matrix.identity(1)


def test_collapse_five_and_nine_nodes(frame):
    for count in (5, 9):
        z = _identity_zigzag(frame, count)
        m = collapse_zigzag(z)
        assert m.rig.complex.cohomology_dims() == {0: 1}
        assert m.dr.carrier.cohomology_dims() == {0: 1}
        assert m.k.cohomology_dims() == {0: 1}
        assert m.c.induced_on_cohomology(0).rank == 1
        assert m.s.induced_on_cohomology(0).rank == 1


def test_collapse_five_node_vs_direct(frame):
    # middle backward arrow is the identity: compare against composing through
    z5 = _identity_zigzag(frame, 5)
    m5 = collapse_zigzag(z5)
    z3 = _identity_zigzag(frame, 3)
    m3 = collapse_zigzag(z3)
    for n in set(m5.k.dims) | set(m3.k.dims):
        assert m5.k.cohomology(n).dim == m3.k.cohomology(n).dim
    # cohomology-level square: H(i3 ∘ s5-composite) equals H(c-route)
    assert (m5.c.induced_on_cohomology(0) - m5.s.induced_on_cohomology(0)).is_zero()


def test_collapse_concatenation_vs_iterated(frame):
    # collapsing a seven-node chain agrees with collapsing five then merging
    z7 = _identity_zigzag(frame, 7)
    m7 = collapse_zigzag(z7)
    z5 = _identity_zigzag(frame, 5)
    m5 = collapse_zigzag(z5)
    for n in set(m7.k.dims) | set(m5.k.dims):
        assert m7.k.cohomology(n).dim == m5.k.cohomology(n).dim
    assert m7.rig.complex.cohomology_dims() == m5.rig.complex.cohomology_dims()
    assert m7.dr.carrier.cohomology_dims() == m5.dr.carrier.cohomology_dims()


def test_collapse_rejects_bad_backward_arrow(frame):
    single = Complex.single(0)
    rig_end = FrobeniusComplex(frame, single, {0: Matrix.identity(1)})
    dr_end = FilteredComplex.with_trivial_filtration(single)
    ident = ChainMap.identity(single)
    zero = ChainMap.zero(single, single)
    nodes = (rig_end, single, single, single, dr_end)
    arrows = (("fwd", ident, False), ("bwd", zero, False), ("fwd", ident, False), ("bwd", ident, False))
    z = Zigzag(frame, nodes, arrows)
    with pytest.raises(PreconditionError):
        collapse_zigzag(z)
    with pytest.raises(ValidationError):
        Zigzag(frame, nodes, (("fwd", ident, False), ("bwd", zero, True), ("fwd", ident, False), ("bwd", ident, False)))


def test_truncate_phc(corpus):
    p1 = corpus("p1.datum")
    m = p1.rgamma
    t = truncate_phc(m, 2, "le")
    assert t.k.dims == m.k.dims
    iso = truncate_phc(truncate_phc(m, 2, "ge"), 2, "le")
    assert iso.k.cohomology_dims() == {2: 1}
    assert iso.rig.phi_at(2) == Matrix.identity(1).scale(5)
    # truncation commutes with twist at the dimension level
    a = truncate_phc(twist(m, 1), 2, "ge")
    b = twist(truncate_phc(m, 2, "ge"), 1)
    assert a.k.dims == b.k.dims
    assert all(a.rig.phi_at(q) == b.rig.phi_at(q) for q in a.rig.complex.dims)


def test_truncate_ge_structure_maps_on_the_image_model(frame):
    """At degree n-1 the 'ge' model is Im d^{n-1} inside degree n, so Frobenius,
    c and s must act there by their degree-n components."""
    rng = random.Random(5)
    for trial in range(30):
        m = rand_phc(rng, frame, lo=0, hi=1, max_dim=2)
        t = truncate_phc(m, 1, "ge")
        rig = FrobeniusComplex(frame, t.rig.complex, t.rig.phi, check=True)
        c = ChainMap(t.rig.complex, t.k, t.c.components, check=True)
        s = ChainMap(t.dr.carrier, t.k, t.s.components, check=True)
        PHodgeComplex(frame, rig, t.dr, t.k, c, s, check=True)
        for trunc, orig in ((t.rig.complex, m.rig.complex), (t.k, m.k), (t.dr.carrier, m.dr.carrier)):
            for q in range(-1, 4):
                expected = orig.cohomology(q).dim if q >= 1 else 0
                assert trunc.cohomology(q).dim == expected, (trial, q)


def test_shift_phc(frame):
    rng = random.Random(57)
    m = rand_phc(rng, frame)
    s = shift_phc(m, -2)
    assert s.k.dims == {n + 2: k for n, k in m.k.dims.items()}
    PHodgeMap.identity(s)  # revalidates all structure


def test_structure_revalidation_after_operations(frame):
    rng = random.Random(58)
    for _ in range(5):
        m = rand_phc(rng, frame)
        m2 = rand_phc(rng, frame)
        for obj in (tensor_phc(m, m2), twist(m, 1), direct_sum_phc([m, m2]), shift_phc(m, 1)):
            PHodgeComplex(obj.frame, obj.rig, obj.dr, obj.k, obj.c, obj.s)
            FrobeniusComplex(obj.frame, obj.rig.complex, obj.rig.phi)
            FilteredComplex(obj.dr.carrier, obj.dr.filtration)
