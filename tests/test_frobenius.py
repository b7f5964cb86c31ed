import random
from fractions import Fraction as F

import pytest

from phodge.complexes import ChainMap, Complex, cone
from phodge.errors import ValidationError
from phodge.frobenius import FrobeniusComplex, frobenius_on_cohomology, twist_frobenius, unit_frobenius
from phodge.linalg import Matrix

from helpers import rand_complex, rand_frobenius, rand_chain_self_map


def test_commutation_enforced(frame):
    c = Complex({0: 1, 1: 1}, {0: Matrix.identity(1)})
    with pytest.raises(ValidationError):
        FrobeniusComplex(frame, c, {0: Matrix.identity(1), 1: Matrix.identity(1).scale(2)})


def test_twist_scales_by_p_power(frame):
    u = unit_frobenius(frame)
    assert twist_frobenius(u, 0).phi_at(0) == u.phi_at(0)
    assert twist_frobenius(u, 1).phi_at(0) == Matrix.identity(1).scale(5)
    assert twist_frobenius(u, -1).phi_at(0) == Matrix.identity(1).scale(F(1, 5))
    rng = random.Random(41)
    fc = rand_frobenius(rng, frame, rand_complex(rng))
    back = twist_frobenius(twist_frobenius(fc, 2), -2)
    assert all(back.phi_at(n) == fc.phi_at(n) for n in fc.complex.dims)


def test_induced_identity(frame):
    c = Complex({0: 2}, {})
    fc = FrobeniusComplex(frame, c, {0: Matrix.identity(2)})
    assert frobenius_on_cohomology(fc, 0) == Matrix.identity(2)


def test_p1_top_degree_acts_by_p(corpus):
    p1 = corpus("p1.datum")
    m = frobenius_on_cohomology(p1.rgamma.rig, 2)
    assert m == Matrix.identity(1).scale(5)
    rep = p1.rgamma.rig.eigenvalue_report(2)
    assert rep["rational_eigenvalues"] == ["5"]


def test_twist_commutes_with_induced_action(frame):
    rng = random.Random(42)
    for _ in range(10):
        fc = rand_frobenius(rng, frame, rand_complex(rng, max_dim=3))
        n = rng.randint(-1, 2)
        tw = twist_frobenius(fc, n)
        for q in fc.complex.dims:
            assert tw.induced_on_cohomology(q) == fc.induced_on_cohomology(q).scale(F(5) ** n)


def test_cone_of_equivariant_quasi_iso_conjugate_action(frame):
    rng = random.Random(43)
    for _ in range(10):
        c = rand_complex(rng, max_dim=3)
        fc = rand_frobenius(rng, frame, c)
        # extend by an acyclic cone: quasi-iso with compatible Frobenius
        acy_base = rand_complex(rng, max_dim=2)
        acy_phi = rand_chain_self_map(rng, acy_base)
        big_c, incl, _ = cone(ChainMap.identity(acy_base))
        # direct sum complex with blockwise phi
        from phodge.complexes import direct_sum

        total, layout = direct_sum([c, big_c])
        phi_tot = {}
        for n in total.dims:
            size = total.dim(n)
            out = [[F(0)] * size for _ in range(size)]
            b1 = fc.phi_at(n)
            for i in range(b1.rows):
                for j in range(b1.cols):
                    out[i][j] = b1.entries[i][j]
            # cone of identity with blockwise phi of the base
            bt = acy_phi.component(n)
            bs = acy_phi.component(n + 1)
            off = c.dim(n)
            for i in range(bt.rows):
                for j in range(bt.cols):
                    out[off + i][off + j] = bt.entries[i][j]
            for i in range(bs.rows):
                for j in range(bs.cols):
                    out[off + bt.rows + i][off + bt.cols + j] = bs.entries[i][j]
            phi_tot[n] = Matrix(size, size, out)
        big = FrobeniusComplex(frame, total, phi_tot)
        for q in set(c.dims) | set(total.dims):
            assert (
                fc.induced_on_cohomology(q).char_poly() == big.induced_on_cohomology(q).char_poly()
            )


def test_invertibility_flag(frame):
    c = Complex({0: 1}, {})
    with pytest.raises(ValidationError):
        FrobeniusComplex(frame, c, {0: Matrix.zeros(1, 1)}, require_invertible=True)
    ok = FrobeniusComplex(frame, c, {0: Matrix.identity(1).scale(5)}, require_invertible=True)
    assert ok.invertible_on_cohomology


def test_semilinear_frobenius_with_nontrivial_sigma():
    from phodge.frames import CoefficientFrame, NumberField

    nf = NumberField([-2, 0, 1])
    fr = CoefficientFrame(p=3, extension=nf, sigma_generator_image=(0, -1))
    g = nf.generator()
    c = Complex({0: 1, 1: 1}, {0: Matrix(1, 1, [[g]])})
    # phi must satisfy d phi = phi sigma(d): try phi scalar lambda per degree:
    # g l0 = l1 sigma(g) = -l1 g, so l1 = -l0
    fc = FrobeniusComplex(fr, c, {0: Matrix(1, 1, [[nf.one()]]), 1: Matrix(1, 1, [[-nf.one()]])})
    assert fc.apply(0, (g,)) == (fr.sigma(g),)
