import random
from fractions import Fraction as F

import pytest

from phodge.complexes import (
    ChainMap,
    Complex,
    Truncation,
    cone,
    direct_sum,
    hom_complex,
    shift,
    subcomplex,
    tensor,
    tensor_map,
)
from phodge.errors import ValidationError
from phodge.linalg import Matrix, Subspace, assemble, kron

from helpers import rand_chain_map, rand_complex, rand_filtered_complex


def test_dd_zero_enforced():
    with pytest.raises(ValidationError):
        Complex({0: 1, 1: 1, 2: 1}, {0: Matrix.identity(1), 1: Matrix.identity(1)})


def test_cohomology_basic():
    assert Complex.single(0).cohomology(0).dim == 1
    acyclic = Complex({0: 1, 1: 1}, {0: Matrix.identity(1)})
    assert acyclic.is_acyclic()
    c2 = Complex({0: 2, 1: 2}, {0: Matrix.from_rows([[0, 1], [0, 0]])})
    assert c2.cohomology(0).dim == 1 and c2.cohomology(1).dim == 1
    assert c2.cohomology(5).dim == 0


def test_shift_identities():
    rng = random.Random(21)
    c = rand_complex(rng)
    assert shift(c, 0) == c
    assert shift(shift(c, 1), -1) == c
    for n in range(c.lo - 1, c.hi + 2):
        assert shift(c, 2).cohomology(n).dim == c.cohomology(n + 2).dim


def test_cone_of_zero_map_on_lines():
    z = ChainMap.zero(Complex.single(0), Complex.single(0))
    cz, _, _ = cone(z)
    assert cz.cohomology(0).dim == 1
    assert cz.cohomology(-1).dim == 1


def test_cone_of_identity_acyclic():
    rng = random.Random(22)
    c = rand_complex(rng)
    assert cone(ChainMap.identity(c))[0].is_acyclic()


def test_cone_of_inclusion():
    inc = ChainMap(Complex.single(0), Complex({0: 2}, {}), {0: Matrix.from_rows([[1], [0]])})
    cc, _, _ = cone(inc)
    assert cc.cohomology_dims() == {0: 1}


def test_cone_triangle_long_exact_sequence_random():
    rng = random.Random(23)
    checked = 0
    for _ in range(50):
        src = rand_complex(rng, lo=-1, hi=1, max_dim=4)
        tgt = rand_complex(rng, lo=-1, hi=1, max_dim=4)
        f = rand_chain_map(rng, src, tgt)
        cn, incl, proj = cone(f)
        assert cn.euler_characteristic() == tgt.euler_characteristic() - src.euler_characteristic()
        for n in range(min(src.lo, tgt.lo) - 1, max(src.hi, tgt.hi) + 2):
            a = f.induced_on_cohomology(n)
            b = incl.induced_on_cohomology(n)
            sh = shift(src, 1)
            c_mat = proj.induced_on_cohomology(n)
            # H^n(src[1]) = H^{n+1}(src); connect to f at n+1
            d_mat = f.induced_on_cohomology(n + 1)
            assert (b * a).is_zero()
            assert a.rank == b.cols - b.rank
            assert (c_mat * b).is_zero()
            assert b.rank == c_mat.cols - c_mat.rank
            assert (d_mat * c_mat).is_zero()
            assert c_mat.rank == d_mat.cols - d_mat.rank
            checked += 1
    assert checked


def test_is_quasi_iso_two_routes_agree():
    rng = random.Random(24)
    c = rand_complex(rng, max_dim=3)
    assert ChainMap.identity(c).is_quasi_iso(via="both")
    if not c.is_acyclic():
        assert not ChainMap.zero(c, c).is_quasi_iso(via="both")
    for _ in range(20):
        src = rand_complex(rng, max_dim=3)
        tgt = rand_complex(rng, max_dim=3)
        f = rand_chain_map(rng, src, tgt)
        assert f.is_quasi_iso(via="cone") == f.is_quasi_iso(via="degreewise")


def test_deformation_retract_quasi_iso():
    # inclusion of a retract: K -> (K in degrees 0) + acyclic two-term piece
    big = Complex({0: 2, 1: 1}, {0: Matrix.from_rows([[0, 1]])})
    inc = ChainMap(Complex.single(0), big, {0: Matrix.from_rows([[1], [0]])})
    assert inc.is_quasi_iso()


def test_tensor_unit_and_kunneth():
    rng = random.Random(25)
    c = rand_complex(rng)
    t = tensor(c, Complex.single(0))
    assert t.complex.dims == c.dims and t.complex.d == c.d
    a1 = Complex({0: 1, 1: 1}, {0: Matrix.identity(1)})
    t2 = tensor(a1, a1)
    assert t2.complex.is_acyclic()
    # Kunneth dimension counts over a field
    a = rand_complex(rng, max_dim=3)
    b = rand_complex(rng, max_dim=3)
    t3 = tensor(a, b)
    Complex(t3.complex.dims, t3.complex.d)  # validates d∘d = 0
    for n in range(t3.complex.lo - 1, t3.complex.hi + 2) if t3.complex.dims else []:
        expect = sum(
            a.cohomology(i).dim * b.cohomology(n - i).dim for i in range(a.lo - 1, a.hi + 2)
        )
        assert t3.complex.cohomology(n).dim == expect


class _BlockwiseTensor:
    """The tensor product built block by block, with its own offsets and
    Koszul-signed differential: the reference for the total-complex route."""

    def __init__(self, a, b):
        self.a, self.b = a, b
        self.blocks = {}
        dims = {}
        for n in range(a.lo + b.lo, a.hi + b.hi + 1) if a.dims and b.dims else []:
            off = 0
            entry = []
            for i in sorted(a.dims):
                j = n - i
                if b.dim(j):
                    entry.append((i, j, off))
                    off += a.dim(i) * b.dim(j)
            if entry:
                self.blocks[n] = entry
                dims[n] = off
        d = {}
        for n in dims:
            if dims.get(n + 1, 0):
                tgt_off = {(i, j): o for i, j, o in self.blocks[n + 1]}
                placed = []
                for i, j, off in self.blocks[n]:
                    if (i + 1, j) in tgt_off and a.dim(i + 1):
                        placed.append((tgt_off[(i + 1, j)], off, kron(a.diff(i), Matrix.identity(b.dim(j)))))
                    if (i, j + 1) in tgt_off and b.dim(j + 1):
                        m = kron(Matrix.identity(a.dim(i)), b.diff(j))
                        placed.append((tgt_off[(i, j + 1)], off, m if i % 2 == 0 else -m))
                d[n] = assemble(dims[n + 1], dims[n], placed)
        self.complex = Complex(dims, d, check=False)

    def block_offset(self, n, i):
        for bi, bj, off in self.blocks.get(n, []):
            if bi == i:
                return off, self.a.dim(bi) * self.b.dim(bj)
        return None

    def pure_tensor(self, i, x, j, y):
        off, _ = self.block_offset(i + j, i)
        vec = [F(0)] * self.complex.dim(i + j)
        for t, v in enumerate(xx * yy for xx in x for yy in y):
            vec[off + t] = v
        return tuple(vec)


def test_tensor_matches_blockwise_reference():
    """tensor() as a total complex equals the blockwise construction in dims,
    differentials, block offsets and pure tensors; tensor_map is a chain map
    and the Kunneth formula holds on the same pairs."""
    rng = random.Random(707)
    for trial in range(200):
        a = rand_complex(rng, -1, 2, 3)
        b = rand_complex(rng, -1, 2, 3)
        t, ref = tensor(a, b), _BlockwiseTensor(a, b)
        assert (t.complex.dims, t.complex.d) == (ref.complex.dims, ref.complex.d), trial
        assert {n: [(i, j, off) for i, j, off, _ in blocks] for n, blocks in t.layout.blocks.items()} == ref.blocks
        for n in ref.blocks:
            for i in range(a.lo - 1, a.hi + 2):
                assert t.layout.offset(n, i) == ref.block_offset(n, i), (trial, n, i)
        for i in a.dims:
            for j in b.dims:
                x = [F(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(a.dim(i))]
                y = [F(rng.randint(-2, 2)) for _ in range(b.dim(j))]
                assert t.pure_tensor(i, x, j, y) == ref.pure_tensor(i, x, j, y)
        for n in range(t.complex.lo - 1, t.complex.hi + 2) if t.complex.dims else []:
            expect = sum(a.cohomology(i).dim * b.cohomology(n - i).dim for i in range(a.lo - 1, a.hi + 2))
            assert t.complex.cohomology(n).dim == expect, (trial, n)
        if trial % 4 == 0:
            f = rand_chain_map(rng, a, rand_complex(rng, -1, 2, 2))
            g = rand_chain_map(rng, b, rand_complex(rng, -1, 2, 2))
            fg = tensor_map(f, g)
            ChainMap(fg.source, fg.target, fg.components, check=True)


def test_hom_complex_unit():
    h = hom_complex(Complex.single(0), Complex.single(0))
    assert h.complex.cohomology_dims() == {0: 1}


def test_hom_complex_d_squared_and_functoriality():
    rng = random.Random(26)
    a = rand_complex(rng, max_dim=3)
    b = rand_complex(rng, max_dim=3)
    h = hom_complex(a, b)
    Complex(h.complex.dims, h.complex.d)
    # H^0 of Hom of degree-0 complexes is the space of linear maps
    a0 = Complex({0: 2}, {})
    b0 = Complex({0: 3}, {})
    assert hom_complex(a0, b0).complex.cohomology(0).dim == 6
    # post/pre composition are chain maps
    c = rand_complex(rng, max_dim=3)
    g = rand_chain_map(rng, b, c)
    hc = hom_complex(a, c)
    post = h.post_compose(g, hc)
    ChainMap(post.source, post.target, post.components)  # validates
    k = rand_chain_map(rng, c, a)
    hcb = hom_complex(c, b)
    pre = h.pre_compose(k, hcb)
    ChainMap(pre.source, pre.target, pre.components)


def test_hom_pack_unpack_roundtrip():
    rng = random.Random(27)
    a = rand_complex(rng, max_dim=3)
    b = rand_complex(rng, max_dim=3)
    h = hom_complex(a, b)
    for n in h.complex.dims:
        comps = h.unpack(n, [F(i) for i in range(h.complex.dim(n))])
        assert h.pack(n, comps) == tuple(F(i) for i in range(h.complex.dim(n)))


def test_direct_sum_cohomology_additive():
    rng = random.Random(28)
    a = rand_complex(rng)
    b = rand_complex(rng)
    total, layout = direct_sum([a, b])
    for n in range(total.lo - 1, total.hi + 2) if total.dims else []:
        assert total.cohomology(n).dim == a.cohomology(n).dim + b.cohomology(n).dim


def test_dd_revalidated_after_functors_random():
    rng = random.Random(29)
    for _ in range(10):
        a = rand_complex(rng, max_dim=3)
        b = rand_complex(rng, max_dim=3)
        f = rand_chain_map(rng, a, b)
        for c in (shift(a, 1), cone(f)[0], tensor(a, b).complex, hom_complex(a, b).complex):
            Complex(c.dims, c.d)


def test_truncation_canonical_map_is_quasi_iso_in_window():
    """tau_{<=n} -> C and C -> tau_{>=n} revalidate as chain maps, induce
    isomorphisms on H^q inside the window, and the model is acyclic outside."""
    rng = random.Random(611)
    carriers = [rand_complex(rng, -1, 2, 3) for _ in range(12)]
    carriers += [rand_filtered_complex(rng, -1, 2, 3).carrier for _ in range(12)]
    for c in carriers:
        for n in range(-2, 4):
            for side in ("le", "ge"):
                t = Truncation(c, n, side)
                canonical = ChainMap(t.map.source, t.map.target, t.map.components, check=True)
                assert (canonical.source, canonical.target) == ((t.complex, c) if side == "le" else (c, t.complex))
                for q in range(-3, 5):
                    h_model = t.complex.cohomology(q).dim
                    if not (q <= n if side == "le" else q >= n):
                        assert h_model == 0, (n, side, q)
                        continue
                    assert h_model == c.cohomology(q).dim, (n, side, q)
                    if h_model:
                        assert canonical.induced_on_cohomology(q).rank == h_model, (n, side, q)


def test_truncation_transports_chain_maps_onto_models():
    rng = random.Random(612)
    for _ in range(10):
        a, b = rand_complex(rng, -1, 2, 3), rand_complex(rng, -1, 2, 3)
        f = rand_chain_map(rng, a, b)
        for n in range(-1, 3):
            for side in ("le", "ge"):
                ta, tb = Truncation(a, n, side), Truncation(b, n, side)
                g = ChainMap(ta.complex, tb.complex, ta.transport(f.component, tb), check=True)
                # the canonical maps commute with f and its transport
                if side == "le":
                    assert tb.map.compose(g).components == f.compose(ta.map).components
                else:
                    assert g.compose(ta.map).components == tb.map.compose(f).components


def test_subcomplex_inclusion_and_rejection():
    c = Complex({0: 1, 1: 2}, {0: Matrix(2, 1, [[F(1)], [F(0)]])})
    sub, incl = subcomplex(c, {0: Subspace.full(1), 1: Subspace.full(2)})
    assert sub == c and incl.components == ChainMap.identity(c).components
    sub, incl = subcomplex(c, {1: Subspace(2, Matrix(2, 1, [[F(0)], [F(1)]]))})
    assert sub.dims == {1: 1}
    ChainMap(sub, c, incl.components, check=True)
    # d e^0 = e^1_0 lies neither in the span of e^1_1 nor in a missing (zero) space
    for spaces in ({0: Subspace.full(1), 1: Subspace(2, Matrix(2, 1, [[F(0)], [F(1)]]))}, {0: Subspace.full(1)}):
        with pytest.raises(ValidationError):
            subcomplex(c, spaces)
    rng = random.Random(613)
    for _ in range(20):
        x = rand_filtered_complex(rng, -1, 1, 3).carrier
        for n in x.d:
            cycles, _ = subcomplex(x, {n: Subspace(x.dim(n), x.diff(n).kernel_basis())})
            assert cycles.dim(n) == x.dim(n) - x.diff(n).rank
            with pytest.raises(ValidationError):
                subcomplex(x, {n: Subspace.full(x.dim(n))})


class EagerCohomology:
    """The eager H^n that the rank-first Cohomology replaced: kernel basis,
    coboundary coordinates and quotient in the constructor, and the dimension
    read off the quotient."""

    def __init__(self, c, n):
        z = Subspace(c.dim(n), c.diff(n).kernel_basis())
        b_in_z = z.coords_matrix(c.diff(n - 1))
        if b_in_z is None:
            raise ValidationError("image of d is not contained in the kernel")
        proj, sect = Subspace(z.dim, b_in_z).quotient()
        self.dim = proj.rows
        self.representatives = z.basis * sect
        self.cocycles = z
        self.class_proj = proj

    def project(self, vec):
        coords = self.cocycles.coords_of(vec)
        if coords is None:
            raise ValidationError("vector is not a cocycle")
        return self.class_proj.apply(coords)

    def class_matrix(self, vectors):
        coords = self.cocycles.coords_matrix(vectors)
        if coords is None:
            raise ValidationError("some column is not a cocycle")
        return self.class_proj * coords


def test_rank_first_cohomology_matches_eager_build():
    rng = random.Random(911)
    complexes = []
    for i in range(220):
        a = rand_complex(rng, lo=-1, hi=2, max_dim=4)
        complexes.append(a)
        if i % 4 == 0:
            # unchecked complexes: a cone and a shift
            b = rand_complex(rng, lo=-1, hi=2, max_dim=3)
            complexes += [cone(rand_chain_map(rng, a, b))[0], shift(a, 1)]
    for c in complexes:
        fresh = Complex(c.dims, c.d, check=c.checked)
        for n in range(c.lo - 1, c.hi + 2):
            ref = EagerCohomology(c, n)
            h = fresh.cohomology(n)
            # dim first, before anything is built, then the built parts
            assert h.dim == ref.dim
            assert h.representatives == ref.representatives
            assert h.cocycles.basis == ref.cocycles.basis
            # random cocycles, each plus a random coboundary
            z = ref.cocycles
            coeffs = Matrix(z.dim, 3, [[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(z.dim)])
            shifts = Matrix(c.dim(n - 1), 3, [[F(rng.randint(-2, 2)) for _ in range(3)] for _ in range(c.dim(n - 1))])
            vecs = z.basis * coeffs + c.diff(n - 1) * shifts
            assert h.class_matrix(vecs) == ref.class_matrix(vecs)
            for j in range(vecs.cols):
                assert h.project(vecs.col_tuple(j)) == ref.project(vecs.col_tuple(j))
            # the representatives first, on a second fresh complex
            other = Complex(c.dims, c.d, check=c.checked).cohomology(n)
            assert other.representatives == ref.representatives and other.dim == ref.dim


def test_cohomology_of_a_non_chain_map_cone_still_raises():
    a = Complex.single(0)
    b = Complex({0: 1, 1: 1}, {0: Matrix.identity(1)})
    with pytest.raises(ValidationError):
        ChainMap(a, b, {0: Matrix.identity(1)})
    f = ChainMap(a, b, {0: Matrix.identity(1)}, check=False)
    c = cone(f)[0]
    assert not c.checked
    with pytest.raises(ValidationError, match="image of d is not contained in the kernel"):
        c.cohomology(0).dim
    with pytest.raises(ValidationError, match="image of d is not contained in the kernel"):
        c.cohomology_dims()
    # degrees away from the broken square still answer
    assert c.cohomology(1).dim == 0


def test_project_rejects_a_non_cocycle():
    c = Complex({0: 2, 1: 1}, {0: Matrix.from_rows([[1, 0]])})
    h = c.cohomology(0)
    assert h.dim == 1 and h.project((F(0), F(5))) == (F(5),)
    with pytest.raises(ValidationError, match="not a cocycle"):
        h.project((F(1), F(0)))
    with pytest.raises(ValidationError, match="not a cocycle"):
        h.class_matrix(Matrix.from_rows([[1], [0]]))
