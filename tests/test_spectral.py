import random

import pytest

from phodge.complexes import Complex
from phodge.errors import ValidationError
from phodge.filtered import FilteredComplex, Filtration, is_strict_complex, graded
from phodge.linalg import Matrix, Subspace
from phodge.spectral import (
    DoubleComplex,
    PageEntry,
    SpectralPage,
    column_filtered,
    convergence_check,
    degenerates_at_e1,
    filtration_pages,
    pages,
    simplicial_collapse,
    total_complex,
)

from helpers import rand_complex, rand_double_complex, rand_filtered_complex

I1 = Matrix.identity(1)


def test_double_complex_validation():
    with pytest.raises(ValidationError):
        DoubleComplex(
            {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
            {(0, 0): I1, (0, 1): I1},
            {(0, 0): I1, (1, 0): I1},  # commutes instead of anticommuting
        )


def test_total_single_row():
    dc = DoubleComplex({(0, 0): 1, (1, 0): 1}, {(0, 0): I1}, {})
    t, _ = total_complex(dc)
    assert t.dims == {0: 1, 1: 1} and t.cohomology_dims() == {}


def test_total_square_acyclic():
    dc = DoubleComplex(
        {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
        {(0, 0): I1, (0, 1): I1},
        {(0, 0): I1, (1, 0): -I1},
    )
    t, _ = total_complex(dc)
    assert t.is_acyclic()


def test_total_one_edge_square():
    dc = DoubleComplex({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}, {(0, 0): I1}, {})
    t, _ = total_complex(dc)
    assert list(t.cohomology_dims().values()) == [1, 1]


def test_first_page_is_row_cohomology_single_row():
    dc = DoubleComplex({(0, 0): 1, (1, 0): 1}, {(0, 0): I1}, {})
    pgs = pages(dc, "row")
    # row filtration: E_1 entries are horizontal cohomology
    assert pgs[0].dims_table() == {}


def test_nonzero_d2_exemplar(corpus):
    dc = corpus("d2page.dcomplex")
    pgs = pages(dc, "col")
    e2, e3 = pgs[1], pgs[2]
    assert e2.dims_table() == {(0, 1): 1, (2, 0): 1}
    assert not e2.differentials[(0, 1)].is_zero()
    assert e3.dims_table() == {}
    t, _ = total_complex(dc)
    assert t.cohomology_dims() == {}


def test_convergence_random_both_directions():
    rng = random.Random(81)
    for _ in range(25):
        dc = rand_double_complex(rng, p_count=3, q_lo=0, q_hi=2, max_dim=3)
        assert convergence_check(dc, "col")
        assert convergence_check(dc, "row")


def test_filtration_pages_match_graded_and_strictness():
    rng = random.Random(82)
    for _ in range(25):
        fc = rand_filtered_complex(rng)
        pgs = filtration_pages(fc)
        g = graded(fc)
        for (p, q), entry in pgs[0].entries.items():
            expect = g[p].complex.cohomology(p + q).dim if p in g else 0
            assert entry.dim == expect
        assert degenerates_at_e1(fc) == is_strict_complex(fc)


def test_simplicial_collapse_levels():
    c2 = Complex({0: 2, 1: 2}, {0: Matrix.from_rows([[0, 1], [0, 0]])})
    for n in (0, 2, 4):
        assert simplicial_collapse(Complex.single(0), n).passed
        assert simplicial_collapse(c2, n).passed
    with pytest.raises(ValidationError):
        simplicial_collapse(c2, 3)


def test_simplicial_collapse_random():
    rng = random.Random(83)
    for _ in range(6):
        c = rand_complex(rng, lo=0, hi=2, max_dim=2)
        for n in (0, 2, 4):
            assert simplicial_collapse(c, n).passed


def _reference_preimage(d, target):
    proj, _ = target.quotient()
    return Subspace(d.cols, (proj * d).kernel_basis())


def _reference_z_space(f, n, p, r):
    return f.level(n, p).intersect(_reference_preimage(f.carrier.diff(n), f.level(n + 1, p + r)))


def _width(f):
    levels = f.filtration.all_levels()
    return levels[-1] - levels[0] + 1 if levels else 1


def reference_pages(f, r_max=None):
    """The page run before Z spaces were shared: every Z(n, p, r) is computed
    afresh where it is used as preimage ∩ level, the denominator is
    z ∩ boundary, and no E_{r+1} = H(E_r, d_r) check is made.  Pages 1 to
    r_max, by default to width + 1."""
    total = f.carrier
    levels = f.filtration.all_levels()
    p_lo, p_hi = (levels[0], levels[-1]) if levels else (0, 0)
    out = []
    for r in range(1, (_width(f) + 1 if r_max is None else r_max) + 1):
        entries, diffs, quotients = {}, {}, {}
        for n in sorted(total.dims):
            for p in range(p_lo, p_hi + 1):
                z = _reference_z_space(f, n, p, r)
                inner_z = _reference_z_space(f, n, p + 1, r - 1)
                prev = _reference_z_space(f, n - 1, p - r + 1, r - 1)
                boundary = inner_z.sum(Subspace(total.dim(n), total.diff(n - 1) * prev.basis))
                proj, sect, lift = z.quotient_by(z.intersect(boundary))
                if proj.rows:
                    entries[(p, n - p)] = PageEntry(dim=proj.rows, representatives=lift)
                    quotients[(p, n - p)] = (z, proj, lift)
        for (p, q), (z, proj, lift) in quotients.items():
            tgt = quotients.get((p + r, q - r + 1))
            if tgt is None:
                diffs[(p, q)] = Matrix.zeros(0, entries[(p, q)].dim)
                continue
            zt, projt, _ = tgt
            diffs[(p, q)] = projt * zt.coords_matrix(total.diff(p + q) * lift)
        out.append(SpectralPage(r=r, entries=entries, differentials=diffs))
    return out


def test_shared_z_spaces_match_the_unshared_page_run(corpus):
    rng = random.Random(84)
    filtered = [column_filtered(corpus("d2page.dcomplex"), "col")]
    for i in range(30):
        dc = rand_double_complex(rng, p_count=2 + i % 3, q_lo=0, q_hi=2, max_dim=2 + i % 2)
        filtered += [column_filtered(dc, "col"), column_filtered(dc, "row")]
    filtered += [rand_filtered_complex(rng, depth=1 + i % 3) for i in range(15)]
    late = 0
    for fc in filtered:
        got, want = filtration_pages(fc), reference_pages(fc)
        assert got == want
        late += any(not m.is_zero() for page in got[1:] for m in page.differentials.values())
    # some runs have a nonzero d_r with r >= 2, and not only the corpus one
    assert late >= 5


def test_pages_past_stabilization_match_the_reference(corpus):
    """Pages beyond width + 1 repeat the cells of earlier pages; the memoized
    cells must still give the reference pages."""
    rng = random.Random(85)
    filtered = [column_filtered(corpus("d2page.dcomplex"), direction) for direction in ("col", "row")]
    for i in range(8):
        dc = rand_double_complex(rng, p_count=2 + i % 3, q_lo=0, q_hi=2, max_dim=2)
        filtered += [column_filtered(dc, "col"), column_filtered(dc, "row")]
    filtered += [rand_filtered_complex(rng, depth=1 + i % 3) for i in range(6)]
    for fc in filtered:
        r_max = _width(fc) + 3
        got, want = filtration_pages(fc, r_max=r_max), reference_pages(fc, r_max)
        assert len(got) == r_max and got == want
        assert got[-1] == SpectralPage(r=r_max, entries=got[-3].entries, differentials=got[-3].differentials)


def _leaving_filtrations():
    """Filtered complexes built unchecked whose differential leaves F^1."""
    one = Complex({0: 1, 1: 1}, {0: I1})
    yield FilteredComplex(one, Filtration(one.dims, {0: [(1, Subspace.full(1))], 1: [(0, Subspace.full(1))]}), check=False)
    two = Complex({0: 2, 1: 2}, {0: Matrix.identity(2)})
    e1, e2 = Subspace.from_vectors([(1, 0)], 2), Subspace.from_vectors([(0, 1)], 2)
    records = {0: [(0, Subspace.full(2)), (1, e1)], 1: [(0, Subspace.full(2)), (1, e2)]}
    yield FilteredComplex(two, Filtration(two.dims, records), check=False)


def test_a_differential_leaving_the_filtration_gives_no_pages():
    for fc in _leaving_filtrations():
        with pytest.raises(ValidationError, match="does not preserve filtration"):
            FilteredComplex(fc.carrier, fc.filtration)
        with pytest.raises(ValidationError, match="does not preserve the filtration"):
            filtration_pages(fc)
        with pytest.raises(ValidationError, match="does not preserve the filtration"):
            degenerates_at_e1(fc)


def _counted_page_runs(corpus, monkeypatch):
    """Matrix.rref and Subspace.intersect calls made by each page run."""
    counts = {"rref": 0, "intersect": 0}

    def counting(name, method):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Matrix, "rref", counting("rref", Matrix.rref))
    monkeypatch.setattr(Subspace, "intersect", counting("intersect", Subspace.intersect))
    runs = {}
    inputs = {direction: column_filtered(corpus("d2page.dcomplex"), direction) for direction in ("col", "row")}
    inputs["filtered"] = rand_filtered_complex(random.Random(96), depth=3)
    for name, fc in inputs.items():
        counts.update(rref=0, intersect=0)
        filtration_pages(fc)
        runs[name] = dict(counts)
    return runs


def test_page_runs_make_one_elimination_per_z_space_and_cell(corpus, monkeypatch):
    """Exact call counts, so a change that brings back per-page intersections
    or repeated eliminations fails here without any timing."""
    assert _counted_page_runs(corpus, monkeypatch) == {
        "col": {"rref": 67, "intersect": 0},
        "row": {"rref": 30, "intersect": 0},
        "filtered": {"rref": 167, "intersect": 0},
    }
