import random

import pytest

from phodge.complexes import ChainMap, Complex, Truncation
from phodge.errors import ValidationError
from phodge.filtered import (
    FilteredComplex,
    FilteredMap,
    Filtration,
    filtered_truncate,
    graded,
    graded_cohomology_count,
    is_filtered_quasi_iso,
    is_strict_complex,
    is_strict_map,
    level_subcomplex,
)
from phodge.linalg import Matrix, Subspace
from phodge.phc import tate_object

from helpers import rand_filtered_complex


def two_step_flag():
    return FilteredComplex(
        Complex({0: 2}, {}),
        Filtration({0: 2}, {0: [(0, Subspace.full(2)), (1, Subspace.from_vectors([(1, 0)], 2))]}),
    )


def test_trivial_filtration_graded():
    c = Complex({0: 2, 1: 2}, {0: Matrix.from_rows([[0, 1], [0, 0]])})
    fc = FilteredComplex.with_trivial_filtration(c)
    g = graded(fc)
    assert list(g) == [0] and g[0].complex.dims == c.dims


def test_full_flag_two_lines():
    g = graded(two_step_flag())
    assert g[0].complex.dims == {0: 1} and g[1].complex.dims == {0: 1}


def test_tate_object_graded(frame):
    t = tate_object(frame, -1)  # one jump at level 1
    g = graded(t.dr)
    assert list(g) == [1] and g[1].complex.dims == {0: 1}


def test_graded_dimension_count_random():
    rng = random.Random(31)
    for _ in range(25):
        fc = rand_filtered_complex(rng)
        for n in fc.carrier.dims:
            assert sum(p.complex.dim(n) for p in graded(fc).values()) == fc.carrier.dim(n)


def test_strict_map_examples():
    fc = two_step_flag()
    assert is_strict_map(FilteredMap(fc, fc, ChainMap.identity(fc.carrier)))
    assert is_strict_map(FilteredMap(fc, fc, ChainMap.zero(fc.carrier, fc.carrier)))
    src = FilteredComplex(
        Complex({0: 1}, {}), Filtration({0: 1}, {0: [(0, Subspace.full(1))]})
    )
    inc = ChainMap(src.carrier, fc.carrier, {0: Matrix.from_rows([[1], [0]])})
    assert not is_strict_map(FilteredMap(src, fc, inc))


def test_strict_complex_examples():
    assert is_strict_complex(two_step_flag())
    nonstrict = FilteredComplex(
        Complex({0: 1, 1: 1}, {0: Matrix.identity(1)}),
        Filtration({0: 1, 1: 1}, {0: [(0, Subspace.full(1))], 1: [(1, Subspace.full(1))]}),
    )
    assert not is_strict_complex(nonstrict)
    assert not is_strict_complex(nonstrict, via="direct")
    one_step = FilteredComplex.with_trivial_filtration(
        Complex({0: 2, 1: 2}, {0: Matrix.from_rows([[0, 1], [0, 0]])})
    )
    assert is_strict_complex(one_step) and is_strict_complex(one_step, via="direct")


def test_strictness_dichotomy_random():
    rng = random.Random(32)
    for _ in range(40):
        fc = rand_filtered_complex(rng)
        assert is_strict_complex(fc) == is_strict_complex(fc, via="direct")
        # graded count bounds the carrier cohomology, equality iff strict
        for n in fc.carrier.dims:
            assert graded_cohomology_count(fc, n) >= fc.carrier.cohomology(n).dim
        strict = is_strict_complex(fc)
        equal = all(
            graded_cohomology_count(fc, n) == fc.carrier.cohomology(n).dim for n in fc.carrier.dims
        )
        assert strict == equal


def test_truncation_identities():
    rng = random.Random(33)
    fc = rand_filtered_complex(rng, lo=0, hi=2, max_dim=3)
    t = filtered_truncate(fc, fc.carrier.hi, "le")
    assert t.carrier.dims == fc.carrier.dims
    acyclic = FilteredComplex.with_trivial_filtration(
        Complex({0: 1, 1: 1}, {0: Matrix.identity(1)})
    )
    assert filtered_truncate(acyclic, 1, "ge").carrier.is_acyclic()


def test_truncation_cohomology_window():
    rng = random.Random(34)
    for _ in range(15):
        fc = rand_filtered_complex(rng, lo=0, hi=2, max_dim=3)
        n = 1
        le = filtered_truncate(fc, n, "le")
        for q in range(-1, 4):
            expect = fc.carrier.cohomology(q).dim if q <= n else 0
            assert le.carrier.cohomology(q).dim == expect
        ge = filtered_truncate(fc, n, "ge")
        for q in range(-1, 4):
            expect = fc.carrier.cohomology(q).dim if q >= n else 0
            assert ge.carrier.cohomology(q).dim == expect
        dbl = filtered_truncate(filtered_truncate(fc, n, "ge"), n, "le")
        assert dbl.carrier.cohomology(n).dim == fc.carrier.cohomology(n).dim
        assert sum(dbl.carrier.cohomology(q).dim for q in range(-1, 4)) == fc.carrier.cohomology(n).dim


def test_truncation_canonical_map_is_a_filtered_map():
    """The inclusion of the 'le' model and the projection onto the 'ge' model
    preserve the induced filtration, which filtered_truncate carries."""
    rng = random.Random(36)
    for _ in range(12):
        fc = rand_filtered_complex(rng, lo=-1, hi=2, max_dim=3)
        for n in range(-1, 3):
            for side in ("le", "ge"):
                t = Truncation(fc.carrier, n, side)
                model = filtered_truncate(fc, n, side)
                assert model.carrier == t.complex
                FilteredComplex(model.carrier, model.filtration, check=True)
                canonical = ChainMap(t.map.source, t.map.target, t.map.components, check=True)
                FilteredMap(*((model, fc) if side == "le" else (fc, model)), canonical)


def test_truncation_composition_dims():
    rng = random.Random(35)
    fc = rand_filtered_complex(rng, lo=0, hi=2, max_dim=3)
    a = filtered_truncate(filtered_truncate(fc, 2, "le"), 1, "le")
    b = filtered_truncate(fc, 1, "le")
    for q in range(-1, 4):
        assert a.carrier.cohomology(q).dim == b.carrier.cohomology(q).dim


def test_double_truncation_induced_filtration_strict_case():
    # strict three-term complex with a nontrivial flag
    c = Complex({0: 1, 1: 2, 2: 1}, {})
    recs = {
        0: [(0, Subspace.full(1))],
        1: [(0, Subspace.full(2)), (1, Subspace.from_vectors([(1, 0)], 2))],
        2: [(1, Subspace.full(1))],
    }
    fc = FilteredComplex(c, Filtration({0: 1, 1: 2, 2: 1}, recs))
    assert is_strict_complex(fc)
    dbl = filtered_truncate(filtered_truncate(fc, 1, "ge"), 1, "le")
    assert dbl.carrier.cohomology(1).dim == 2
    g = graded(dbl)
    assert g[0].complex.dim(1) == 1 and g[1].complex.dim(1) == 1


def test_filtered_quasi_iso_examples(frame):
    fc = two_step_flag()
    assert is_filtered_quasi_iso(FilteredMap(fc, fc, ChainMap.identity(fc.carrier)))
    jump0 = FilteredComplex(Complex({0: 1}, {}), Filtration({0: 1}, {0: [(0, Subspace.full(1))]}))
    jump1 = FilteredComplex(Complex({0: 1}, {}), Filtration({0: 1}, {0: [(1, Subspace.full(1))]}))
    f = FilteredMap(jump0, jump1, ChainMap.identity(jump0.carrier))
    assert f.underlying.is_quasi_iso() and not is_filtered_quasi_iso(f)


def test_filtered_quasi_iso_direct_sum_with_strict_acyclic():
    base = two_step_flag()
    acyclic = FilteredComplex.with_trivial_filtration(
        Complex({0: 1, 1: 1}, {0: Matrix.identity(1)})
    )
    # direct sum at the filtered level
    carrier = Complex({0: 3, 1: 1}, {0: Matrix.from_rows([[0, 0, 1]])})
    recs = {
        0: [
            (0, Subspace.full(3)),
            (1, Subspace.from_vectors([(1, 0, 0)], 3)),
        ],
        1: [(0, Subspace.full(1))],
    }
    big = FilteredComplex(carrier, Filtration({0: 3, 1: 1}, recs))
    inc = ChainMap(base.carrier, carrier, {0: Matrix.from_rows([[1, 0], [0, 1], [0, 0]])})
    fm = FilteredMap(base, big, inc)
    assert is_filtered_quasi_iso(fm)


def test_filtered_quasi_iso_implies_carrier_quasi_iso_random():
    rng = random.Random(36)
    for _ in range(10):
        fc = rand_filtered_complex(rng, max_dim=3)
        fm = FilteredMap(fc, fc, ChainMap.identity(fc.carrier))
        assert is_filtered_quasi_iso(fm)
        assert fm.underlying.is_quasi_iso(via="degreewise")


def test_level_subcomplex():
    fc = two_step_flag()
    sub, incl = level_subcomplex(fc, 1)
    assert sub.dims == {0: 1}
    ChainMap(incl.source, incl.target, incl.components)


def test_filtration_validation():
    c = Complex({0: 1, 1: 1}, {0: Matrix.identity(1)})
    with pytest.raises(ValidationError):
        # not preserved: F^1 is everything in degree 0 but zero in degree 1
        FilteredComplex(
            c,
            Filtration({0: 1, 1: 1}, {0: [(1, Subspace.full(1))], 1: [(0, Subspace.full(1))]}),
        )
