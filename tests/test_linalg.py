import random
import tracemalloc
from fractions import Fraction as F

import pytest

from phodge.errors import ValidationError
from phodge.frames import CoefficientFrame, NumberField
from phodge.linalg import (
    Matrix,
    Subspace,
    assemble,
    hstack,
    kron,
    rank_decomposition,
    vstack,
)

from helpers import rand_matrix, rand_scalar


def test_rank_decomposition_identity():
    k, im, piv = rank_decomposition(Matrix.identity(3))
    assert k.dim == 0 and im.dim == 3


def test_rank_decomposition_zero():
    k, im, piv = rank_decomposition(Matrix.zeros(2, 4))
    assert k.dim == 4 and im.dim == 0


def test_rank_decomposition_rank_one():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    k, im, piv = rank_decomposition(m)
    assert k.dim == 1 and im.dim == 1
    assert k.contains((2, -1))


def test_subspace_ops_equal_and_complementary():
    a = Subspace.from_vectors([(1, 0)], 2)
    assert a.sum(a).dim == a.dim and a.intersect(a).dim == a.dim
    proj, sect = a.quotient()
    assert proj.rows == 1 and (proj * sect) == Matrix.identity(1)
    b = Subspace.from_vectors([(0, 1)], 2)
    assert a.sum(b).dim == 2 and a.intersect(b).dim == 0


def test_subspace_intersection_example():
    a = Subspace.from_vectors([(1, 0, 0), (0, 1, 0)], 3)
    b = Subspace.from_vectors([(0, 1, 0), (0, 0, 1)], 3)
    i = a.intersect(b)
    assert i.dim == 1 and i.contains((0, 1, 0))


def test_solve_examples():
    assert Matrix.identity(3).solve([1, 2, 3]) == (F(1), F(2), F(3))
    assert Matrix.zeros(2, 2).solve([1, 0]) is None
    assert Matrix.from_rows([[1, 1], [0, 1]]).solve([3, 1]) == (F(2), F(1))
    with pytest.raises(ValidationError):
        Matrix.identity(2).solve([1, 2, 3])


def test_rank_nullity_random():
    rng = random.Random(101)
    for _ in range(80):
        r, c = rng.randint(0, 8), rng.randint(0, 8)
        m = rand_matrix(rng, r, c)
        k, im, _ = rank_decomposition(m)
        assert k.dim + im.dim == c
        for j in range(k.dim):
            assert all(v == 0 for v in m.apply(k.basis.col_tuple(j)))


def test_sum_intersection_dimension_formula_random():
    rng = random.Random(102)
    for _ in range(60):
        n = rng.randint(1, 6)
        a = Subspace.from_vectors([tuple(rand_scalar(rng) for _ in range(n)) for _ in range(rng.randint(0, n))], n)
        b = Subspace.from_vectors([tuple(rand_scalar(rng) for _ in range(n)) for _ in range(rng.randint(0, n))], n)
        assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim


def test_solve_recovers_preimage_random():
    rng = random.Random(103)
    for _ in range(60):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = rand_matrix(rng, r, c)
        x = [rand_scalar(rng) for _ in range(c)]
        y = m.apply(x)
        s = m.solve(y)
        assert s is not None and m.apply(s) == y


def test_solve_matrix_consistency():
    rng = random.Random(104)
    for _ in range(30):
        r, c, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 4)
        m = rand_matrix(rng, r, c)
        x = rand_matrix(rng, c, k)
        sol = m.solve_matrix(m * x)
        assert sol is not None and m * sol == m * x


def test_quotient_with_section_random():
    rng = random.Random(105)
    for _ in range(40):
        n = rng.randint(1, 6)
        w = Subspace.from_vectors(
            [tuple(rand_scalar(rng) for _ in range(n)) for _ in range(rng.randint(0, n))], n
        )
        proj, sect = w.quotient()
        assert proj.rows == n - w.dim
        assert proj * sect == Matrix.identity(proj.rows)
        if w.dim:
            assert (proj * w.basis).is_zero()


def _kernel_case(rng, rows, cols, seen):
    """A random Fraction matrix with the features the RREF must handle."""
    big = 10 ** 60

    def scalar():
        roll = rng.random()
        if roll < 0.35:
            return F(0)
        if roll < 0.85:
            return F(rng.randint(-5, 5), rng.randint(1, 4))
        return F(rng.choice([-1, 1]) * rng.randint(big, 10 * big), rng.randint(big, 10 * big))

    m = [[scalar() for _ in range(cols)] for _ in range(rows)]
    if rows and rng.random() < 0.3:
        m[rng.randrange(rows)] = [F(0)] * cols
    if cols and rng.random() < 0.3:
        j = rng.randrange(cols)
        for r in m:
            r[j] = F(0)
    if rows > 1 and rng.random() < 0.3:
        m[rng.randrange(rows)] = list(m[rng.randrange(rows)])
    if rows and cols and rng.random() < 0.5:
        m[0][0] = -abs(m[0][0]) or F(-1)
    seen["zero_row"] |= any(all(x == 0 for x in r) for r in m) and cols > 0
    seen["zero_col"] |= rows > 0 and any(all(r[j] == 0 for r in m) for j in range(cols))
    seen["repeated_row"] |= any(x != 0 for r in m for x in r) and len({tuple(r) for r in m}) < rows
    seen["negative_pivot"] |= bool(rows and cols and m[0][0] < 0)
    seen["big"] |= any(len(str(abs(x.numerator))) >= 60 and len(str(x.denominator)) >= 60 for r in m for x in r)
    return m


def _check_rref(m, ref_rows, ref_pivots):
    """m.rref() shows the reference RREF and pivots and stores no zero in its nonzero view."""
    red, pivots = m.rref()
    assert red.entries == tuple(map(tuple, ref_rows)) and pivots == tuple(ref_pivots)
    assert all(x for row in red.nonzero_rows() for _, x in row)
    return pivots


def _echelon_rows(rng, rank, cols, scalar):
    """rank rows with increasing leading columns and nonzero entries from there on,
    so each later leading column is nonzero in every earlier row."""
    leads = sorted(rng.sample(range(cols), rank))
    return [[scalar() if j >= c else scalar() * 0 for j in range(cols)] for c in leads]


def test_rref_matches_dense_gauss_jordan():
    rng = random.Random(108)
    seen = dict.fromkeys(["zero_row", "zero_col", "repeated_row", "negative_pivot", "big"], False)
    shapes = [(0, n) for n in range(4)] + [(n, 0) for n in range(1, 4)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(300)]
    for rows, cols in shapes:
        m = Matrix(rows, cols, _kernel_case(rng, rows, cols, seen))
        _check_rref(m, *_dense_rref(m))
    assert all(seen.values()), seen
    # sparse 0/+-1 rows at <= 10 % density, as in the sheaf complexes, up to 60 x 60
    shapes = [(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(60)] + [(60, 60), (60, 24), (24, 60), (45, 60)]
    ranks = set()
    for rows, cols in shapes:
        density = rng.choice([0.02, 0.05, 0.1])
        m = Matrix(rows, cols, [[F(rng.choice([-1, 1])) if rng.random() < density else F(0) for _ in range(cols)] for _ in range(rows)])
        pivots = _check_rref(m, *_dense_rref(m))
        ranks.add((len(pivots) == 0, len(pivots) == min(rows, cols)))
    assert ranks >= {(True, False), (False, True), (False, False)}, ranks
    # the rows in an order the elimination must not depend on: echelon rows as
    # given (each later leading column is nonzero in the rows before it) and
    # reversed, and with zero and duplicate rows interleaved; rational and
    # extension scalars
    nf = NumberField([-2, 0, 1])
    scalars = {
        "rational": lambda: F(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 3])),
        "extension": lambda: nf.element([rng.randint(-2, 2), rng.choice([-1, 1])]),
    }
    seen = dict.fromkeys(["echelon", "reversed", "zero_and_duplicate", "extension"], 0)
    for kind, scalar in scalars.items():
        zero = scalar() * 0
        for _ in range(60):
            cols = rng.randint(1, 8)
            echelon = _echelon_rows(rng, rng.randint(1, cols), cols, scalar)
            mixed = []
            for row in echelon:
                mixed += [row, [zero] * cols] if rng.random() < 0.5 else [row, [x * 2 for x in row]]
                if rng.random() < 0.5:
                    mixed.append(list(rng.choice(mixed)))
            for order, dense in (("echelon", echelon), ("reversed", echelon[::-1]), ("zero_and_duplicate", mixed)):
                m = Matrix(len(dense), cols, dense)
                assert len(_check_rref(m, *_dense_rref(m))) == len(echelon)
                seen[order] += len(echelon) > 1
                seen["extension"] += kind == "extension"
    assert all(seen.values()), seen


def _assemble_reference(rows, cols, blocks):
    """Entry by entry: the last block holding a nonzero entry at (i, j) gives its value."""

    def entry(i, j):
        value = F(0)
        for r0, c0, m in blocks:
            if r0 <= i < r0 + m.rows and c0 <= j < c0 + m.cols and m.entries[i - r0][j - c0] != 0:
                value = m.entries[i - r0][j - c0]
        return value

    return Matrix(rows, cols, [[entry(i, j) for j in range(cols)] for i in range(rows)])


def test_assemble_matches_entrywise_reference():
    rng = random.Random(110)
    seen = dict.fromkeys(["no_blocks", "zero_rows", "zero_cols", "right_edge", "bottom_edge", "overlap"], False)
    cases = [(0, 0, []), (0, 3, [(0, 1, Matrix.zeros(0, 2))]), (3, 0, [(1, 0, Matrix.zeros(2, 0))])]
    for _ in range(300):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        blocks = []
        for _ in range(rng.randint(0, 4)):
            h, w = rng.randint(0, rows), rng.randint(0, cols)
            r0, c0 = rng.randint(0, rows - h), rng.randint(0, cols - w)
            blocks.append((r0, c0, rand_matrix(rng, h, w)))
        cases.append((rows, cols, blocks))
    for rows, cols, blocks in cases:
        seen["no_blocks"] |= not blocks
        for r0, c0, m in blocks:
            seen["zero_rows"] |= m.rows == 0 and m.cols > 0
            seen["zero_cols"] |= m.cols == 0 and m.rows > 0
            seen["right_edge"] |= m.cols > 0 and c0 + m.cols == cols
            seen["bottom_edge"] |= m.rows > 0 and r0 + m.rows == rows
        cells = [(r0 + i, c0 + j) for r0, c0, m in blocks for i in range(m.rows) for j in range(m.cols)]
        seen["overlap"] |= len(cells) != len(set(cells))
        assert assemble(rows, cols, blocks) == _assemble_reference(rows, cols, blocks)
    assert all(seen.values()), seen
    # blocks past an edge or at a negative offset are rejected, not wrapped or cut
    for r0, c0, size in ((1, 1, 2), (2, 0, 1), (0, 2, 1), (-1, 0, 1), (0, -1, 1)):
        with pytest.raises(ValidationError):
            assemble(2, 2, [(r0, c0, Matrix.identity(size))])


# Dense copies of the entrywise Matrix operations the nonzero view replaced;
# the sparse paths must give identical matrices.


def _dense_mul(a, b):
    out = [[F(0)] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for k in range(a.cols):
            x = a.entries[i][k]
            if x == 0:
                continue
            for j in range(b.cols):
                y = b.entries[k][j]
                if y != 0:
                    out[i][j] = out[i][j] + x * y
    return Matrix(a.rows, b.cols, out)


def _dense_add(a, b):
    return Matrix(a.rows, a.cols, [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a.entries, b.entries)])


def _dense_neg(a):
    return Matrix(a.rows, a.cols, [[-x for x in r] for r in a.entries])


def _dense_scale(a, s):
    return Matrix(a.rows, a.cols, [[x * s for x in r] for r in a.entries])


def _dense_assemble(rows, cols, blocks):
    out = [[F(0)] * cols for _ in range(rows)]
    for r0, c0, m in blocks:
        for i, row in enumerate(m.entries, r0):
            for j, x in enumerate(row, c0):
                if x != 0:
                    out[i][j] = x
    return Matrix(rows, cols, out)


def _dense_kron(a, b):
    out = [[F(0)] * (a.cols * b.cols) for _ in range(a.rows * b.rows)]
    for i in range(a.rows):
        for j in range(a.cols):
            x = a.entries[i][j]
            if x == 0:
                continue
            for k in range(b.rows):
                for l in range(b.cols):
                    out[i * b.rows + k][j * b.cols + l] = x * b.entries[k][l]
    return Matrix(a.rows * b.rows, a.cols * b.cols, out)


def _dense_transpose(a):
    return Matrix(a.cols, a.rows, [a.col_tuple(j) for j in range(a.cols)])


def _dense_is_zero(a):
    return all(x == 0 for r in a.entries for x in r)


def _same(new, old):
    """new equals old, and new's nonzero view lists exactly its nonzero entries."""
    assert (new.rows, new.cols) == (old.rows, old.cols) and new == old
    rebuilt = Matrix(new.rows, new.cols, new.entries).nonzero_rows()
    assert [sorted(r, key=lambda p: p[0]) for r in new.nonzero_rows()] == rebuilt


def test_sparse_matrix_ops_match_dense_reference():
    rng = random.Random(112)
    nf = NumberField([-2, 0, 1])
    kinds = {
        # a nonzero value and a zero of each kind; extension zeros test the truthiness zero test
        "rational": (lambda: F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2])), lambda: F(0)),
        "extension": (lambda: nf.element([rng.randint(-2, 2), rng.choice([-1, 1])]), nf.zero),
    }
    seen = dict.fromkeys(["empty", "full", "zero_size", "cancel", "overlap", "extension"], False)

    def rand(rows, cols, density, kind):
        nonzero, zero = kinds[kind]
        return Matrix(rows, cols, [[nonzero() if rng.random() < density else zero() for _ in range(cols)] for _ in range(rows)])

    for kind in kinds:
        for density in (0.0, 0.05, 0.1, 0.3, 0.6, 1.0):
            for _ in range(25):
                r, k, c = (rng.choice([0, 1, 2, 3, 5, 8]) for _ in range(3))
                a, a2, b = rand(r, k, density, kind), rand(r, k, density, kind), rand(k, c, density, kind)
                _same(a * b, _dense_mul(a, b))
                _same(a + a2, _dense_add(a, a2))
                _same(a + (-a), _dense_add(a, _dense_neg(a)))
                _same(-a, _dense_neg(a))
                s = rng.choice([kinds[kind][0](), 0, 2])
                _same(a.scale(s), _dense_scale(a, s))
                _same(kron(a, b), _dense_kron(a, b))
                _same(a.transpose(), _dense_transpose(a))
                assert a.is_zero() == _dense_is_zero(a) and (a + (-a)).is_zero()
                blocks = [(rng.randint(0, 2), rng.randint(0, 2), m) for m in (a, a2, rand(2, 3, density, kind))]
                rows = max(r0 + m.rows for r0, _, m in blocks)
                cols = max(c0 + m.cols for _, c0, m in blocks)
                _same(assemble(rows, cols, blocks), _dense_assemble(rows, cols, blocks))
                summed = Matrix.zeros(rows, cols)
                for block in blocks:
                    summed = _dense_add(summed, _dense_assemble(rows, cols, [block]))
                _same(assemble(rows, cols, blocks, add=True), summed)
                seen["empty"] |= density == 0.0 and r * k > 0
                seen["full"] |= density == 1.0 and r * k > 0
                seen["zero_size"] |= 0 in (r, k, c)
                seen["cancel"] |= any(
                    not (a * b).entries[i][j] and any(a.entries[i][t] and b.entries[t][j] for t in range(k))
                    for i in range(r)
                    for j in range(c)
                )
                seen["overlap"] |= not _dense_is_zero(a) and not _dense_is_zero(a2)
                seen["extension"] |= kind == "extension" and not _dense_is_zero(a)
    assert all(seen.values()), seen


# Dense references for the results that derive their entries from the
# nonzero view; each gives the dense rows the result must show.


def _rows(m):
    return [list(r) for r in m.entries]


def _dense_t(rows, nrows, ncols):
    return [[rows[i][j] for i in range(nrows)] for j in range(ncols)]


def _dense_rref(m):
    """Gauss-Jordan on dense rows: the RREF rows and the pivot columns."""
    rows = _rows(m)
    pivots = []
    for c in range(m.cols):
        r = len(pivots)
        p = next((i for i in range(r, m.rows) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m.rows):
            f = rows[i][c]
            if i != r and f != 0:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _dense_kernel(m):
    """Columns e_f - (RREF column f at the pivots), one per free column f."""
    rows, pivots = _dense_rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    out = [[F(0)] * len(free) for _ in range(m.cols)]
    for t, f in enumerate(free):
        out[f][t] = F(1)
        for row, p in zip(rows, pivots):
            out[p][t] = -row[f]
    return out


def _dense_solve(a, b):
    """The rows of X with a X = b, read off the RREF of [a | b], or None."""
    rows, pivots = _dense_rref(Matrix(a.rows, a.cols + b.cols, [ra + rb for ra, rb in zip(_rows(a), _rows(b))]))
    if any(p >= a.cols for p in pivots):
        return None
    out = [[F(0)] * b.cols for _ in range(a.cols)]
    for row, p in zip(rows, pivots):
        out[p] = row[a.cols :]
    return out


def _dense_intersection(s1, s2):
    """The canonical basis (transposed RREF) of the span of B1 K1, where
    (K1; K2) spans the kernel of [B1 | -B2]."""
    n, d1 = s1.ambient_dim, s1.dim
    b1 = _rows(s1.basis)
    stacked = [r1 + [-x for x in r2] for r1, r2 in zip(b1, _rows(s2.basis))]
    ker = _dense_kernel(Matrix(n, d1 + s2.dim, stacked))
    t = len(ker[0]) if ker else 0
    span = [[sum((b1[i][k] * ker[k][c] for k in range(d1)), F(0)) for c in range(t)] for i in range(n)]
    rows, pivots = _dense_rref(Matrix(t, n, _dense_t(span, n, t)))
    return _dense_t(rows[: len(pivots)], len(pivots), n)


def test_derived_entries_match_dense_references():
    rng = random.Random(115)
    nf = NumberField([-2, 0, 1])
    kinds = {
        "rational": (lambda: F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2])), lambda: F(0)),
        "extension": (lambda: nf.element([rng.randint(-2, 2), rng.choice([-1, 1])]), nf.zero),
    }
    seen = dict.fromkeys(["singular", "solvable", "unsolvable", "outside", "meet", "extension"], False)

    def rand(rows, cols, density, kind):
        nonzero, zero = kinds[kind]
        return Matrix(rows, cols, [[nonzero() if rng.random() < density else zero() for _ in range(cols)] for _ in range(rows)])

    def check(got, rows):
        assert got.entries == tuple(map(tuple, rows)) and got.entries is got.entries

    for kind in kinds:
        for density in (0.0, 0.1, 0.3, 0.6, 1.0):
            for _ in range(15):
                r, k, c = (rng.choice([0, 1, 2, 3, 5]) for _ in range(3))
                a, a2, b = rand(r, k, density, kind), rand(r, k, density, kind), rand(k, c, density, kind)
                check(a * b, _rows(_dense_mul(a, b)))
                check(a + a2, _rows(_dense_add(a, a2)))
                check(a - a2, _rows(_dense_add(a, _dense_neg(a2))))
                check(-a, _rows(_dense_neg(a)))
                s = rng.choice([kinds[kind][0](), 0, 2])
                check(a.scale(s), _rows(_dense_scale(a, s)))
                check(a.transpose(), _dense_t(_rows(a), r, k))
                check(kron(a, b), _rows(_dense_kron(a, b)))
                blocks = [(rng.randint(0, 2), rng.randint(0, 2), m) for m in (a, a2, b)]
                rows = max(r0 + m.rows for r0, _, m in blocks)
                cols = max(c0 + m.cols for _, c0, m in blocks)
                check(assemble(rows, cols, blocks), _rows(_dense_assemble(rows, cols, blocks)))
                check(hstack([a, a2, a]), [r1 + r2 + r1 for r1, r2 in zip(_rows(a), _rows(a2))])
                check(vstack([a, a2, a]), _rows(a) + _rows(a2) + _rows(a))
                r0, c0 = rng.randint(0, r), rng.randint(0, k)
                h, w = rng.randint(0, r - r0), rng.randint(0, k - c0)
                check(a.block(r0, c0, h, w), [row[c0 : c0 + w] for row in _rows(a)[r0 : r0 + h]])
                flat = [x for row in _rows(a) for x in row]
                for shape in ((k, r), (1, r * k), (r * k, 1)):
                    check(a.reshape(*shape), [flat[i * shape[1] : (i + 1) * shape[1]] for i in range(shape[0])])
                # the product's derived entries feed the generic RREF of extension scalars
                for m in (a, a * b):
                    red, pivots = m.rref()
                    ref_rows, ref_pivots = _dense_rref(m)
                    check(red, ref_rows)
                    assert list(pivots) == ref_pivots
                    check(m.kernel_basis(), _dense_kernel(m))
                    seen["singular"] |= len(pivots) < min(m.rows, m.cols)
                rhs = rand(r, c, density, kind)
                for target in (a * rand(k, c, density, kind), rhs):
                    got, ref = a.solve_matrix(target), _dense_solve(a, target)
                    assert (got is None) == (ref is None)
                    if got is not None:
                        check(got, ref)
                    seen["unsolvable" if got is None else "solvable"] |= c > 0
                vec = [kinds[kind][0]() for _ in range(k)]
                assert a.apply(vec) == tuple(sum((x * v for x, v in zip(row, vec)), F(0)) for row in a.entries)
                assert all(a.col_tuple(j) == tuple(row[j] for row in a.entries) for j in range(k))
                s1, s2 = Subspace.from_matrix(a), Subspace.from_matrix(a2)
                for target in (s1.basis * rand(s1.dim, c, density, kind), rhs):
                    got, ref = s1.coords_matrix(target), _dense_solve(s1.basis, target)
                    assert (got is None) == (ref is None)
                    if got is not None:
                        check(got, ref)
                    seen["outside"] |= got is None
                meet = s1.intersect(s2)
                check(meet.basis, _dense_intersection(s1, s2))
                seen["meet"] |= 0 < meet.dim < min(s1.dim, s2.dim)
                seen["extension"] |= kind == "extension" and not a.is_zero()
    assert all(seen.values()), seen


def test_equal_matrices_from_different_routes_compare_and_hash_equal():
    rng = random.Random(116)
    out_of_order = 0
    for _ in range(150):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        dense = [[rng.choice([F(0), F(0), F(1), F(-2), F(1, 3)]) for _ in range(c)] for _ in range(r)]
        a = Matrix(r, c, dense)
        perm = list(range(c))
        rng.shuffle(perm)
        p = Matrix(c, c, [[F(int(perm[i] == j)) for j in range(c)] for i in range(c)])
        # a * p has column perm[k] of row i equal to a[i][k]; its pairs come in the order of k
        permuted = Matrix(r, c, [[row[perm.index(j)] for j in range(c)] for row in dense])
        routes = [
            (a, Matrix.identity(r) * a),
            (a, a * Matrix.identity(c)),
            (a, a.transpose().transpose()),
            (a, a.scale(3) - a.scale(2)),
            (a, assemble(r, c, [(0, j, a.block(0, j, r, 1)) for j in reversed(range(c))])),
            (a, Matrix._from_nonzero(r, c, [row[::-1] for row in a.nonzero_rows()])),
            (permuted, a * p),
            (a, (a * p) * p.transpose()),
        ]
        for expected, got in routes:
            assert got == expected and expected == got and hash(got) == hash(expected)
            assert got.entries == expected.entries
            out_of_order += any([j for j, _ in row] != sorted(j for j, _ in row) for row in got.nonzero_rows())
        assert a != Matrix.zeros(r, c + 1) and a != Matrix.zeros(r + 1, c) and a != dense
        if r and c:
            i, j = rng.randrange(r), rng.randrange(c)
            bumped = a + assemble(r, c, [(i, j, Matrix.identity(1))])
            assert bumped != a and a != bumped and bumped.entries != a.entries
        if not a.is_zero():
            assert a.scale(2) != a and -a != a and a != Matrix.zeros(r, c)
    assert out_of_order > 50, out_of_order


@pytest.mark.slow
def test_large_sparse_matrix_never_allocates_dense_cells():
    n = 200_000
    tracemalloc.start()
    try:
        identity = Matrix.identity(n)
        product = identity.transpose() * Matrix.identity(n)
        nonzero = not product.is_zero()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nonzero and product == identity
    # three n-row sparse matrices at most are alive at once; one dense copy
    # would hold n * n = 4e10 cells
    assert peak < 256 * 2**20, peak


def _random_vector(rng, n):
    return tuple(rand_scalar(rng) for _ in range(n))


def test_coords_of_matches_solve():
    rng = random.Random(109)
    spaces = [Subspace.zero(n) for n in range(4)] + [Subspace.full(n) for n in range(4)]
    for _ in range(60):
        n = rng.randint(1, 7)
        spaces.append(Subspace.from_vectors([_random_vector(rng, n) for _ in range(rng.randint(0, n))], n))
    for _ in range(20):
        n = rng.randint(1, 7)
        red, pivots = rand_matrix(rng, rng.randint(1, n), n).rref()
        basis = Matrix(len(pivots), n, red.entries[: len(pivots)]).transpose()
        space = Subspace(n, basis, canonical=True)
        assert space == Subspace.from_matrix(basis) and space.basis == Subspace.from_matrix(basis).basis
        spaces.append(space)
    non_members = 0
    for space in spaces:
        n, basis = space.ambient_dim, space.basis
        for _ in range(5):
            x = _random_vector(rng, space.dim)
            v = basis.apply(x)
            assert space.coords_of(v) == basis.solve(v) == x
            assert space.contains(v)
            w = _random_vector(rng, n)
            if basis.solve(w) is None:
                non_members += 1
                assert space.coords_of(w) is None and not space.contains(w)
            else:
                assert space.coords_of(w) == basis.solve(w)
    assert non_members > 50
    assert Subspace.full(2).coords_of([1, -2]) == (F(1), F(-2))


def test_coords_matrix_matches_solve_matrix():
    rng = random.Random(113)
    spaces = [("zero", Subspace.zero(n)) for n in range(4)] + [("full", Subspace.full(n)) for n in range(4)]
    for _ in range(40):
        n = rng.randint(1, 7)
        m = rand_matrix(rng, rng.randint(1, 7), n)
        red, pivots = m.rref()
        rref_basis = Matrix(len(pivots), n, red.entries[: len(pivots)]).transpose()
        spaces.append(("rref", Subspace(n, m.transpose())))
        spaces.append(("rref", Subspace(n, rref_basis, canonical=True)))
        # a kernel basis has its unit rows at the free columns
        spaces.append(("kernel", Subspace(n, m.kernel_basis(), canonical=True)))
    seen = dict.fromkeys(["zero", "full", "rref", "kernel", "zero_dim", "no_columns", "outside", "inside"], 0)
    for kind, space in spaces:
        n, basis = space.ambient_dim, space.basis
        seen[kind] += 1
        seen["zero_dim"] += space.dim == 0
        for cols in (0, 1, 3):
            seen["no_columns"] += cols == 0
            members = basis * rand_matrix(rng, space.dim, cols)
            for target in (members, rand_matrix(rng, n, cols)):
                expected = basis.solve_matrix(target)
                got = space.coords_matrix(target)
                assert got == expected
                seen["outside" if got is None else "inside"] += 1
                # None exactly when some column is outside the subspace
                per_column = [space.coords_of(target.col_tuple(j)) for j in range(cols)]
                if got is None:
                    assert None in per_column
                else:
                    assert [got.col_tuple(j) for j in range(cols)] == per_column
    assert all(seen.values()), seen
    with pytest.raises(ValidationError):
        Subspace.full(2).coords_matrix(Matrix.zeros(3, 1))


def test_results_of_arithmetic_are_immutable_matrices():
    a = Matrix.from_rows([[1, 2], [0, 1]])
    for m in (a, a * a, a + a, a.transpose(), a.rref()[0], a.kernel_basis(), Matrix.identity(2), Matrix.zeros(1, 2)):
        assert type(m) is Matrix
        for slot in Matrix.__slots__:
            with pytest.raises(AttributeError):
                setattr(m, slot, None)
    assert a * a == Matrix.from_rows([[1, 4], [0, 1]])


def test_canonical_subspace_needs_a_unit_row_per_column():
    kernel = Matrix.from_rows([[1, 1, -1]]).kernel_basis()
    space = Subspace(3, kernel, canonical=True)
    assert space.basis == kernel and space._pivot_rows == (1, 2)
    assert space.coords_matrix(Matrix.from_rows([[1], [2], [3]])) == Matrix.from_rows([[2], [3]])
    # the first unit row of a column is its pivot row, wherever it sits
    assert Subspace(3, Matrix.from_rows([[2, 0], [0, 1], [1, 0]]), canonical=True)._pivot_rows == (2, 1)
    for rows in ([[2], [3]], [[1, 1], [0, 1], [0, 0]], [[1, 0], [0, 2]], [[0], [0]]):
        with pytest.raises(ValidationError):
            Subspace(len(rows), Matrix.from_rows(rows), canonical=True)


def _negated_intersect(a, b):
    """Subspace.intersect as it was: the kernel of [B1 | -B2]."""
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    ker = hstack([a.basis, -b.basis]).kernel_basis()
    return Subspace(a.ambient_dim, a.basis * ker.block(0, 0, a.dim, ker.cols))


def _transposed_rref_basis(n, columns):
    """The canonical basis by transpose, RREF, pivot-row block and transpose again."""
    red, pivots = columns.transpose().rref()
    return red.block(0, 0, len(pivots), n).transpose(), pivots


def _spanning_columns(rng, n, k, scalar):
    """k columns in K^n, some zero and some repeated or scaled copies of earlier ones."""
    zero = scalar() * 0
    cols = []
    for _ in range(k):
        roll = rng.random()
        if roll < 0.15:
            cols.append([zero] * n)
        elif roll < 0.35 and cols:
            cols.append([x * scalar() for x in rng.choice(cols)])
        else:
            cols.append([scalar() if rng.random() < 0.6 else zero for _ in range(n)])
    return Matrix(n, k, [[c[i] for c in cols] for i in range(n)])


def _scalar_kinds(rng):
    nf = NumberField([-2, 0, 1])
    return {
        "rational": lambda: F(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 3])),
        "extension": lambda: nf.element([rng.randint(-2, 2), rng.choice([-1, 1])]),
    }


def test_intersect_matches_the_negated_route():
    rng = random.Random(112)
    seen = dict.fromkeys(["zero_dim", "equal", "proper", "extension"], 0)
    for kind, scalar in _scalar_kinds(rng).items():
        for _ in range(80):
            n = rng.randint(0, 6)
            a = Subspace(n, _spanning_columns(rng, n, rng.randint(0, n + 1), scalar))
            if rng.random() < 0.25:
                # the same space from another spanning set
                b = Subspace(n, hstack([a.basis, a.basis.scale(scalar())]))
            else:
                b = Subspace(n, _spanning_columns(rng, n, rng.randint(0, n + 1), scalar))
            for x, y in ((a, b), (b, a), (a, a)):
                got, want = x.intersect(y), _negated_intersect(x, y)
                assert got == want and got.basis == want.basis
                assert got._pivot_rows == want._pivot_rows
                seen["zero_dim"] += x.dim == 0 or y.dim == 0
                seen["equal"] += x == y and x.dim > 0
                seen["proper"] += 0 < got.dim < min(x.dim, y.dim)
                seen["extension"] += kind == "extension"
    assert all(seen.values()), seen


def test_canonical_basis_from_columns_matches_the_transposed_rref():
    rng = random.Random(113)
    seen = dict.fromkeys(["n_zero", "zero_column", "dependent", "extension"], 0)
    for kind, scalar in _scalar_kinds(rng).items():
        for _ in range(120):
            n = rng.randint(0, 6)
            columns = _spanning_columns(rng, n, rng.randint(0, n + 2), scalar)
            space = Subspace(n, columns)
            basis, pivots = _transposed_rref_basis(n, columns)
            assert space.basis == basis and space.basis.entries == basis.entries
            assert (space.basis.rows, space.basis.cols) == (n, len(pivots))
            assert space._pivot_rows == pivots
            dense = [columns.col_tuple(j) for j in range(columns.cols)]
            seen["n_zero"] += n == 0
            seen["zero_column"] += any(not any(c) for c in dense)
            seen["dependent"] += n > 0 and len(pivots) < columns.cols
            seen["extension"] += kind == "extension"
            # a basis given as canonical is kept as it is, with its first
            # unit row per column as the pivot row
            ker = columns.kernel_basis()
            kept = Subspace(ker.rows, ker, canonical=True)
            assert kept.basis is ker
            unit_rows = {}
            for i, row in enumerate(ker.nonzero_rows()):
                if len(row) == 1 and row[0][1] == 1:
                    unit_rows.setdefault(row[0][0], i)
            assert kept._pivot_rows == tuple(unit_rows[k] for k in range(ker.cols))
    assert all(seen.values()), seen


def test_char_poly_and_eigenvalues():
    m = Matrix.from_rows([[0, -5], [1, 1]])
    assert m.char_poly() == (F(5), F(-1), F(1))
    assert m.rational_eigenvalues() == ()
    d = Matrix.diagonal([F(2), F(2), F(-3)])
    assert sorted(d.rational_eigenvalues()) == [F(-3), F(2), F(2)]


def test_kron_vec_compatibility():
    rng = random.Random(106)
    a = rand_matrix(rng, 2, 3)
    b = rand_matrix(rng, 3, 2)
    v = [rand_scalar(rng) for _ in range(3)]
    w = [rand_scalar(rng) for _ in range(2)]
    left = kron(a, b).apply([x * y for x in v for y in w])
    right = [x * y for x in a.apply(v) for y in b.apply(w)]
    assert list(left) == right


def test_no_floats_allowed():
    with pytest.raises(ValidationError):
        Matrix(1, 1, [[0.5]])
    with pytest.raises(ValidationError):
        Matrix.identity(2).scale(0.5)


def test_extension_field_arithmetic():
    nf = NumberField([-2, 0, 1])
    x = nf.element([1, 2])
    assert (x * x).coeffs == (F(9), F(4))
    assert x * x.inverse() == nf.one()
    assert (x / x) == nf.one()


def test_sigma_multiplicative_unital_on_random_scalars():
    nf = NumberField([-2, 0, 1])
    fr = CoefficientFrame(p=3, extension=nf, sigma_generator_image=(0, -1))
    rng = random.Random(107)
    assert fr.sigma(nf.one()) == nf.one()
    for _ in range(100):
        a = nf.element([rand_scalar(rng), rand_scalar(rng)])
        b = nf.element([rand_scalar(rng), rand_scalar(rng)])
        assert fr.sigma(a * b) == fr.sigma(a) * fr.sigma(b)
        assert fr.sigma(a + b) == fr.sigma(a) + fr.sigma(b)


def test_sigma_invalid_image_rejected():
    nf = NumberField([-2, 0, 1])
    with pytest.raises(ValidationError):
        CoefficientFrame(p=3, extension=nf, sigma_generator_image=(1, 1))
    with pytest.raises(ValidationError):
        CoefficientFrame(p=4)
    with pytest.raises(ValidationError):
        CoefficientFrame(p=5, sigma_generator_image=(0, 1))


def test_extension_matrix_rank():
    nf = NumberField([-2, 0, 1])
    g = nf.generator()
    m = Matrix(2, 2, [[nf.one(), g], [g, nf.one()]])
    assert m.rank == 2
    singular = Matrix(2, 2, [[nf.one(), g], [g, nf.element([2])]])
    assert singular.rank == 1
