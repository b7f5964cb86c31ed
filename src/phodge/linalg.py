"""Exact linear algebra: matrices, subspaces, kernels, images, quotients.

Every entry is a Fraction (or an extension scalar with the same operator
surface); there is no floating point anywhere.  Reduced row echelon form over
a field is unique, so all derived bases are reproducible byte for byte.

A ``Matrix`` is stored as its nonzero view: ``nonzero_rows()`` lists each
row's nonzero (col, value) pairs, in any column order.  Every result of
arithmetic holds only that view, so a mostly-zero matrix costs its nonzero
count, not rows x cols; the dense ``entries`` are derived on first read, for
printing, and equality and hashing read the view.  A zero test is a
truthiness test (``if x``), which Fractions and extension scalars both answer.

One kernel, ``_rref_rows``, computes every RREF.  It inserts the nonzero
rows one at a time into a set of reduced pivot rows, in the entries' own
field arithmetic, so Fractions and extension scalars take the same path and
only nonzero entries are touched.  Because the RREF is unique, the order in
which rows become pivot rows is free; the result does not depend on it.

A ``Subspace`` keeps, for each basis column k, a pivot row equal to e_k^T:
the basis is either the transpose of an RREF with unit pivots, or a basis
given with ``canonical=True`` that has such a unit row for every column (a
transposed RREF, or a kernel basis with its unit rows at the free columns).
Canonicalization is one ``Matrix.rref`` of the spanning columns taken as
rows; its pivot rows, read as columns, are the basis, and its pivots the
pivot rows.
The coordinates of vectors are therefore their entries at the pivot rows,
and one product with the basis checks membership.  ``coords_matrix`` is the
one coordinate primitive: every map between subspaces is the image of the
source basis (one product) followed by ``coords_matrix`` on the target, with
no elimination.

Every block matrix in the package (direct sums, cones, tensor and Hom
differentials, maps between them) is built by ``assemble``, which writes the
nonzero entries of each block at its offset, or adds them up.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import neg
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import ValidationError

ZERO = Fraction(0)
ONE = Fraction(1)


def _rref_rows(nonzero_rows):
    """RREF of rows given by their nonzero (col, value) pairs, by row
    insertion in the entries' own field arithmetic.

    Each row in turn is reduced by the pivot rows found so far; a nonzero
    remainder is scaled to 1 at its first column, and that column is cleared
    from the earlier pivot rows.  The pivot rows then span the rows seen so
    far and form their RREF.  Returns the nonzero (col, value) pairs of the
    RREF rows, in column order, and the pivots.
    """
    pivot_rows = {}
    held = set()  # every column a pivot row has held; the others need no clearing
    for pairs in nonzero_rows:
        row = dict(pairs)
        for c in [c for c in row if c in pivot_rows]:
            _eliminate(row, c, pivot_rows[c])
        if row:
            c = min(row)
            pv = row[c]
            if pv != 1:
                row = {j: x / pv for j, x in row.items()}
            if c in held:
                for prow in pivot_rows.values():
                    if c in prow:
                        _eliminate(prow, c, row)
            pivot_rows[c] = row
            held.update(row)
    pivots = tuple(sorted(pivot_rows))
    out = [sorted(pivot_rows[c].items()) for c in pivots]
    out.extend([] for _ in range(len(nonzero_rows) - len(pivots)))
    return out, pivots


def _eliminate(row: dict, c: int, prow: dict) -> None:
    """row -= row[c] * prow, for a pivot row prow that is 1 at column c: the
    entry at c goes without arithmetic, and entries that cancel are dropped."""
    f = row.pop(c)
    for j, x in prow.items():
        if j == c:
            continue
        if j in row:
            v = row[j] - f * x
            if v:
                row[j] = v
            else:
                del row[j]
        else:
            row[j] = -f * x


def _exact_row(row) -> Tuple:
    """One matrix row as a tuple: ints become Fractions, floats are rejected."""
    row = tuple(row)
    if set(map(type, row)) <= {Fraction}:
        return row
    if any(isinstance(x, float) for x in row):
        raise ValidationError("floating point entry rejected; arithmetic is exact")
    return tuple(Fraction(x) if isinstance(x, int) else x for x in row)


_MATRIX_SLOTS = ("rows", "cols", "_dense", "_rref", "_nz")


class _MatrixDraft:
    """A Matrix being built: the same slots without the immutability guard,
    so ``Matrix._from_nonzero`` fills them with plain stores and then makes
    the object a Matrix."""

    __slots__ = _MATRIX_SLOTS


class Matrix:
    """Immutable exact matrix.  Results of arithmetic store only the nonzero
    view and derive ``entries`` on first read; dense input keeps its rows."""

    __slots__ = _MATRIX_SLOTS

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(map(_exact_row, entries))
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValidationError(f"matrix shape mismatch: {rows}x{cols}")
        put = object.__setattr__
        put(self, "rows", rows)
        put(self, "cols", cols)
        put(self, "_dense", entries)
        put(self, "_rref", None)
        put(self, "_nz", None)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def _from_nonzero(rows: int, cols: int, nz) -> "Matrix":
        """The matrix whose rows hold the given nonzero (col, value) pairs.
        The values come from arithmetic on entries of checked matrices, so
        they are not checked again."""
        m = object.__new__(_MatrixDraft)
        m.rows = rows
        m.cols = cols
        m._dense = None
        m._rref = None
        m._nz = nz
        m.__class__ = Matrix
        return m

    def nonzero_rows(self):
        """Each row's nonzero entries as (col, value) pairs, built once."""
        if self._nz is None:
            object.__setattr__(self, "_nz", [[(j, x) for j, x in enumerate(r) if x] for r in self._dense])
        return self._nz

    @property
    def entries(self) -> Tuple:
        """The dense rows as tuples, derived from the nonzero view on first read."""
        if self._dense is None:
            dense = [[ZERO] * self.cols for _ in range(self.rows)]
            for row, pairs in zip(dense, self._nz):
                for j, x in pairs:
                    row[j] = x
            object.__setattr__(self, "_dense", tuple(map(tuple, dense)))
        return self._dense

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: Optional[int] = None) -> "Matrix":
        rows = [[Fraction(x) if isinstance(x, (int, str)) else x for x in r] for r in rows]
        if rows:
            cols = len(rows[0])
        elif cols is None:
            cols = 0
        return Matrix(len(rows), cols, rows)

    @staticmethod
    def from_columns(rows: int, columns: Sequence[Sequence]) -> "Matrix":
        """The rows x len(columns) matrix whose columns are the given vectors."""
        columns = list(columns)
        return Matrix(rows, len(columns), list(zip(*columns)) if columns else [()] * rows)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix._from_nonzero(rows, cols, [[] for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._from_nonzero(n, n, [[(i, ONE)] for i in range(n)])

    @staticmethod
    def diagonal(values) -> "Matrix":
        values = _exact_row(values)
        return Matrix._from_nonzero(len(values), len(values), [[(i, x)] if x else [] for i, x in enumerate(values)])

    @staticmethod
    def column(vec) -> "Matrix":
        vec = list(vec)
        return Matrix(len(vec), 1, [[v] for v in vec])

    def col_tuple(self, j: int):
        return tuple(next((x for k, x in r if k == j), ZERO) for r in self.nonzero_rows())

    def __eq__(self, other):
        if not isinstance(other, Matrix) or (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(a == b or (len(a) == len(b) and dict(a) == dict(b)) for a, b in zip(self.nonzero_rows(), other.nonzero_rows()))

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(map(frozenset, self.nonzero_rows()))))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValidationError("matrix addition shape mismatch")
        return assemble(self.rows, self.cols, [(0, 0, self), (0, 0, other)], add=True)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def map_entries(self, f) -> "Matrix":
        """The matrix of f(x) at every entry x; f is applied to the nonzero
        entries only, so it must send zero to zero."""
        nz = [[(j, v) for j, x in r if (v := f(x))] for r in self.nonzero_rows()]
        return Matrix._from_nonzero(self.rows, self.cols, nz)

    def __neg__(self) -> "Matrix":
        return self.map_entries(neg)

    def scale(self, s) -> "Matrix":
        (s,) = _exact_row((s,))
        return self.map_entries(lambda x: x * s)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValidationError(f"matrix product shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        onz = other.nonzero_rows()
        out = []
        for row in self.nonzero_rows():
            acc = {}
            for k, x in row:
                for j, y in onz[k]:
                    acc[j] = acc[j] + x * y if j in acc else x * y
            out.append([(j, v) for j, v in acc.items() if v])
        return Matrix._from_nonzero(self.rows, other.cols, out)

    def apply(self, vec: Sequence) -> Tuple:
        vec = list(vec)
        if len(vec) != self.cols:
            raise ValidationError("vector length mismatch")
        return tuple(sum((x * vec[k] for k, x in r), ZERO) for r in self.nonzero_rows())

    def block(self, r0: int, c0: int, rows: int, cols: int) -> "Matrix":
        """The rows x cols submatrix at offset (r0, c0), as ``assemble`` would place it."""
        if r0 < 0 or c0 < 0 or r0 + rows > self.rows or c0 + cols > self.cols:
            raise ValidationError(f"{rows}x{cols} block at ({r0}, {c0}) does not fit in {self.rows}x{self.cols}")
        nz = self.nonzero_rows()[r0 : r0 + rows]
        if (c0, cols) != (0, self.cols):
            nz = [[(j - c0, x) for j, x in r if c0 <= j < c0 + cols] for r in nz]
        return Matrix._from_nonzero(rows, cols, nz)

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """The rows x cols matrix with the same entries in row-major order."""
        if rows * cols != self.rows * self.cols:
            raise ValidationError(f"cannot reshape {self.rows}x{self.cols} to {rows}x{cols}")
        out = [[] for _ in range(rows)]
        for i, r in enumerate(self.nonzero_rows()):
            for j, x in r:
                a, b = divmod(i * self.cols + j, cols)
                out[a].append((b, x))
        return Matrix._from_nonzero(rows, cols, out)

    def transpose(self) -> "Matrix":
        columns = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.nonzero_rows()):
            for j, x in row:
                columns[j].append((i, x))
        return Matrix._from_nonzero(self.cols, self.rows, columns)

    def is_zero(self) -> bool:
        return not any(self.nonzero_rows())

    def rref(self):
        """Reduced row echelon form with the pivot column list."""
        if self._rref is None:
            rows, pivots = _rref_rows(self.nonzero_rows())
            object.__setattr__(self, "_rref", (Matrix._from_nonzero(self.rows, self.cols, rows), pivots))
        return self._rref

    @property
    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "Matrix":
        """Columns form a canonical basis of the kernel."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = {f: t for t, f in enumerate(c for c in range(self.cols) if c not in pivot_set)}
        out = [[(free[c], ONE)] if c in free else [] for c in range(self.cols)]
        for c, row in zip(pivots, red.nonzero_rows()):
            out[c] = [(free[j], -x) for j, x in row if j in free]
        return Matrix._from_nonzero(self.cols, len(free), out)

    def solve(self, vec: Sequence) -> Optional[Tuple]:
        """One exact solution of self * x = vec, or None if vec is not in the image."""
        x = self.solve_matrix(Matrix.column(vec))
        return None if x is None else x.col_tuple(0)

    def solve_matrix(self, other: "Matrix") -> Optional["Matrix"]:
        """X with self * X = other, or None; one elimination for all columns."""
        if other.rows != self.rows:
            raise ValidationError("solve_matrix: row mismatch")
        aug = hstack([self, other])
        red, pivots = aug.rref()
        if any(p >= self.cols for p in pivots):
            return None
        out = [[] for _ in range(self.cols)]
        for c, row in zip(pivots, red.nonzero_rows()):
            out[c] = [(j - self.cols, x) for j, x in row if j >= self.cols]
        return Matrix._from_nonzero(self.cols, other.cols, out)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValidationError("inverse of a non-square matrix")
        inv = self.solve_matrix(Matrix.identity(self.rows))
        if inv is None or self.rank != self.rows:
            raise ValidationError("matrix is singular")
        return inv

    def char_poly(self) -> Tuple:
        """Characteristic polynomial coefficients, low degree first, monic."""
        if self.rows != self.cols:
            raise ValidationError("char_poly of a non-square matrix")
        n = self.rows
        power = Matrix.identity(n)
        traces = []
        for _ in range(n):
            power = power * self
            traces.append(sum((x for i, r in enumerate(power.nonzero_rows()) for j, x in r if j == i), ZERO))
        # Newton's identities
        e = [ONE]
        for k in range(1, n + 1):
            acc = ZERO
            for i in range(1, k + 1):
                acc += (-1) ** (i - 1) * e[k - i] * traces[i - 1]
            e.append(acc / k)
        return tuple((-1) ** (n - k) * e[n - k] for k in range(n + 1))

    def rational_eigenvalues(self) -> Tuple:
        """Exact rational roots of the characteristic polynomial with multiplicity."""
        coeffs = list(self.char_poly())
        roots: List[Fraction] = []
        while len(coeffs) > 1:
            if coeffs[0] == 0:
                roots.append(Fraction(0))
                coeffs = _poly_deflate(coeffs, ZERO)
                continue
            den = lcm(*[c.denominator for c in coeffs])
            ints = [int(c * den) for c in coeffs]
            candidates = (
                Fraction(sign * pnum, pden)
                for pnum in _divisors(abs(ints[0]))
                for pden in _divisors(abs(ints[-1]))
                for sign in (1, -1)
            )
            found = next((c for c in candidates if not _poly_eval(coeffs, c)), None)
            if found is None:
                break
            roots.append(found)
            coeffs = _poly_deflate(coeffs, found)
        return tuple(sorted(roots))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.entries)
        return f"Matrix({self.rows}x{self.cols}: {body})"


def _divisors(n: int):
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def _poly_eval(coeffs, x):
    acc = ZERO
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_deflate(coeffs, root):
    # synthetic division by (t - root), low-first coefficients
    out = [ZERO] * (len(coeffs) - 1)
    carry = ZERO
    for i in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[i] + carry * root
        out[i - 1] = carry
    return out


def hstack(mats: Sequence[Matrix]) -> Matrix:
    mats = list(mats)
    if any(m.rows != mats[0].rows for m in mats):
        raise ValidationError("hstack row mismatch")
    offsets = list(accumulate((m.cols for m in mats), initial=0))
    return assemble(mats[0].rows, offsets[-1], [(0, c0, m) for c0, m in zip(offsets, mats)])


def vstack(mats: Sequence[Matrix]) -> Matrix:
    mats = list(mats)
    if any(m.cols != mats[0].cols for m in mats):
        raise ValidationError("vstack column mismatch")
    offsets = list(accumulate((m.rows for m in mats), initial=0))
    return assemble(offsets[-1], mats[0].cols, [(r0, 0, m) for r0, m in zip(offsets, mats)])


def assemble(rows: int, cols: int, blocks: Iterable[Tuple[int, int, Matrix]], *, add: bool = False) -> Matrix:
    """The rows x cols matrix with each (r0, c0, block) placed at its offset.

    The nonzero entries of every block are written into one scaffold of
    nonzero rows, so empty blocks and zero entries cost nothing; where blocks
    overlap, a later block's nonzero entries win, or with ``add=True`` add up.
    A block that does not fit is rejected.
    """
    out = [{} for _ in range(rows)]
    for r0, c0, m in blocks:
        if r0 < 0 or c0 < 0 or r0 + m.rows > rows or c0 + m.cols > cols:
            raise ValidationError(f"{m.rows}x{m.cols} block at ({r0}, {c0}) does not fit in {rows}x{cols}")
        for target, row in zip(out[r0:], m.nonzero_rows()):
            for j, x in row:
                j += c0
                target[j] = target[j] + x if add and j in target else x
    nz = [[(j, v) for j, v in r.items() if v] for r in out] if add else [list(r.items()) for r in out]
    return Matrix._from_nonzero(rows, cols, nz)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; consistent with row-major flattening of maps."""
    w = b.cols
    nz = [
        [(j * w + l, v) for j, x in arow for l, y in brow if (v := x * y)]
        for arow in a.nonzero_rows()
        for brow in b.nonzero_rows()
    ]
    return Matrix._from_nonzero(a.rows * b.rows, a.cols * w, nz)


class Subspace:
    """A subspace of K^n given by a basis matrix with a unit row per column.

    ``_pivot_rows`` holds, for each basis column k, a row of the basis equal
    to e_k^T.  By default the basis is made canonical (the transpose of an
    RREF with unit pivots); with ``canonical=True`` the basis is kept as given
    and the first row equal to e_k^T is column k's pivot row.
    """

    __slots__ = ("ambient_dim", "basis", "_pivot_rows")

    def __init__(self, ambient_dim: int, basis: Matrix, *, canonical: bool = False):
        if basis.rows != ambient_dim:
            raise ValidationError("subspace basis has wrong ambient dimension")
        if canonical:
            found = {}
            for i, row in enumerate(basis.nonzero_rows()):
                if len(row) == 1 and row[0][1] == 1:
                    found.setdefault(row[0][0], i)
            pivots = tuple(found.get(k) for k in range(basis.cols))
            if None in pivots:
                raise ValidationError("canonical subspace basis has a column without a unit row")
        else:
            red, pivots = basis.transpose().rref()
            basis = red.block(0, 0, len(pivots), ambient_dim).transpose()
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_pivot_rows", pivots)

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @staticmethod
    def from_matrix(columns: Matrix) -> "Subspace":
        return Subspace(columns.rows, columns)

    @staticmethod
    def from_vectors(vectors: Sequence[Sequence], ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.from_columns(ambient_dim, vectors))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.zeros(ambient_dim, 0), canonical=True)

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim), canonical=True)

    @property
    def dim(self) -> int:
        return self.basis.cols

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.dim == other.dim
            and self.contains_subspace(other)
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.dim))

    def coords_of(self, vec: Sequence) -> Optional[Tuple]:
        """Coordinates of vec in the basis, or None if vec is not in the subspace."""
        x = self.coords_matrix(Matrix.column(vec))
        return None if x is None else x.col_tuple(0)

    def coords_matrix(self, m: Matrix) -> Optional[Matrix]:
        """Coordinates of every column of m in the basis, or None if some
        column is not in the subspace.

        The coordinates are m's rows at the pivot rows; basis * X == m checks
        all columns with one product.
        """
        if m.rows != self.ambient_dim:
            raise ValidationError("coords_matrix: row count mismatch")
        nz = m.nonzero_rows()
        x = Matrix._from_nonzero(self.dim, m.cols, [nz[i] for i in self._pivot_rows])
        return x if self.basis * x == m else None

    def contains(self, vec: Sequence) -> bool:
        return self.coords_of(vec) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        return self.coords_matrix(other.basis) is not None

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValidationError("subspace sum: ambient dimension mismatch")
        return Subspace(self.ambient_dim, hstack([self.basis, other.basis]))

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValidationError("subspace intersection: ambient dimension mismatch")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        ker = hstack([self.basis, other.basis]).kernel_basis()
        # the kernel's first dim rows are coordinates in self's basis
        return Subspace(self.ambient_dim, self.basis * ker.block(0, 0, self.dim, ker.cols))

    def quotient(self) -> Tuple[Matrix, Matrix]:
        """(projection, section) for K^n -> K^n / self.

        projection is (n-k) x n with kernel exactly self; section is a right
        inverse picking the complementary standard basis vectors.  With unit
        pivots, v = basis * v[pivots] + (the rest at the other rows), so the
        projection row of a complementary row c is e_c - basis[c] read at the
        pivot rows.
        """
        n = self.ambient_dim
        pivots = self._pivot_rows
        pivot_set = set(pivots)
        complement = {c: t for t, c in enumerate(i for i in range(n) if i not in pivot_set)}
        basis = self.basis.nonzero_rows()
        proj = [[(c, ONE)] + [(pivots[k], -b) for k, b in basis[c]] for c in complement]
        sect = [[(complement[i], ONE)] if i in complement else [] for i in range(n)]
        return Matrix._from_nonzero(len(complement), n, proj), Matrix._from_nonzero(n, len(complement), sect)

    def quotient_by(self, sub: "Subspace") -> Tuple[Matrix, Matrix, Matrix]:
        """Quotient self / sub for sub <= self.

        Returns (proj, sect, lift): proj maps self-coordinates onto quotient
        coordinates, sect is a right inverse, lift = basis * sect gives
        ambient representatives of the quotient basis.
        """
        coords = self.coords_matrix(sub.basis)
        if coords is None:
            raise ValidationError("quotient_by: not a subspace")
        proj, sect = Subspace(self.dim, coords).quotient()
        return proj, sect, self.basis * sect

    def __repr__(self):
        return f"Subspace(dim {self.dim} of K^{self.ambient_dim})"


def rank_decomposition(m: Matrix) -> Tuple[Subspace, Subspace, Tuple[int, ...]]:
    """Kernel and image of a matrix, with the pivot columns."""
    _, pivots = m.rref()
    kernel = Subspace(m.cols, m.kernel_basis())
    image = Subspace.from_vectors([m.col_tuple(c) for c in pivots], m.rows)
    return kernel, image, pivots
