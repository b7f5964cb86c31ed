"""Exact linear algebra: matrices, subspaces, kernels, images, quotients.

Every entry is a Fraction (or an extension scalar with the same operator
surface); there is no floating point anywhere.  Pivoting is deterministic
(first nonzero), and reduced row echelon form over a field is unique, so all
derived bases are reproducible byte for byte.

Two kernels produce the same RREF:

- When every entry is a Fraction, ``Matrix.rref`` clears each row's
  denominators and runs Gauss-Jordan on rows of Python ints, in the
  fraction-free spirit of Bareiss (1968).  Each updated row is divided by its
  gcd content to keep coefficients small, and the pivots are divided out only
  once, at the end.
- Any other entries (extension scalars) go through a generic loop on the
  entries' own field arithmetic.

A ``Subspace`` keeps, for each basis column k, a pivot row equal to e_k^T:
the basis is either the transpose of an RREF with unit pivots, or a basis
given with ``canonical=True`` that has such a unit row for every column (a
transposed RREF, or a kernel basis with its unit rows at the free columns).
The coordinates of vectors are therefore their entries at the pivot rows,
and one product with the basis checks membership.  ``coords_matrix`` is the
one coordinate primitive: every map between subspaces is the image of the
source basis (one product) followed by ``coords_matrix`` on the target, with
no elimination.

Every block matrix in the package (direct sums, cones, tensor and Hom
differentials, maps between them) is built by ``assemble``, which writes the
nonzero entries of each block at its offset into one zero scaffold.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import ValidationError

ZERO = Fraction(0)
ONE = Fraction(1)
_FRACTION_ONLY = {Fraction}


def _rref_integer(entries, cols: int):
    """RREF of Fraction rows by elimination on integer rows.

    Each row is scaled to a primitive integer row; Gauss-Jordan then keeps
    every row integral and primitive, and the pivots are divided out at the
    end.  Returns (rows, pivots) with Fraction entries.
    """
    work = []
    for r in entries:
        den = lcm(*[x.denominator for x in r])
        row = [x.numerator * (den // x.denominator) for x in r]
        g = gcd(*row)
        work.append([x // g for x in row] if g > 1 else row)
    m = len(work)
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        if r == m:
            break
        pr = next((i for i in range(r, m) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        prow = work[r]
        pv = prow[c]
        for i in range(m):
            row = work[i]
            a = row[c]
            if a and i != r:
                g = gcd(pv, a)
                s, t = pv // g, a // g
                row = [s * x - t * y for x, y in zip(row, prow)]
                g = gcd(*row)
                work[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    out = []
    for row, c in zip(work, pivots):
        pv = row[c]
        out.append([Fraction(x, pv) if x else ZERO for x in row])
    out.extend([ZERO] * cols for _ in range(m - len(pivots)))
    return out, tuple(pivots)


def _rref_generic(entries, cols: int):
    """RREF by Gauss-Jordan in the entries' own arithmetic; any field scalars."""
    work = [list(r) for r in entries]
    m = len(work)
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        if r == m:
            break
        pr = next((i for i in range(r, m) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        pv = work[r][c]
        prow = work[r] = [x / pv for x in work[r]]
        for i in range(m):
            f = work[i][c]
            if i != r and f != 0:
                work[i] = [a - f * b for a, b in zip(work[i], prow)]
        pivots.append(c)
        r += 1
    return work, tuple(pivots)


def _exact_row(row) -> Tuple:
    """One matrix row as a tuple: ints become Fractions, floats are rejected."""
    row = tuple(row)
    if set(map(type, row)) <= _FRACTION_ONLY:
        return row
    if any(isinstance(x, float) for x in row):
        raise ValidationError("floating point entry rejected; arithmetic is exact")
    return tuple(Fraction(x) if isinstance(x, int) else x for x in row)


class Matrix:
    """Immutable dense matrix with exact entries."""

    __slots__ = ("rows", "cols", "entries", "_rref")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(map(_exact_row, entries))
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValidationError(f"matrix shape mismatch: {rows}x{cols}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_rref", None)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

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
        return Matrix(rows, cols, [[ZERO] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, [[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(values) -> "Matrix":
        values = list(values)
        n = len(values)
        return Matrix(n, n, [[values[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def column(vec) -> "Matrix":
        vec = list(vec)
        return Matrix(len(vec), 1, [[v] for v in vec])

    def col_tuple(self, j: int):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValidationError("matrix addition shape mismatch")
        return Matrix(
            self.rows,
            self.cols,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [[-a for a in r] for r in self.entries])

    def scale(self, s) -> "Matrix":
        return Matrix(self.rows, self.cols, [[a * s for a in r] for r in self.entries])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValidationError(f"matrix product shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        cols = other.cols
        out = [[ZERO] * cols for _ in range(self.rows)]
        oent = other.entries
        for i in range(self.rows):
            row = self.entries[i]
            acc = out[i]
            for k in range(self.cols):
                x = row[k]
                if x == 0:
                    continue
                orow = oent[k]
                for j in range(cols):
                    y = orow[j]
                    if y != 0:
                        acc[j] = acc[j] + x * y
        return Matrix(self.rows, cols, out)

    def apply(self, vec: Sequence) -> Tuple:
        vec = list(vec)
        if len(vec) != self.cols:
            raise ValidationError("vector length mismatch")
        return tuple(sum((r[k] * vec[k] for k in range(self.cols)), ZERO) for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, [self.col_tuple(j) for j in range(self.cols)])

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.entries for x in r)

    def rref(self):
        """Reduced row echelon form with the pivot column list."""
        if self._rref is not None:
            return self._rref
        if all(set(map(type, r)) <= _FRACTION_ONLY for r in self.entries):
            work, pivots = _rref_integer(self.entries, self.cols)
        else:
            work, pivots = _rref_generic(self.entries, self.cols)
        result = (Matrix(self.rows, self.cols, work), pivots)
        object.__setattr__(self, "_rref", result)
        return result

    @property
    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "Matrix":
        """Columns form a canonical basis of the kernel."""
        red, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        cols = []
        for f in free:
            v = [ZERO] * self.cols
            v[f] = ONE
            for k, c in enumerate(pivots):
                v[c] = -red.entries[k][f]
            cols.append(v)
        return Matrix.from_columns(self.cols, cols)

    def solve(self, vec: Sequence) -> Optional[Tuple]:
        """One exact solution of self * x = vec, or None if vec is not in the image."""
        vec = list(vec)
        if len(vec) != self.rows:
            raise ValidationError("solve: right-hand side length mismatch")
        aug = Matrix(self.rows, self.cols + 1, [list(r) + [v] for r, v in zip(self.entries, vec)])
        red, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = [ZERO] * self.cols
        for k, c in enumerate(pivots):
            x[c] = red.entries[k][self.cols]
        return tuple(x)

    def solve_matrix(self, other: "Matrix") -> Optional["Matrix"]:
        """X with self * X = other, or None; one elimination for all columns."""
        if other.rows != self.rows:
            raise ValidationError("solve_matrix: row mismatch")
        if other.cols == 0:
            return Matrix(self.cols, 0, [[] for _ in range(self.cols)])
        aug = hstack([self, other])
        red, pivots = aug.rref()
        if any(p >= self.cols for p in pivots):
            return None
        out = [[ZERO] * other.cols for _ in range(self.cols)]
        for k, c in enumerate(pivots):
            row = red.entries[k]
            for j in range(other.cols):
                out[c][j] = row[self.cols + j]
        return Matrix(self.cols, other.cols, out)

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
            traces.append(sum((power.entries[i][i] for i in range(n)), ZERO))
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
            den = 1
            for c in coeffs:
                den = den * c.denominator // gcd(den, c.denominator)
            ints = [int(c * den) for c in coeffs]
            found = None
            for pnum in _divisors(abs(ints[0])):
                for pden in _divisors(abs(ints[-1])):
                    for sign in (1, -1):
                        cand = Fraction(sign * pnum, pden)
                        if _poly_eval(coeffs, cand) == 0:
                            found = cand
                            break
                    if found is not None:
                        break
                if found is not None:
                    break
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
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValidationError("hstack row mismatch")
    return Matrix(rows, sum(m.cols for m in mats), [sum((list(m.entries[i]) for m in mats), []) for i in range(rows)])


def vstack(mats: Sequence[Matrix]) -> Matrix:
    mats = list(mats)
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValidationError("vstack column mismatch")
    return Matrix(sum(m.rows for m in mats), cols, [list(r) for m in mats for r in m.entries])


def assemble(rows: int, cols: int, blocks: Iterable[Tuple[int, int, Matrix]]) -> Matrix:
    """The rows x cols matrix with each (r0, c0, block) placed at its offset.

    The nonzero entries of every block are written into one zero scaffold, so
    empty blocks and zero entries cost nothing; where blocks overlap, a later
    block's nonzero entries win.  A block that does not fit is rejected.
    """
    out = [[ZERO] * cols for _ in range(rows)]
    for r0, c0, m in blocks:
        if r0 < 0 or c0 < 0 or r0 + m.rows > rows or c0 + m.cols > cols:
            raise ValidationError(f"{m.rows}x{m.cols} block at ({r0}, {c0}) does not fit in {rows}x{cols}")
        for i, row in enumerate(m.entries, r0):
            target = out[i]
            for j, x in enumerate(row, c0):
                if x != 0:
                    target[j] = x
    return Matrix(rows, cols, out)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; consistent with row-major flattening of maps."""
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    out = [[ZERO] * cols for _ in range(rows)]
    for i in range(a.rows):
        for j in range(a.cols):
            x = a.entries[i][j]
            if x == 0:
                continue
            for k in range(b.rows):
                for l in range(b.cols):
                    out[i * b.rows + k][j * b.cols + l] = x * b.entries[k][l]
    return Matrix(rows, cols, out)


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
            for i, row in enumerate(basis.entries):
                support = [k for k, x in enumerate(row) if x != 0]
                if len(support) == 1 and row[support[0]] == 1:
                    found.setdefault(support[0], i)
            pivots = tuple(found.get(k) for k in range(basis.cols))
            if None in pivots:
                raise ValidationError("canonical subspace basis has a column without a unit row")
        else:
            red, pivots = basis.transpose().rref()
            rows = [red.entries[k] for k in range(len(pivots))]
            basis = Matrix(len(pivots), ambient_dim, rows).transpose()
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
        ents = m.entries
        x = Matrix(self.dim, m.cols, [ents[i] for i in self._pivot_rows])
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
        ker = hstack([self.basis, -other.basis]).kernel_basis()
        # the kernel's first dim rows are coordinates in self's basis
        return Subspace(self.ambient_dim, self.basis * Matrix(self.dim, ker.cols, ker.entries[: self.dim]))

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
        complement = [i for i in range(n) if i not in pivot_set]
        proj = []
        for c in complement:
            row = [ZERO] * n
            row[c] = ONE
            for p, b in zip(pivots, self.basis.entries[c]):
                if b != 0:
                    row[p] = -b
            proj.append(row)
        sect = [[ONE if i == c else ZERO for c in complement] for i in range(n)]
        return Matrix(len(complement), n, proj), Matrix(n, len(complement), sect)

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
