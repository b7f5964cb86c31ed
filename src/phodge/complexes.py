"""Bounded cochain complexes of finite-dimensional vector spaces.

Complexes store per-degree dimensions and differentials; d∘d = 0 is checked
at construction unless check=False, and Complex.checked records which.  Sign
conventions are fixed once here:

* shift(c, k) has degree-n term c^{n+k} and differential (-1)^k d;
* cone(f: A -> B) has degree-n term B^n (+) A^{n+1} and differential
  [[d_B, f], [0, -d_A]], making B -> cone and cone -> A[1] sign-free; so
  shift(cone(f), -1) has degree-n term B^{n-1} (+) A^n, and the shifts of
  those two triangle maps are B[-1] -> shift(cone(f), -1) -> A;
* a direct sum stacks its summands in the order given, degree by degree; the
  offset of a summand is known only to its SumLayout, and maps into, out of or
  between direct sums are built by sum_inclusion, sum_projection and sum_map;
* the total complex of a double complex has degree-n term
  (+)_{p+q=n} A^{p,q} with the blocks in ascending p, and d = dh + dv; a grid
  whose squares commute becomes a double complex by signing the vertical maps
  of column p by (-1)^p (DoubleComplex.commuting);
* tensor(a, b) is the total complex of the commuting grid a^i (x) b^j, so the
  second factor's differential carries the Koszul sign (-1)^i;
* the Hom complex differential is d(f) = d_target o f - (-1)^n f o d_source;
* the truncation tau_{<=n} has the model Ker d^n at degree n and maps into the
  complex by inclusion; tau_{>=n} has the model Im d^{n-1} ⊂ C^n at degree
  n-1, receives the complex by projection, and degreewise maps act on that
  term by their degree-n components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import ValidationError
from .linalg import Matrix, Subspace, assemble, kron


class Complex:
    """A bounded complex; dims maps degree to a positive dimension."""

    __slots__ = ("dims", "d", "checked", "_cohomology")

    def __init__(self, dims: Dict[int, int], differentials: Dict[int, Matrix], *, check: bool = True):
        dims = {int(n): int(k) for n, k in dims.items() if k > 0}
        d = {}
        for n, m in differentials.items():
            n = int(n)
            if m.rows != dims.get(n + 1, 0) or m.cols != dims.get(n, 0):
                raise ValidationError(f"differential at degree {n} has shape {m.rows}x{m.cols}")
            if not m.is_zero():
                d[n] = m
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_cohomology", {})
        object.__setattr__(self, "checked", check)
        if check:
            for n in list(d):
                if dims.get(n + 2, 0) and dims.get(n, 0):
                    if not (self.diff(n + 1) * self.diff(n)).is_zero():
                        raise ValidationError(f"d∘d != 0 between degrees {n} and {n + 2}")

    def __setattr__(self, *a):
        raise AttributeError("Complex is immutable")

    @staticmethod
    def zero() -> "Complex":
        return Complex({}, {})

    @staticmethod
    def single(degree: int, dim: int = 1) -> "Complex":
        return Complex({degree: dim}, {})

    @property
    def lo(self) -> int:
        return min(self.dims) if self.dims else 0

    @property
    def hi(self) -> int:
        return max(self.dims) if self.dims else 0

    def degrees(self):
        return sorted(self.dims)

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def diff(self, n: int) -> Matrix:
        m = self.d.get(n)
        if m is None:
            return Matrix.zeros(self.dim(n + 1), self.dim(n))
        return m

    def __eq__(self, other):
        return isinstance(other, Complex) and self.dims == other.dims and self.d == other.d

    def __hash__(self):
        return hash((tuple(sorted(self.dims.items())), tuple(sorted(self.d.items()))))

    def euler_characteristic(self) -> int:
        return sum((-1) ** n * k for n, k in self.dims.items())

    def cohomology(self, n: int) -> "Cohomology":
        if n not in self._cohomology:
            self._cohomology[n] = Cohomology(self, n)
        return self._cohomology[n]

    def cohomology_dims(self) -> Dict[int, int]:
        out = {}
        for n in range(self.lo, self.hi + 1) if self.dims else []:
            h = self.cohomology(n).dim
            if h:
                out[n] = h
        return out

    def is_acyclic(self) -> bool:
        return not self.cohomology_dims()

    def __repr__(self):
        return f"Complex({ {n: self.dims[n] for n in self.degrees()} })"


class Cohomology:
    """H^n of a complex: dimension, cocycle representatives, class projection.

    dim is dim C^n - rank d^n - rank d^{n-1}, two ranks read off the RREFs
    each Matrix memoizes.  The cocycle subspace, the class projection and the
    representatives are built together on the first use of representatives,
    cocycles, project or class_matrix.  For a complex built with check=False,
    d^n d^{n-1} = 0 is checked first, with the error the full build raises.
    """

    __slots__ = ("complex", "degree", "dim", "_built")

    def __init__(self, c: Complex, n: int):
        d_out, d_in = c.d.get(n), c.d.get(n - 1)
        if d_out is not None and d_in is not None and not c.checked and not (d_out * d_in).is_zero():
            raise ValidationError("image of d is not contained in the kernel")
        object.__setattr__(self, "complex", c)
        object.__setattr__(self, "degree", n)
        object.__setattr__(self, "dim", c.dim(n) - sum(m.rank for m in (d_out, d_in) if m is not None))
        object.__setattr__(self, "_built", None)

    def __setattr__(self, *a):
        raise AttributeError("Cohomology is immutable")

    def _build(self) -> Tuple[Subspace, Matrix, Matrix]:
        """(cocycles, class projection, representatives), built on first use."""
        if self._built is None:
            c, n = self.complex, self.degree
            z = Subspace(c.dim(n), c.diff(n).kernel_basis())
            # d^n d^{n-1} = 0 holds (checked or verified above), so Im d^{n-1} ⊂ z
            proj, sect = Subspace(z.dim, z.coords_matrix(c.diff(n - 1))).quotient()
            object.__setattr__(self, "_built", (z, proj, z.basis * sect))
        return self._built

    @property
    def representatives(self) -> Matrix:
        return self._build()[2]

    @property
    def cocycles(self) -> Subspace:
        return self._build()[0]

    def project(self, vec: Sequence) -> Tuple:
        """Class coordinates of a cocycle; kills exactly the coboundaries."""
        z, proj, _ = self._build()
        coords = z.coords_of(vec)
        if coords is None:
            raise ValidationError("vector is not a cocycle")
        return proj.apply(coords)

    def class_matrix(self, vectors: Matrix) -> Matrix:
        z, proj, _ = self._build()
        coords = z.coords_matrix(vectors)
        if coords is None:
            raise ValidationError("some column is not a cocycle")
        return proj * coords


class ChainMap:
    """A degreewise map commuting with the differentials."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: Complex, target: Complex, components: Dict[int, Matrix], *, check: bool = True):
        comps = {}
        for n, m in components.items():
            n = int(n)
            if m.rows != target.dim(n) or m.cols != source.dim(n):
                raise ValidationError(f"chain map component at degree {n} has wrong shape")
            if not m.is_zero():
                comps[n] = m
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "components", comps)
        if check:
            for n in set(source.dims) | set(comps):
                lhs = target.diff(n) * self.component(n)
                rhs = self.component(n + 1) * source.diff(n)
                if lhs != rhs:
                    raise ValidationError(f"chain map does not commute with d at degree {n}")

    def __setattr__(self, *a):
        raise AttributeError("ChainMap is immutable")

    @staticmethod
    def identity(c: Complex) -> "ChainMap":
        return ChainMap(c, c, {n: Matrix.identity(c.dim(n)) for n in c.dims}, check=False)

    @staticmethod
    def zero(source: Complex, target: Complex) -> "ChainMap":
        return ChainMap(source, target, {}, check=False)

    def component(self, n: int) -> Matrix:
        m = self.components.get(n)
        if m is None:
            return Matrix.zeros(self.target.dim(n), self.source.dim(n))
        return m

    def compose(self, first: "ChainMap") -> "ChainMap":
        """self ∘ first."""
        if first.target.dims != self.source.dims:
            raise ValidationError("chain map composition shape mismatch")
        comps = {n: self.component(n) * first.component(n) for n in first.source.dims}
        return ChainMap(first.source, self.target, comps, check=False)

    def __add__(self, other: "ChainMap") -> "ChainMap":
        comps = {n: self.component(n) + other.component(n) for n in set(self.source.dims)}
        return ChainMap(self.source, self.target, comps, check=False)

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        comps = {n: self.component(n) - other.component(n) for n in set(self.source.dims)}
        return ChainMap(self.source, self.target, comps, check=False)

    def __neg__(self) -> "ChainMap":
        return ChainMap(self.source, self.target, {n: -m for n, m in self.components.items()}, check=False)

    def induced_on_cohomology(self, n: int) -> Matrix:
        src = self.source.cohomology(n)
        tgt = self.target.cohomology(n)
        return tgt.class_matrix(self.component(n) * src.representatives)

    def is_quasi_iso(self, *, via: str = "both") -> bool:
        """Quasi-isomorphism test; 'cone', 'degreewise', or 'both' (cross-check)."""
        by_cone = None
        by_deg = None
        if via in ("cone", "both"):
            by_cone = cone(self)[0].is_acyclic()
        if via in ("degreewise", "both"):
            by_deg = True
            degs = set(self.source.dims) | set(self.target.dims)
            for n in degs:
                hs = self.source.cohomology(n)
                ht = self.target.cohomology(n)
                if hs.dim != ht.dim:
                    by_deg = False
                    break
                if hs.dim and self.induced_on_cohomology(n).rank != hs.dim:
                    by_deg = False
                    break
        if via == "cone":
            return bool(by_cone)
        if via == "degreewise":
            return bool(by_deg)
        if by_cone != by_deg:
            raise ValidationError("quasi-isomorphism routes disagree")
        return bool(by_cone)


def shift(c: Complex, k: int) -> Complex:
    dims = {n - k: dim for n, dim in c.dims.items()}
    d = {n - k: m if k % 2 == 0 else -m for n, m in c.d.items()}
    return Complex(dims, d, check=False)


def shift_map(f: ChainMap, k: int) -> ChainMap:
    return ChainMap(
        shift(f.source, k), shift(f.target, k), {n - k: m for n, m in f.components.items()}, check=False
    )


def subcomplex(c: Complex, spaces: Dict[int, Subspace]) -> Tuple[Complex, ChainMap]:
    """The subcomplex spanned by spaces[n] ⊂ c^n, in the coordinates of each
    basis, with its inclusion into c.  A missing degree is the zero space, and
    d must carry every space into the next one."""
    spaces = {n: s for n, s in spaces.items() if s.dim}
    d = {}
    for n, s in spaces.items():
        d[n] = spaces.get(n + 1, Subspace.zero(c.dim(n + 1))).coords_matrix(c.diff(n) * s.basis)
        if d[n] is None:
            raise ValidationError(f"the differential at degree {n} leaves the subcomplex")
    sub = Complex({n: s.dim for n, s in spaces.items()}, d, check=False)
    return sub, ChainMap(sub, c, {n: s.basis for n, s in spaces.items()}, check=False)


def corestrict(f: ChainMap, sub: Complex, spaces: Dict[int, Subspace]) -> ChainMap:
    """f read as a map into the subcomplex sub spanned by spaces[n] ⊂ f.target^n,
    in the coordinates of each basis; every image must lie in the subcomplex."""
    comps = {}
    for n, m in f.components.items():
        comps[n] = spaces[n].coords_matrix(m) if n in spaces else None
        if comps[n] is None:
            raise ValidationError(f"the map leaves the subcomplex at degree {n}")
    return ChainMap(f.source, sub, comps, check=False)


class Truncation:
    """The canonical truncation tau_{<=n} ('le') or tau_{>=n} ('ge') of c.

    spaces[q] is the degree-q term of the model, a subspace of c^{home(q)};
    map is the canonical chain map, the inclusion model -> c for 'le' and the
    projection c -> model for 'ge'.
    """

    __slots__ = ("source", "n", "side", "spaces", "complex", "map")

    def __init__(self, c: Complex, n: int, side: str):
        if side == "le":
            spaces = {q: Subspace.full(k) for q, k in c.dims.items() if q < n}
            spaces[n] = Subspace(c.dim(n), c.diff(n).kernel_basis())
            model, canonical = subcomplex(c, spaces)
        elif side == "ge":
            spaces = {q: Subspace.full(k) for q, k in c.dims.items() if q >= n}
            proj = {q: s.basis for q, s in spaces.items()}
            dims = {q: c.dim(q) for q in spaces}
            d = {q: m for q, m in c.d.items() if q >= n}
            img = Subspace.from_matrix(c.diff(n - 1))
            spaces[n - 1] = img
            if img.dim:
                dims[n - 1], d[n - 1] = img.dim, img.basis
                proj[n - 1] = img.coords_matrix(c.diff(n - 1))
            model = Complex(dims, d, check=False)
            canonical = ChainMap(c, model, proj, check=False)
        else:
            raise ValidationError("side must be 'le' or 'ge'")
        object.__setattr__(self, "source", c)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "spaces", {q: s for q, s in spaces.items() if s.dim})
        object.__setattr__(self, "complex", model)
        object.__setattr__(self, "map", canonical)

    def __setattr__(self, *a):
        raise AttributeError("Truncation is immutable")

    def home(self, q: int) -> int:
        """The degree of the source that holds the degree-q model term: q,
        except n for the 'ge' term Im d^{n-1} at degree n-1."""
        return self.n if self.side == "ge" and q == self.n - 1 else q

    def transport(self, f: Callable[[int], Matrix], target: "Truncation") -> Dict[int, Matrix]:
        """The degreewise map f(q): c^q -> target.source^q on the models, in
        their coordinates; f must carry each model term into target's."""
        comps = {}
        for q, s in self.spaces.items():
            t = target.spaces.get(q, Subspace.zero(target.source.dim(target.home(q))))
            comps[q] = t.coords_matrix(f(self.home(q)) * s.basis)
            if comps[q] is None:
                raise ValidationError("truncation: a structure map leaves the truncated model")
        return comps


def cone(f: ChainMap) -> Tuple[Complex, ChainMap, ChainMap]:
    """Mapping cone with its triangle maps target -> cone -> source[1]."""
    a, b = f.source, f.target
    dims = {}
    for n in set(b.dims) | {n - 1 for n in a.dims}:
        k = b.dim(n) + a.dim(n + 1)
        if k:
            dims[n] = k
    d = {}
    for n in dims:
        if dims.get(n + 1, 0):
            blocks = [
                (0, 0, b.diff(n)),
                (0, b.dim(n), f.component(n + 1)),
                (b.dim(n + 1), b.dim(n), -a.diff(n + 1)),
            ]
            d[n] = assemble(dims[n + 1], dims[n], blocks)
    c = Complex(dims, d, check=False)
    incl = {n: assemble(dims[n], b.dim(n), [(0, 0, Matrix.identity(b.dim(n)))]) for n in b.dims}
    proj = {
        n: assemble(a.dim(n + 1), dims[n], [(0, b.dim(n), Matrix.identity(a.dim(n + 1)))])
        for n in dims
        if a.dim(n + 1)
    }
    return c, ChainMap(b, c, incl, check=False), ChainMap(c, shift(a, 1), proj, check=False)


def shifted_cone_map(
    t0: ChainMap, t1: ChainMap, source: Complex, target: Complex, *, check: bool = False
) -> ChainMap:
    """The map shift(cone(f), -1) -> shift(cone(f'), -1) of a square f' t0 = t1 f.

    t0 runs between the sources of f and f', t1 between their targets.  The
    degree-n term of shift(cone(f), -1) is f.target^{n-1} (+) f.source^n, so
    the map is diag(t1[n-1], t0[n]).
    """
    comps = {}
    for n in source.dims:
        blocks = [
            (0, 0, t1.component(n - 1)),
            (t1.target.dim(n - 1), t1.source.dim(n - 1), t0.component(n)),
        ]
        comps[n] = assemble(target.dim(n), source.dim(n), blocks)
    return ChainMap(source, target, comps, check=check)


@dataclass(frozen=True)
class SumLayout:
    """Offsets of the summands inside a direct sum, per degree."""

    offsets: Tuple[Dict[int, int], ...]

    def offset(self, index: int, degree: int) -> int:
        return self.offsets[index].get(degree, 0)


def direct_sum(parts: Sequence[Complex]) -> Tuple[Complex, SumLayout]:
    dims: Dict[int, int] = {}
    offsets = []
    for p in parts:
        off = {}
        for n, k in p.dims.items():
            off[n] = dims.get(n, 0)
            dims[n] = dims.get(n, 0) + k
        offsets.append(off)
    layout = SumLayout(tuple(offsets))
    d = {}
    for n in dims:
        if dims.get(n + 1, 0):
            blocks = [
                (layout.offset(i, n + 1), layout.offset(i, n), p.d[n]) for i, p in enumerate(parts) if n in p.d
            ]
            d[n] = assemble(dims[n + 1], dims[n], blocks)
    return Complex(dims, d, check=False), layout


def sum_map(
    source: Complex,
    source_layout: SumLayout,
    target: Complex,
    target_layout: SumLayout,
    blocks: Dict[Tuple[int, int], ChainMap],
) -> ChainMap:
    """The map of direct sums whose block (i, j) is blocks[(i, j)], a chain
    map from summand j of the source to summand i of the target."""
    comps = {}
    for n in source.dims:
        placed = [
            (target_layout.offset(i, n), source_layout.offset(j, n), f.component(n))
            for (i, j), f in blocks.items()
        ]
        comps[n] = assemble(target.dim(n), source.dim(n), placed)
    return ChainMap(source, target, comps, check=False)


def sum_inclusion(parts: Sequence[Complex], total: Complex, layout: SumLayout, index: int) -> ChainMap:
    p = parts[index]
    comps = {}
    for n, k in p.dims.items():
        comps[n] = assemble(total.dim(n), k, [(layout.offset(index, n), 0, Matrix.identity(k))])
    return ChainMap(p, total, comps, check=False)


def sum_projection(parts: Sequence[Complex], total: Complex, layout: SumLayout, index: int) -> ChainMap:
    p = parts[index]
    comps = {}
    for n, k in p.dims.items():
        comps[n] = assemble(k, total.dim(n), [(0, layout.offset(index, n), Matrix.identity(k))])
    return ChainMap(total, p, comps, check=False)


class DoubleComplex:
    """Bigraded spaces with anticommuting horizontal and vertical differentials."""

    __slots__ = ("spaces", "dh", "dv")

    def __init__(self, spaces: Dict[Tuple[int, int], int], dh: Dict[Tuple[int, int], Matrix], dv: Dict[Tuple[int, int], Matrix], *, check: bool = True):
        spaces = {(int(p), int(q)): int(k) for (p, q), k in spaces.items() if k > 0}
        dh = {k: m for k, m in dh.items() if not m.is_zero()}
        dv = {k: m for k, m in dv.items() if not m.is_zero()}
        object.__setattr__(self, "spaces", spaces)
        object.__setattr__(self, "dh", dh)
        object.__setattr__(self, "dv", dv)
        if check:
            for (p, q), m in dh.items():
                if m.rows != self.dim(p + 1, q) or m.cols != self.dim(p, q):
                    raise ValidationError(f"horizontal differential at {(p, q)} has the wrong shape")
            for (p, q), m in dv.items():
                if m.rows != self.dim(p, q + 1) or m.cols != self.dim(p, q):
                    raise ValidationError(f"vertical differential at {(p, q)} has the wrong shape")
            for (p, q) in spaces:
                if not (self.dh_at(p + 1, q) * self.dh_at(p, q)).is_zero():
                    raise ValidationError(f"dh∘dh != 0 at {(p, q)}")
                if not (self.dv_at(p, q + 1) * self.dv_at(p, q)).is_zero():
                    raise ValidationError(f"dv∘dv != 0 at {(p, q)}")
                anti = self.dh_at(p, q + 1) * self.dv_at(p, q) + self.dv_at(p + 1, q) * self.dh_at(p, q)
                if not anti.is_zero():
                    raise ValidationError(f"differentials do not anticommute at {(p, q)}")

    def __setattr__(self, *a):
        raise AttributeError("DoubleComplex is immutable")

    @staticmethod
    def commuting(
        spaces: Dict[Tuple[int, int], int],
        dh: Dict[Tuple[int, int], Matrix],
        dv: Dict[Tuple[int, int], Matrix],
        *,
        check: bool = True,
    ) -> "DoubleComplex":
        """The double complex of a grid whose squares commute: the vertical
        maps of column p are signed by (-1)^p, so that the squares anticommute."""
        signed = {(p, q): -m if p % 2 else m for (p, q), m in dv.items()}
        return DoubleComplex(spaces, dh, signed, check=check)

    def dim(self, p: int, q: int) -> int:
        return self.spaces.get((p, q), 0)

    def dh_at(self, p: int, q: int) -> Matrix:
        m = self.dh.get((p, q))
        return m if m is not None else Matrix.zeros(self.dim(p + 1, q), self.dim(p, q))

    def dv_at(self, p: int, q: int) -> Matrix:
        m = self.dv.get((p, q))
        return m if m is not None else Matrix.zeros(self.dim(p, q + 1), self.dim(p, q))

    def transpose(self) -> "DoubleComplex":
        spaces = {(q, p): k for (p, q), k in self.spaces.items()}
        dh = {(q, p): m for (p, q), m in self.dv.items()}
        dv = {(q, p): m for (p, q), m in self.dh.items()}
        return DoubleComplex(spaces, dh, dv, check=False)


@dataclass(frozen=True)
class TotalLayout:
    blocks: Dict[int, Tuple[Tuple[int, int, int, int], ...]]  # n -> ((p, q, offset, dim), ...)

    def offset(self, n: int, p: int) -> Optional[Tuple[int, int]]:
        for bp, bq, off, k in self.blocks.get(n, ()):
            if bp == p:
                return off, k
        return None


def total_complex(dc: DoubleComplex) -> Tuple[Complex, TotalLayout]:
    """Degree n part (+)_{p+q=n} A^{p,q} (blocks by ascending p), d = dh + dv."""
    blocks: Dict[int, List[Tuple[int, int, int, int]]] = {}
    dims: Dict[int, int] = {}
    for n in sorted({p + q for p, q in dc.spaces}):
        off = 0
        entry = []
        for p in sorted({p for p, q in dc.spaces if p + q == n}):
            k = dc.dim(p, n - p)
            entry.append((p, n - p, off, k))
            off += k
        blocks[n] = entry
        dims[n] = off
    d = {}
    for n in dims:
        if not dims.get(n + 1, 0):
            continue
        tgt = {p: off for p, q, off, k in blocks[n + 1]}
        placed = []
        for p, q, off, k in blocks[n]:
            if (p + 1) in tgt:
                placed.append((tgt[p + 1], off, dc.dh_at(p, q)))
            if p in tgt:
                placed.append((tgt[p], off, dc.dv_at(p, q)))
        d[n] = assemble(dims[n + 1], dims[n], placed)
    total = Complex(dims, d)
    return total, TotalLayout({n: tuple(v) for n, v in blocks.items()})


class TensorComplex:
    """a (x) b as the total complex of the commuting grid a^i (x) b^j, with
    horizontal maps d_a (x) 1 and vertical maps 1 (x) d_b; layout places the
    block (i, j) inside degree i + j."""

    __slots__ = ("a", "b", "complex", "layout")

    def __init__(self, a: Complex, b: Complex):
        spaces = {(i, j): a.dim(i) * b.dim(j) for i in a.dims for j in b.dims}
        dh = {(i, j): kron(m, Matrix.identity(b.dim(j))) for i, m in a.d.items() for j in b.dims}
        dv = {(i, j): kron(Matrix.identity(a.dim(i)), m) for i in a.dims for j, m in b.d.items()}
        total, layout = total_complex(DoubleComplex.commuting(spaces, dh, dv, check=False))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "complex", total)
        object.__setattr__(self, "layout", layout)

    def __setattr__(self, *a):
        raise AttributeError("TensorComplex is immutable")

    def pure_tensor(self, i: int, x: Sequence, j: int, y: Sequence) -> Tuple:
        """Coordinates of x (x) y placed in degree i + j."""
        found = self.layout.offset(i + j, i)
        if found is None:
            raise ValidationError("tensor block absent")
        if len(x) * len(y) != found[1]:
            raise ValidationError("pure tensor size mismatch")
        block = kron(Matrix.column(x), Matrix.column(y))
        return assemble(self.complex.dim(i + j), 1, [(found[0], 0, block)]).col_tuple(0)


def tensor(a: Complex, b: Complex) -> TensorComplex:
    return TensorComplex(a, b)


def tensor_map(f: ChainMap, g: ChainMap) -> ChainMap:
    """f (x) g for degree-0 chain maps, blockwise Kronecker."""
    src = TensorComplex(f.source, g.source)
    tgt = TensorComplex(f.target, g.target)
    comps = {}
    for n, blocks in src.layout.blocks.items():
        placed = []
        for i, j, off, _ in blocks:
            found = tgt.layout.offset(n, i)
            if found is not None:
                placed.append((found[0], off, kron(f.component(i), g.component(j))))
        comps[n] = assemble(tgt.complex.dim(n), src.complex.dim(n), placed)
    return ChainMap(src.complex, tgt.complex, comps, check=False)


class HomComplex:
    """Hom^n = (+)_q Hom(a^q, b^{q+n}) with d(f) = d_b∘f - (-1)^n f∘d_a.

    Elements are stored row-major per slot; slots(n) lists (q, rows, cols,
    offset) in ascending q.
    """

    __slots__ = ("source", "target", "complex", "_slots")

    def __init__(self, a: Complex, b: Complex):
        object.__setattr__(self, "source", a)
        object.__setattr__(self, "target", b)
        slots: Dict[int, List[Tuple[int, int, int, int]]] = {}
        dims: Dict[int, int] = {}
        if a.dims and b.dims:
            for n in range(b.lo - a.hi, b.hi - a.lo + 1):
                off = 0
                entry = []
                for q in sorted(a.dims):
                    if b.dim(q + n):
                        entry.append((q, b.dim(q + n), a.dim(q), off))
                        off += b.dim(q + n) * a.dim(q)
                if entry:
                    slots[n] = entry
                    dims[n] = off
        d = {}
        for n in dims:
            if dims.get(n + 1, 0):
                tgt_off = {q: o for q, r, c, o in slots[n + 1]}
                placed = []
                for q, r, c, off in slots[n]:
                    # d_b ∘ f : slot q -> slot q
                    if q in tgt_off and b.dim(q + n + 1):
                        placed.append((tgt_off[q], off, kron(b.diff(q + n), Matrix.identity(a.dim(q)))))
                    # -(-1)^n f ∘ d_a : slot q -> slot q-1
                    if (q - 1) in tgt_off and a.dim(q - 1):
                        m = kron(Matrix.identity(b.dim(q + n)), a.diff(q - 1).transpose())
                        placed.append((tgt_off[q - 1], off, -m if n % 2 == 0 else m))
                d[n] = assemble(dims[n + 1], dims[n], placed)
        object.__setattr__(self, "complex", Complex(dims, d, check=False))
        object.__setattr__(self, "_slots", slots)

    def __setattr__(self, *a):
        raise AttributeError("HomComplex is immutable")

    def slots(self, n: int):
        return self._slots.get(n, [])

    def pack(self, n: int, components: Dict[int, Matrix]) -> Tuple:
        blocks = []
        for q, r, c, off in self.slots(n):
            m = components.get(q)
            if m is None:
                continue
            if m.rows != r or m.cols != c:
                raise ValidationError("hom element component shape mismatch")
            blocks.append((off, 0, m.reshape(r * c, 1)))
        return assemble(self.complex.dim(n), 1, blocks).col_tuple(0)

    def unpack(self, n: int, vec: Sequence) -> Dict[int, Matrix]:
        return {q: Matrix.column(vec[off : off + r * c]).reshape(r, c) for q, r, c, off in self.slots(n)}

    def post_compose(self, g: ChainMap, other: "HomComplex") -> ChainMap:
        """Hom(a, b) -> Hom(a, b') induced by g: b -> b' (other = Hom(a, b'))."""
        if g.source != self.target:
            raise ValidationError("post_compose: map does not start at the target")
        comps = {}
        for n in self._slots:
            tgt_off = {q: o for q, r, c, o in other.slots(n)}
            placed = [
                (tgt_off[q], off, kron(g.component(q + n), Matrix.identity(c)))
                for q, r, c, off in self.slots(n)
                if q in tgt_off
            ]
            comps[n] = assemble(other.complex.dim(n), self.complex.dim(n), placed)
        return ChainMap(self.complex, other.complex, comps, check=False)

    def pre_compose(self, h: ChainMap, other: "HomComplex") -> ChainMap:
        """Hom(a, b) -> Hom(a', b) induced by h: a' -> a (other = Hom(a', b))."""
        comps = {}
        for n in set(self._slots) | set(other._slots):
            src_off = {q: o for q, r, c, o in self.slots(n)}
            placed = [
                (off, src_off[q], kron(Matrix.identity(r), h.component(q).transpose()))
                for q, r, c, off in other.slots(n)
                if q in src_off
            ]
            comps[n] = assemble(other.complex.dim(n), self.complex.dim(n), placed)
        return ChainMap(self.complex, other.complex, comps, check=False)


def hom_complex(a: Complex, b: Complex) -> HomComplex:
    return HomComplex(a, b)


def is_quasi_iso(f: ChainMap) -> bool:
    return f.is_quasi_iso(via="both")
