"""Filtered complexes: descending exhaustive separated filtrations as flags.

A filtration in one degree is stored as its jump records: a sorted list of
(level, subspace) pairs meaning F^i equals the recorded subspace for all i up
to and including the level, the next record taking over above it, and zero
beyond the last level.  The first record must be the full space (exhaustive),
records strictly decrease (true jumps), and differentials preserve every
level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .complexes import ChainMap, Complex, Truncation, subcomplex
from .errors import ValidationError
from .linalg import Matrix, Subspace


class Filtration:
    """Per-degree jump records for a descending filtration."""

    __slots__ = ("dims", "records")

    def __init__(self, dims: Dict[int, int], records: Dict[int, Sequence[Tuple[int, Subspace]]]):
        recs: Dict[int, Tuple[Tuple[int, Subspace], ...]] = {}
        for n, dim in dims.items():
            entry = sorted(records.get(n, []), key=lambda t: t[0])
            if dim == 0:
                if entry:
                    raise ValidationError(f"filtration records on a zero space at degree {n}")
                continue
            if not entry:
                raise ValidationError(f"degree {n} needs at least one filtration record")
            levels = [l for l, _ in entry]
            if len(set(levels)) != len(levels):
                raise ValidationError(f"duplicate filtration levels at degree {n}")
            if entry[0][1].dim != dim:
                raise ValidationError(f"filtration at degree {n} is not exhaustive")
            for (l1, s1), (l2, s2) in zip(entry, entry[1:]):
                if not s1.contains_subspace(s2) or s1.dim <= s2.dim:
                    raise ValidationError(f"filtration at degree {n} is not strictly descending at level {l2}")
            if entry[-1][1].dim == 0:
                raise ValidationError(f"zero subspace recorded at degree {n}; separation is implicit")
            recs[n] = tuple(entry)
        object.__setattr__(self, "dims", dict(dims))
        object.__setattr__(self, "records", recs)

    def __setattr__(self, *a):
        raise AttributeError("Filtration is immutable")

    @staticmethod
    def trivial(c: Complex, level: int = 0) -> "Filtration":
        return Filtration(c.dims, {n: [(level, Subspace.full(c.dim(n)))] for n in c.dims})

    def at(self, n: int, i: int) -> Subspace:
        dim = self.dims.get(n, 0)
        if dim == 0:
            return Subspace.zero(0)
        current = Subspace.zero(dim)
        for level, space in reversed(self.records.get(n, ())):
            if i <= level:
                current = space
            else:
                break
        return current

    def jump_levels(self, n: int) -> Tuple[int, ...]:
        return tuple(l for l, _ in self.records.get(n, ()))

    def all_levels(self) -> Tuple[int, ...]:
        levels = set()
        for n in self.records:
            levels.update(self.jump_levels(n))
        return tuple(sorted(levels))

    def __eq__(self, other):
        if not isinstance(other, Filtration) or self.dims != other.dims:
            return False
        for n in self.records:
            if self.jump_levels(n) != other.jump_levels(n):
                return False
            for (l1, s1), (l2, s2) in zip(self.records[n], other.records[n]):
                if s1 != s2:
                    return False
        return True


class FilteredComplex:
    __slots__ = ("carrier", "filtration")

    def __init__(self, carrier: Complex, filtration: Filtration, *, check: bool = True):
        if filtration.dims != carrier.dims:
            raise ValidationError("filtration does not match the carrier dimensions")
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "filtration", filtration)
        if check:
            for n in carrier.dims:
                if not carrier.dim(n + 1):
                    continue
                d = carrier.diff(n)
                for level in filtration.jump_levels(n):
                    src = filtration.at(n, level)
                    if filtration.at(n + 1, level).coords_matrix(d * src.basis) is None:
                        raise ValidationError(
                            f"differential at degree {n} does not preserve filtration level {level}"
                        )

    def __setattr__(self, *a):
        raise AttributeError("FilteredComplex is immutable")

    @staticmethod
    def with_trivial_filtration(c: Complex, level: int = 0) -> "FilteredComplex":
        return FilteredComplex(c, Filtration.trivial(c, level), check=False)

    def level(self, n: int, i: int) -> Subspace:
        return self.filtration.at(n, i)

    def shift_levels(self, delta: int) -> "FilteredComplex":
        recs = {n: [(l + delta, s) for l, s in self.filtration.records.get(n, ())] for n in self.carrier.dims}
        return FilteredComplex(self.carrier, Filtration(self.carrier.dims, recs), check=False)


@dataclass(frozen=True)
class FilteredMap:
    source: FilteredComplex
    target: FilteredComplex
    underlying: ChainMap

    def __post_init__(self):
        if self.underlying.source != self.source.carrier or self.underlying.target != self.target.carrier:
            raise ValidationError("filtered map endpoints do not match")
        for n in self.source.carrier.dims:
            f = self.underlying.component(n)
            levels = set(self.source.filtration.jump_levels(n)) | set(self.target.filtration.jump_levels(n))
            for level in levels:
                src = self.source.level(n, level)
                if self.target.level(n, level).coords_matrix(f * src.basis) is None:
                    raise ValidationError(f"map does not preserve filtration level {level} at degree {n}")


def level_subcomplex(fc: FilteredComplex, i: int) -> Tuple[Complex, ChainMap]:
    """The subcomplex F^i in its own coordinates, with the inclusion."""
    return subcomplex(fc.carrier, {n: fc.level(n, i) for n in fc.carrier.dims})


class GradedPiece:
    """gr^i as a complex, with maps between carrier-level and gr coordinates."""

    __slots__ = ("level", "complex", "_bases")

    def __init__(self, fc: FilteredComplex, i: int):
        dims = {}
        bases = {}
        projs = {}
        for n in fc.carrier.dims:
            big = fc.level(n, i)
            small = fc.level(n, i + 1)
            if big.dim == 0:
                continue
            proj, sect, lift = big.quotient_by(small)
            if proj.rows:
                dims[n] = proj.rows
                bases[n] = (big, proj, lift)
        d = {}
        for n in dims:
            if dims.get(n + 1, 0):
                big, proj, lift = bases[n]
                bign, projn, _ = bases[n + 1]
                coords = bign.coords_matrix(fc.carrier.diff(n) * lift)
                if coords is None:
                    raise ValidationError("graded differential leaves the filtration level")
                d[n] = projn * coords
        object.__setattr__(self, "level", i)
        object.__setattr__(self, "complex", Complex(dims, d, check=False))
        object.__setattr__(self, "_bases", bases)

    def __setattr__(self, *a):
        raise AttributeError("GradedPiece is immutable")

    def induced_map(self, other: "GradedPiece", f: ChainMap, n: int) -> Matrix:
        if n not in self._bases:
            return Matrix.zeros(other.complex.dim(n), 0)
        lift = self._bases[n][2]
        if n not in other._bases:
            return Matrix.zeros(0, lift.cols)
        big, proj, _ = other._bases[n]
        coords = big.coords_matrix(f.component(n) * lift)
        if coords is None:
            raise ValidationError("vector is not in the filtration level")
        return proj * coords


def graded(fc: FilteredComplex) -> Dict[int, GradedPiece]:
    out = {}
    for i in fc.filtration.all_levels():
        piece = GradedPiece(fc, i)
        if piece.complex.dims:
            out[i] = piece
    return out


def is_strict_map(fm: FilteredMap) -> bool:
    """f(F^i M) = F^i N ∩ Im(f) at every degree and level."""
    for n in set(fm.source.carrier.dims) | set(fm.target.carrier.dims):
        f = fm.underlying.component(n)
        image = Subspace.from_matrix(f)
        levels = set(fm.source.filtration.jump_levels(n)) | set(fm.target.filtration.jump_levels(n))
        for level in levels:
            lhs = Subspace(f.rows, f * fm.source.level(n, level).basis)
            rhs = fm.target.level(n, level).intersect(image)
            if lhs.dim != rhs.dim or not rhs.contains_subspace(lhs):
                return False
    return True


def is_strict_complex(fc: FilteredComplex, *, via: str = "degeneration") -> bool:
    """Strictness of the complex.

    'degeneration' compares the graded cohomology count with the carrier
    cohomology in every degree; 'direct' checks that every differential is a
    strict map of filtered spaces.  The two agree (a property test pins this).
    """
    if via == "direct":
        # each differential, viewed as a map of filtered vector spaces
        for n in fc.carrier.dims:
            if not fc.carrier.dim(n + 1):
                continue
            src = _one_degree_filtered(fc, n)
            tgt = _one_degree_filtered(fc, n + 1)
            fm = FilteredMap(
                src, tgt, ChainMap(src.carrier, tgt.carrier, {0: fc.carrier.diff(n)}, check=False)
            )
            if not is_strict_map(fm):
                return False
        return True
    if via != "degeneration":
        raise ValidationError("unknown strictness route")
    pieces = graded(fc)
    for n in fc.carrier.dims:
        total = sum(p.complex.cohomology(n).dim for p in pieces.values())
        if total != fc.carrier.cohomology(n).dim:
            return False
    return True


def _one_degree_filtered(fc: FilteredComplex, n: int) -> FilteredComplex:
    """The degree-n filtered space of fc, re-homed at degree 0."""
    dim = fc.carrier.dim(n)
    c = Complex({0: dim}, {}) if dim else Complex({}, {})
    recs = {0: list(fc.filtration.records.get(n, ()))} if dim else {}
    return FilteredComplex(c, Filtration(c.dims, recs), check=False)


def graded_cohomology_count(fc: FilteredComplex, n: int) -> int:
    return sum(p.complex.cohomology(n).dim for p in graded(fc).values())


def is_filtered_quasi_iso(fm: FilteredMap) -> bool:
    levels = set(fm.source.filtration.all_levels()) | set(fm.target.filtration.all_levels())
    for i in sorted(levels):
        src = GradedPiece(fm.source, i)
        tgt = GradedPiece(fm.target, i)
        comps = {n: src.induced_map(tgt, fm.underlying, n) for n in set(src.complex.dims) | set(tgt.complex.dims)}
        g = ChainMap(src.complex, tgt.complex, comps, check=False)
        if not g.is_quasi_iso(via="degreewise"):
            return False
    return True


def filtered_truncate(fc: FilteredComplex, n: int, side: str) -> FilteredComplex:
    """The canonical truncation (see complexes.Truncation) with its induced
    filtration."""
    return truncated_filtration(fc, Truncation(fc.carrier, n, side))


def truncated_filtration(fc: FilteredComplex, t: Truncation) -> FilteredComplex:
    """fc's filtration on the model of t.  A model term that is a whole term
    of fc keeps its records; Ker d^n gets the preimages of the levels under
    the inclusion, Im d^{n-1} their images under the projection."""
    recs: Dict[int, List[Tuple[int, Subspace]]] = {}
    for q, space in t.spaces.items():
        if t.home(q) == q and space.dim == fc.carrier.dim(q):
            recs[q] = list(fc.filtration.records.get(q, ()))
            continue
        entry = []
        for level in fc.filtration.jump_levels(q):
            if t.side == "le":
                basis = space.coords_matrix(fc.level(q, level).intersect(space).basis)
            else:
                basis = t.map.component(q) * fc.level(q, level).basis
            sub = Subspace(space.dim, basis)
            if sub.dim:
                entry.append((level, sub))
        recs[q] = jump_records(entry, space.dim)
    return FilteredComplex(t.complex, Filtration(t.complex.dims, recs), check=False)


def jump_records(entry: List[Tuple[int, Subspace]], dim: int) -> List[Tuple[int, Subspace]]:
    """The filtration records of (level, F^level) pairs with F descending:
    true jumps only, each kept at its highest level, with exhaustiveness
    restored at the lowest level."""
    entry = sorted(entry, key=lambda t: t[0])
    if not entry or entry[0][1].dim != dim:
        lowest = entry[0][0] - 1 if entry else 0
        entry = [(lowest, Subspace.full(dim))] + entry
    out = [entry[0]]
    for level, space in entry[1:]:
        if space.dim < out[-1][1].dim:
            out.append((level, space))
        else:
            out[-1] = (level, out[-1][1])
    return out
