"""Filtration spectral sequences of double complexes and filtered complexes.

Pages are computed from the standard subspace formulas: with Z_r the part of
the filtration level whose differential falls r levels deeper, the page entry
is Z_r modulo (the next level's Z_{r-1} plus d of Z_{r-1} from above), and the
page differential is lift-transfer-project.  Everything is exact arithmetic,
so E_{r+1} is recomputed from the formulas and checked against the homology
of (E_r, d_r) rather than assumed.

Z(n, p, r) = F^p C^n ∩ d^{-1}(F^{p+r} C^{n+1}) is computed once per page run
for each (n, clamped p, clamped top = p + r): F^p is the whole space for p at
or below the lowest level and zero above the highest, so every p and p + r
outside that window reads the same space as its clamped value.  It is a
restricted kernel, B_p · ker(π_top · d · B_p), with B_p the basis of F^p and
π_top the quotient projection by F^top: one elimination and one canonical
subspace.  For top <= p it is F^p itself, since d preserves the filtration.

The denominator of an entry, Z_{r-1}(p+1) + d Z_{r-1}(p-r+1), lies inside
Z_r(p): F^{p+1} ⊆ F^p under the same d^{-1}(F^top), and d Z_{r-1}(p-r+1) ⊆
F^p ∩ ker d.  So it is one canonical span, with no intersection with Z_r(p).
The quotient still checks that inclusion; on the first page the denominator
holds F^{p+1} C^n and d F^p C^{n-1}, so a differential that leaves the
filtration fails it and the run raises instead of returning pages.

A page cell is memoized by its three clamped Z keys: pages past
stabilization, and entries whose keys clamp alike, reuse its quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .complexes import ChainMap, Complex, DoubleComplex, TotalLayout, total_complex
from .errors import ValidationError
from .filtered import FilteredComplex, Filtration
from .linalg import Matrix, Subspace, assemble, hstack


ZKey = Tuple[int, int, int]  # (n, clamped p, clamped top) of a Z space


@dataclass
class PageEntry:
    dim: int
    representatives: Matrix  # columns inside the total complex degree p+q


@dataclass
class SpectralPage:
    r: int
    entries: Dict[Tuple[int, int], PageEntry]
    differentials: Dict[Tuple[int, int], Matrix]

    def dim(self, p: int, q: int) -> int:
        e = self.entries.get((p, q))
        return e.dim if e else 0

    def dims_table(self) -> Dict[Tuple[int, int], int]:
        return {k: e.dim for k, e in self.entries.items() if e.dim}


def _column_filtration(total: Complex, layout: TotalLayout) -> Filtration:
    """F^p of the total complex: the blocks with p' >= p, which run by
    ascending p and so fill the trailing coordinates."""
    records = {}
    for n, blocks in layout.blocks.items():
        dim = total.dim(n)
        trailing = [(p, assemble(dim, dim - off, [(off, 0, Matrix.identity(dim - off))])) for p, _, off, _ in blocks]
        records[n] = [(p, Subspace(dim, basis, canonical=True)) for p, basis in trailing]
    return Filtration(total.dims, records)


def _pages_generic(f: FilteredComplex, r_max: Optional[int] = None) -> List[SpectralPage]:
    total = f.carrier
    degrees = sorted(total.dims) if total.dims else []
    levels = f.filtration.all_levels()
    p_lo, p_hi = (levels[0], levels[-1]) if levels else (0, 0)
    width = (p_hi - p_lo) + 1
    if r_max is None:
        r_max = width + 1
    z_spaces: Dict[ZKey, Subspace] = {}
    cells: Dict[Tuple[ZKey, ZKey, ZKey], Tuple[Subspace, Matrix, Matrix]] = {}

    def z_key(n: int, p: int, r: int) -> ZKey:
        return (n, max(p, p_lo), min(p + r, p_hi + 1))

    def z_space(key: ZKey) -> Subspace:
        if key not in z_spaces:
            n, p, top = key
            level = f.level(n, p)
            if top <= p:
                z_spaces[key] = level
            else:
                proj, _ = f.level(n + 1, top).quotient()
                ker = (proj * total.diff(n) * level.basis).kernel_basis()
                z_spaces[key] = Subspace(level.ambient_dim, level.basis * ker)
        return z_spaces[key]

    def cell(n: int, p: int, r: int) -> Tuple[Subspace, Matrix, Matrix]:
        key = (z_key(n, p, r), z_key(n, p + 1, r - 1), z_key(n - 1, p - r + 1, r - 1))
        if key not in cells:
            z_k, inner_k, prev_k = key
            z = z_space(z_k)
            span = hstack([z_space(inner_k).basis, total.diff(n - 1) * z_space(prev_k).basis])
            try:
                proj, _, lift = z.quotient_by(Subspace(z.ambient_dim, span))
            except ValidationError:
                raise ValidationError(
                    f"the differential does not preserve the filtration: page {r} entry {(p, n - p)} "
                    "has boundaries outside its cycles"
                ) from None
            cells[key] = (z, proj, lift)
        return cells[key]

    pages: List[SpectralPage] = []
    for r in range(1, r_max + 1):
        entries: Dict[Tuple[int, int], PageEntry] = {}
        diffs: Dict[Tuple[int, int], Matrix] = {}
        quotients: Dict[Tuple[int, int], Tuple[Subspace, Matrix, Matrix]] = {}
        for n in degrees:
            for p in range(p_lo, p_hi + 1):
                q = n - p
                z, proj, lift = cell(n, p, r)
                if proj.rows:
                    entries[(p, q)] = PageEntry(dim=proj.rows, representatives=lift)
                    quotients[(p, q)] = (z, proj, lift)
        for (p, q), (z, proj, lift) in quotients.items():
            n = p + q
            tgt = quotients.get((p + r, q - r + 1))
            src_dim = entries[(p, q)].dim
            if tgt is None:
                diffs[(p, q)] = Matrix.zeros(0, src_dim)
                continue
            zt, projt, _ = tgt
            coords = zt.coords_matrix(total.diff(n) * lift)
            if coords is None:
                raise ValidationError("page differential leaves its window")
            diffs[(p, q)] = projt * coords
        pages.append(SpectralPage(r=r, entries=entries, differentials=diffs))
    # internal consistency: d_r ∘ d_r = 0 and E_{r+1} = H(E_r, d_r)
    for page, nxt in zip(pages, pages[1:]):
        for (p, q), d1 in page.differentials.items():
            d2 = page.differentials.get((p + page.r, q - page.r + 1))
            if d2 is not None and d2.cols == d1.rows and not (d2 * d1).is_zero():
                raise ValidationError("page differential does not square to zero")
            incoming = page.differentials.get((p - page.r, q + page.r - 1))
            rank_in = incoming.rank if incoming is not None else 0
            homology = d1.cols - d1.rank - rank_in
            if homology != nxt.dim(p, q):
                raise ValidationError(
                    f"page {page.r + 1} entry at {(p, q)} is not the homology of page {page.r}"
                )
    return pages


def column_filtered(dc: DoubleComplex, direction: str = "col") -> FilteredComplex:
    """The total complex of dc with its column ('col') or row ('row') filtration."""
    if direction == "row":
        dc = dc.transpose()
    elif direction != "col":
        raise ValidationError("direction must be 'col' or 'row'")
    total, layout = total_complex(dc)
    return FilteredComplex(total, _column_filtration(total, layout), check=False)


def pages(dc: DoubleComplex, direction: str = "col", r_max: Optional[int] = None) -> List[SpectralPage]:
    """Spectral pages for the column ('col') or row ('row') filtration, through
    stabilization by default."""
    return _pages_generic(column_filtered(dc, direction), r_max)


def filtration_pages(fc: FilteredComplex, r_max: Optional[int] = None) -> List[SpectralPage]:
    """The filtration spectral sequence of a filtered complex."""
    return _pages_generic(fc, r_max)


def convergence_check(dc: DoubleComplex, direction: str = "col") -> bool:
    """Sum of stable page dimensions along each antidiagonal equals the total
    cohomology dimension."""
    fc = column_filtered(dc, direction)
    pgs = filtration_pages(fc)
    if not pgs:
        return True
    last = pgs[-1]
    if any(not m.is_zero() for m in last.differentials.values()):
        return False
    for n in fc.carrier.dims:
        s = sum(e.dim for (p, q), e in last.entries.items() if p + q == n)
        if s != fc.carrier.cohomology(n).dim:
            return False
    return True


def degenerates_at_e1(fc: FilteredComplex) -> bool:
    pgs = filtration_pages(fc)
    return all(m.is_zero() for page in pgs for m in page.differentials.values())


@dataclass
class CollapseReport:
    levels: int
    e1_matches_column: bool
    d1_pattern: bool
    total_matches: bool

    @property
    def passed(self) -> bool:
        return self.e1_matches_column and self.d1_pattern and self.total_matches


def simplicial_collapse(c: Complex, n_levels: int) -> CollapseReport:
    """The truncated constant-levels double complex built from alternating
    face sums: columns -N..0 all equal to the input with identity faces.

    The first page must alternate between zero maps and isomorphisms along the
    rows, and the total complex must reproduce the input cohomology.
    """
    if n_levels % 2 != 0 or n_levels < 0:
        raise ValidationError("the truncation depth must be even and nonnegative")
    spaces = {}
    dh = {}
    dv = {}
    for col in range(-n_levels, 1):
        for m in c.dims:
            spaces[(col, m)] = c.dim(m)
            if c.dim(m + 1):
                dv[(col, m)] = c.diff(m)
        if col < 0:
            # faces of the constant simplicial level are all the identity
            face_count = (-col) + 1
            coef = sum(((-1) ** i for i in range(face_count)), 0)
            if coef:
                for m in c.dims:
                    dh[(col, m)] = Matrix.identity(c.dim(m)).scale(Fraction(coef))
    dc = DoubleComplex.commuting(spaces, dh, dv)
    total, layout = total_complex(dc)
    pgs = pages(dc, "col")
    e1 = pgs[0]
    e1_ok = True
    for col in range(-n_levels, 1):
        for m in range(c.lo, c.hi + 1) if c.dims else []:
            if e1.dim(col, m) != c.cohomology(m).dim:
                e1_ok = False
    d1_ok = True
    for col in range(-n_levels, 0):
        expected_iso = col % 2 == 0
        for m in range(c.lo, c.hi + 1) if c.dims else []:
            d1 = e1.differentials.get((col, m))
            if d1 is None or d1.rows == 0 or d1.cols == 0:
                if expected_iso and c.cohomology(m).dim:
                    d1_ok = False
                continue
            if expected_iso:
                if d1.rank != d1.cols or d1.rows != d1.cols:
                    d1_ok = False
            else:
                if not d1.is_zero():
                    d1_ok = False
    total_ok = True
    for m in range(min(c.lo, 0), c.hi + 1) if c.dims else []:
        if total.cohomology(m).dim != c.cohomology(m).dim:
            total_ok = False
    # the column-zero inclusion realizes the comparison
    incl_comps = {}
    for m in c.dims:
        found = layout.offset(m, 0)
        if found is None:
            total_ok = False
            continue
        off, k = found
        incl_comps[m] = assemble(total.dim(m), k, [(off, 0, Matrix.identity(k))])
    incl = ChainMap(c, total, incl_comps)
    if not incl.is_quasi_iso(via="degreewise"):
        total_ok = False
    return CollapseReport(
        levels=n_levels, e1_matches_column=e1_ok, d1_pattern=d1_ok, total_matches=total_ok
    )
