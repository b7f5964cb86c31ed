"""Bar resolutions and sheaf cohomology on finite sites.

A site here is a finite poset; a sheaf assigns a space to every element with
a structure map F(x) -> F(y) whenever x <= y (the stalk along the minimal
open of x restricting to the smaller open of y).  Global sections form the
limit over the poset; its derived functors are computed three ways: the
truncated bar resolution of the points adjunction, the doubled resolution,
and an independent nerve (Cech-style) oracle over strict chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from .complexes import ChainMap, Complex, DoubleComplex, total_complex
from .errors import PreconditionError, ValidationError
from .linalg import Matrix, Subspace, assemble, kron, vstack


class FiniteSite:
    __slots__ = ("elements", "leq", "points", "hasse")

    def __init__(self, elements: Sequence[str], relations: Sequence[Tuple[str, str]], points: Sequence[str]):
        elements = tuple(sorted(set(elements)))
        above: Dict[str, set] = {x: set() for x in elements}
        for a, b in relations:
            if a not in above or b not in above:
                raise ValidationError(f"relation {a} <= {b} uses unknown elements")
            above[a].add(b)
        # up[x]: every element reachable from x along the relations, x included
        up: Dict[str, set] = {}
        for x in elements:
            seen, stack = {x}, [x]
            while stack:
                for y in above[stack.pop()] - seen:
                    seen.add(y)
                    stack.append(y)
            up[x] = seen
        for a in elements:
            for b in sorted(up[a]):
                if a != b and a in up[b]:
                    raise ValidationError(f"poset axioms violated: {a} and {b} are comparable both ways")
        points = tuple(sorted(set(points)))
        for p in points:
            if p not in elements:
                raise ValidationError(f"point {p} is not an element")
        # a < b is a Hasse edge when no element lies strictly between; taking
        # the strict up-set of a from the largest up-sets down meets every
        # element after all elements below it
        hasse = []
        for a in elements:
            reached = set()
            for b in sorted(up[a] - {a}, key=lambda y: -len(up[y])):
                if b not in reached:
                    hasse.append((a, b))
                    reached |= up[b]
        closure = {(x, y) for x in elements for y in up[x]}
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "leq", frozenset(closure))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "hasse", tuple(sorted(hasse)))

    def __setattr__(self, *a):
        raise AttributeError("FiniteSite is immutable")

    def le(self, a: str, b: str) -> bool:
        return (a, b) in self.leq

    def up(self, x: str) -> Tuple[str, ...]:
        return tuple(y for y in self.elements if self.le(x, y))

    def points_above(self, x: str) -> Tuple[str, ...]:
        return tuple(p for p in self.points if self.le(x, p))

    @property
    def height(self) -> int:
        """The length of the longest strict chain.  x < y makes the up-set of
        y a proper part of x's, so by ascending up-set size every element
        comes after the elements covering it; a longest chain runs along
        Hasse edges."""
        if not self.elements:
            return 0
        size = dict.fromkeys(self.elements, 0)
        for x, _ in self.leq:
            size[x] += 1
        covers: Dict[str, List[str]] = {x: [] for x in self.elements}
        for x, y in self.hasse:
            covers[x].append(y)
        depth: Dict[str, int] = {}
        for x in sorted(self.elements, key=size.__getitem__):
            depth[x] = 1 + max((depth[y] for y in covers[x]), default=0)
        return max(depth.values()) - 1

    @property
    def has_enough_points(self) -> bool:
        """Joint stalk functor conservative: every element must be a point
        (witnessed by the one-element indicator sheaves)."""
        return set(self.points) >= set(self.elements)

    def strict_chains(self, length: int) -> List[Tuple[str, ...]]:
        """All strictly increasing chains with `length + 1` vertices."""
        out = [(x,) for x in self.elements]
        for _ in range(length):
            nxt = []
            for chain in out:
                for y in self.elements:
                    if y != chain[-1] and self.le(chain[-1], y):
                        nxt.append(chain + (y,))
            out = nxt
        return sorted(out)


class Sheaf:
    """Functor on the poset: a space per element, a map per related pair."""

    __slots__ = ("site", "values", "maps", "_t")

    def __init__(self, site: FiniteSite, values: Dict[str, int], maps: Dict[Tuple[str, str], Matrix], *, check: bool = True):
        vals = {x: int(values.get(x, 0)) for x in site.elements}
        full: Dict[Tuple[str, str], Matrix] = {}
        for x in site.elements:
            full[(x, x)] = Matrix.identity(vals[x])
        known = dict(maps)
        # close over compositions along the order
        pairs = sorted((a, b) for (a, b) in site.leq if a != b)
        for a, b in pairs:
            if (vals[a] == 0 or vals[b] == 0) and (a, b) not in known:
                known[(a, b)] = Matrix.zeros(vals[b], vals[a])
        remaining = list(pairs)
        guard = len(remaining) * (len(remaining) + 2)
        while remaining and guard:
            guard -= 1
            a, b = remaining.pop(0)
            if (a, b) in known:
                m = known[(a, b)]
                if m.rows != vals[b] or m.cols != vals[a]:
                    raise ValidationError(f"sheaf map {a} -> {b} has the wrong shape")
                full[(a, b)] = m
                continue
            done = False
            for m_ in site.elements:
                if m_ != a and m_ != b and site.le(a, m_) and site.le(m_, b):
                    if (a, m_) in full and (m_, b) in full:
                        full[(a, b)] = full[(m_, b)] * full[(a, m_)]
                        done = True
                        break
            if not done:
                remaining.append((a, b))
        for a, b in pairs:
            if (a, b) not in full:
                raise ValidationError(f"sheaf map {a} -> {b} is neither given nor composable")
        object.__setattr__(self, "site", site)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "maps", full)
        object.__setattr__(self, "_t", None)
        if check:
            for a, b in pairs:
                for m_ in site.elements:
                    if m_ != a and m_ != b and site.le(a, m_) and site.le(m_, b):
                        if full[(m_, b)] * full[(a, m_)] != full[(a, b)]:
                            raise ValidationError(f"sheaf is not functorial along {a} <= {m_} <= {b}")

    def __setattr__(self, *a):
        raise AttributeError("Sheaf is immutable")

    def dim(self, x: str) -> int:
        return self.values[x]

    def map(self, a: str, b: str) -> Matrix:
        return self.maps[(a, b)]


def constant_sheaf(site: FiniteSite, dim: int = 1) -> Sheaf:
    return Sheaf(
        site,
        {x: dim for x in site.elements},
        {(a, b): Matrix.identity(dim) for (a, b) in site.leq if a != b},
        check=False,
    )


def indicator_sheaf(site: FiniteSite, at: str, dim: int = 1) -> Sheaf:
    """Supported on the downward closure of one element (maps to zero outside)."""
    values = {x: dim if site.le(x, at) else 0 for x in site.elements}
    maps = {}
    for (a, b) in site.leq:
        if a != b:
            if values[a] and values[b]:
                maps[(a, b)] = Matrix.identity(dim)
    return Sheaf(site, values, maps, check=False)


def tensor_sheaf(f: Sheaf, g: Sheaf) -> Sheaf:
    site = f.site
    values = {x: f.dim(x) * g.dim(x) for x in site.elements}
    maps = {}
    for (a, b) in site.leq:
        if a != b and values[a] and values[b]:
            maps[(a, b)] = kron(f.map(a, b), g.map(a, b))
    return Sheaf(site, values, maps, check=False)


class SheafMap:
    __slots__ = ("source", "target", "components")

    def __init__(self, source: Sheaf, target: Sheaf, components: Dict[str, Matrix], *, check: bool = True):
        self.source = source
        self.target = target
        self.components = components
        if check:
            site = source.site
            for x in site.elements:
                m = self.component(x)
                if m.rows != target.dim(x) or m.cols != source.dim(x):
                    raise ValidationError(f"sheaf map component at {x} has the wrong shape")
            for (a, b) in site.leq:
                if a != b:
                    lhs = target.map(a, b) * self.component(a)
                    rhs = self.component(b) * source.map(a, b)
                    if lhs != rhs:
                        raise ValidationError(f"sheaf map is not natural along {a} <= {b}")

    def component(self, x: str) -> Matrix:
        m = self.components.get(x)
        if m is None:
            return Matrix.zeros(self.target.dim(x), self.source.dim(x))
        return m

    def compose(self, first: "SheafMap") -> "SheafMap":
        comps = {x: self.component(x) * first.component(x) for x in self.source.site.elements}
        return SheafMap(first.source, self.target, comps, check=False)

    def add(self, other: "SheafMap") -> "SheafMap":
        comps = {x: self.component(x) + other.component(x) for x in self.source.site.elements}
        return SheafMap(self.source, self.target, comps, check=False)

    def __neg__(self) -> "SheafMap":
        return SheafMap(self.source, self.target, {x: -m for x, m in self.components.items()}, check=False)


def identity_map(f: Sheaf) -> SheafMap:
    return SheafMap(f, f, {x: Matrix.identity(f.dim(x)) for x in f.site.elements}, check=False)


# -- the points adjunction -------------------------------------------------

def stalk_family(f: Sheaf) -> Dict[str, int]:
    """u^*: restriction of a sheaf to the discrete point set."""
    return {p: f.dim(p) for p in f.site.points}


def pushforward_from_points(site: FiniteSite, family: Dict[str, int]) -> Sheaf:
    """u_*: the product of point values over the points above each element."""
    values = {x: sum(family.get(p, 0) for p in site.points_above(x)) for x in site.elements}
    maps = {}
    for (a, b) in site.leq:
        if a == b or not values[a] or not values[b]:
            continue
        offs_a = _point_offsets(site, family, a)
        blocks = [(off, offs_a[p][0], Matrix.identity(k)) for p, (off, k) in _point_offsets(site, family, b).items()]
        maps[(a, b)] = assemble(values[b], values[a], blocks)
    return Sheaf(site, values, maps, check=False)


def _offsets(sizes: Iterable[Tuple[Hashable, int]]) -> Tuple[Dict[Hashable, Tuple[int, int]], int]:
    """{key: (offset, dim)} of blocks of the given sizes laid end to end in
    order, and their total dimension."""
    offs = {}
    total = 0
    for key, k in sizes:
        offs[key] = (total, k)
        total += k
    return offs, total


def _point_offsets(site: FiniteSite, family: Dict[str, int], x: str) -> Dict[str, Tuple[int, int]]:
    return _offsets((p, family.get(p, 0)) for p in site.points_above(x))[0]


def t_sheaf(f: Sheaf) -> Sheaf:
    """T = u_* u^*, memoized on the sheaf itself so that the memo is freed
    with the sheaf."""
    if f._t is None:
        object.__setattr__(f, "_t", pushforward_from_points(f.site, stalk_family(f)))
    return f._t


def t_map(g: SheafMap) -> SheafMap:
    site = g.source.site
    src = t_sheaf(g.source)
    tgt = t_sheaf(g.target)
    fam_src = stalk_family(g.source)
    fam_tgt = stalk_family(g.target)
    comps = {}
    for x in site.elements:
        offs_s = _point_offsets(site, fam_src, x)
        offs_t = _point_offsets(site, fam_tgt, x)
        blocks = [(offs_t[p][0], offs_s[p][0], g.component(p)) for p in site.points_above(x)]
        comps[x] = assemble(tgt.dim(x), src.dim(x), blocks)
    return SheafMap(src, tgt, comps, check=False)


def unit_map(f: Sheaf) -> SheafMap:
    """eta: F -> TF, stacking the structure maps to the points above."""
    site = f.site
    tf = t_sheaf(f)
    comps = {}
    for x in site.elements:
        blocks = [f.map(x, p) for p in site.points_above(x)]
        comps[x] = vstack(blocks) if blocks else Matrix.zeros(0, f.dim(x))
    return SheafMap(f, tf, comps, check=False)


def multiplication_map(f: Sheaf) -> SheafMap:
    """mu = u_* eps u^*: T^2 F -> TF, projecting each point block onto its
    diagonal component."""
    site = f.site
    tf = t_sheaf(f)
    ttf = t_sheaf(tf)
    fam = stalk_family(f)
    comps = {}
    for x in site.elements:
        offs_outer = _point_offsets(site, stalk_family(tf), x)
        offs_target = _point_offsets(site, fam, x)
        blocks = []
        for p in site.points_above(x):
            # inside the block TF(p), select the p-component
            off_in_block, k = _point_offsets(site, fam, p)[p]
            blocks.append((offs_target[p][0], offs_outer[p][0] + off_in_block, Matrix.identity(k)))
        comps[x] = assemble(tf.dim(x), ttf.dim(x), blocks)
    return SheafMap(ttf, tf, comps, check=False)


def counit_components(f: Sheaf) -> Dict[str, Matrix]:
    """eps at each point: (TF)(p) -> F(p), projection to the p block."""
    site = f.site
    tf = t_sheaf(f)
    fam = stalk_family(f)
    out = {}
    for p in site.points:
        offs = _point_offsets(site, fam, p)
        off, k = offs[p]
        out[p] = assemble(k, tf.dim(p), [(0, off, Matrix.identity(k))])
    return out


def triangle_identities_hold(f: Sheaf) -> bool:
    """(eps u^*) (u^* eta) = id and (u_* eps) (eta u_*) = id, on this sheaf."""
    site = f.site
    eta = unit_map(f)
    eps = counit_components(f)
    for p in site.points:
        if eps[p] * eta.component(p) != Matrix.identity(f.dim(p)):
            return False
    tf = t_sheaf(f)
    eta_tf = unit_map(tf)
    mu = multiplication_map(f)
    for x in site.elements:
        if mu.component(x) * eta_tf.component(x) != Matrix.identity(tf.dim(x)):
            return False
    return True


# -- the bar resolution ----------------------------------------------------

class BarResolution:
    """Levels T^{n+1}F for n = 0..length with cofaces, codegeneracies, the
    associated complex, and the augmentation."""

    def __init__(self, f: Sheaf, length: Optional[int] = None):
        site = f.site
        if length is None:
            length = site.height + 2
        self.sheaf = f
        self.length = length
        levels = [t_sheaf(f)]
        for _ in range(length):
            levels.append(t_sheaf(levels[-1]))
        self.levels = levels  # levels[n] = T^{n+1} F
        towers = [f] + levels  # towers[k] = T^k F
        self.cofaces: Dict[Tuple[int, int], SheafMap] = {}
        self.codegeneracies: Dict[Tuple[int, int], SheafMap] = {}
        self.towers = towers
        for n in range(1, length + 1):
            # delta_i : T^n F -> T^{n+1} F, i = 0..n
            for i in range(n + 1):
                base = unit_map(towers[n - i])
                m = base
                for _ in range(i):
                    m = t_map(m)
                self.cofaces[(n, i)] = m
        self.augmentation = unit_map(f)
        # d^n = sum_i (-1)^i delta_i, summed at each element over the nonzero entries of the cofaces
        self.differentials: Dict[int, SheafMap] = {}
        for n in range(length):
            cofaces = [self.cofaces[(n + 1, i)] for i in range(n + 2)]
            comps = {}
            for x in site.elements:
                terms = [(0, 0, -g.component(x) if i % 2 else g.component(x)) for i, g in enumerate(cofaces)]
                comps[x] = assemble(towers[n + 2].dim(x), towers[n + 1].dim(x), terms, add=True)
            self.differentials[n] = SheafMap(towers[n + 1], towers[n + 2], comps, check=False)

    def level(self, n: int) -> Sheaf:
        return self.levels[n]

    def codegeneracy(self, n: int, i: int) -> SheafMap:
        """sigma_i : T^{n+2} F -> T^{n+1} F, built on demand."""
        key = (n, i)
        if key not in self.codegeneracies:
            m = multiplication_map(self.towers[n - i])
            for _ in range(i):
                m = t_map(m)
            self.codegeneracies[key] = m
        return self.codegeneracies[key]

    def differential(self, n: int) -> Optional[SheafMap]:
        return self.differentials.get(n)

    def cosimplicial_identities_hold(self) -> bool:
        L = self.length
        for n in range(2, L + 1):
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    lhs = self.cofaces[(n, j)].compose(self.cofaces[(n - 1, i)])
                    rhs = self.cofaces[(n, i)].compose(self.cofaces[(n - 1, j - 1)])
                    if not _same_map(lhs, rhs):
                        return False
        for n in range(L - 1):
            for i in range(n + 1):
                for j in range(i, n + 1):
                    lhs = self.codegeneracy(n, i).compose(self.codegeneracy(n + 1, j + 1))
                    rhs = self.codegeneracy(n, j).compose(self.codegeneracy(n + 1, i))
                    if not _same_map(lhs, rhs):
                        return False
        for n in range(L):
            for j in range(n + 1):
                for i in range(n + 2):
                    sd = self.codegeneracy(n, j).compose(self.cofaces[(n + 2 - 1, i)])
                    if i < j:
                        other = self.cofaces[(n, i)].compose(self.codegeneracy(n - 1, j - 1)) if n >= 1 and j >= 1 else None
                        if other is not None and not _same_map(sd, other):
                            return False
                    elif i in (j, j + 1):
                        ident = identity_map(self.levels[n])
                        if not _same_map(sd, ident):
                            return False
                    else:
                        other = self.cofaces[(n, i - 1)].compose(self.codegeneracy(n - 1, j)) if n >= 1 else None
                        if other is not None and not _same_map(sd, other):
                            return False
        return True

    def objectwise_quasi_iso(self, *, at_points_only: bool = False) -> bool:
        """Exactness of 0 -> F(x) -> G^0(x) -> ... in degrees < length."""
        site = self.sheaf.site
        where = site.points if at_points_only else site.elements
        for x in where:
            dims = {-1: self.sheaf.dim(x)}
            dmats = {}
            for n in range(self.length + 1):
                dims[n] = self.levels[n].dim(x)
            dmats[-1] = self.augmentation.component(x)
            for n in range(self.length):
                dmats[n] = self.differentials[n].component(x)
            aug = Complex({k + 1: v for k, v in dims.items() if v}, {k + 1: m for k, m in dmats.items()})
            for deg in range(0, self.length):
                if aug.cohomology(deg).dim:
                    return False
        return True


def _same_map(a: SheafMap, b: SheafMap) -> bool:
    return all(a.component(x) == b.component(x) for x in a.source.site.elements)


def bar_is_quasi_iso(f: Sheaf, length: Optional[int] = None) -> bool:
    return BarResolution(f, length).objectwise_quasi_iso()


def pullback_bar_is_quasi_iso(f: Sheaf, length: Optional[int] = None) -> bool:
    return BarResolution(f, length).objectwise_quasi_iso(at_points_only=True)


# -- global sections and cohomology ----------------------------------------

def sections(f: Sheaf) -> Tuple[Subspace, Dict[str, Tuple[int, int]]]:
    """lim over the poset as a subspace of the sum of values."""
    site = f.site
    offs, total = _offsets((x, f.dim(x)) for x in site.elements)
    return _compatible_families(f, site.hasse, offs, total), offs


def _compatible_families(f: Sheaf, edges, offs: Dict[str, Tuple[int, int]], total: int) -> Subspace:
    """Families (s_x) in the sum of values at offs with F(a <= b) s_a = s_b on every edge."""
    blocks = []
    rows = 0
    for a, b in edges:
        m = f.map(a, b)
        blocks += [(rows, offs[a][0], m), (rows, offs[b][0], -Matrix.identity(m.rows))]
        rows += m.rows
    if not rows:
        return Subspace.full(total)
    return Subspace(total, assemble(rows, total, blocks).kernel_basis())


def sections_map(g: SheafMap, src: Subspace, src_offs, tgt: Subspace, tgt_offs) -> Matrix:
    """g on families: its components placed block-diagonally at the offsets
    (every element of tgt_offs reads its own block of the source family),
    applied to the source basis, then read in the target basis."""
    blocks = [(toff, src_offs[x][0], g.component(x)) for x, (toff, _) in tgt_offs.items()]
    coords = tgt.coords_matrix(assemble(tgt.ambient_dim, src.ambient_dim, blocks) * src.basis)
    if coords is None:
        raise ValidationError("section image is not a section")
    return coords


def _sections_complex(secs: List[Tuple[Subspace, Dict]], diffs: Dict[int, SheafMap]) -> Complex:
    """The complex of global sections, from each level's ``sections``."""
    dims = {n: s[0].dim for n, s in enumerate(secs) if s[0].dim}
    d = {}
    for n, g in diffs.items():
        if dims.get(n, 0) and dims.get(n + 1, 0):
            d[n] = sections_map(g, secs[n][0], secs[n][1], secs[n + 1][0], secs[n + 1][1])
    return Complex(dims, d)


def _sections_double_complex(
    grid: Dict[Tuple[int, int], Sheaf],
    dh_maps: Dict[Tuple[int, int], SheafMap],
    dv_maps: Dict[Tuple[int, int], SheafMap],
    max_degree: int,
) -> Dict[int, int]:
    """Cohomology dimensions up to max_degree of the total complex of the
    sections of a grid of sheaves.

    dh_maps[(i, j)] runs from grid[(i, j)] to grid[(i + 1, j)] and
    dv_maps[(i, j)] to grid[(i, j + 1)], and the squares commute.
    """
    secs = {ij: sections(f) for ij, f in grid.items()}
    spaces = {ij: s.dim for ij, (s, _) in secs.items()}
    dh = {(i, j): sections_map(g, *secs[(i, j)], *secs[(i + 1, j)]) for (i, j), g in dh_maps.items()}
    dv = {(i, j): sections_map(g, *secs[(i, j)], *secs[(i, j + 1)]) for (i, j), g in dv_maps.items()}
    total, _ = total_complex(DoubleComplex.commuting(spaces, dh, dv))
    return {q: total.cohomology(q).dim for q in range(0, max_degree + 1)}


def nerve_cohomology(f: Sheaf, max_degree: Optional[int] = None) -> Dict[int, int]:
    """The independent oracle: the strict-chain cochain complex with values
    F(top of chain)."""
    site = f.site
    if max_degree is None:
        max_degree = site.height
    chain_levels = [site.strict_chains(k) for k in range(max_degree + 2)]
    dims = {}
    offsets: List[Dict[Tuple[str, ...], Tuple[int, int]]] = []
    for k, chains in enumerate(chain_levels):
        offs, total = _offsets((ch, f.dim(ch[-1])) for ch in chains)
        offsets.append(offs)
        if total:
            dims[k] = total
    d = {}
    for k in range(len(chain_levels) - 1):
        if not dims.get(k, 0) or not dims.get(k + 1, 0):
            continue
        blocks = []
        for ch, (roff, rdim) in offsets[k + 1].items():
            for i in range(len(ch)):
                omitted = ch[:i] + ch[i + 1 :]
                coff, cdim = offsets[k][omitted]
                # dropping the top of the chain restricts along F; any other face keeps the value
                m = Matrix.identity(rdim) if i < len(ch) - 1 else f.map(omitted[-1], ch[-1])
                blocks.append((roff, coff, m if i % 2 == 0 else -m))
        d[k] = assemble(dims[k + 1], dims[k], blocks)
    c = Complex(dims, d)
    return {q: c.cohomology(q).dim for q in range(0, max_degree + 1)}


def gd_cohomology(f: Sheaf, length: Optional[int] = None, max_degree: Optional[int] = None) -> Dict[int, int]:
    site = f.site
    if not site.has_enough_points:
        raise PreconditionError("the bar-resolution route needs enough points")
    if max_degree is None:
        max_degree = site.height
    bar = BarResolution(f, length)
    c = _sections_complex([sections(lv) for lv in bar.levels], bar.differentials)
    return {q: c.cohomology(q).dim for q in range(0, max_degree + 1)}


def gd2_cohomology(f: Sheaf, length: Optional[int] = None, max_degree: Optional[int] = None) -> Dict[int, int]:
    """Sections of the doubled resolution: the bar resolution applied to each
    level of the bar resolution, totalized.

    Levels are truncated at total degree max_degree + 1, which is enough for
    the reported range; the three-route agreement test pins correctness.
    """
    site = f.site
    if not site.has_enough_points:
        raise PreconditionError("the bar-resolution route needs enough points")
    if max_degree is None:
        max_degree = site.height
    cap = length if length is not None else max_degree + 1
    inner = BarResolution(f, cap)
    grid: Dict[Tuple[int, int], Sheaf] = {}
    dh: Dict[Tuple[int, int], SheafMap] = {}
    dv: Dict[Tuple[int, int], SheafMap] = {}
    for b in range(cap + 1):
        column = BarResolution(inner.levels[b], cap - b)
        for a in range(cap - b + 1):
            grid[(b, a)] = column.levels[a]
            if a < cap - b and column.differential(a) is not None:
                dv[(b, a)] = column.differential(a)
    # horizontal differentials: T^{a+1} of the inner bar differential
    for b in range(cap):
        lifted = inner.differential(b)
        if lifted is None:
            continue
        for a in range(cap - b):
            lifted = t_map(lifted)
            dh[(b, a)] = lifted
    return _sections_double_complex(grid, dh, dv, max_degree)


def sheaf_cohomology(f: Sheaf, via: str = "cech", **kw) -> Dict[int, int]:
    if via == "cech":
        return nerve_cohomology(f, **kw)
    if via == "gd":
        return gd_cohomology(f, **kw)
    if via == "gd2":
        return gd2_cohomology(f, **kw)
    raise ValidationError("via must be 'gd', 'gd2' or 'cech'")


# -- functoriality along a map of sites -------------------------------------

@dataclass(frozen=True)
class SiteMap:
    """A monotone map of posets carrying points to points."""

    source: FiniteSite
    target: FiniteSite
    assignment: Dict[str, str]

    def __post_init__(self):
        for x in self.source.elements:
            if x not in self.assignment or self.assignment[x] not in self.target.elements:
                raise ValidationError(f"site map undefined or out of range at {x}")
        for (a, b) in self.source.leq:
            if not self.target.le(self.assignment[a], self.assignment[b]):
                raise ValidationError(f"site map is not monotone on {a} <= {b}")
        for p in self.source.points:
            if self.assignment[p] not in self.target.points:
                raise ValidationError(f"site map does not carry point {p} to a point")

    def fiber_over(self, y: str) -> Tuple[str, ...]:
        return tuple(x for x in self.source.elements if self.target.le(y, self.assignment[x]))


class Pushforward:
    """f_* F as a sheaf on the target, with the limit bases remembered."""

    def __init__(self, fmap: SiteMap, f: Sheaf):
        self.site_map = fmap
        self.sheaf_on_source = f
        tgt = fmap.target
        src = fmap.source
        bases: Dict[str, Tuple[Subspace, Dict[str, Tuple[int, int]]]] = {}
        values = {}
        for y in tgt.elements:
            offs, total = _offsets((x, f.dim(x)) for x in fmap.fiber_over(y))
            edges = [(a, b) for (a, b) in src.hasse if a in offs and b in offs]
            space = _compatible_families(f, edges, offs, total)
            bases[y] = (space, offs)
            values[y] = space.dim
        # restriction along y1 <= y2 keeps the components over the smaller fiber
        ident = identity_map(f)
        maps = {}
        for (y1, y2) in tgt.leq:
            if y1 == y2 or not values[y1] or not values[y2]:
                continue
            maps[(y1, y2)] = sections_map(ident, *bases[y1], *bases[y2])
        self.sheaf = Sheaf(tgt, values, maps, check=False)
        self.bases = bases

    def of_map(self, g: SheafMap, other: "Pushforward") -> SheafMap:
        """f_* applied to g: F -> F' (other = pushforward of F')."""
        tgt = self.site_map.target
        comps = {y: sections_map(g, *self.bases[y], *other.bases[y]) for y in tgt.elements}
        return SheafMap(self.sheaf, other.sheaf, comps)


def base_change_map(fmap: SiteMap, h: Sheaf) -> SheafMap:
    """The canonical T_Y(f_* H) -> f_*(T_X H)."""
    push_h = Pushforward(fmap, h)
    src = t_sheaf(push_h.sheaf)
    push_th = Pushforward(fmap, t_sheaf(h))
    tgt = push_th.sheaf
    Y = fmap.target
    X = fmap.source
    fam_inner = stalk_family(h)
    comps = {}
    for y in Y.elements:
        # block q of the source: points q above y, coordinates inside (f_*H)(q)
        outer_offs = _point_offsets(Y, stalk_family(push_h.sheaf), y)
        s2, o2 = push_th.bases[y]
        blocks = []
        for x, (off_x, _) in o2.items():
            # component at x: block p for the points p of X above x, read off the family of block f(p)
            for p, (ioff, ik) in _point_offsets(X, fam_inner, x).items():
                q = fmap.assignment[p]
                if q not in outer_offs:
                    continue
                s1, o1 = push_h.bases[q]
                poff = o1[p][0]
                blocks.append((off_x + ioff, outer_offs[q][0], s1.basis.block(poff, 0, ik, s1.dim)))
        coords = s2.coords_matrix(assemble(s2.ambient_dim, src.dim(y), blocks))
        if coords is None:
            raise ValidationError("base change image is not compatible")
        comps[y] = coords
    return SheafMap(src, tgt, comps)


@dataclass
class FunctorialityReport:
    levels: int
    commutes_with_differentials: bool
    commutes_with_augmentations: bool
    induced_h0: Matrix

    @property
    def passed(self) -> bool:
        return self.commutes_with_differentials and self.commutes_with_augmentations


def gd_functorial(fmap: SiteMap, f_sheaf: Sheaf, a: SheafMap, length: Optional[int] = None) -> FunctorialityReport:
    """The canonical levelwise map Gd(G) -> f_* Gd(F) lifting a: G -> f_* F,
    verified against differentials and augmentations.

    f_sheaf lives on the source site; a runs from a sheaf on the target site
    into Pushforward(fmap, f_sheaf).sheaf.
    """
    Y = fmap.target
    G = a.source
    if length is None:
        length = max(Y.height, fmap.source.height) + 1
    bar_g = BarResolution(G, length)
    bar_f = BarResolution(f_sheaf, length)
    towers_f = [f_sheaf] + bar_f.levels  # towers_f[k] = T^k F
    pushes = [Pushforward(fmap, lv) for lv in towers_f]
    # kappa_n : T_Y^n G -> f_* T_X^n F, built by whiskering and base change
    kappas: List[SheafMap] = [a]
    for n in range(length + 1):
        lifted = t_map(kappas[-1])
        chi = base_change_map(fmap, towers_f[n])
        kappas.append(chi.compose(lifted))
    ok_diff = True
    for n in range(length):
        left = kappas[n + 2].compose(bar_g.differentials[n])
        right = pushes[n + 1].of_map(bar_f.differentials[n], pushes[n + 2]).compose(kappas[n + 1])
        if not _same_map(left, right):
            ok_diff = False
            break
    aug_left = kappas[1].compose(bar_g.augmentation)
    aug_right = pushes[0].of_map(bar_f.augmentation, pushes[1]).compose(a)
    ok_aug = _same_map(aug_left, aug_right)
    # induced map on degree-0 cohomology of the section complexes
    src_secs = [sections(lv) for lv in bar_g.levels]
    tgt_secs = [sections(p.sheaf) for p in pushes[1:]]
    src_complex = _sections_complex(src_secs, bar_g.differentials)
    tgt_diffs = {n: pushes[n + 1].of_map(bar_f.differentials[n], pushes[n + 2]) for n in range(length)}
    tgt_complex = _sections_complex(tgt_secs, tgt_diffs)
    comps = {}
    for n in range(length + 1):
        if src_secs[n][0].dim or tgt_secs[n][0].dim:
            comps[n] = sections_map(kappas[n + 1], src_secs[n][0], src_secs[n][1], tgt_secs[n][0], tgt_secs[n][1])
    level_map = ChainMap(src_complex, tgt_complex, comps)
    h0 = level_map.induced_on_cohomology(0)
    return FunctorialityReport(
        levels=length,
        commutes_with_differentials=ok_diff,
        commutes_with_augmentations=ok_aug,
        induced_h0=h0,
    )


# -- tensor compatibility ----------------------------------------------------

def lax_tensor_map(f: Sheaf, g: Sheaf) -> SheafMap:
    """t: TF (x) TG -> T(F (x) G), selecting matching point blocks."""
    site = f.site
    tf, tg = t_sheaf(f), t_sheaf(g)
    src = tensor_sheaf(tf, tg)
    fg = tensor_sheaf(f, g)
    tgt = t_sheaf(fg)
    fam_f = stalk_family(f)
    fam_g = stalk_family(g)
    fam_fg = stalk_family(fg)
    comps = {}
    for x in site.elements:
        offs_f = _point_offsets(site, fam_f, x)
        offs_g = _point_offsets(site, fam_g, x)
        blocks = []
        for p, (to, _) in _point_offsets(site, fam_fg, x).items():
            fo, fk = offs_f[p]
            go, gk = offs_g[p]
            sel_f = assemble(fk, tf.dim(x), [(0, fo, Matrix.identity(fk))])
            sel_g = assemble(gk, tg.dim(x), [(0, go, Matrix.identity(gk))])
            blocks.append((to, 0, kron(sel_f, sel_g)))
        comps[x] = assemble(tgt.dim(x), src.dim(x), blocks)
    return SheafMap(src, tgt, comps)


def tensor_sheaf_map(u: SheafMap, v: SheafMap) -> SheafMap:
    src = tensor_sheaf(u.source, v.source)
    tgt = tensor_sheaf(u.target, v.target)
    comps = {}
    for x in src.site.elements:
        comps[x] = kron(u.component(x), v.component(x))
    return SheafMap(src, tgt, comps, check=False)


@dataclass
class TensorCompatReport:
    levels: int
    chain_map: bool
    augmentation_compatible: bool
    objectwise_quasi_iso: bool
    sections_left: Dict[int, int]
    sections_right: Dict[int, int]

    @property
    def passed(self) -> bool:
        return self.chain_map and self.augmentation_compatible and self.objectwise_quasi_iso


def gd_tensor(f: Sheaf, g: Sheaf, length: Optional[int] = None) -> TensorCompatReport:
    """The canonical map Gd(F) (x) Gd(G) -> Gd(F (x) G): last cofaces on the
    first factor, zeroth cofaces on the second, then the iterated lax tensor
    structure of the points monad.  Verified to be a chain map compatible
    with the augmentations and an objectwise quasi-isomorphism."""
    site = f.site
    if not site.has_enough_points:
        raise PreconditionError("the tensor comparison needs enough points")
    if length is None:
        length = site.height + 1
    fg = tensor_sheaf(f, g)
    bar_f = BarResolution(f, length)
    bar_g = BarResolution(g, length)
    bar_fg = BarResolution(fg, length)
    towers_f = [f] + bar_f.levels
    towers_g = [g] + bar_g.levels
    # m_n : T^n F (x) T^n G -> T^n (F (x) G)
    m_cache: Dict[int, SheafMap] = {}

    def m_power(n: int) -> SheafMap:
        if n not in m_cache:
            if n == 1:
                m_cache[n] = lax_tensor_map(f, g)
            else:
                prev = m_power(n - 1)
                m_cache[n] = t_map(prev).compose(lax_tensor_map(towers_f[n - 1], towers_g[n - 1]))
        return m_cache[n]

    def delta_last_chain(a: int, count: int) -> SheafMap:
        out = identity_map(towers_f[a + 1])
        for k in range(a + 1, a + count + 1):
            out = bar_f.cofaces[(k, k)].compose(out)
        return out

    def delta_first_chain(b: int, count: int) -> SheafMap:
        out = identity_map(towers_g[b + 1])
        for k in range(b + 1, b + count + 1):
            out = bar_g.cofaces[(k, 0)].compose(out)
        return out

    phis: Dict[Tuple[int, int], SheafMap] = {}
    for a in range(length + 1):
        for b in range(length + 1 - a):
            left = delta_last_chain(a, b)
            right = delta_first_chain(b, a)
            phis[(a, b)] = m_power(a + b + 1).compose(tensor_sheaf_map(left, right))
    # chain-map law against the Koszul-signed tensor differential
    chain_ok = True
    for a in range(length):
        for b in range(length - a):
            lhs = bar_fg.differentials[a + b].compose(phis[(a, b)])
            t1 = phis[(a + 1, b)].compose(tensor_sheaf_map(bar_f.differentials[a], identity_map(towers_g[b + 1])))
            t2 = phis[(a, b + 1)].compose(
                tensor_sheaf_map(identity_map(towers_f[a + 1]), bar_g.differentials[b])
            )
            rhs = t1.add(t2 if a % 2 == 0 else -t2)
            if not _same_map(lhs, rhs):
                chain_ok = False
    aug = phis[(0, 0)].compose(tensor_sheaf_map(bar_f.augmentation, bar_g.augmentation))
    aug_ok = _same_map(aug, bar_fg.augmentation)
    # the product grid Gd(F)^a (x) Gd(G)^b, truncated at a + b = length
    grid = {}
    dh = {}
    dv = {}
    for a in range(length + 1):
        for b in range(length + 1 - a):
            grid[(a, b)] = tensor_sheaf(towers_f[a + 1], towers_g[b + 1])
            if a + b < length:
                dh[(a, b)] = tensor_sheaf_map(bar_f.differentials[a], identity_map(towers_g[b + 1]))
                dv[(a, b)] = tensor_sheaf_map(identity_map(towers_f[a + 1]), bar_g.differentials[b])
    # objectwise quasi-isomorphism in degrees < length: at each x the total
    # complex of the grid has H^0 = (F (x) G)(x) and no higher cohomology
    quasi_ok = True
    for x in site.elements:
        at_x = DoubleComplex.commuting(
            {ab: s.dim(x) for ab, s in grid.items()},
            {ab: g.component(x) for ab, g in dh.items()},
            {ab: g.component(x) for ab, g in dv.items()},
            check=False,
        )
        src, _ = total_complex(at_x)
        if src.cohomology(0).dim != fg.dim(x):
            quasi_ok = False
        for deg in range(1, length):
            if src.cohomology(deg).dim:
                quasi_ok = False
    # section-level dimensions on both sides
    left = _sections_double_complex(grid, dh, dv, site.height)
    right = gd_cohomology(fg, length=length, max_degree=site.height)
    return TensorCompatReport(
        levels=length,
        chain_map=chain_ok,
        augmentation_compatible=aug_ok,
        objectwise_quasi_iso=quasi_ok,
        sections_left=left,
        sections_right=right,
    )
