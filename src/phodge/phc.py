"""p-adic Hodge complexes: glued diagrams rig -> k <- dR.

An object bundles a Frobenius complex (the rigid side), a filtered complex
(the de Rham side), a plain complex in the middle, and the two comparison
chain maps, which are not required to be quasi-isomorphisms.  Morphisms are
componentwise maps compatible with all structure.  Longer zigzag diagrams
collapse to this three-node shape through quasi-pushouts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .complexes import (
    ChainMap,
    Complex,
    TensorComplex,
    Truncation,
    cone,
    direct_sum,
    shift,
    shift_map,
    sum_inclusion,
    sum_map,
    sum_projection,
    tensor,
    tensor_map,
)
from .errors import PreconditionError, ValidationError
from .filtered import FilteredComplex, FilteredMap, Filtration, is_filtered_quasi_iso, jump_records, truncated_filtration
from .frames import CoefficientFrame
from .frobenius import FrobeniusComplex, sigma_matrix, twist_frobenius
from .linalg import Matrix, Subspace, assemble, hstack, kron, vstack


class PHodgeComplex:
    __slots__ = ("frame", "rig", "dr", "k", "c", "s")

    def __init__(
        self,
        frame: CoefficientFrame,
        rig: FrobeniusComplex,
        dr: FilteredComplex,
        k: Complex,
        c: ChainMap,
        s: ChainMap,
        *,
        check: bool = True,
    ):
        if check:
            if rig.frame != frame:
                raise ValidationError("rigid component frame mismatch")
            if c.source != rig.complex or c.target != k:
                raise ValidationError("comparison map c must run rig -> k")
            if s.source != dr.carrier or s.target != k:
                raise ValidationError("comparison map s must run dR -> k")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "rig", rig)
        object.__setattr__(self, "dr", dr)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "s", s)

    def __setattr__(self, *a):
        raise AttributeError("PHodgeComplex is immutable")

    def is_acyclic(self) -> bool:
        return (
            self.rig.complex.is_acyclic() and self.k.is_acyclic() and self.dr.carrier.is_acyclic()
        )


@dataclass(frozen=True)
class PHodgeMap:
    source: PHodgeComplex
    target: PHodgeComplex
    f_rig: ChainMap
    f_k: ChainMap
    f_dr: ChainMap

    def __post_init__(self):
        m, n = self.source, self.target
        if self.f_rig.source != m.rig.complex or self.f_rig.target != n.rig.complex:
            raise ValidationError("rig component endpoints mismatch")
        if self.f_k.source != m.k or self.f_k.target != n.k:
            raise ValidationError("k component endpoints mismatch")
        if self.f_dr.source != m.dr.carrier or self.f_dr.target != n.dr.carrier:
            raise ValidationError("dR component endpoints mismatch")
        # Frobenius equivariance: f∘phi = phi'∘sigma(f)
        for q in set(m.rig.complex.dims) | set(n.rig.complex.dims):
            lhs = self.f_rig.component(q) * m.rig.phi_at(q)
            rhs = n.rig.phi_at(q) * sigma_matrix(m.frame, self.f_rig.component(q))
            if lhs != rhs:
                raise ValidationError(f"map is not Frobenius-equivariant at degree {q}")
        # filtration preservation
        FilteredMap(m.dr, n.dr, self.f_dr)
        # comparison squares
        for q in set(m.rig.complex.dims) | set(m.k.dims):
            if self.f_k.component(q) * m.c.component(q) != n.c.component(q) * self.f_rig.component(q):
                raise ValidationError(f"c-square does not commute at degree {q}")
        for q in set(m.dr.carrier.dims) | set(m.k.dims):
            if self.f_k.component(q) * m.s.component(q) != n.s.component(q) * self.f_dr.component(q):
                raise ValidationError(f"s-square does not commute at degree {q}")

    @staticmethod
    def identity(m: PHodgeComplex) -> "PHodgeMap":
        return PHodgeMap(
            m, m, ChainMap.identity(m.rig.complex), ChainMap.identity(m.k), ChainMap.identity(m.dr.carrier)
        )

    def compose(self, first: "PHodgeMap") -> "PHodgeMap":
        return PHodgeMap(
            first.source,
            self.target,
            self.f_rig.compose(first.f_rig),
            self.f_k.compose(first.f_k),
            self.f_dr.compose(first.f_dr),
        )


def is_quasi_iso_phc(f: PHodgeMap) -> bool:
    return (
        f.f_rig.is_quasi_iso(via="degreewise")
        and f.f_k.is_quasi_iso(via="degreewise")
        and is_filtered_quasi_iso(FilteredMap(f.source.dr, f.target.dr, f.f_dr))
    )


def tate_object(frame: CoefficientFrame, n: int) -> PHodgeComplex:
    """The twist K(n): one-dimensional in degree 0, Frobenius p^{-n} sigma,
    filtration jump at -n."""
    single = Complex.single(0)
    phi = Matrix.identity(1).scale(Fraction(frame.p) ** (-n))
    rig = FrobeniusComplex(frame, single, {0: phi}, check=False)
    dr = FilteredComplex(single, Filtration({0: 1}, {0: [(-n, Subspace.full(1))]}), check=False)
    ident = ChainMap.identity(single)
    return PHodgeComplex(frame, rig, dr, single, ident, ident, check=False)


def unit_object(frame: CoefficientFrame) -> PHodgeComplex:
    return tate_object(frame, 0)


def is_unit_like(m: PHodgeComplex) -> bool:
    """One-dimensional in degree 0 with identity comparisons, phi = 1 and
    filtration jump at 0."""
    single = {0: 1}
    return (
        m.rig.complex.dims == single
        and m.k.dims == single
        and m.dr.carrier.dims == single
        and m.c.component(0) == Matrix.identity(1)
        and m.s.component(0) == Matrix.identity(1)
        and m.rig.phi_at(0) == Matrix.identity(1)
        and m.dr.filtration.jump_levels(0) == (0,)
    )


def _tensor_filtration(a: FilteredComplex, b: FilteredComplex, t: TensorComplex) -> Filtration:
    dims = dict(t.complex.dims)
    records: Dict[int, List[Tuple[int, Subspace]]] = {}
    for n, blocks in t.layout.blocks.items():
        total = t.complex.dim(n)
        candidates = set()
        for i, j, _, _ in blocks:
            for la in a.filtration.jump_levels(i):
                for lb in b.filtration.jump_levels(j):
                    candidates.add(la + lb)
        entry = []
        for level in sorted(candidates):
            # F^level is spanned by F^la (x) F^(level-la) in every block
            placed = []
            cols = 0
            for i, j, off, _ in blocks:
                for la in a.filtration.jump_levels(i):
                    sa = a.filtration.at(i, la)
                    sb = b.filtration.at(j, level - la)
                    if sa.dim and sb.dim:
                        placed.append((off, cols, kron(sa.basis, sb.basis)))
                        cols += sa.dim * sb.dim
            space = Subspace(total, assemble(total, cols, placed))
            if space.dim:
                entry.append((level, space))
        records[n] = jump_records(entry, total)
    return Filtration(dims, records)


def tensor_phc(m: PHodgeComplex, m2: PHodgeComplex) -> PHodgeComplex:
    if m.frame != m2.frame:
        raise ValidationError("tensor of p-adic Hodge complexes needs one frame")
    frame = m.frame
    t_rig = tensor(m.rig.complex, m2.rig.complex)
    t_k = tensor(m.k, m2.k)
    t_dr = tensor(m.dr.carrier, m2.dr.carrier)
    phi = {}
    for n, blocks in t_rig.layout.blocks.items():
        size = t_rig.complex.dim(n)
        phi[n] = assemble(size, size, [(off, off, kron(m.rig.phi_at(i), m2.rig.phi_at(j))) for i, j, off, _ in blocks])
    rig = FrobeniusComplex(frame, t_rig.complex, phi, check=False)
    dr = FilteredComplex(t_dr.complex, _tensor_filtration(m.dr, m2.dr, t_dr), check=False)
    c = tensor_map(m.c, m2.c)
    s = tensor_map(m.s, m2.s)
    # re-target onto the canonical tensor complexes
    c = ChainMap(t_rig.complex, t_k.complex, c.components, check=False)
    s = ChainMap(t_dr.complex, t_k.complex, s.components, check=False)
    return PHodgeComplex(frame, rig, dr, t_k.complex, c, s, check=False)


def twist(m: PHodgeComplex, n: int) -> PHodgeComplex:
    """m (x) K(n): Frobenius scaled by p^{-n}, filtration jumps shifted by -n."""
    rig = twist_frobenius(m.rig, -n)
    dr = m.dr.shift_levels(-n)
    return PHodgeComplex(m.frame, rig, dr, m.k, m.c, m.s, check=False)


def shift_phc(m: PHodgeComplex, k: int) -> PHodgeComplex:
    rig_c = shift(m.rig.complex, k)
    rig = FrobeniusComplex(m.frame, rig_c, {n - k: mat for n, mat in m.rig.phi.items()}, check=False)
    dr_c = shift(m.dr.carrier, k)
    recs = {n - k: list(m.dr.filtration.records.get(n, ())) for n in m.dr.carrier.dims}
    dr = FilteredComplex(dr_c, Filtration(dr_c.dims, recs), check=False)
    return PHodgeComplex(
        m.frame, rig, dr, shift(m.k, k), shift_map(m.c, k), shift_map(m.s, k), check=False
    )


def direct_sum_phc(parts: Sequence[PHodgeComplex]) -> PHodgeComplex:
    frame = parts[0].frame
    rig_total, rig_layout = direct_sum([p.rig.complex for p in parts])
    k_total, k_layout = direct_sum([p.k for p in parts])
    dr_total, dr_layout = direct_sum([p.dr.carrier for p in parts])
    phi = {}
    for n in rig_total.dims:
        size = rig_total.dim(n)
        blocks = [(rig_layout.offset(i, n), rig_layout.offset(i, n), p.rig.phi_at(n)) for i, p in enumerate(parts)]
        phi[n] = assemble(size, size, blocks)
    rig = FrobeniusComplex(frame, rig_total, phi, check=False)
    records: Dict[int, List[Tuple[int, Subspace]]] = {}
    for n in dr_total.dims:
        levels = set()
        for p in parts:
            levels.update(p.dr.filtration.jump_levels(n))
        entry = []
        for level in sorted(levels):
            placed = []
            cols = 0
            for idx, p in enumerate(parts):
                sp = p.dr.level(n, level)
                placed.append((dr_layout.offset(idx, n), cols, sp.basis))
                cols += sp.dim
            space = Subspace(dr_total.dim(n), assemble(dr_total.dim(n), cols, placed))
            if space.dim:
                entry.append((level, space))
        records[n] = jump_records(entry, dr_total.dim(n))
    dr = FilteredComplex(dr_total, Filtration(dict(dr_total.dims), records), check=False)
    c = sum_map(rig_total, rig_layout, k_total, k_layout, {(i, i): p.c for i, p in enumerate(parts)})
    s = sum_map(dr_total, dr_layout, k_total, k_layout, {(i, i): p.s for i, p in enumerate(parts)})
    return PHodgeComplex(frame, rig, dr, k_total, c, s, check=False)


def cone_phc(f: PHodgeMap) -> PHodgeComplex:
    """Componentwise mapping cone: the structure of f.target (+) f.source[1]
    on the three cone carriers."""
    split = direct_sum_phc([f.target, shift_phc(f.source, 1)])
    rig_cone, k_cone, dr_cone = (cone(g)[0] for g in (f.f_rig, f.f_k, f.f_dr))
    rig = FrobeniusComplex(split.frame, rig_cone, split.rig.phi, check=False)
    dr = FilteredComplex(dr_cone, split.dr.filtration, check=False)
    c = ChainMap(rig_cone, k_cone, split.c.components, check=False)
    s = ChainMap(dr_cone, k_cone, split.s.components, check=False)
    return PHodgeComplex(split.frame, rig, dr, k_cone, c, s, check=False)


def quasi_pushout(f: ChainMap, g: ChainMap) -> Tuple[Complex, ChainMap, ChainMap, Dict[int, Matrix]]:
    """Cone((f,-g): M2 -> M1 x M3) with the maps M1 -> Q <- M3 and the
    homotopy witnessing commutativity of the square up to homotopy."""
    if f.source != g.source:
        raise ValidationError("quasi-pushout needs a shared source")
    m2 = f.source
    m1, m3 = f.target, g.target
    prod, layout = direct_sum([m1, m3])
    comps = {}
    for n in m2.dims:
        comps[n] = vstack([f.component(n), -g.component(n)])
    fg = ChainMap(m2, prod, comps, check=False)
    q, incl, _ = cone(fg)
    i1 = sum_inclusion([m1, m3], prod, layout, 0)
    i3 = sum_inclusion([m1, m3], prod, layout, 1)
    map1 = incl.compose(i1)
    map3 = incl.compose(i3)
    homotopy = {}
    for n in m2.dims:
        # h: M2^n -> Q^{n-1} = (M1+M3)^{n-1} (+) M2^n, inclusion into the shifted slot
        homotopy[n] = assemble(q.dim(n - 1), m2.dim(n), [(prod.dim(n - 1), 0, Matrix.identity(m2.dim(n)))])
    return q, map1, map3, homotopy


def quasi_pullback(f: ChainMap, g: ChainMap) -> Tuple[Complex, ChainMap, ChainMap]:
    """Cone(f - g: M1 x M3 -> M2)[-1] with the projections to M1 and M3."""
    if f.target != g.target:
        raise ValidationError("quasi-pullback needs a shared target")
    m1, m3 = f.source, g.source
    m2 = f.target
    prod, layout = direct_sum([m1, m3])
    comps = {}
    for n in prod.dims:
        comps[n] = hstack([f.component(n), -g.component(n)])
    fg = ChainMap(prod, m2, comps, check=False)
    c, _, proj_shift = cone(fg)
    p = shift(c, -1)
    p1 = sum_projection([m1, m3], prod, layout, 0)
    p3 = sum_projection([m1, m3], prod, layout, 1)
    # P^n = M2^{n-1} (+) (M1+M3)^n ; project onto the product part
    comps1 = {}
    comps3 = {}
    for n in p.dims:
        sel = assemble(prod.dim(n), p.dim(n), [(0, m2.dim(n - 1), Matrix.identity(prod.dim(n)))])
        comps1[n] = p1.component(n) * sel
        comps3[n] = p3.component(n) * sel
    return p, ChainMap(p, m1, comps1, check=False), ChainMap(p, m3, comps3, check=False)


@dataclass(frozen=True)
class Zigzag:
    """Alternating diagram rig -> T1 <- B1 -> T2 <- ... <- dR.

    nodes[0] is a FrobeniusComplex, nodes[-1] a FilteredComplex, the interior
    nodes plain complexes.  arrows[i] joins nodes[i] and nodes[i+1]; even
    positions point forward, odd positions backward.  Backward arrows other
    than the last one must be flagged (and verified) quasi-isomorphisms for
    the collapse to preserve the middle homotopy type.
    """

    frame: CoefficientFrame
    nodes: Tuple
    arrows: Tuple[Tuple[str, ChainMap, bool], ...]

    def __post_init__(self):
        if len(self.nodes) < 3 or len(self.nodes) % 2 == 0:
            raise ValidationError("zigzag needs an odd number of nodes, at least 3")
        if len(self.arrows) != len(self.nodes) - 1:
            raise ValidationError("zigzag arrow count mismatch")
        if not isinstance(self.nodes[0], FrobeniusComplex) or not isinstance(self.nodes[-1], FilteredComplex):
            raise ValidationError("zigzag ends must carry the rigid and de Rham structures")
        for idx, (direction, arrow, flagged) in enumerate(self.arrows):
            expected = "fwd" if idx % 2 == 0 else "bwd"
            if direction != expected:
                raise ValidationError(f"zigzag arrow {idx} must point {expected}")
            left = self._carrier(idx)
            right = self._carrier(idx + 1)
            if direction == "fwd":
                if arrow.source != left or arrow.target != right:
                    raise ValidationError(f"zigzag arrow {idx} endpoints mismatch")
            else:
                if arrow.source != right or arrow.target != left:
                    raise ValidationError(f"zigzag arrow {idx} endpoints mismatch")
            if flagged and not arrow.is_quasi_iso(via="degreewise"):
                raise ValidationError(f"zigzag arrow {idx} is flagged but is not a quasi-isomorphism")

    def _carrier(self, idx: int) -> Complex:
        node = self.nodes[idx]
        if isinstance(node, FrobeniusComplex):
            return node.complex
        if isinstance(node, FilteredComplex):
            return node.carrier
        return node


def collapse_zigzag(z: Zigzag) -> PHodgeComplex:
    """Repeated quasi-pushout of the interior until three nodes remain."""
    nodes: List[Complex] = [z._carrier(i) for i in range(len(z.nodes))]
    arrows: List[Tuple[str, ChainMap, bool]] = list(z.arrows)
    for idx in range(1, len(arrows), 2):
        direction, arrow, flagged = arrows[idx]
        if idx != len(arrows) - 1 and not flagged and not arrow.is_quasi_iso(via="degreewise"):
            raise PreconditionError(f"interior backward arrow {idx} is not a quasi-isomorphism")
    while len(nodes) > 3:
        # collapse T <-f B -g-> T' at positions 1,2,3 into Q
        f = arrows[1][1]
        g = arrows[2][1]
        q, map1, map3, _ = quasi_pushout(f, g)
        new_c = map1.compose(arrows[0][1])
        if len(arrows) > 3:
            new_back = map3.compose(arrows[3][1])
            nodes = [nodes[0], q] + nodes[4:]
            arrows = [("fwd", new_c, arrows[0][2]), ("bwd", new_back, arrows[3][2])] + arrows[4:]
        else:
            nodes = [nodes[0], q, nodes[3]]
            arrows = [("fwd", new_c, arrows[0][2]), ("bwd", map3, True)]
    c = arrows[0][1]
    s = arrows[1][1]
    return PHodgeComplex(z.frame, z.nodes[0], z.nodes[-1], nodes[1], c, s, check=False)


def truncate_phc(m: PHodgeComplex, n: int, side: str) -> PHodgeComplex:
    """Componentwise canonical truncation (filtered truncation on the dR side)."""
    return phc_truncation(m, n, side)[0]


def phc_truncation(m: PHodgeComplex, n: int, side: str) -> Tuple[PHodgeComplex, Tuple[Truncation, ...]]:
    """truncate_phc with the truncations of the rig, k and dR components,
    whose maps are the canonical ones."""
    rig_t, k_t, dr_t = (Truncation(c, n, side) for c in (m.rig.complex, m.k, m.dr.carrier))
    rig = FrobeniusComplex(m.frame, rig_t.complex, rig_t.transport(m.rig.phi_at, rig_t), check=False)
    c = ChainMap(rig_t.complex, k_t.complex, rig_t.transport(m.c.component, k_t), check=False)
    s = ChainMap(dr_t.complex, k_t.complex, dr_t.transport(m.s.component, k_t), check=False)
    dr = truncated_filtration(m.dr, dr_t)
    return PHodgeComplex(m.frame, rig, dr, k_t.complex, c, s, check=False), (rig_t, k_t, dr_t)
