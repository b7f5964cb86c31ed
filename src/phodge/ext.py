"""Ext groups of p-adic Hodge complexes through the Hom-diagram mapping cone.

For a pair (M, M') six Hom complexes are formed: three "structure" nodes
(maps of the rigid parts, of the middle parts, and filtration-compatible maps
of the de Rham parts) and three "comparison" nodes.  The glue map between
their direct sums is a difference of two multiplicative maps; the shifted
cone of the glue computes Hom groups in the localized homotopy category, so
its cohomology gives the Ext groups.  The same difference structure drives
the interpolated cup products.

Maps between the direct sums are assembled blockwise by
``complexes.sum_map`` and maps between the shifted cones by
``complexes.shifted_cone_map``.  ``induced_map`` builds the map of cones
induced by a morphism in either argument: post-composition in the second, or
pre-composition in the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from .complexes import (
    ChainMap,
    cone,
    corestrict,
    direct_sum,
    hom_complex,
    shift,
    shifted_cone_map,
    subcomplex,
    sum_map,
    tensor,
)
from .errors import PreconditionError, ValidationError
from .linalg import Matrix, Subspace, assemble, kron, vstack
from .phc import PHodgeComplex, PHodgeMap, is_quasi_iso_phc, is_unit_like

ZERO = Fraction(0)
ONE = Fraction(1)


class FilteredHom:
    """The subcomplex of Hom(M_dR, M'_dR) of maps preserving every level.

    bases[n] is the degree-n subspace of the full Hom complex.  Its basis is
    block diagonal over the Hom slots, each block a kernel basis (or an
    identity), so every column has a unit row and the basis is kept as built
    (canonical=True).  complex and inclusion are the subcomplex they span.
    """

    __slots__ = ("full", "complex", "bases", "inclusion")

    def __init__(self, src, tgt):
        full = hom_complex(src.carrier, tgt.carrier)
        bases: Dict[int, Subspace] = {}
        for n in full.complex.dims:
            blocks = []
            cols = 0
            for q, r, c, off in full.slots(n):
                levels = set(src.filtration.jump_levels(q)) | set(tgt.filtration.jump_levels(q + n))
                slot_conditions = []
                for level in sorted(levels):
                    b = src.level(q, level).basis
                    t = tgt.level(q + n, level)
                    proj, _ = t.quotient()
                    if b.cols == 0 or proj.rows == 0:
                        continue
                    slot_conditions.append(kron(proj, b.transpose()))
                if slot_conditions:
                    kernel = vstack(slot_conditions).kernel_basis()
                else:
                    kernel = Matrix.identity(r * c)
                blocks.append((off, cols, kernel))
                cols += kernel.cols
            if cols:
                basis = assemble(full.complex.dim(n), cols, blocks)
                bases[n] = Subspace(full.complex.dim(n), basis, canonical=True)
        sub, incl = subcomplex(full.complex, bases)
        object.__setattr__(self, "full", full)
        object.__setattr__(self, "complex", sub)
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "inclusion", incl)

    def __setattr__(self, *a):
        raise AttributeError("FilteredHom is immutable")


class ExtComplex:
    """The Hom-diagram cone for a pair of p-adic Hodge complexes."""

    __slots__ = (
        "first",
        "second",
        "h_rr",
        "h_kk",
        "h_dd",
        "h_ff",
        "h_rk",
        "h_dk",
        "gamma0",
        "layout0",
        "gamma1",
        "layout1",
        "f_map",
        "g_map",
        "glue",
        "total",
    )

    def __init__(self, m: PHodgeComplex, m2: PHodgeComplex):
        if m.frame != m2.frame:
            raise ValidationError("Ext needs both objects over one frame")
        if not m.frame.sigma_is_identity:
            raise PreconditionError("Ext computation requires the identity automorphism")
        object.__setattr__(self, "first", m)
        object.__setattr__(self, "second", m2)
        h_rr = hom_complex(m.rig.complex, m2.rig.complex)
        h_kk = hom_complex(m.k, m2.k)
        ff = FilteredHom(m.dr, m2.dr)
        h_dd = ff.full
        h_rk = hom_complex(m.rig.complex, m2.k)
        h_dk = hom_complex(m.dr.carrier, m2.k)
        gamma0, layout0 = direct_sum([h_rr.complex, h_kk.complex, ff.complex])
        gamma1, layout1 = direct_sum([h_rr.complex, h_rk.complex, h_dk.complex])
        phi_src = ChainMap(m.rig.complex, m.rig.complex, dict(m.rig.phi), check=False)
        phi_tgt = ChainMap(m2.rig.complex, m2.rig.complex, dict(m2.rig.phi), check=False)
        # f: multiplicative on the comparison side
        f_blocks = {
            (0, 0): h_rr.post_compose(phi_tgt, h_rr),
            (1, 0): h_rr.post_compose(m2.c, h_rk),
            (2, 1): h_kk.pre_compose(m.s, h_dk),
        }
        # g: multiplicative on the structure side
        g_blocks = {
            (0, 0): h_rr.pre_compose(phi_src, h_rr),
            (1, 1): h_kk.pre_compose(m.c, h_rk),
            (2, 2): h_dd.post_compose(m2.s, h_dk).compose(ff.inclusion),
        }
        f_map = sum_map(gamma0, layout0, gamma1, layout1, f_blocks)
        g_map = sum_map(gamma0, layout0, gamma1, layout1, g_blocks)
        glue = ChainMap(
            gamma0, gamma1, {n: f_map.component(n) - g_map.component(n) for n in gamma0.dims}
        )
        total = shift(cone(glue)[0], -1)
        object.__setattr__(self, "h_rr", h_rr)
        object.__setattr__(self, "h_kk", h_kk)
        object.__setattr__(self, "h_dd", h_dd)
        object.__setattr__(self, "h_ff", ff)
        object.__setattr__(self, "h_rk", h_rk)
        object.__setattr__(self, "h_dk", h_dk)
        object.__setattr__(self, "gamma0", gamma0)
        object.__setattr__(self, "layout0", layout0)
        object.__setattr__(self, "gamma1", gamma1)
        object.__setattr__(self, "layout1", layout1)
        object.__setattr__(self, "f_map", f_map)
        object.__setattr__(self, "g_map", g_map)
        object.__setattr__(self, "glue", glue)
        object.__setattr__(self, "total", total)

    def __setattr__(self, *a):
        raise AttributeError("ExtComplex is immutable")

    # degree-n elements are (gamma1 part of degree n-1, gamma0 part of degree n)
    def split(self, n: int, vec: Sequence) -> Tuple[Tuple, Tuple]:
        k1 = self.gamma1.dim(n - 1)
        return tuple(vec[:k1]), tuple(vec[k1:])

    def join(self, n: int, g1: Sequence, g0: Sequence) -> Tuple:
        if len(g1) != self.gamma1.dim(n - 1) or len(g0) != self.gamma0.dim(n):
            raise ValidationError("element parts have wrong sizes")
        return tuple(g1) + tuple(g0)

    def ext_dim(self, n: int) -> int:
        return self.total.cohomology(n).dim

    def ext_dims(self) -> Dict[int, int]:
        return self.total.cohomology_dims()

    def classes(self, n: int):
        return self.total.cohomology(n)

    def differential(self, n: int) -> Matrix:
        return self.total.diff(n)


def ext(m: PHodgeComplex, m2: PHodgeComplex, n: int):
    """Dimension and representatives of the degree-n Ext group."""
    e = ExtComplex(m, m2)
    h = e.classes(n)
    return h.dim, h.representatives


def induced_map(e_src: ExtComplex, g: PHodgeMap, e_tgt: ExtComplex, *, contravariant: bool = False) -> ChainMap:
    """The map of Hom cones induced by g on every Hom node.

    By default g: m2 -> m3 acts by post-composition, Hom(m, m2) -> Hom(m, m3),
    and each node uses the component of g on its target side.  With
    contravariant=True, g: n_y -> n_x acts by pre-composition,
    Hom(n_x, p) -> Hom(n_y, p), and each node uses the component of g on its
    source side.
    """

    def node(name: str, f: ChainMap) -> ChainMap:
        src, tgt = getattr(e_src, name), getattr(e_tgt, name)
        return src.pre_compose(f, tgt) if contravariant else src.post_compose(f, tgt)

    # the comparison nodes Hom(rig, k) and Hom(dR, k) differ on their two sides
    f_rk, f_dk = (g.f_rig, g.f_dr) if contravariant else (g.f_k, g.f_k)
    rr = node("h_rr", g.f_rig)
    full_dd = node("h_dd", g.f_dr).compose(e_src.h_ff.inclusion)
    ff = corestrict(full_dd, e_tgt.h_ff.complex, e_tgt.h_ff.bases)
    blocks0 = {(0, 0): rr, (1, 1): node("h_kk", g.f_k), (2, 2): ff}
    blocks1 = {(0, 0): rr, (1, 1): node("h_rk", f_rk), (2, 2): node("h_dk", f_dk)}
    t0 = sum_map(e_src.gamma0, e_src.layout0, e_tgt.gamma0, e_tgt.layout0, blocks0)
    t1 = sum_map(e_src.gamma1, e_src.layout1, e_tgt.gamma1, e_tgt.layout1, blocks1)
    # square against the glue maps
    for n in e_src.gamma0.dims:
        if t1.component(n) * e_src.glue.component(n) != e_tgt.glue.component(n) * t0.component(n):
            raise ValidationError("induced map does not commute with the glue")
    return shifted_cone_map(t0, t1, e_src.total, e_tgt.total)


@dataclass
class InvarianceReport:
    is_quasi_iso: bool
    degrees: Dict[int, Tuple[int, int, bool]]

    @property
    def all_isomorphisms(self) -> bool:
        return self.is_quasi_iso and all(ok for _, _, ok in self.degrees.values())


def quasi_iso_invariance(m: PHodgeComplex, g: PHodgeMap, *, require: bool = True) -> InvarianceReport:
    """Check that a quasi-isomorphism of second arguments induces
    isomorphisms on every Ext group."""
    qi = is_quasi_iso_phc(g)
    if require and not qi:
        raise PreconditionError("the supplied morphism is not a quasi-isomorphism")
    e_src = ExtComplex(m, g.source)
    e_tgt = ExtComplex(m, g.target)
    t = induced_map(e_src, g, e_tgt)
    degrees = {}
    for n in sorted(set(e_src.total.dims) | set(e_tgt.total.dims)):
        d_src = e_src.ext_dim(n)
        d_tgt = e_tgt.ext_dim(n)
        ok = d_src == d_tgt
        if ok and d_src:
            ok = t.induced_on_cohomology(n).rank == d_src
        degrees[n] = (d_src, d_tgt, ok)
    return InvarianceReport(is_quasi_iso=qi, degrees=degrees)


def _require_unit_first(e: ExtComplex):
    if not is_unit_like(e.first):
        raise PreconditionError("cup products are implemented for the unit first argument")


def cup_product(
    e_m: ExtComplex,
    e_m2: ExtComplex,
    e_t: ExtComplex,
    a: int,
    u: Sequence,
    b: int,
    v: Sequence,
    alpha,
) -> Tuple:
    """The interpolated product of a degree-a and a degree-b element, landing
    in the cone for the componentwise tensor target.

    With theta = (1-alpha) f + alpha g acting on the left and the mirrored
    combination on the right, the chain-map law d(u.v) = du.v + (-1)^a u.dv
    holds identically; a property test pins it.
    """
    _require_unit_first(e_m)
    _require_unit_first(e_m2)
    _require_unit_first(e_t)
    alpha = Fraction(alpha)
    m, m2 = e_m.second, e_m2.second
    t_rig = tensor(m.rig.complex, m2.rig.complex)
    t_k = tensor(m.k, m2.k)
    t_dr = tensor(m.dr.carrier, m2.dr.carrier)
    if e_t.second.rig.complex.dims != t_rig.complex.dims:
        raise ValidationError("target cone is not the tensor of the factors")
    u1, u0 = e_m.split(a, u)
    v1, v0 = e_m2.split(b, v)
    fu = e_m.f_map.component(a).apply(u0)
    gu = e_m.g_map.component(a).apply(u0)
    fv = e_m2.f_map.component(b).apply(v0)
    gv = e_m2.g_map.component(b).apply(v0)
    theta_u = tuple(x * (1 - alpha) + y * alpha for x, y in zip(fu, gu))
    theta_v = tuple(x * alpha + y * (1 - alpha) for x, y in zip(fv, gv))
    w0 = _bullet(e_m, a, u0, e_m2, b, v0, e_t, t_rig, t_k, t_dr)
    sign = ONE if a % 2 == 0 else -ONE
    part1 = _boxtimes(e_m, a, theta_u, e_m2, b - 1, v1, e_t, t_rig, t_k)
    part2 = _boxtimes(e_m, a - 1, u1, e_m2, b, theta_v, e_t, t_rig, t_k)
    w1 = tuple(sign * x + y for x, y in zip(part1, part2))
    return e_t.join(a + b, w1, w0)


def _pieces(layout, n: int, vec: Sequence, sizes) -> Tuple:
    """The summands, of the given sizes, of a degree-n vector of a direct sum."""
    return tuple(tuple(vec[layout.offset(i, n) : layout.offset(i, n) + k]) for i, k in enumerate(sizes))


def _slice0(e: ExtComplex, n: int, vec: Sequence):
    """(rig part, k part, filtered part in ambient dR coordinates)."""
    x0, xk, xc = _pieces(e.layout0, n, vec, (e.second.rig.complex.dim(n), e.second.k.dim(n), e.h_ff.complex.dim(n)))
    xdr = e.h_ff.bases[n].basis.apply(xc) if xc else tuple([ZERO] * e.second.dr.carrier.dim(n))
    return x0, xk, xdr


def _slice1(e: ExtComplex, n: int, vec: Sequence):
    k = e.second.k.dim(n)
    return _pieces(e.layout1, n, vec, (e.second.rig.complex.dim(n), k, k))


def _tensor_blocks(layout, n: int, a: int, b: int, parts) -> list:
    """Each x (x) y of the (t, x, y) parts, in degree a + b of the tensor
    complex t, as a column block at its summand's offset in degree n."""
    return [
        (layout.offset(i, n), 0, Matrix.column(t.pure_tensor(a, x, b, y)))
        for i, (t, x, y) in enumerate(parts)
        if x and y and t.complex.dim(n)
    ]


def _bullet(e_m, a, u0, e_m2, b, v0, e_t, t_rig, t_k, t_dr) -> Tuple:
    x0, xk, xdr = _slice0(e_m, a, u0)
    y0, yk, ydr = _slice0(e_m2, b, v0)
    n = a + b
    blocks = _tensor_blocks(e_t.layout0, n, a, b, [(t_rig, x0, y0), (t_k, xk, yk)])
    if any(xdr) and any(ydr) and t_dr.complex.dim(n):
        space = e_t.h_ff.bases.get(n)
        coords = None if space is None else space.coords_of(t_dr.pure_tensor(a, xdr, b, ydr))
        if coords is None:
            raise ValidationError("tensor of filtered elements escapes the compatible subcomplex")
        blocks.append((e_t.layout0.offset(2, n), 0, Matrix.column(coords)))
    return assemble(e_t.gamma0.dim(n), 1, blocks).col_tuple(0)


def _boxtimes(e_m, a, z, e_m2, b, w, e_t, t_rig, t_k) -> Tuple:
    n = a + b
    dim = e_t.gamma1.dim(n)
    parts = zip((t_rig, t_k, t_k), _slice1(e_m, a, z), _slice1(e_m2, b, w)) if z and w and dim else ()
    return assemble(dim, 1, _tensor_blocks(e_t.layout1, n, a, b, parts)).col_tuple(0)


def unit_class(e: ExtComplex) -> Tuple:
    """The identity element of H^0 for the unit pair."""
    _require_unit_first(e)
    if not is_unit_like(e.second):
        raise PreconditionError("unit class lives in the cone of the unit pair")
    # ones at the start of the rig, k and filtered summands of the gamma0 part
    ones = {e.gamma1.dim(-1) + e.layout0.offset(i, 0) for i in range(3)}
    return tuple(ONE if t in ones else ZERO for t in range(e.total.dim(0)))
