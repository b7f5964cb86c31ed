"""Absolute (syntomic-style) cohomology of geometric data.

A geometric datum bundles the cohomological shadow of a smooth scheme: the
ordinary and compact-support p-adic Hodge complexes, a chain-level pairing
between them, the trace identification in top degree, and verified flags.
On top of it live the twisted unit cones and their long exact sequences,
absolute homology, cup products, the duality isomorphism built from the
pairing, and the wrong-way maps obtained by conjugating with duality.

The unit cone, the duality machine's three-slot cone and the Hom cone of
``ext`` are each the shifted cone of a map between direct sums.  Every map
into, out of or between them is assembled by the ``complexes`` primitives
(``sum_map``, ``sum_inclusion``, ``sum_projection``, the triangle maps of
``cone`` and ``shifted_cone_map``), so no summand offset is computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .complexes import (
    ChainMap,
    Complex,
    cone,
    corestrict,
    direct_sum,
    shift,
    shift_map,
    shifted_cone_map,
    sum_inclusion,
    sum_map,
    sum_projection,
    tensor,
)
from .errors import PreconditionError, ValidationError
from .ext import ExtComplex, cup_product, induced_map
from .filtered import FilteredComplex, Filtration, level_subcomplex
from .frames import CoefficientFrame
from .frobenius import FrobeniusComplex
from .linalg import Matrix, Subspace, assemble, hstack, kron, vstack
from .phc import (
    PHodgeComplex,
    PHodgeMap,
    phc_truncation,
    shift_phc,
    tate_object,
    tensor_phc,
    twist,
    unit_object,
)


class SyntomicCone:
    """The twisted unit cone: Cone(M0 (+) F^n M_dR -> M0 (+) M_K)[-1] with
    first map p^{-n} phi - id and second c - s."""

    __slots__ = (
        "phc",
        "twist",
        "a_complex",
        "a_layout",
        "b_complex",
        "b_layout",
        "fsub",
        "fsub_incl",
        "eta",
        "triangle",
        "total",
    )

    def __init__(self, m: PHodgeComplex, n: int):
        if not m.frame.sigma_is_identity:
            raise PreconditionError("the unit cone requires the identity automorphism")
        fsub, fsub_incl = level_subcomplex(m.dr, n)
        a_complex, a_layout = direct_sum([m.rig.complex, fsub])
        b_complex, b_layout = direct_sum([m.rig.complex, m.k])
        blocks = {(0, 0): _phi_minus_one(m, n), (1, 0): m.c, (1, 1): -m.s.compose(fsub_incl)}
        eta = ChainMap(a_complex, b_complex, sum_map(a_complex, a_layout, b_complex, b_layout, blocks).components)
        triangle = cone(eta)
        object.__setattr__(self, "phc", m)
        object.__setattr__(self, "twist", n)
        object.__setattr__(self, "a_complex", a_complex)
        object.__setattr__(self, "a_layout", a_layout)
        object.__setattr__(self, "b_complex", b_complex)
        object.__setattr__(self, "b_layout", b_layout)
        object.__setattr__(self, "fsub", fsub)
        object.__setattr__(self, "fsub_incl", fsub_incl)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "triangle", triangle)
        object.__setattr__(self, "total", shift(triangle[0], -1))

    def __setattr__(self, *a):
        raise AttributeError("SyntomicCone is immutable")

    def dim(self, q: int) -> int:
        return self.total.cohomology(q).dim

    def dims(self) -> Dict[int, int]:
        return self.total.cohomology_dims()

    def projection_to_sum(self) -> ChainMap:
        """total -> A, the shifted cone's projection B^{q-1} (+) A^q -> A^q."""
        return shift_map(self.triangle[2], -1)

    def inclusion_of_shifted(self) -> ChainMap:
        """B[-1] -> total."""
        return shift_map(self.triangle[1], -1)


def _phi_minus_one(m: PHodgeComplex, n: int) -> ChainMap:
    """p^{-n} phi - id on the rigid complex of m."""
    c = m.rig.complex
    p_pow = Fraction(m.frame.p) ** (-n)
    comps = {q: m.rig.phi_at(q).scale(p_pow) - Matrix.identity(c.dim(q)) for q in c.dims}
    return ChainMap(c, c, comps, check=False)


def syntomic_complex(m: PHodgeComplex, n: int) -> SyntomicCone:
    return SyntomicCone(m, n)


def unit_cone_matches_ext(m: PHodgeComplex, n: int) -> Tuple[bool, Dict[int, Tuple[int, int]]]:
    """Degreewise comparison of the unit-cone cohomology with the Hom-cone
    cohomology of the twisted object, through the explicit collapse map."""
    u = SyntomicCone(m, n)
    e = ExtComplex(unit_object(m.frame), twist(m, n))
    cmp_map = ext_to_unit_cone(e, u)
    table = {}
    ok = True
    for q in sorted(set(u.total.dims) | set(e.total.dims) | {0}):
        du, de = u.dim(q), e.ext_dim(q)
        table[q] = (de, du)
        if du != de:
            ok = False
    if ok:
        ok = cmp_map.is_quasi_iso(via="degreewise")
    return ok, table


def ext_to_unit_cone(e: ExtComplex, u: SyntomicCone) -> ChainMap:
    """The collapse map from the six-node cone to the two-node cone: forget
    the middle Hom slot on the structure row, fold the two comparison slots.

    On the structure row (x0, xK, xF) -> (x0, xF); on the comparison row
    (z0, zK, zK') -> (z0, zK + zK').
    """
    m = u.phc
    id_rig, id_k = ChainMap.identity(m.rig.complex), ChainMap.identity(m.k)
    levels = {q: m.dr.level(q, u.twist) for q in m.dr.carrier.dims}
    ff_to_fsub = corestrict(e.h_ff.inclusion, u.fsub, levels)
    t0 = sum_map(e.gamma0, e.layout0, u.a_complex, u.a_layout, {(0, 0): id_rig, (1, 2): ff_to_fsub})
    t1 = sum_map(e.gamma1, e.layout1, u.b_complex, u.b_layout, {(0, 0): id_rig, (1, 1): id_k, (1, 2): id_k})
    return shifted_cone_map(t0, t1, e.total, u.total, check=True)


@dataclass
class SequenceJoint:
    degree: int
    position: str
    composite_zero: bool
    exact: bool


@dataclass
class LESReport:
    variant: str
    twist: int
    terms: Dict[int, Tuple[int, int, int]]
    joints: List[SequenceJoint]

    @property
    def exact(self) -> bool:
        return all(j.composite_zero and j.exact for j in self.joints)


def long_exact_sequence(u: SyntomicCone, variant: str = "rigid") -> LESReport:
    """The cohomology sequence of the unit cone u, rewritten through the
    specialization (variant 'rigid', needs c a quasi-isomorphism) or the
    cospecialization (variant 'derham', needs s a quasi-isomorphism)."""
    m, n = u.phc, u.twist
    if variant == "rigid":
        comp = m.c
    elif variant == "derham":
        comp = m.s
    else:
        raise ValidationError("variant must be 'rigid' or 'derham'")
    if not comp.is_quasi_iso(via="degreewise"):
        raise PreconditionError(f"the comparison map for variant '{variant}' is not a quasi-isomorphism")
    p_pow = Fraction(m.frame.p) ** (-n)
    proj = u.projection_to_sum()
    incl = u.inclusion_of_shifted()
    a_parts, b_parts = [m.rig.complex, u.fsub], [m.rig.complex, m.k]
    to_rig = sum_projection(a_parts, u.a_complex, u.a_layout, 0)
    to_f = u.fsub_incl.compose(sum_projection(a_parts, u.a_complex, u.a_layout, 1))
    from_rig = sum_inclusion(b_parts, u.b_complex, u.b_layout, 0)
    from_k = sum_inclusion(b_parts, u.b_complex, u.b_layout, 1)
    degrees = sorted(set(u.total.dims) | set(u.a_complex.dims) | {0})
    lo, hi = min(degrees), max(degrees)
    terms: Dict[int, Tuple[int, int, int]] = {}
    maps_a: Dict[int, Matrix] = {}
    maps_b: Dict[int, Matrix] = {}
    maps_c: Dict[int, Matrix] = {}
    for q in range(lo - 1, hi + 2):
        h_u = u.total.cohomology(q)
        h_a = u.a_complex.cohomology(q)
        h0 = m.rig.complex.cohomology(q)
        h_k = m.k.cohomology(q)
        h_other = h0 if variant == "rigid" else m.dr.carrier.cohomology(q)
        terms[q] = (h_u.dim, h_a.dim, h0.dim + h_other.dim)
        # H^q(total) -> H^q(A)
        maps_a[q] = h_a.class_matrix(proj.component(q) * h_u.representatives)
        # H^q(A) -> H^q(M0) (+) H^q(other) through the normalized maps
        x0 = to_rig.component(q) * h_a.representatives
        xf = to_f.component(q) * h_a.representatives
        x0_class = h0.class_matrix(x0)
        first = (m.rig.induced_on_cohomology(q).scale(p_pow) - Matrix.identity(h0.dim)) * x0_class
        if variant == "rigid":
            cstar = h_k.class_matrix(m.c.component(q) * h0.representatives)
            second = x0_class - cstar.inverse() * h_k.class_matrix(m.s.component(q) * xf)
        else:
            sstar = h_k.class_matrix(m.s.component(q) * h_other.representatives)
            second = sstar.inverse() * h_k.class_matrix(m.c.component(q) * x0) - h_other.class_matrix(xf)
        maps_b[q] = vstack([first, second])
        # H^q(M0) (+) H^q(other) -> H^{q+1}(total): representatives (z, 0) and (0, comp(z))
        z_other = comp.component(q) * h_other.representatives
        vecs = hstack([from_rig.component(q) * h0.representatives, from_k.component(q) * z_other])
        maps_c[q] = u.total.cohomology(q + 1).class_matrix(incl.component(q + 1) * vecs)
    joints: List[SequenceJoint] = []
    for q in range(lo, hi + 1):
        joints.append(_joint(q, "sum", maps_a[q], maps_b[q]))
        joints.append(_joint(q, "target", maps_b[q], maps_c[q]))
        joints.append(_joint(q, "cone", maps_c[q], maps_a[q + 1]))
    return LESReport(variant=variant, twist=n, terms={q: terms[q] for q in sorted(terms)}, joints=joints)


def _joint(q: int, position: str, incoming: Matrix, outgoing: Matrix) -> SequenceJoint:
    # exactness: rank(incoming) = dim ker(outgoing) = cols(outgoing) - rank(outgoing)
    composite_zero = (outgoing * incoming).is_zero()
    exact = incoming.rank == outgoing.cols - outgoing.rank
    return SequenceJoint(degree=q, position=position, composite_zero=composite_zero, exact=exact)


@dataclass(frozen=True)
class PairingData:
    rig: Dict[int, Matrix]
    k: Dict[int, Matrix]
    dr: Dict[int, Matrix]


@dataclass(frozen=True)
class TraceData:
    rig: Matrix
    k: Matrix
    dr: Matrix


@dataclass(frozen=True)
class DatumFlags:
    c_quasi_iso: bool
    s_quasi_iso: bool
    phi_invertible: bool


class GeometricDatum:
    """Named cohomological stand-in for a smooth scheme of dimension d."""

    __slots__ = ("name", "d", "frame", "rgamma", "rgamma_c", "pairing", "trace", "flags", "_pairing_map")

    def __init__(
        self,
        name: str,
        d: int,
        frame: CoefficientFrame,
        rgamma: PHodgeComplex,
        rgamma_c: PHodgeComplex,
        pairing: PairingData,
        trace: TraceData,
        flags: DatumFlags,
    ):
        if d < 0:
            raise ValidationError("relative dimension must be nonnegative")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "rgamma", rgamma)
        object.__setattr__(self, "rgamma_c", rgamma_c)
        object.__setattr__(self, "pairing", pairing)
        object.__setattr__(self, "trace", trace)
        object.__setattr__(self, "flags", flags)
        object.__setattr__(self, "_pairing_map", None)
        self._validate()

    def __setattr__(self, *a):
        raise AttributeError("GeometricDatum is immutable")

    def _validate(self):
        n = self.rgamma_c
        # flags are claims; verify them
        if self.flags.c_quasi_iso != self.rgamma.c.is_quasi_iso(via="degreewise"):
            raise ValidationError("flag c_quasi_iso does not match the datum")
        if self.flags.s_quasi_iso != self.rgamma.s.is_quasi_iso(via="degreewise"):
            raise ValidationError("flag s_quasi_iso does not match the datum")
        inv = all(
            self.rgamma.rig.induced_on_cohomology(q).rank == self.rgamma.rig.complex.cohomology(q).dim
            for q in self.rgamma.rig.complex.dims
        ) and all(
            n.rig.induced_on_cohomology(q).rank == n.rig.complex.cohomology(q).dim
            for q in n.rig.complex.dims
        )
        if self.flags.phi_invertible != inv:
            raise ValidationError("flag phi_invertible does not match the datum")
        # the pairing is a morphism of p-adic Hodge complexes
        self.pairing_map()
        # trace identifies H^{2d} with the twisted unit line
        top = 2 * self.d
        for label, comp, t in (
            ("rig", n.rig.complex, self.trace.rig),
            ("k", n.k, self.trace.k),
            ("dr", n.dr.carrier, self.trace.dr),
        ):
            h = comp.cohomology(top)
            if h.dim != 1:
                raise ValidationError(f"H^{top} of the {label} compact-support component must be a line")
            if t.rows != 1 or t.cols != comp.dim(top):
                raise ValidationError(f"trace component {label} has the wrong shape")
            if not (t * comp.diff(top - 1)).is_zero():
                raise ValidationError(f"trace component {label} does not kill coboundaries")
            if (t * h.representatives).is_zero():
                raise ValidationError(f"trace component {label} vanishes on the top class ({label} square)")
        # Frobenius eigenvalue p^d on the trace line
        z = n.rig.complex.cohomology(top).representatives
        p_d = Fraction(self.frame.p) ** self.d
        if self.trace.rig * n.rig.phi_at(top) * z != (self.trace.rig * z).scale(p_d):
            raise ValidationError("trace line does not have Frobenius eigenvalue p^d (rig square)")
        # compatibility squares with c and s on cocycles
        zk = n.k.cohomology(top)
        z0 = n.rig.complex.cohomology(top).cocycles.basis
        if self.trace.k * n.c.component(top) * z0 != self.trace.rig * z0:
            raise ValidationError("trace does not commute with the comparison map (c square)")
        zdr = n.dr.carrier.cohomology(top).cocycles.basis
        if self.trace.k * n.s.component(top) * zdr != self.trace.dr * zdr:
            raise ValidationError("trace does not commute with the comparison map (s square)")
        # filtration jump of the trace line at level d (inside the cocycles)
        zdr_sub = n.dr.carrier.cohomology(top)
        fl = n.dr.level(top, self.d).intersect(zdr_sub.cocycles)
        if zdr_sub.class_matrix(fl.basis).is_zero():
            raise ValidationError("trace line filtration does not reach level d")
        flp = n.dr.level(top, self.d + 1).intersect(zdr_sub.cocycles)
        if not zdr_sub.class_matrix(flp.basis).is_zero():
            raise ValidationError("trace line filtration does not vanish above level d")
        flp_full = n.dr.level(top, self.d + 1)
        if flp_full.dim and (self.trace.dr * flp_full.basis).rank:
            raise ValidationError("trace functional does not kill F^{d+1}")

    def pairing_map(self) -> PHodgeMap:
        """The pairing as a validated morphism (RGamma (x) RGamma_c) -> RGamma_c."""
        if self._pairing_map is None:
            t = tensor_phc(self.rgamma, self.rgamma_c)
            f_rig = ChainMap(t.rig.complex, self.rgamma_c.rig.complex, dict(self.pairing.rig))
            f_k = ChainMap(t.k, self.rgamma_c.k, dict(self.pairing.k))
            f_dr = ChainMap(t.dr.carrier, self.rgamma_c.dr.carrier, dict(self.pairing.dr))
            object.__setattr__(self, "_pairing_map", PHodgeMap(t, self.rgamma_c, f_rig, f_k, f_dr))
        return self._pairing_map

    def twisted_pairing_map(self, i: int, j: int) -> PHodgeMap:
        t = tensor_phc(twist(self.rgamma, i), twist(self.rgamma_c, j))
        tgt = twist(self.rgamma_c, i + j)
        f_rig = ChainMap(t.rig.complex, tgt.rig.complex, dict(self.pairing.rig), check=False)
        f_k = ChainMap(t.k, tgt.k, dict(self.pairing.k), check=False)
        f_dr = ChainMap(t.dr.carrier, tgt.dr.carrier, dict(self.pairing.dr), check=False)
        return PHodgeMap(t, tgt, f_rig, f_k, f_dr)


def abs_cohomology(x: GeometricDatum, q: int, i: int) -> Tuple[int, Matrix]:
    u = SyntomicCone(x.rgamma, i)
    h = u.total.cohomology(q)
    return h.dim, h.representatives


def abs_cohomology_compact(x: GeometricDatum, q: int, i: int) -> Tuple[int, Matrix]:
    u = SyntomicCone(x.rgamma_c, i)
    h = u.total.cohomology(q)
    return h.dim, h.representatives


def homology_complex(x: GeometricDatum, i: int) -> ExtComplex:
    """The Hom cone of (RGamma_c, K(-i)), whose H^{-q} is H_q^abs(X, i)."""
    return ExtComplex(x.rgamma_c, tate_object(x.frame, -i))


def abs_homology(x: GeometricDatum, q: int, i: int) -> int:
    return homology_complex(x, i).ext_dim(-q)


def cup_absolute(
    x: GeometricDatum, q: int, i: int, r: int, j: int, *, alpha=0
) -> Dict[str, object]:
    """The induced pairing H^q_abs(X, i) x H^r_abs,c(X, j) -> H^{q+r}_abs,c(X, i+j).

    Returns the target dimension and, per pair of basis classes, the class
    coordinates of the product.
    """
    unit = unit_object(x.frame)
    e1 = ExtComplex(unit, twist(x.rgamma, i))
    e2 = ExtComplex(unit, twist(x.rgamma_c, j))
    e_t = ExtComplex(unit, tensor_phc(twist(x.rgamma, i), twist(x.rgamma_c, j)))
    e_out = ExtComplex(unit, twist(x.rgamma_c, i + j))
    push = induced_map(e_t, x.twisted_pairing_map(i, j), e_out)
    h1 = e1.classes(q)
    h2 = e2.classes(r)
    h_out = e_out.classes(q + r)
    pairs = [(a_idx, b_idx) for a_idx in range(h1.dim) for b_idx in range(h2.dim)]
    products = Matrix.from_columns(
        e_t.total.dim(q + r),
        [
            cup_product(e1, e2, e_t, q, h1.representatives.col_tuple(a_idx), r, h2.representatives.col_tuple(b_idx), alpha)
            for a_idx, b_idx in pairs
        ],
    )
    classes = h_out.class_matrix(push.component(q + r) * products)
    table = {pair: classes.col_tuple(k) for k, pair in enumerate(pairs)}
    return {"target_dim": h_out.dim, "products": table, "source_dims": (h1.dim, h2.dim)}


def _perfect_pairing_checks(x: GeometricDatum) -> None:
    """Nondegeneracy of the induced cohomology pairings against the trace."""
    top = 2 * x.d
    pm = x.pairing_map()
    for label, comp_m, comp_n, pi, tr in (
        ("rig", x.rgamma.rig.complex, x.rgamma_c.rig.complex, x.pairing.rig, x.trace.rig),
        ("dr", x.rgamma.dr.carrier, x.rgamma_c.dr.carrier, x.pairing.dr, x.trace.dr),
    ):
        t = tensor(comp_m, comp_n)
        for a in comp_m.dims:
            b = top - a
            if not comp_n.dim(b):
                if comp_m.cohomology(a).dim:
                    raise PreconditionError(f"pairing degenerate: {label} degree {a} has no partner")
                continue
            hm = comp_m.cohomology(a)
            hn = comp_n.cohomology(b)
            if hm.dim != hn.dim:
                raise PreconditionError(f"pairing degenerate: {label} degrees {a},{b} have different ranks")
            if hm.dim == 0:
                continue
            # column s * hn.dim + t is the pure tensor of representatives s and t
            off, _ = t.layout.offset(top, a)
            pure = assemble(t.complex.dim(top), hm.dim * hn.dim, [(off, 0, kron(hm.representatives, hn.representatives))])
            pairing = pi.get(top, Matrix.zeros(comp_n.dim(top), t.complex.dim(top)))
            g = (tr * pairing * pure).reshape(hm.dim, hn.dim)
            if g.rank != hm.dim:
                raise PreconditionError(f"pairing degenerate on {label} cohomology in degree {a}")


@dataclass
class DualityReport:
    name: str
    degree: int
    twist: int
    lhs_dim: int
    rhs_dim: int
    steps: Dict[str, bool]
    iso_matrix: Optional[Matrix]

    @property
    def passed(self) -> bool:
        return (
            self.lhs_dim == self.rhs_dim
            and all(self.steps.values())
            and (self.lhs_dim == 0 or (self.iso_matrix is not None and self.iso_matrix.rank == self.lhs_dim))
        )


class DualityMachine:
    """Builds the chain of comparison maps realizing duality for one twist."""

    def __init__(self, x: GeometricDatum, i: int):
        if not x.flags.phi_invertible:
            raise PreconditionError("duality requires the Frobenius to be invertible on cohomology")
        top = 2 * x.d
        n = x.rgamma_c
        for label, comp in (("rig", n.rig.complex), ("k", n.k), ("dr", n.dr.carrier)):
            for q in comp.dims:
                if q > top and comp.cohomology(q).dim:
                    raise PreconditionError(f"compact-support {label} cohomology above degree {top}")
        _perfect_pairing_checks(x)
        self.x = x
        self.i = i
        self.top = top
        self.unit = unit_object(x.frame)
        self.u = SyntomicCone(x.rgamma, i)
        self.e_gamma = ExtComplex(self.unit, twist(x.rgamma, i))
        self.collapse = ext_to_unit_cone(self.e_gamma, self.u)
        self.steps: Dict[str, bool] = {}
        self.steps["gamma_to_cone_quasi_iso"] = self.collapse.is_quasi_iso(via="degreewise")
        self._build_modified()
        self._build_truncation_chain()
        self._build_pairing_map()

    # -- the modified three-slot cone ------------------------------------
    def _build_modified(self):
        m = self.x.rgamma
        fsub, fsub_incl = level_subcomplex(m.dr, self.i)
        a_complex, a_layout = direct_sum([m.rig.complex, m.dr.carrier, fsub])
        b_complex, b_layout = direct_sum([m.rig.complex, m.k, m.dr.carrier])
        blocks = {
            (0, 0): _phi_minus_one(m, self.i),
            (1, 0): m.c,
            (1, 1): -m.s,
            (2, 1): ChainMap.identity(m.dr.carrier),
            (2, 2): -fsub_incl,
        }
        psi_prime = ChainMap(a_complex, b_complex, sum_map(a_complex, a_layout, b_complex, b_layout, blocks).components)
        self.m_a, self.m_a_layout, self.m_b, self.m_b_layout = a_complex, a_layout, b_complex, b_layout
        self.m_fsub_incl = fsub_incl
        self.psi_prime = psi_prime
        self.modified = shift(cone(psi_prime)[0], -1)
        # comparison (id, s, id) / (id, id, s) into the Hom-cone realization
        e = self.e_gamma
        id_rig = ChainMap.identity(m.rig.complex)
        fsub_to_ff = corestrict(fsub_incl, e.h_ff.complex, e.h_ff.bases)
        # A' = M0 + M_dR + F^i -> Gamma0 = M0 + M_K + F-slot
        t0 = sum_map(a_complex, a_layout, e.gamma0, e.layout0, {(0, 0): id_rig, (1, 1): m.s, (2, 2): fsub_to_ff})
        # B' = M0 + M_K + M_dR -> Gamma1 = M0 + M_K + M_K
        t1_blocks = {(0, 0): id_rig, (1, 1): ChainMap.identity(m.k), (2, 2): m.s}
        t1 = sum_map(b_complex, b_layout, e.gamma1, e.layout1, t1_blocks)
        self.modified_to_gamma = shifted_cone_map(t0, t1, self.modified, e.total, check=True)
        self.steps["modified_to_gamma_quasi_iso"] = self.modified_to_gamma.is_quasi_iso(via="degreewise")

    # -- truncation and trace chain on the compact-support side ----------
    def _build_truncation_chain(self):
        x, i = self.x, self.i
        n = x.rgamma_c
        top = self.top
        p1_raw, self.trunc_p1 = phc_truncation(n, top, "ge")
        self.p1 = twist(p1_raw, i)
        # tau_{<= top} of p1_raw: kernel model at degree top
        p2_raw, trunc_p2 = phc_truncation(p1_raw, top, "le")
        self.p2 = twist(p2_raw, i)
        self.p2_to_p1 = PHodgeMap(self.p2, self.p1, *(t.map for t in trunc_p2))
        # the class object: H^{top} in degree top
        h_rig = n.rig.complex.cohomology(top)
        h_k = n.k.cohomology(top)
        h_dr = n.dr.carrier.cohomology(top)
        class_complexes = {
            "rig": Complex({top: h_rig.dim}, {}),
            "k": Complex({top: h_k.dim}, {}),
            "dr": Complex({top: h_dr.dim}, {}),
        }
        phi_h = n.rig.induced_on_cohomology(top).scale(Fraction(x.frame.p) ** (-i))
        rig3 = FrobeniusComplex(x.frame, class_complexes["rig"], {top: phi_h}, check=False)
        c3 = ChainMap(
            class_complexes["rig"],
            class_complexes["k"],
            {top: h_k.class_matrix(n.c.component(top) * h_rig.representatives)},
            check=False,
        )
        s3 = ChainMap(
            class_complexes["dr"],
            class_complexes["k"],
            {top: h_k.class_matrix(n.s.component(top) * h_dr.representatives)},
            check=False,
        )
        dr3_filtration = Filtration(
            {top: h_dr.dim}, {top: [(x.d - i, Subspace.full(h_dr.dim))]}
        )
        dr3 = FilteredComplex(class_complexes["dr"], dr3_filtration, check=False)
        self.p3 = PHodgeComplex(x.frame, rig3, dr3, class_complexes["k"], c3, s3, check=False)
        # quotient map p2 -> p3: classes of the kernel model at degree top
        q_maps = [
            ChainMap(t.complex, c3, {top: h.class_matrix(t.map.component(top))}, check=False)
            for t, h, c3 in zip(trunc_p2, (h_rig, h_k, h_dr), class_complexes.values())
        ]
        self.p2_to_p3 = PHodgeMap(self.p2, self.p3, *q_maps)
        # trace map p3 -> K(i-d)[-top]
        self.p4 = shift_phc(tate_object(x.frame, i - x.d), -top)
        t_rig = {top: x.trace.rig * h_rig.representatives}
        t_k = {top: x.trace.k * h_k.representatives}
        t_dr = {top: x.trace.dr * h_dr.representatives}
        self.p3_to_p4 = PHodgeMap(
            self.p3,
            self.p4,
            ChainMap(self.p3.rig.complex, self.p4.rig.complex, t_rig, check=False),
            ChainMap(self.p3.k, self.p4.k, t_k, check=False),
            ChainMap(self.p3.dr.carrier, self.p4.dr.carrier, t_dr, check=False),
        )
        self.e_p1 = ExtComplex(n, self.p1)
        self.e_p2 = ExtComplex(n, self.p2)
        self.e_p3 = ExtComplex(n, self.p3)
        self.e_p4 = ExtComplex(n, self.p4)
        self.map_21 = induced_map(self.e_p2, self.p2_to_p1, self.e_p1)
        self.map_23 = induced_map(self.e_p2, self.p2_to_p3, self.e_p3)
        self.map_34 = induced_map(self.e_p3, self.p3_to_p4, self.e_p4)
        self.steps["truncation_inclusion_quasi_iso"] = self.map_21.is_quasi_iso(via="degreewise")
        self.steps["class_quotient_quasi_iso"] = self.map_23.is_quasi_iso(via="degreewise")
        self.steps["trace_quasi_iso"] = self.map_34.is_quasi_iso(via="degreewise")
        # the shifted Hom cone agrees with the homology realization
        self.e_hom = homology_complex(x, x.d - i)
        same = all(
            self.e_p4.total.dim(q) == self.e_hom.total.dim(q - 2 * x.d)
            and self.e_p4.total.diff(q) == self.e_hom.total.diff(q - 2 * x.d)
            for q in set(self.e_p4.total.dims) | {q + 2 * x.d for q in self.e_hom.total.dims}
        )
        self.steps["shift_identification"] = same

    # -- the pairing map from the modified cone into Hom(N, P1) ----------
    def _build_pairing_map(self):
        x = self.x
        m, n = x.rgamma, x.rgamma_c
        e1 = self.e_p1
        trunc_rig, trunc_k, trunc_dr = (t.map for t in self.trunc_p1)
        rig = (x.pairing.rig, tensor(m.rig.complex, n.rig.complex), trunc_rig)
        k = (x.pairing.k, tensor(m.k, n.k), trunc_k)
        dr = (x.pairing.dr, tensor(m.dr.carrier, n.dr.carrier), trunc_dr)
        phi = {q: n.rig.phi_at(q) for q in n.rig.complex.dims}
        c_maps = {q: n.c.component(q) for q in n.rig.complex.dims}
        s_maps = {q: n.s.component(q) for q in n.dr.carrier.dims}
        dd = _pairing_slot(e1.h_dd, *dr).compose(self.m_fsub_incl)
        alpha_blocks = {
            (0, 0): _pairing_slot(e1.h_rr, *rig),
            (1, 1): _pairing_slot(e1.h_kk, *k).compose(m.s),
            (2, 2): corestrict(dd, e1.h_ff.complex, e1.h_ff.bases),
        }
        beta_blocks = {
            (0, 0): _pairing_slot(e1.h_rr, *rig, phi),
            (1, 1): _pairing_slot(e1.h_rk, *k, c_maps),
            (2, 2): _pairing_slot(e1.h_dk, *k, s_maps).compose(m.s),
        }
        alpha = sum_map(self.m_a, self.m_a_layout, e1.gamma0, e1.layout0, alpha_blocks)
        beta = sum_map(self.m_b, self.m_b_layout, e1.gamma1, e1.layout1, beta_blocks)
        # square against the two glue maps, then assemble the cone map
        square_ok = True
        for q in self.m_a.dims:
            lhs = e1.glue.component(q) * alpha.component(q)
            rhs = beta.component(q) * self.psi_prime.component(q)
            if lhs != rhs:
                square_ok = False
        self.steps["pairing_square"] = square_ok
        self.duality_map = shifted_cone_map(alpha, beta, self.modified, e1.total, check=True)
        self.steps["duality_map_quasi_iso"] = self.duality_map.is_quasi_iso(via="degreewise")

    def report(self, q: int) -> DualityReport:
        x, i = self.x, self.i
        lhs = self.u.total.cohomology(q)
        rhs_dim = self.e_hom.ext_dim(q - 2 * x.d)
        # matrices on cohomology
        collapse = self.collapse.induced_on_cohomology(q)
        mod = self.modified_to_gamma.induced_on_cohomology(q)
        dual = self.duality_map.induced_on_cohomology(q)
        m21 = self.map_21.induced_on_cohomology(q)
        m23 = self.map_23.induced_on_cohomology(q)
        m34 = self.map_34.induced_on_cohomology(q)
        iso = None
        ok = True
        try:
            inv_collapse = collapse.inverse() if collapse.rows else collapse
            inv_mod = mod.inverse() if mod.rows else mod
            inv_21 = m21.inverse() if m21.rows else m21
            w = m34 * m23 * inv_21 * dual * inv_mod * inv_collapse
            iso = w
        except ValidationError:
            ok = False
        steps = dict(self.steps)
        steps["cohomology_chain_invertible"] = ok
        return DualityReport(
            name=x.name,
            degree=q,
            twist=i,
            lhs_dim=lhs.dim,
            rhs_dim=rhs_dim,
            steps=steps,
            iso_matrix=iso,
        )


def _pairing_slot(hom_node, pairing: Dict[int, Matrix], t, trunc: ChainMap, pre_maps=None) -> ChainMap:
    """_pairing_hom in every degree of the tensor's left factor, as a
    degreewise map into the hom node."""
    comps = {a: _pairing_hom(hom_node, a, pairing, t, trunc, pre_maps) for a in t.a.dims}
    return ChainMap(t.a, hom_node.complex, comps, check=False)


def _pairing_hom(hom_node, a: int, pairing: Dict[int, Matrix], t, trunc: ChainMap, pre_maps=None) -> Matrix:
    """The matrix of x -> (y -> trunc(pairing(x (x) pre(y)))) from degree a
    of the tensor's left factor into the hom node's degree-a coordinates.

    pre_maps (per source degree) are applied to y first; for the beta slots
    they are the Frobenius or a comparison map, and a slot without one stays
    zero.  In a slot (q, r, c), column k is the k-th r x c piece of
    trunc * pairing on the (a, q) tensor block, packed row-major.
    """
    left = t.a.dim(a)
    blocks = []
    for q, r, c, off in hom_node.slots(a):
        pre = None
        if pre_maps is not None:
            pre = pre_maps.get(q)
            if pre is None:
                continue
        found = t.layout.offset(a + q, a)
        pi = pairing.get(a + q)
        if found is None or pi is None:
            continue
        boff, bsize = found
        g = trunc.component(a + q) * pi.block(0, boff, pi.rows, bsize)
        if pre is not None:
            g = g * kron(Matrix.identity(left), pre)
        if g.rows != r or g.cols != left * c:
            raise ValidationError("pairing hom element has the wrong shape")
        packed = assemble(r * c, left, [(0, k, g.block(0, k * c, r, c).reshape(r * c, 1)) for k in range(left)])
        blocks.append((off, 0, packed))
    return assemble(hom_node.complex.dim(a), left, blocks)


def duality_check(x: GeometricDatum, i: int, q: int) -> DualityReport:
    return DualityMachine(x, i).report(q)


@dataclass(frozen=True)
class ProperMapDatum:
    """A proper morphism between geometric data, through its compact-support
    pullback (contravariant on the compact side)."""

    name: str
    source: GeometricDatum  # X, dimension d
    target: GeometricDatum  # Y, dimension e
    pullback: PHodgeMap  # rgamma_c(Y) -> rgamma_c(X)

    def __post_init__(self):
        if (
            self.pullback.source.rig.complex.dims != self.target.rgamma_c.rig.complex.dims
            or self.pullback.target.rig.complex.dims != self.source.rgamma_c.rig.complex.dims
        ):
            raise ValidationError("pullback endpoints do not match the data")


def gysin_map(f: ProperMapDatum, q: int, i: int) -> Dict[str, object]:
    """The wrong-way map H^q_abs(X, i) -> H^{q+2c}_abs(Y, i+c), c = e - d."""
    x, y = f.source, f.target
    c = y.d - x.d
    dm_x = DualityMachine(x, i)
    rx = dm_x.report(q)
    if not rx.passed:
        raise PreconditionError("duality fails on the source datum")
    dm_y = DualityMachine(y, i + c)
    ry = dm_y.report(q + 2 * c)
    if not ry.passed:
        raise PreconditionError("duality fails on the target datum")
    # middle: precomposition along the compact-support pullback
    e_x = dm_x.e_hom  # Hom cone (N_X, K(i - d))
    e_y = dm_y.e_hom  # Hom cone (N_Y, K(i + c - e)) with i+c-e = i-d
    t = induced_map(e_x, f.pullback, e_y, contravariant=True)
    deg = q - 2 * x.d
    mid = t.induced_on_cohomology(deg)
    w = ry.iso_matrix.inverse() * mid * rx.iso_matrix if rx.lhs_dim and ry.lhs_dim else Matrix.zeros(ry.lhs_dim, rx.lhs_dim)
    return {
        "matrix": w,
        "source_dim": rx.lhs_dim,
        "target_dim": ry.lhs_dim,
        "shift": 2 * c,
        "twist_shift": c,
    }
