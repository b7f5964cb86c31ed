"""Seeded change of basis by signs.

A workload draws its base inputs once from a fixed seed and then, for every
operation, presents them in a fresh basis drawn from the run's seed: every
basis vector is negated or kept.  The result is an isomorphic object whose
matrices differ from the base ones in the sign of many entries but keep every
entry's magnitude and position.  So every answer the benchmark checks (Ext,
page and cohomology dimensions, strictness verdicts) is unchanged, elimination
picks the same pivots and meets numbers of the same size on every seed, and
the work per operation does not depend on the seed.  (A permutation of the
basis as well would change the pivot order, and with it the work of one
operation by 20-30 %, which no run of a few passes averages out.)  Every call
builds new objects, so no memo (Matrix._rref, Complex._cohomology) carries
over between operations.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List

from phodge.complexes import ChainMap, Complex
from phodge.filtered import FilteredComplex, Filtration
from phodge.frobenius import FrobeniusComplex
from phodge.linalg import Matrix, Subspace
from phodge.phc import PHodgeComplex, PHodgeMap
from phodge.spectral import DoubleComplex

# the sign of every basis vector of one space
Signs = List[int]
SignMap = Dict[Hashable, Signs]


def signs_for(rng: random.Random, dims: Dict[Hashable, int]) -> SignMap:
    return {key: [rng.choice((1, -1)) for _ in range(dims[key])] for key in sorted(dims)}


def move(a: Matrix, rows: Signs, cols: Signs) -> Matrix:
    """S a T for the diagonal sign matrices S (rows) and T (columns)."""
    return Matrix(a.rows, a.cols, [[x * r * c for x, c in zip(row, cols)] for row, r in zip(a.entries, rows)])


def _get(signs: SignMap, key, n: int) -> Signs:
    return signs[key] if key in signs else [1] * n


def complex_(c: Complex, p: SignMap) -> Complex:
    d = {n: move(m, _get(p, n + 1, m.rows), _get(p, n, m.cols)) for n, m in c.d.items()}
    return Complex(dict(c.dims), d)


def chain_map(f: ChainMap, src: Complex, tgt: Complex, ps: SignMap, pt: SignMap) -> ChainMap:
    comps = {
        n: move(m, _get(pt, n, m.rows), _get(ps, n, m.cols)) for n, m in f.components.items()
    }
    return ChainMap(src, tgt, comps)


def filtered(fc: FilteredComplex, p: SignMap) -> FilteredComplex:
    carrier = complex_(fc.carrier, p)
    records = {}
    for n, entry in fc.filtration.records.items():
        records[n] = [
            (level, Subspace(space.ambient_dim, move(space.basis, p[n], [1] * space.dim)))
            for level, space in entry
        ]
    return FilteredComplex(carrier, Filtration(dict(fc.filtration.dims), records))


def phc_signs(rng: random.Random, m: PHodgeComplex) -> Dict[str, SignMap]:
    return {
        "rig": signs_for(rng, m.rig.complex.dims),
        "k": signs_for(rng, m.k.dims),
        "dr": signs_for(rng, m.dr.carrier.dims),
    }


def phc(m: PHodgeComplex, p: Dict[str, SignMap]) -> PHodgeComplex:
    rig_c = complex_(m.rig.complex, p["rig"])
    phi = {n: move(a, p["rig"][n], p["rig"][n]) for n, a in m.rig.phi.items() if n in p["rig"]}
    rig = FrobeniusComplex(m.frame, rig_c, phi)
    k = complex_(m.k, p["k"])
    dr = filtered(m.dr, p["dr"])
    c = chain_map(m.c, rig_c, k, p["rig"], p["k"])
    s = chain_map(m.s, dr.carrier, k, p["dr"], p["k"])
    return PHodgeComplex(m.frame, rig, dr, k, c, s)


def phc_map(g: PHodgeMap, rng: random.Random) -> PHodgeMap:
    ps, pt = phc_signs(rng, g.source), phc_signs(rng, g.target)
    src, tgt = phc(g.source, ps), phc(g.target, pt)
    return PHodgeMap(
        src,
        tgt,
        chain_map(g.f_rig, src.rig.complex, tgt.rig.complex, ps["rig"], pt["rig"]),
        chain_map(g.f_k, src.k, tgt.k, ps["k"], pt["k"]),
        chain_map(g.f_dr, src.dr.carrier, tgt.dr.carrier, ps["dr"], pt["dr"]),
    )


def double_complex(dc: DoubleComplex, rng: random.Random) -> DoubleComplex:
    p = signs_for(rng, dc.spaces)
    dh = {(a, b): move(m, p[(a + 1, b)], p[(a, b)]) for (a, b), m in dc.dh.items()}
    dv = {(a, b): move(m, p[(a, b + 1)], p[(a, b)]) for (a, b), m in dc.dv.items()}
    return DoubleComplex(dict(dc.spaces), dh, dv)


def site_data(data: dict, rng: random.Random) -> dict:
    """The same poset under fresh element names; FiniteSite sorts elements by
    name, so the new names also fix a new order of every section basis."""
    order = list(data["elements"])
    rng.shuffle(order)
    rename = {old: f"e{i}" for i, old in enumerate(order)}
    return {
        "kind": "site",
        "elements": [rename[x] for x in data["elements"]],
        "leq": [[rename[a], rename[b]] for a, b in data.get("leq", [])],
        "points": [rename[x] for x in data.get("points", [])],
    }
