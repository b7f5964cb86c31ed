"""Seeded input generators for the benchmark workloads.

A frozen copy of the generators in tests/helpers.py, so that the inputs of a
given seed do not change when the test helpers change.  Every object is drawn
from the exact solution space of its defining linear system, so it satisfies
its invariants by construction.  Set-up checks a digest of what these produce
for the default seeds (see inputs_digest in workloads.py).
"""

from __future__ import annotations

import random
from fractions import Fraction

from phodge.complexes import ChainMap, Complex
from phodge.filtered import FilteredComplex, Filtration
from phodge.frames import CoefficientFrame
from phodge.frobenius import FrobeniusComplex
from phodge.linalg import Matrix, Subspace
from phodge.phc import PHodgeComplex, PHodgeMap, cone_phc, direct_sum_phc
from phodge.spectral import DoubleComplex

ZERO = Fraction(0)


def rand_scalar(rng: random.Random, span: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice([1, 1, 2]))


def rand_matrix(rng: random.Random, rows: int, cols: int, span: int = 3) -> Matrix:
    return Matrix(rows, cols, [[rand_scalar(rng, span) for _ in range(cols)] for _ in range(rows)])


def rand_complex(rng: random.Random, lo: int = -1, hi: int = 1, max_dim: int = 3) -> Complex:
    """A random bounded complex: random spaces with a random differential
    drawn from the exact solution space of d∘d = 0, built degree by degree."""
    dims = {}
    for n in range(lo, hi + 1):
        k = rng.randint(0, max_dim)
        if k:
            dims[n] = k
    d = {}
    prev = None
    for n in range(lo, hi):
        a, b = dims.get(n, 0), dims.get(n + 1, 0)
        if a and b:
            cand = rand_matrix(rng, b, a)
            if prev is not None and prev[0] == n - 1 and dims.get(n - 1, 0):
                # project onto maps with cand * prev_d = 0
                prev_d = prev[1]
                rows = []
                for i in range(b):
                    for j in range(a):
                        rows.append((i, j))
                # solve cand entries: kernel of the linear condition X @ prev_d = 0
                cond = []
                for i in range(b):
                    for pc in range(prev_d.cols):
                        row = [ZERO] * (b * a)
                        for j in range(a):
                            row[i * a + j] = prev_d.entries[j][pc]
                        cond.append(row)
                condm = Matrix(len(cond), b * a, cond)
                ker = condm.kernel_basis()
                if ker.cols == 0:
                    continue
                coeffs = [rand_scalar(rng) for _ in range(ker.cols)]
                flat = ker.apply(coeffs)
                cand = Matrix(b, a, [[flat[i * a + j] for j in range(a)] for i in range(b)])
            if not cand.is_zero():
                d[n] = cand
                prev = (n, cand)
            else:
                prev = None
        else:
            prev = None
    return Complex(dims, d)


def rand_chain_map(rng: random.Random, src: Complex, tgt: Complex) -> ChainMap:
    """A random element of the space of chain maps src -> tgt."""
    vars_per_degree = {}
    total = 0
    for n in sorted(set(src.dims) & set(tgt.dims)):
        k = tgt.dim(n) * src.dim(n)
        vars_per_degree[n] = (total, tgt.dim(n), src.dim(n))
        total += k
    conditions = []
    for n in sorted(set(src.dims)):
        rows_out = tgt.dim(n + 1)
        cols_in = src.dim(n)
        if not rows_out or not cols_in:
            continue
        for i in range(rows_out):
            for j in range(cols_in):
                row = [ZERO] * total
                # (d_tgt * f_n)_{ij}
                if n in vars_per_degree:
                    off, r, c = vars_per_degree[n]
                    for k in range(r):
                        val = tgt.diff(n).entries[i][k]
                        if val != 0:
                            row[off + k * c + j] += val
                # -(f_{n+1} * d_src)_{ij}
                if n + 1 in vars_per_degree:
                    off, r, c = vars_per_degree[n + 1]
                    for k in range(c):
                        val = src.diff(n).entries[k][j]
                        if val != 0:
                            row[off + i * c + k] -= val
                conditions.append(row)
    if total == 0:
        return ChainMap.zero(src, tgt)
    if conditions:
        ker = Matrix(len(conditions), total, conditions).kernel_basis()
    else:
        ker = Matrix.identity(total)
    if ker.cols == 0:
        return ChainMap.zero(src, tgt)
    coeffs = [rand_scalar(rng) for _ in range(ker.cols)]
    flat = ker.apply(coeffs)
    comps = {}
    for n, (off, r, c) in vars_per_degree.items():
        comps[n] = Matrix(r, c, [[flat[off + i * c + j] for j in range(c)] for i in range(r)])
    return ChainMap(src, tgt, comps)


def rand_d_stable_filtration(rng: random.Random, c: Complex, depth: int = 2) -> Filtration:
    """Random descending flags preserved by the differential, built by closing
    random vectors under d."""
    records = {}
    spaces = {n: Subspace.full(c.dim(n)) for n in c.dims}
    current = {n: Subspace.full(c.dim(n)) for n in c.dims}
    level_records = {n: [(0, Subspace.full(c.dim(n)))] for n in c.dims}
    level = 0
    for step in range(1, depth + 1):
        level += rng.randint(1, 2)
        nxt = {}
        for n in sorted(c.dims):
            # random vectors inside the current level
            cur = current[n]
            picks = []
            for _ in range(rng.randint(0, max(cur.dim - 1, 0))):
                coeffs = [rand_scalar(rng) for _ in range(cur.dim)]
                picks.append(cur.basis.apply(coeffs))
            nxt[n] = Subspace.from_vectors(picks, c.dim(n))
        # close under d
        changed = True
        while changed:
            changed = False
            for n in sorted(c.dims):
                if not c.dim(n + 1):
                    continue
                img = [c.diff(n).apply(nxt[n].basis.col_tuple(j)) for j in range(nxt[n].dim)]
                bigger = nxt.get(n + 1, Subspace.zero(c.dim(n + 1))).sum(
                    Subspace.from_vectors(img, c.dim(n + 1))
                )
                if bigger.dim != nxt[n + 1].dim:
                    nxt[n + 1] = bigger
                    changed = True
        for n in sorted(c.dims):
            inter = nxt[n].intersect(current[n])
            current[n] = inter
            if inter.dim:
                level_records[n].append((level, inter))
    out = {}
    for n in c.dims:
        recs = []
        for lvl, sp in level_records[n]:
            if not recs or sp.dim < recs[-1][1].dim:
                recs.append((lvl, sp))
            else:
                recs[-1] = (lvl, recs[-1][1])
        out[n] = recs
    return Filtration(dict(c.dims), out)


def rand_filtered_complex(rng: random.Random, lo=-1, hi=1, max_dim=3, depth=2) -> FilteredComplex:
    c = rand_complex(rng, lo, hi, max_dim)
    return FilteredComplex(c, rand_d_stable_filtration(rng, c, depth))


def rand_frobenius(rng: random.Random, frame: CoefficientFrame, c: Complex) -> FrobeniusComplex:
    phi = rand_chain_map(rng, c, c)
    return FrobeniusComplex(frame, c, dict(phi.components))


def rand_phc(rng: random.Random, frame: CoefficientFrame, lo=-1, hi=1, max_dim=3, *, iso_comparisons=False) -> PHodgeComplex:
    rig_c = rand_complex(rng, lo, hi, max_dim)
    rig = rand_frobenius(rng, frame, rig_c)
    if iso_comparisons:
        k = rig_c
        dr_c = rig_c
        c_map = ChainMap.identity(rig_c)
        s_map = ChainMap.identity(rig_c)
        dr = FilteredComplex(dr_c, rand_d_stable_filtration(rng, dr_c))
    else:
        k = rand_complex(rng, lo, hi, max_dim)
        dr_c = rand_complex(rng, lo, hi, max_dim)
        c_map = rand_chain_map(rng, rig_c, k)
        s_map = rand_chain_map(rng, dr_c, k)
        dr = FilteredComplex(dr_c, rand_d_stable_filtration(rng, dr_c))
    return PHodgeComplex(frame, rig, dr, k, c_map, s_map)


def rand_quasi_iso_extension(rng: random.Random, m: PHodgeComplex):
    """A quasi-isomorphism m -> m (+) cone(id_B) for a random B."""
    b = rand_phc(rng, m.frame, lo=max(-1, m.rig.complex.lo - 1), hi=m.rig.complex.hi)
    acyclic = cone_phc(PHodgeMap.identity(b))
    total = direct_sum_phc([m, acyclic])
    f_rig = _inclusion_first(m.rig.complex, total.rig.complex)
    f_k = _inclusion_first(m.k, total.k)
    f_dr = _inclusion_first(m.dr.carrier, total.dr.carrier)
    return PHodgeMap(m, total, f_rig, f_k, f_dr)


def _inclusion_first(part: Complex, total: Complex) -> ChainMap:
    comps = {}
    for n in part.dims:
        k = part.dim(n)
        rows = total.dim(n)
        comps[n] = Matrix(rows, k, [[Fraction(1) if i == j else ZERO for j in range(k)] for i in range(rows)])
    return ChainMap(part, total, comps, check=False)


def _negated(c: Complex) -> Complex:
    return Complex(dict(c.dims), {n: m.scale(Fraction(-1)) for n, m in c.d.items()}, check=False)


def rand_chain_map_killing(rng: random.Random, src: Complex, tgt: Complex, kill) -> ChainMap:
    """A random chain map src -> tgt with f ∘ kill = 0 (kill: X -> src)."""
    vars_per_degree = {}
    total = 0
    for n in sorted(set(src.dims) & set(tgt.dims)):
        vars_per_degree[n] = (total, tgt.dim(n), src.dim(n))
        total += tgt.dim(n) * src.dim(n)
    if total == 0:
        return ChainMap.zero(src, tgt)
    conditions = []
    for n in sorted(set(src.dims)):
        rows_out = tgt.dim(n + 1)
        cols_in = src.dim(n)
        if rows_out and cols_in:
            for i in range(rows_out):
                for j in range(cols_in):
                    row = [ZERO] * total
                    if n in vars_per_degree:
                        off, r, c = vars_per_degree[n]
                        for k in range(r):
                            val = tgt.diff(n).entries[i][k]
                            if val != 0:
                                row[off + k * c + j] += val
                    if n + 1 in vars_per_degree:
                        off, r, c = vars_per_degree[n + 1]
                        for k in range(c):
                            val = src.diff(n).entries[k][j]
                            if val != 0:
                                row[off + i * c + k] -= val
                    conditions.append(row)
    if kill is not None:
        for n in vars_per_degree:
            mat = kill.component(n)
            if mat.cols == 0 or mat.is_zero():
                continue
            off, r, c = vars_per_degree[n]
            for i in range(r):
                for j in range(mat.cols):
                    row = [ZERO] * total
                    for k in range(c):
                        val = mat.entries[k][j]
                        if val != 0:
                            row[off + i * c + k] += val
                    conditions.append(row)
    if conditions:
        ker = Matrix(len(conditions), total, conditions).kernel_basis()
    else:
        ker = Matrix.identity(total)
    if ker.cols == 0:
        return ChainMap.zero(src, tgt)
    flat = ker.apply([rand_scalar(rng) for _ in range(ker.cols)])
    comps = {}
    for n, (off, r, c) in vars_per_degree.items():
        comps[n] = Matrix(r, c, [[flat[off + i * c + j] for j in range(c)] for i in range(r)])
    return ChainMap(src, tgt, comps)


def rand_double_complex(rng: random.Random, p_count: int = 3, q_lo: int = 0, q_hi: int = 2, max_dim: int = 3):
    """Random bounded anticommuting double complex: random vertical columns,
    horizontal maps drawn from the chain maps into the negated next column
    and constrained to square to zero."""
    cols = [rand_complex(rng, q_lo, q_hi, max_dim) for _ in range(p_count)]
    spaces = {}
    dv = {}
    for p, c in enumerate(cols):
        for q in c.dims:
            spaces[(p, q)] = c.dim(q)
            if c.dim(q + 1):
                dv[(p, q)] = c.diff(q)
    dh = {}
    prev = None
    for p in range(p_count - 1):
        f = rand_chain_map_killing(rng, cols[p], _negated(cols[p + 1]), prev)
        for q in set(cols[p].dims) & set(cols[p + 1].dims):
            m = f.component(q)
            if not m.is_zero():
                dh[(p, q)] = m
        prev = f
    return DoubleComplex(spaces, dh, dv)
