"""Command line surface: validation, Ext tables, absolute cohomology with its
long exact sequences, duality and Gysin reports, spectral pages, and sheaf
cohomology by all three routes.

Exit codes: 0 success, 2 validation failure, 3 precondition failure.
All output is deterministically ordered so golden runs are byte-stable.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

from . import io as pio
from .absolute import (
    DualityMachine,
    GeometricDatum,
    ProperMapDatum,
    cup_absolute,
    gysin_map,
    homology_complex,
    long_exact_sequence,
    syntomic_complex,
)
from .complexes import DoubleComplex
from .errors import PreconditionError, ValidationError
from .ext import ExtComplex
from .frames import parse_rational
from .godement import FiniteSite, sheaf_cohomology
from .phc import PHodgeComplex
from .spectral import column_filtered, filtration_pages


def _emit(args, payload: Dict, text_lines: List[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2, default=str))
    else:
        for line in text_lines:
            print(line)


def cmd_validate(args) -> int:
    site = None
    if args.site:
        site = pio.load_object(pio.resolve(args.site))
    obj = pio.load_object(pio.resolve(args.file), site=site)
    kind = type(obj).__name__
    _emit(args, {"file": args.file, "valid": True, "type": kind}, [f"{args.file}: valid ({kind})"])
    return 0


def cmd_ext(args) -> int:
    a = pio.load_object(pio.resolve(args.first))
    b = pio.load_object(pio.resolve(args.second))
    if not isinstance(a, PHodgeComplex) or not isinstance(b, PHodgeComplex):
        raise ValidationError("ext expects two p-adic Hodge complex files")
    e = ExtComplex(a, b)
    degrees = sorted(set(e.total.dims) | {0, 1}) if e.total.dims else [0, 1]
    if args.degree is not None:
        degrees = [args.degree]
    table = {n: e.ext_dim(n) for n in degrees}
    payload = {"ext": {str(n): v for n, v in table.items()}}
    lines = ["degree  dimension"]
    for n in degrees:
        lines.append(f"{n:>6}  {table[n]}")
    if args.classes:
        payload["representatives"] = {}
        for n in degrees:
            reps = e.classes(n).representatives
            payload["representatives"][str(n)] = pio.format_matrix(None, reps)
            lines.append(f"representatives in degree {n} (columns):")
            for row in pio.format_matrix(None, reps):
                lines.append("  " + " ".join(row))
    _emit(args, payload, lines)
    return 0


def _les_lines(rep) -> List[str]:
    lines = [f"long exact sequence ({rep.variant} form), twist {rep.twist}"]
    lines.append("degree  H(cone)  H(sum)  H(pair)")
    for q in sorted(rep.terms):
        t = rep.terms[q]
        lines.append(f"{q:>6}  {t[0]:>7}  {t[1]:>6}  {t[2]:>6}")
    for j in rep.joints:
        status = "exact" if (j.composite_zero and j.exact) else "NOT exact"
        lines.append(f"joint degree {j.degree} at {j.position}: {status}")
    lines.append(f"sequence exact: {'yes' if rep.exact else 'no'}")
    return lines


def cmd_abs(args) -> int:
    x = pio.load_object(pio.resolve(args.datum))
    if not isinstance(x, GeometricDatum):
        raise ValidationError("abs expects a geometric datum file")
    i = args.twist
    u = syntomic_complex(x.rgamma, i)
    uc = syntomic_complex(x.rgamma_c, i)
    degrees = sorted(set(u.total.dims) | set(uc.total.dims) | {0})
    e_hom = homology_complex(x, i)
    payload = {"name": x.name, "twist": i, "cohomology": {}, "compact": {}, "homology": {}}
    lines = [f"absolute cohomology of {x.name}, twist {i}", "degree  H^n_abs  H^n_abs,c  H_n^abs"]
    for q in degrees:
        hn = u.dim(q)
        hc = uc.dim(q)
        hm = e_hom.ext_dim(-q)
        payload["cohomology"][str(q)] = hn
        payload["compact"][str(q)] = hc
        payload["homology"][str(q)] = hm
        lines.append(f"{q:>6}  {hn:>8}  {hc:>9}  {hm:>7}")
    if x.flags.c_quasi_iso:
        rep = long_exact_sequence(u, "rigid")
        payload["les_rigid_exact"] = rep.exact
        lines.extend(_les_lines(rep))
    if x.flags.s_quasi_iso:
        rep = long_exact_sequence(uc, "derham")
        payload["les_derham_compact_exact"] = rep.exact
        lines.extend(_les_lines(rep))
    _emit(args, payload, lines)
    return 0


def cmd_les(args) -> int:
    x = pio.load_object(pio.resolve(args.datum))
    if not isinstance(x, GeometricDatum):
        raise ValidationError("les expects a geometric datum file")
    m = x.rgamma_c if args.compact else x.rgamma
    rep = long_exact_sequence(syntomic_complex(m, args.twist), args.variant)
    payload = {
        "name": x.name,
        "twist": args.twist,
        "variant": args.variant,
        "compact": bool(args.compact),
        "exact": rep.exact,
        "terms": {str(q): list(t) for q, t in rep.terms.items()},
    }
    _emit(args, payload, _les_lines(rep))
    return 0


def cmd_duality(args) -> int:
    x = pio.load_object(pio.resolve(args.datum))
    if not isinstance(x, GeometricDatum):
        raise ValidationError("duality expects a geometric datum file")
    i = args.twist
    machine = DualityMachine(x, i)
    degrees = [args.degree] if args.degree is not None else list(range(0, 2 * x.d + 1))
    payload = {"name": x.name, "twist": i, "degrees": {}}
    lines = [f"duality comparison for {x.name}, twist {i}", "degree  lhs  rhs  iso"]
    all_ok = True
    reports = [machine.report(q) for q in degrees]
    for q, rep in zip(degrees, reports):
        ok = rep.passed
        all_ok = all_ok and ok
        payload["degrees"][str(q)] = {"lhs": rep.lhs_dim, "rhs": rep.rhs_dim, "passed": ok}
        lines.append(f"{q:>6}  {rep.lhs_dim:>3}  {rep.rhs_dim:>3}  {'yes' if ok else 'NO'}")
    steps = reports[0].steps
    for name in sorted(steps):
        lines.append(f"step {name}: {'ok' if steps[name] else 'FAILED'}")
    payload["steps"] = steps
    lines.append(f"duality holds: {'yes' if all_ok else 'no'}")
    payload["passed"] = all_ok
    _emit(args, payload, lines)
    return 0


def cmd_gysin(args) -> int:
    f = pio.load_object(pio.resolve(args.map))
    if not isinstance(f, ProperMapDatum):
        raise ValidationError("gysin expects a proper-map file")
    out = gysin_map(f, args.degree, args.twist)
    c = f.target.d - f.source.d
    payload = {
        "name": f.name,
        "degree": args.degree,
        "twist": args.twist,
        "source_dim": out["source_dim"],
        "target_dim": out["target_dim"],
        "matrix": pio.format_matrix(None, out["matrix"]),
        "degree_shift": out["shift"],
        "twist_shift": out["twist_shift"],
    }
    lines = [
        f"wrong-way map for {f.name}: H^{args.degree}(X, {args.twist}) -> H^{args.degree + 2 * c}(Y, {args.twist + c})",
        f"source dimension {out['source_dim']}, target dimension {out['target_dim']}",
        "matrix rows: " + "; ".join(" ".join(str(v) for v in row) for row in out["matrix"].entries),
    ]
    _emit(args, payload, lines)
    return 0


def cmd_ss(args) -> int:
    dc = pio.load_object(pio.resolve(args.dcomplex))
    if not isinstance(dc, DoubleComplex):
        raise ValidationError("ss expects a double complex file")
    fc = column_filtered(dc, args.direction)
    pgs = filtration_pages(fc)
    total = fc.carrier
    payload = {"direction": args.direction, "pages": [], "total_cohomology": {str(n): total.cohomology(n).dim for n in sorted(total.dims)}}
    lines = [f"spectral sequence ({args.direction} filtration)"]
    for page in pgs:
        table = page.dims_table()
        payload["pages"].append({f"{p},{q}": k for (p, q), k in sorted(table.items())})
        lines.append(f"page {page.r}:")
        if not table:
            lines.append("  (zero)")
        for (p, q), k in sorted(table.items()):
            lines.append(f"  E[{p},{q}] = {k}")
    stable = pgs[-1].dims_table() if pgs else {}
    for n in sorted(total.dims):
        s = sum(k for (p, q), k in stable.items() if p + q == n)
        lines.append(f"antidiagonal {n}: stable sum {s}, total cohomology {total.cohomology(n).dim}")
    _emit(args, payload, lines)
    return 0


def cmd_godement(args) -> int:
    site = pio.load_object(pio.resolve(args.site))
    if not isinstance(site, FiniteSite):
        raise ValidationError("godement expects a site file first")
    sheaf = pio.load_object(pio.resolve(args.sheaf), site=site)
    payload = {"routes": {}}
    lines = []
    for via in ("gd", "gd2", "cech"):
        try:
            h = sheaf_cohomology(sheaf, via)
        except PreconditionError as exc:
            payload["routes"][via] = {"error": str(exc)}
            lines.append(f"route {via:<5}: unavailable ({exc})")
            continue
        payload["routes"][via] = {str(q): v for q, v in h.items()}
        lines.append(f"route {via:<5}: " + " ".join(f"H{q}={h[q]}" for q in sorted(h)))
    _emit(args, payload, lines)
    return 0


def cmd_cup(args) -> int:
    x = pio.load_object(pio.resolve(args.datum))
    if not isinstance(x, GeometricDatum):
        raise ValidationError("cup expects a geometric datum file")
    out = cup_absolute(x, args.deg1, args.twist1, args.deg2, args.twist2, alpha=parse_rational(args.alpha, "--alpha"))
    payload = {
        "name": x.name,
        "source_dims": list(out["source_dims"]),
        "target_dim": out["target_dim"],
        "products": {f"{a},{b}": [str(v) for v in vec] for (a, b), vec in sorted(out["products"].items())},
    }
    lines = [
        f"cup product H^{args.deg1}_abs({x.name},{args.twist1}) x H^{args.deg2}_abs,c({x.name},{args.twist2})"
        f" -> H^{args.deg1 + args.deg2}_abs,c({x.name},{args.twist1 + args.twist2})",
        f"source dimensions {out['source_dims'][0]} x {out['source_dims'][1]}, target dimension {out['target_dim']}",
    ]
    for (a, b), vec in sorted(out["products"].items()):
        lines.append(f"basis ({a},{b}) -> (" + ", ".join(str(v) for v in vec) + ")")
    _emit(args, payload, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phodge",
        description="Exact homological computations for p-adic Hodge complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.set_defaults(fn=fn)
        return p

    p = add("validate", cmd_validate, help="load a file and revalidate every invariant")
    p.add_argument("file")
    p.add_argument("--site", help="site file, needed to validate a sheaf")

    p = add("ext", cmd_ext, help="Ext table of a pair of p-adic Hodge complexes")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--degree", type=int)
    p.add_argument("--classes", action="store_true", help="also print representative cocycles")

    p = add("abs", cmd_abs, help="absolute cohomology, compact support, homology, long exact sequences")
    p.add_argument("datum")
    p.add_argument("--twist", type=int, required=True)

    p = add("les", cmd_les, help="one long exact sequence with per-joint verdicts")
    p.add_argument("datum")
    p.add_argument("--twist", type=int, required=True)
    p.add_argument("--variant", choices=["rigid", "derham"], default="rigid")
    p.add_argument("--compact", action="store_true")

    p = add("duality", cmd_duality, help="duality comparison table")
    p.add_argument("datum")
    p.add_argument("--twist", type=int, required=True)
    p.add_argument("--degree", type=int)

    p = add("gysin", cmd_gysin, help="wrong-way map along a proper morphism datum")
    p.add_argument("map")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--twist", type=int, required=True)

    p = add("ss", cmd_ss, help="spectral sequence pages of a double complex")
    p.add_argument("dcomplex")
    p.add_argument("--direction", choices=["col", "row"], default="col")

    p = add("godement", cmd_godement, help="sheaf cohomology by all three routes")
    p.add_argument("site")
    p.add_argument("sheaf")

    p = add("cup", cmd_cup, help="cup product into compact support")
    p.add_argument("datum")
    p.add_argument("--twist1", type=int, required=True)
    p.add_argument("--twist2", type=int, required=True)
    p.add_argument("--deg1", type=int, required=True)
    p.add_argument("--deg2", type=int, required=True)
    p.add_argument("--alpha", default="0")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
