"""File formats and the corpus workspace.

Everything is JSON with a "kind" discriminator.  Matrices are arrays of rows
of exact scalar strings ("num/den"); extension scalars are coefficient arrays
in the power basis.  Every loaded object passes through the constructors, so
all structural invariants are revalidated on load and failures name the
violated invariant: a missing required key, a value of the wrong JSON type or
a degree key that is not an integer exits with code 2 and names the key.
"""

from __future__ import annotations

import json
import re
from importlib import resources
from pathlib import Path
from typing import Dict, List, Optional

from .absolute import DatumFlags, GeometricDatum, PairingData, ProperMapDatum, TraceData
from .complexes import ChainMap, Complex, DoubleComplex
from .errors import ValidationError
from .filtered import FilteredComplex, Filtration
from .frames import CoefficientFrame, NumberField, parse_dim, parse_rational
from .frobenius import FrobeniusComplex
from .linalg import Matrix, Subspace
from .godement import FiniteSite, Sheaf, constant_sheaf, indicator_sheaf
from .phc import PHodgeComplex, PHodgeMap, Zigzag

_INTEGER_STRING = re.compile(r"[+-]?[0-9]+")


def _required(data, key: str, where: str = "", kind: Optional[type] = None):
    """data[key] for a key the format requires; a missing key, data that is
    not a JSON object, or a value not of the JSON type kind fails naming it."""
    name = f"{where}.{key}" if where else key
    if not isinstance(data, dict):
        raise ValidationError(f"{where or 'the file'} must be a JSON object holding {name!r}")
    if key not in data:
        raise ValidationError(f"missing required key {name!r}")
    if kind is not None and not isinstance(data[key], kind):
        raise ValidationError(f"{name!r} must be a JSON {'object' if kind is dict else 'array'}, not {type(data[key]).__name__}")
    return data[key]


def _optional(data, key: str, default, where: str = ""):
    """data[key], or default ({} or []) if absent; a value of another JSON type fails naming the key."""
    return default if isinstance(data, dict) and key not in data else _required(data, key, where, type(default))


def _degree(key: str, where: str, parts: int = 1):
    """The integer of a degree key "n", or the pair of a bidegree key "p,q"
    (parts=2); anything else fails naming the key."""
    fields = key.split(",")
    if len(fields) != parts or not all(_INTEGER_STRING.fullmatch(f) for f in fields):
        what = "a degree" if parts == 1 else "a bidegree p,q"
        raise ValidationError(f"{where}: key {key!r} is not {what} of integers")
    values = tuple(int(f) for f in fields)
    return values[0] if parts == 1 else values


def parse_matrix(frame: Optional[CoefficientFrame], data, rows: int, cols: int, where: str = "matrix") -> Matrix:
    if data is None:
        return Matrix.zeros(rows, cols)
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ValidationError(f"{where}: a matrix must be a JSON array of rows")
    if len(data) != rows or any(len(r) != cols for r in data):
        raise ValidationError(f"matrix data has shape {len(data)}x?, expected {rows}x{cols}")
    if frame is None:
        return Matrix(rows, cols, [[parse_rational(x, f"{where}[{i}][{j}]") for j, x in enumerate(r)] for i, r in enumerate(data)])
    return Matrix(rows, cols, [[frame.parse_scalar(x) for x in r] for r in data])


def format_matrix(frame: Optional[CoefficientFrame], m: Matrix):
    if frame is None:
        return [[str(x) for x in r] for r in m.entries]
    return [[frame.format_scalar(x) for x in r] for r in m.entries]


def parse_frame(data) -> CoefficientFrame:
    p = parse_rational(_required(data, "p", "frame"), "frame p")
    if p.denominator != 1:
        raise ValidationError(f"frame p: {p} is not an integer")
    ext = data.get("extension")
    if ext is None:
        return CoefficientFrame(p=int(p))
    modulus = _required(ext, "modulus", "frame.extension", list)
    nf = NumberField([parse_rational(c, f"extension modulus[{i}]") for i, c in enumerate(modulus)])
    sigma = _optional(ext, "sigma", [], "frame.extension")
    return CoefficientFrame(
        p=int(p),
        extension=nf,
        sigma_generator_image=tuple(parse_rational(c, f"extension sigma[{i}]") for i, c in enumerate(sigma)) if sigma else None,
    )


def format_frame(frame: CoefficientFrame):
    if frame.extension is None:
        return {"p": frame.p}
    out = {"p": frame.p, "extension": {"modulus": [str(c) for c in frame.extension.modulus]}}
    if frame.sigma_generator_image is not None:
        out["extension"]["sigma"] = [str(c) for c in frame.sigma_generator_image]
    return out


def parse_complex(frame, data) -> Complex:
    dims = {_degree(k, "dims"): parse_dim(v, f"dims[{k}]") for k, v in _optional(data, "dims", {}).items()}
    d = {}
    for k, mat in _optional(data, "d", {}).items():
        n = _degree(k, "d")
        d[n] = parse_matrix(frame, mat, dims.get(n + 1, 0), dims.get(n, 0), f"d[{k}]")
    return Complex(dims, d)


def format_complex(frame, c: Complex):
    return {
        "lo": c.lo,
        "hi": c.hi,
        "dims": {str(n): c.dims[n] for n in c.degrees()},
        "d": {str(n): format_matrix(frame, m) for n, m in sorted(c.d.items())},
    }


def parse_chain_map(frame, data, source: Complex, target: Complex) -> ChainMap:
    comps = {}
    for k, mat in _optional(data, "components", {}).items():
        n = _degree(k, "components")
        comps[n] = parse_matrix(frame, mat, target.dim(n), source.dim(n), f"components[{k}]")
    return ChainMap(source, target, comps)


def format_chain_map(frame, f: ChainMap):
    return {"components": {str(n): format_matrix(frame, m) for n, m in sorted(f.components.items())}}


def parse_filtered(frame, data) -> FilteredComplex:
    carrier = parse_complex(frame, _required(data, "complex"))
    records = {}
    filtration = _optional(data, "filtration", {})
    for deg in filtration:
        n = _degree(deg, "filtration")
        entry = []
        for level, basis in _required(filtration, deg, "filtration", dict).items():
            cols = len(basis[0]) if isinstance(basis, list) and basis and isinstance(basis[0], list) else 0
            m = parse_matrix(frame, basis, carrier.dim(n), cols, f"filtration[{deg}][{level}]")
            entry.append((_degree(level, f"filtration[{deg}]"), Subspace(carrier.dim(n), m)))
        records[n] = entry
    return FilteredComplex(carrier, Filtration(dict(carrier.dims), records))


def format_filtered(frame, fc: FilteredComplex):
    filtration = {}
    for n in sorted(fc.carrier.dims):
        entry = {}
        for level, space in fc.filtration.records.get(n, ()):
            entry[str(level)] = format_matrix(frame, space.basis)
        filtration[str(n)] = entry
    return {"complex": format_complex(frame, fc.carrier), "filtration": filtration}


def parse_frobenius(frame, data) -> FrobeniusComplex:
    c = parse_complex(frame, _required(data, "complex"))
    phi = {}
    for k, mat in _optional(data, "phi", {}).items():
        n = _degree(k, "phi")
        phi[n] = parse_matrix(frame, mat, c.dim(n), c.dim(n))
    return FrobeniusComplex(frame, c, phi)


def format_frobenius(frame, fc: FrobeniusComplex):
    return {
        "complex": format_complex(frame, fc.complex),
        "phi": {str(n): format_matrix(frame, m) for n, m in sorted(fc.phi.items()) if not m.is_zero()},
    }


def parse_phc(data, frame: Optional[CoefficientFrame] = None) -> PHodgeComplex:
    if frame is None:
        frame = parse_frame(_required(data, "frame"))
    rig = parse_frobenius(frame, _required(data, "rig"))
    dr = parse_filtered(frame, _required(data, "dr"))
    k = parse_complex(frame, _required(data, "k"))
    c = parse_chain_map(frame, _required(data, "c"), rig.complex, k)
    s = parse_chain_map(frame, _required(data, "s"), dr.carrier, k)
    return PHodgeComplex(frame, rig, dr, k, c, s)


def format_phc(m: PHodgeComplex, *, with_frame: bool = True):
    out = {
        "rig": format_frobenius(m.frame, m.rig),
        "dr": format_filtered(m.frame, m.dr),
        "k": format_complex(m.frame, m.k),
        "c": format_chain_map(m.frame, m.c),
        "s": format_chain_map(m.frame, m.s),
    }
    if with_frame:
        out["frame"] = format_frame(m.frame)
    return out


def _parse_pairing(frame, pairing, slot: str, a: Complex, b: Complex) -> Dict[int, Matrix]:
    """Degreewise matrices (a (x) b)^n -> b^n of pairing[slot]; dim (a (x) b)^n
    is the sum of a^i b^(n-i), so no tensor complex is built."""
    out = {}
    where = f"pairing.{slot}"
    for k, mat in _optional(pairing, slot, {}, "pairing").items():
        n = _degree(k, where)
        out[n] = parse_matrix(frame, mat, b.dim(n), sum(dim * b.dim(n - i) for i, dim in a.dims.items()), f"{where}[{k}]")
    return out


def parse_datum(data) -> GeometricDatum:
    frame = parse_frame(_required(data, "frame"))
    rgamma = parse_phc(_required(data, "rgamma"), frame)
    rgamma_c = parse_phc(_required(data, "rgamma_c"), frame)
    d = parse_dim(_required(data, "d"), "d")
    pairing = _required(data, "pairing", kind=dict)
    pairing = PairingData(
        rig=_parse_pairing(frame, pairing, "rig", rgamma.rig.complex, rgamma_c.rig.complex),
        k=_parse_pairing(frame, pairing, "k", rgamma.k, rgamma_c.k),
        dr=_parse_pairing(frame, pairing, "dr", rgamma.dr.carrier, rgamma_c.dr.carrier),
    )
    top = 2 * d
    trace = _required(data, "trace")
    trace = TraceData(
        rig=parse_matrix(frame, _required(trace, "rig", "trace"), 1, rgamma_c.rig.complex.dim(top)),
        k=parse_matrix(frame, _required(trace, "k", "trace"), 1, rgamma_c.k.dim(top)),
        dr=parse_matrix(frame, _required(trace, "dr", "trace"), 1, rgamma_c.dr.carrier.dim(top)),
    )
    flags = _required(data, "flags")
    flags = DatumFlags(
        c_quasi_iso=bool(_required(flags, "c_quasi_iso", "flags")),
        s_quasi_iso=bool(_required(flags, "s_quasi_iso", "flags")),
        phi_invertible=bool(_required(flags, "phi_invertible", "flags")),
    )
    return GeometricDatum(_required(data, "name"), d, frame, rgamma, rgamma_c, pairing, trace, flags)


def format_datum(x: GeometricDatum):
    frame = x.frame
    return {
        "kind": "datum",
        "name": x.name,
        "d": x.d,
        "frame": format_frame(frame),
        "rgamma": format_phc(x.rgamma, with_frame=False),
        "rgamma_c": format_phc(x.rgamma_c, with_frame=False),
        "pairing": {
            "rig": {str(n): format_matrix(frame, m) for n, m in sorted(x.pairing.rig.items())},
            "k": {str(n): format_matrix(frame, m) for n, m in sorted(x.pairing.k.items())},
            "dr": {str(n): format_matrix(frame, m) for n, m in sorted(x.pairing.dr.items())},
        },
        "trace": {
            "rig": format_matrix(frame, x.trace.rig),
            "k": format_matrix(frame, x.trace.k),
            "dr": format_matrix(frame, x.trace.dr),
        },
        "flags": {
            "c_quasi_iso": x.flags.c_quasi_iso,
            "s_quasi_iso": x.flags.s_quasi_iso,
            "phi_invertible": x.flags.phi_invertible,
        },
    }


def parse_proper_map(data) -> ProperMapDatum:
    source = parse_datum(_required(data, "source"))
    target = parse_datum(_required(data, "target"))
    frame = source.frame
    nc_y, nc_x = target.rgamma_c, source.rgamma_c
    pb = _required(data, "pullback", kind=dict)
    f_rig = parse_chain_map(frame, {"components": _optional(pb, "rig", {}, "pullback")}, nc_y.rig.complex, nc_x.rig.complex)
    f_k = parse_chain_map(frame, {"components": _optional(pb, "k", {}, "pullback")}, nc_y.k, nc_x.k)
    f_dr = parse_chain_map(frame, {"components": _optional(pb, "dr", {}, "pullback")}, nc_y.dr.carrier, nc_x.dr.carrier)
    pullback = PHodgeMap(nc_y, nc_x, f_rig, f_k, f_dr)
    return ProperMapDatum(_required(data, "name"), source, target, pullback)


def _names(values, key: str):
    """values, each of which must be an element name; another value fails naming its index."""
    for i, x in enumerate(values):
        if not isinstance(x, str):
            raise ValidationError(f"'{key}[{i}]' must be an element name string, not {type(x).__name__}")
    return values


def parse_site(data) -> FiniteSite:
    leq = _optional(data, "leq", [])
    if not all(isinstance(pair, list) and len(pair) == 2 for pair in leq):
        raise ValidationError("'leq' must be an array of pairs [a, b]")
    leq = [tuple(_names(pair, f"leq[{i}]")) for i, pair in enumerate(leq)]
    return FiniteSite(_names(_required(data, "elements", kind=list), "elements"), leq, _names(_optional(data, "points", []), "points"))


def format_site(site: FiniteSite):
    return {
        "kind": "site",
        "elements": list(site.elements),
        "leq": [[a, b] for a, b in sorted(site.hasse)],
        "points": list(site.points),
    }


def parse_sheaf(data, site: FiniteSite) -> Sheaf:
    if "constant" in data:
        return constant_sheaf(site, parse_dim(data["constant"], "constant"))
    if "indicator" in data:
        at = data["indicator"]
        if not isinstance(at, str) or at not in site.elements:
            raise ValidationError(f"'indicator' must name an element of the site, not {json.dumps(at)}")
        return indicator_sheaf(site, at, parse_dim(data.get("dim", 1), "dim"))
    values = {k: parse_dim(v, f"values[{k}]") for k, v in _optional(data, "values", {}).items()}
    maps = {}
    for entry in _optional(data, "maps", []):
        a, b = _required(entry, "from", "maps[]"), _required(entry, "to", "maps[]")
        mat = _required(entry, "matrix", "maps[]")
        maps[(a, b)] = parse_matrix(None, mat, values.get(b, 0), values.get(a, 0), f"map {a}->{b}")
    return Sheaf(site, values, maps)


def format_sheaf(f: Sheaf):
    maps = []
    for (a, b) in sorted(f.site.hasse):
        if f.dim(a) and f.dim(b):
            maps.append({"from": a, "to": b, "matrix": format_matrix(None, f.map(a, b))})
    return {"kind": "sheaf", "values": {x: f.dim(x) for x in f.site.elements}, "maps": maps}


def parse_double_complex(data) -> DoubleComplex:
    spaces = {}
    for key, v in _optional(data, "spaces", {}).items():
        spaces[_degree(key, "spaces", 2)] = parse_dim(v, f"spaces[{key}]")
    dh = {}
    dv = {}
    for key, mat in _optional(data, "d_h", {}).items():
        p, q = _degree(key, "d_h", 2)
        dh[(p, q)] = parse_matrix(None, mat, spaces.get((p + 1, q), 0), spaces.get((p, q), 0), f"d_h[{key}]")
    for key, mat in _optional(data, "d_v", {}).items():
        p, q = _degree(key, "d_v", 2)
        dv[(p, q)] = parse_matrix(None, mat, spaces.get((p, q + 1), 0), spaces.get((p, q), 0), f"d_v[{key}]")
    return DoubleComplex(spaces, dh, dv)


def format_double_complex(dc: DoubleComplex):
    return {
        "kind": "double_complex",
        "spaces": {f"{p},{q}": k for (p, q), k in sorted(dc.spaces.items())},
        "d_h": {f"{p},{q}": format_matrix(None, m) for (p, q), m in sorted(dc.dh.items())},
        "d_v": {f"{p},{q}": format_matrix(None, m) for (p, q), m in sorted(dc.dv.items())},
    }


def parse_zigzag(data) -> Zigzag:
    frame = parse_frame(_required(data, "frame"))
    rig_end = parse_frobenius(frame, _required(data, "rig_end"))
    dr_end = parse_filtered(frame, _required(data, "dr_end"))
    middles = [parse_complex(frame, c) for c in _optional(data, "middle", [])]
    nodes = [rig_end] + middles + [dr_end]
    carriers = [rig_end.complex] + middles + [dr_end.carrier]
    if len(_required(data, "arrows", kind=list)) > len(carriers) - 1:
        raise ValidationError(f"'arrows' holds {len(data['arrows'])} arrows for {len(carriers) - 1} gaps between nodes")
    arrows = []
    for idx, arr in enumerate(data["arrows"]):
        direction = _required(arr, "dir", f"arrows[{idx}]")
        if direction == "fwd":
            src, tgt = carriers[idx], carriers[idx + 1]
        else:
            src, tgt = carriers[idx + 1], carriers[idx]
        cm = parse_chain_map(frame, arr, src, tgt)
        arrows.append((direction, cm, bool(arr.get("quasi_iso", False))))
    return Zigzag(frame, tuple(nodes), tuple(arrows))


KNOWN_KINDS = ("complex", "filtered", "frobenius", "phc", "datum", "proper_map", "site", "sheaf", "double_complex", "zigzag")


def load_object(path, site: Optional[FiniteSite] = None):
    """Load and validate one corpus object; the kind field dispatches."""
    data = json.loads(Path(path).read_text())
    kind = data.get("kind") if isinstance(data, dict) else _required(data, "kind")
    if kind == "phc":
        return parse_phc(data)
    if kind == "datum":
        return parse_datum(data)
    if kind == "proper_map":
        return parse_proper_map(data)
    if kind == "site":
        return parse_site(data)
    if kind == "sheaf":
        if site is None:
            raise ValidationError("a sheaf file needs a site to live on")
        return parse_sheaf(data, site)
    if kind == "double_complex":
        return parse_double_complex(data)
    if kind == "zigzag":
        return parse_zigzag(data)
    if kind == "complex":
        frame = parse_frame(data["frame"]) if "frame" in data else None
        return parse_complex(frame, data)
    if kind == "filtered":
        frame = parse_frame(data["frame"]) if "frame" in data else None
        return parse_filtered(frame, data)
    raise ValidationError(f"unknown file kind {kind!r}")


def corpus_path(name: str) -> Path:
    base = resources.files("phodge") / "corpus"
    return Path(str(base / name))


def resolve(name: str) -> Path:
    p = Path(name)
    if p.exists():
        return p
    candidate = corpus_path(name)
    if candidate.exists():
        return candidate
    raise ValidationError(f"no such file or corpus entry: {name}")


def corpus_manifest() -> List[str]:
    mpath = corpus_path("manifest.json")
    return json.loads(mpath.read_text())["files"]
