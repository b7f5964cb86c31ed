import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from phodge import io as pio
from phodge.cli import main
from phodge.errors import ValidationError
from phodge.frames import PRIME_CAP, _is_prime
from phodge.godement import FiniteSite
from phodge.phc import PHodgeComplex, Zigzag, collapse_zigzag
from phodge.spectral import DoubleComplex


def test_manifest_covers_corpus():
    names = pio.corpus_manifest()
    listed = set(names)
    actual = {p.name for p in Path(pio.corpus_path("manifest.json")).parent.iterdir()}
    assert listed == actual - {"manifest.json"}


def test_roundtrip_datum(corpus):
    for name in ("point.datum", "p1.datum", "gm.datum", "elliptic.datum", "degenerate.datum"):
        x = corpus(name)
        redump = pio.format_datum(x)
        again = pio.parse_datum(redump)
        assert again.rgamma.k.dims == x.rgamma.k.dims
        assert again.d == x.d
        for n in x.rgamma.rig.complex.dims:
            assert again.rgamma.rig.phi_at(n) == x.rgamma.rig.phi_at(n)
        for n in x.rgamma.dr.carrier.dims:
            for lvl in x.rgamma.dr.filtration.jump_levels(n):
                assert again.rgamma.dr.level(n, lvl) == x.rgamma.dr.level(n, lvl)


def test_roundtrip_phc(corpus, frame):
    t = corpus("tate1.phc")
    assert isinstance(t, PHodgeComplex)
    payload = pio.format_phc(t)
    payload["kind"] = "phc"
    again = pio.parse_phc(payload)
    assert again.rig.phi_at(0) == t.rig.phi_at(0)
    assert again.dr.filtration.jump_levels(0) == t.dr.filtration.jump_levels(0)


def test_roundtrip_site_and_sheaf(corpus):
    site = corpus("pseudocircle.site")
    assert isinstance(site, FiniteSite)
    redump = pio.format_site(site)
    again = pio.parse_site(redump)
    assert again.leq == site.leq and again.points == site.points
    sheaf = corpus("constK.sheaf", site=site)
    redump = pio.format_sheaf(sheaf)
    again2 = pio.parse_sheaf(redump, site)
    assert again2.values == sheaf.values


def test_roundtrip_double_complex(corpus):
    dc = corpus("d2page.dcomplex")
    assert isinstance(dc, DoubleComplex)
    again = pio.parse_double_complex(pio.format_double_complex(dc))
    assert again.spaces == dc.spaces and again.dh == dc.dh and again.dv == dc.dv


def test_zigzag_loads_and_collapses(corpus):
    z = corpus("nine_node.zigzag")
    assert isinstance(z, Zigzag)
    m = collapse_zigzag(z)
    assert m.k.cohomology_dims() == {0: 1}


def test_bad_files_rejected(corpus):
    with pytest.raises(ValidationError) as err:
        corpus("bad_ddnonzero.complex")
    assert "d∘d" in str(err.value)
    with pytest.raises(ValidationError) as err:
        corpus("bad_csquare.datum")
    assert "square" in str(err.value)


def test_cli_exit_codes(capsys):
    assert main(["validate", "point.datum"]) == 0
    assert main(["validate", "bad_ddnonzero.complex"]) == 2
    assert main(["duality", "degenerate.datum", "--twist", "0"]) == 3
    capsys.readouterr()


def _edited_corpus_file(tmp_path, name, edit):
    data = json.loads(Path(pio.corpus_path(name)).read_text())
    edit(data)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _set_dh(value):
    def edit(data):
        data["d_h"]["0,1"] = [[value]]

    return edit


def _set_extension(modulus, sigma=None):
    def edit(data):
        extension = {"modulus": modulus}
        if sigma:
            extension["sigma"] = sigma
        data["frame"] = {"p": 5, "extension": extension}

    return edit


@pytest.mark.parametrize(
    "name, command, edit, entry",
    [
        ("d2page.dcomplex", "ss", _set_dh(0.1), "d_h[0,1][0][0]"),
        ("d2page.dcomplex", "ss", _set_dh(True), "d_h[0,1][0][0]"),
        ("tate0.phc", "validate", _set_extension(["-2", 0.5, "1"]), "modulus[1]"),
        ("tate0.phc", "validate", _set_extension([-2, 0, 1], [0, False]), "sigma[1]"),
    ],
)
def test_cli_rejects_float_and_bool_scalars(tmp_path, capsys, name, command, edit, entry):
    path = _edited_corpus_file(tmp_path, name, edit)
    assert main([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert entry in captured.err and "rejected" in captured.err
    assert "Traceback" not in captured.err


def _set_space(value):
    def edit(data):
        data["spaces"]["2,0"] = value

    return edit


def _set_constant(value):
    def edit(data):
        data["constant"] = value

    return edit


@pytest.mark.parametrize(
    "name, args, edit, entry",
    [
        ("d2page.dcomplex", ["ss"], _set_space(1.9), "spaces[2,0]"),
        ("d2page.dcomplex", ["ss"], _set_space(True), "spaces[2,0]"),
        ("d2page.dcomplex", ["ss"], _set_space(-1), "spaces[2,0]"),
        ("constK.sheaf", ["godement", "sierpinski.site"], _set_constant(1.9), "constant"),
    ],
)
def test_cli_rejects_float_bool_and_negative_dimensions(tmp_path, capsys, name, args, edit, entry):
    path = _edited_corpus_file(tmp_path, name, edit)
    assert main([*args, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert entry in captured.err and "rejected" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("value", ["1e3", "1.5", " 2"])
def test_cli_rejects_scalar_strings_beyond_num_den(tmp_path, capsys, value):
    # only "num" and "num/den" are exact scalar strings; Fraction alone would
    # read exponents (1e999999999 builds a huge integer), decimals and spaces
    path = _edited_corpus_file(tmp_path, "d2page.dcomplex", _set_dh(value))
    assert main(["ss", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "d_h[0,1][0][0]" in captured.err and "rejected" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("alpha", ["1e3", "1.5", "1/0", "x"])
def test_cli_cup_rejects_inexact_alpha(capsys, alpha):
    args = ["cup", "p1.datum", "--twist1", "0", "--twist2", "1", "--deg1", "0", "--deg2", "2", "--alpha", alpha]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert "--alpha" in captured.err and "Traceback" not in captured.err


def test_cli_accepts_integer_and_string_scalars(tmp_path, capsys):
    assert main(["ss", _edited_corpus_file(tmp_path, "d2page.dcomplex", _set_dh(1))]) == 0
    assert main(["validate", _edited_corpus_file(tmp_path, "tate0.phc", _set_extension([-2, "0", 1], [0, "-1"]))]) == 0
    capsys.readouterr()


def test_cli_ext_table(capsys):
    assert main(["ext", "tate0.phc", "tate1.phc"]) == 0
    out = capsys.readouterr().out
    assert "1  1" in out.replace("     ", " ")


def test_cli_abs_contains_cycle_class(capsys):
    assert main(["abs", "p1.datum", "--twist", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cohomology"]["2"] == 1
    assert payload["les_rigid_exact"] is True


def test_cli_godement_routes(capsys):
    assert main(["godement", "pseudocircle.site", "constK.sheaf"]) == 0
    out = capsys.readouterr().out
    assert out.count("H0=1 H1=1") == 3


def test_cli_gysin(capsys):
    assert main(["gysin", "p1_to_point.map", "--degree", "2", "--twist", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["matrix"] == [["1"]]


GOLDEN_COMMANDS = [
    ["validate", "point.datum"],
    ["ext", "tate0.phc", "tate1.phc"],
    ["ext", "tate0.phc", "tate0.phc", "--format", "json"],
    ["abs", "point.datum", "--twist", "0"],
    ["abs", "p1.datum", "--twist", "1"],
    ["abs", "gm.datum", "--twist", "1", "--format", "json"],
    ["les", "elliptic.datum", "--twist", "1"],
    ["duality", "p1.datum", "--twist", "1"],
    ["duality", "elliptic.datum", "--twist", "0", "--format", "json"],
    ["gysin", "p1_identity.map", "--degree", "2", "--twist", "1"],
    ["gysin", "p1_to_point.map", "--degree", "2", "--twist", "1", "--format", "json"],
    ["ss", "d2page.dcomplex"],
    ["ss", "d2page.dcomplex", "--direction", "row", "--format", "json"],
    ["godement", "sierpinski.site", "constK.sheaf"],
    ["godement", "pseudocircle.site", "constK.sheaf", "--format", "json"],
    ["godement", "sierpinski.site", "skyscraperC.sheaf"],
    ["cup", "p1.datum", "--twist1", "0", "--twist2", "1", "--deg1", "0", "--deg2", "2"],
]


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "phodge.cli", *args], capture_output=True, cwd=Path(__file__).parent.parent
    )


@pytest.mark.slow
def test_cli_golden_outputs_byte_stable():
    first = [run_cli(args) for args in GOLDEN_COMMANDS]
    second = [run_cli(args) for args in GOLDEN_COMMANDS]
    for args, a, b in zip(GOLDEN_COMMANDS, first, second):
        assert a.returncode == 0, (args, a.stderr)
        assert a.stdout == b.stdout and a.stderr == b.stderr, args


def _set_p(value):
    def edit(data):
        data["frame"]["p"] = value

    return edit


def test_is_prime_matches_trial_division_and_rejects_strong_pseudoprimes():
    def by_trial_division(n):
        return n >= 2 and all(n % k for k in range(2, int(n**0.5) + 1))

    assert all(_is_prime(n) == by_trial_division(n) for n in range(-2, 5000))
    # strong pseudoprimes to every prime base up to 23 and up to 37
    assert not _is_prime(3825123056546413051)
    assert not _is_prime(318665857834031151167461)
    assert _is_prime(2**61 - 1) and not _is_prime(2**61 + 1)


def test_cli_validates_a_61_bit_prime_quickly(tmp_path, capsys):
    path = _edited_corpus_file(tmp_path, "tate0.phc", _set_p(2**61 - 1))
    start = time.perf_counter()
    assert main(["validate", path]) == 0
    assert time.perf_counter() - start < 1.0
    assert "valid" in capsys.readouterr().out


def test_cli_validates_a_300_element_chain_site_quickly(tmp_path, capsys):
    names = [f"e{i:03d}" for i in range(300)]
    path = tmp_path / "chain.site"
    path.write_text(json.dumps({"kind": "site", "elements": names, "leq": list(zip(names, names[1:])), "points": names}))
    start = time.perf_counter()
    assert main(["validate", str(path)]) == 0
    assert time.perf_counter() - start < 5.0
    assert "valid" in capsys.readouterr().out


@pytest.mark.parametrize("p", [PRIME_CAP, 2**89 - 1])
def test_cli_rejects_p_beyond_the_primality_cap(tmp_path, capsys, p):
    path = _edited_corpus_file(tmp_path, "tate0.phc", _set_p(str(p)))
    assert main(["validate", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(PRIME_CAP) in captured.err and "Traceback" not in captured.err


def _at(data, path):
    for part in path.split(".") if path else ():
        data = data[int(part)] if isinstance(data, list) else data[part]
    return data


def _drop(path):
    def edit(data):
        parent, _, key = path.rpartition(".")
        del _at(data, parent)[key]

    return edit


def _rename(path, old, new):
    def edit(data):
        holder = _at(data, path)
        holder[new] = holder.pop(old)

    return edit


def _sheaf_with_maps(tmp_path):
    sheaf = {"kind": "sheaf", "values": {"c": 1, "o": 1}, "maps": [{"from": "c", "to": "o", "matrix": [["1"]]}]}
    path = tmp_path / "maps.sheaf"
    path.write_text(json.dumps(sheaf))
    return path


REQUIRED_KEYS = [
    ("tate0.phc", key) for key in ("frame", "frame.p", "rig", "rig.complex", "dr", "dr.complex", "k", "c", "s")
] + [
    ("point.datum", key)
    for key in (
        "name", "d", "frame", "rgamma", "rgamma_c", "pairing", "trace", "trace.rig", "trace.k", "trace.dr",
        "flags", "flags.c_quasi_iso", "flags.s_quasi_iso", "flags.phi_invertible",
    )
] + [
    ("p1_to_point.map", key) for key in ("name", "source", "target", "pullback")
] + [
    ("nine_node.zigzag", key) for key in ("frame", "rig_end", "dr_end", "arrows", "arrows.0.dir")
] + [
    ("strict.filtered", "complex"),
    ("sierpinski.site", "elements"),
]


@pytest.mark.parametrize("name, key", REQUIRED_KEYS)
def test_cli_names_a_missing_required_key(tmp_path, capsys, name, key):
    path = _edited_corpus_file(tmp_path, name, _drop(key))
    assert main(["validate", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "missing required key" in captured.err and f"{key.rpartition('.')[2]}'" in captured.err


@pytest.mark.parametrize("key", ["from", "to", "matrix"])
def test_cli_names_a_missing_sheaf_map_key(tmp_path, capsys, key):
    path = _sheaf_with_maps(tmp_path)
    assert main(["validate", "--site", "sierpinski.site", str(path)]) == 0
    data = json.loads(path.read_text())
    del data["maps"][0][key]
    path.write_text(json.dumps(data))
    assert main(["validate", "--site", "sierpinski.site", str(path)]) == 2
    captured = capsys.readouterr()
    assert f"'maps[].{key}'" in captured.err and "Traceback" not in captured.err


def test_cli_names_a_missing_extension_modulus(tmp_path, capsys):
    def edit(data):
        data["frame"] = {"p": 5, "extension": {}}

    path = _edited_corpus_file(tmp_path, "tate0.phc", edit)
    assert main(["validate", path]) == 2
    captured = capsys.readouterr()
    assert "'frame.extension.modulus'" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "name, path, old, new",
    [
        ("point.datum", "pairing.rig", "0", "x"),
        ("tate0.phc", "k.dims", "0", "x"),
        ("tate0.phc", "rig.phi", "0", "0.0"),
        ("tate0.phc", "c.components", "0", " 0"),
        ("tate0.phc", "dr.filtration", "0", "zero"),
        ("strict.filtered", "filtration.0", "1", "one"),
        ("d2page.dcomplex", "spaces", "2,0", "2"),
        ("d2page.dcomplex", "d_h", "0,1", "0,x"),
        ("d2page.dcomplex", "d_v", "1,0", "1,0,0"),
    ],
)
def test_cli_names_a_non_integer_degree_key(tmp_path, capsys, name, path, old, new):
    edited = _edited_corpus_file(tmp_path, name, _rename(path, old, new))
    assert main(["validate", edited]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert f"key {new!r} is not" in captured.err


def _set(path, value):
    def edit(data):
        parent, _, key = path.rpartition(".")
        _at(data, parent)[key] = value

    return edit


def _append(path, pick):
    def edit(data):
        items = _at(data, path)
        items.append(pick(items))

    return edit


@pytest.mark.parametrize(
    "name, command, edit, named",
    [
        ("point.datum", "validate", _set("pairing", 5), "'pairing' must be a JSON object"),
        ("point.datum", "validate", _set("pairing.rig", [5]), "'pairing.rig' must be a JSON object"),
        ("tate0.phc", "validate", _set("k.dims", [1]), "'dims' must be a JSON object"),
        ("tate0.phc", "validate", _set("rig.phi", "0"), "'phi' must be a JSON object"),
        ("d2page.dcomplex", "ss", _set("d_h.0,1", 5), "d_h[0,1]: a matrix must be a JSON array of rows"),
        ("d2page.dcomplex", "ss", _set("d_h.0,1", [5]), "d_h[0,1]: a matrix must be a JSON array of rows"),
        ("sierpinski.site", "validate", _set("elements", 5), "'elements' must be a JSON array"),
        ("sierpinski.site", "validate", _append("leq", lambda leq: leq[0][:1]), "'leq' must be an array of pairs"),
        ("sierpinski.site", "validate", _set("leq", {"c": "o"}), "'leq' must be a JSON array"),
        ("nine_node.zigzag", "validate", _append("arrows", lambda arrows: arrows[0]), "'arrows' holds 9 arrows for 8 gaps"),
        ("sphere.site", "validate", _set("elements", [["a"], "b"]), "'elements[0]' must be an element name string, not list"),
        ("sierpinski.site", "validate", _append("leq", lambda leq: [leq[0][0], {}]), "'leq[1][1]' must be an element name"),
        ("strict.filtered", "validate", _set("filtration.0", 5), "'filtration.0' must be a JSON object, not int"),
    ],
)
def test_cli_names_a_value_of_the_wrong_json_type(tmp_path, capsys, name, command, edit, named):
    edited = _edited_corpus_file(tmp_path, name, edit)
    assert main([command, edited]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert named in captured.err


def test_cli_names_kind_when_the_file_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "list.site"
    path.write_text("[]")
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "must be a JSON object holding 'kind'" in captured.err


@pytest.mark.parametrize("indicator, shown", [(["a1"], '["a1"]'), ("nope", '"nope"'), (7, "7")])
def test_cli_names_an_indicator_that_is_not_a_site_element(tmp_path, capsys, indicator, shown):
    path = _edited_corpus_file(tmp_path, "skyscraperC.sheaf", _set("indicator", indicator))
    assert main(["godement", "sphere.site", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert f"'indicator' must name an element of the site, not {shown}" in captured.err
