import json
import random
import time

import pytest

from phodge import io as pio
from phodge.errors import PreconditionError, ValidationError
from phodge.godement import (
    BarResolution,
    FiniteSite,
    Pushforward,
    SheafMap,
    SiteMap,
    bar_is_quasi_iso,
    constant_sheaf,
    gd_functorial,
    gd_tensor,
    indicator_sheaf,
    pullback_bar_is_quasi_iso,
    sheaf_cohomology,
    t_sheaf,
    tensor_sheaf,
    triangle_identities_hold,
    unit_map,
)
from phodge.linalg import Matrix


@pytest.fixture(scope="module")
def sierpinski():
    return FiniteSite(["c", "o"], [("c", "o")], ["c", "o"])


@pytest.fixture(scope="module")
def circle():
    return FiniteSite(
        ["a", "b", "c", "d"], [("c", "a"), ("c", "b"), ("d", "a"), ("d", "b")], ["a", "b", "c", "d"]
    )


@pytest.fixture(scope="module")
def sphere():
    rel = [(c, b) for c in ("c1", "c2") for b in ("b1", "b2")] + [
        (b, a) for b in ("b1", "b2") for a in ("a1", "a2")
    ]
    return FiniteSite(["a1", "a2", "b1", "b2", "c1", "c2"], rel, ["a1", "a2", "b1", "b2", "c1", "c2"])


def test_site_validation():
    with pytest.raises(ValidationError):
        FiniteSite(["a", "b"], [("a", "b"), ("b", "a")], [])
    s = FiniteSite(["a", "b", "c"], [("a", "b"), ("b", "c")], ["a"])
    assert s.le("a", "c") and s.height == 2
    assert not s.has_enough_points


def _pairwise_order(elements, relations):
    """The order and Hasse edges by the fixed point of composing every pair
    of relations with every other, the loader's earlier closure; None when
    two elements are comparable both ways."""
    closure = {(x, x) for x in elements} | set(relations)
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    if any(a != b and (b, a) in closure for a, b in closure):
        return None
    hasse = [
        (a, b)
        for a, b in sorted(closure)
        if a != b and not any(a != m != b and (a, m) in closure and (m, b) in closure for m in elements)
    ]
    return frozenset(closure), tuple(hasse)


def test_site_order_matches_pairwise_closure():
    cases = []
    for name in ("sierpinski.site", "sierpinski_nopoints.site", "pseudocircle.site", "sphere.site"):
        data = json.loads(pio.corpus_path(name).read_text())
        cases.append((data["elements"], [tuple(r) for r in data["leq"]]))
    rng = random.Random(431)
    for _ in range(40):
        names = [f"x{i}" for i in range(rng.randint(1, 12))]
        rng.shuffle(names)
        # relations follow the shuffled order, so they form a poset
        relations = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :] if rng.random() < 0.3]
        if relations and rng.random() < 0.25:
            a, b = rng.choice(relations)
            relations.append((b, a) if rng.random() < 0.5 else (names[-1], names[0]))
        cases.append((names, relations))
    for elements, relations in cases:
        expected = _pairwise_order(elements, relations)
        if expected is None:
            with pytest.raises(ValidationError, match="comparable both ways"):
                FiniteSite(elements, relations, [])
            continue
        site = FiniteSite(elements, relations, [])
        assert (site.leq, site.hasse) == expected, (elements, relations)


def _recursive_height(site):
    """The height by the recursion it had before: one call per chain element."""
    memo = {}

    def depth(x):
        if x not in memo:
            memo[x] = 1 + max((depth(y) for y in site.elements if y != x and site.le(x, y)), default=0)
        return memo[x]

    return max(depth(x) for x in site.elements) - 1 if site.elements else 0


def test_height_matches_the_recursive_depth():
    sites = [pio.load_object(pio.corpus_path(name)) for name in
             ("sierpinski.site", "sierpinski_nopoints.site", "pseudocircle.site", "sphere.site")]
    rng = random.Random(432)
    for _ in range(60):
        names = [f"x{i}" for i in range(rng.randint(0, 12))]
        rng.shuffle(names)
        relations = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :] if rng.random() < 0.3]
        sites.append(FiniteSite(names, relations, []))
    heights = [site.height for site in sites]
    assert heights == [_recursive_height(site) for site in sites]
    assert heights[:4] == [1, 1, 1, 2] and max(heights) >= 4


def test_height_of_a_long_chain_needs_no_recursion():
    names = [f"e{i:04d}" for i in range(1200)]
    site = FiniteSite(names, list(zip(names, names[1:])), names)
    start = time.perf_counter()
    assert site.height == 1199
    assert time.perf_counter() - start < 5.0


def test_one_point_and_discrete_adjunction():
    pt = FiniteSite(["x"], [], ["x"])
    k = constant_sheaf(pt)
    assert t_sheaf(k).values == {"x": 1}
    assert unit_map(k).component("x") == Matrix.identity(1)
    assert triangle_identities_hold(k)
    disc = FiniteSite(["a", "b"], [], ["a", "b"])
    kd = constant_sheaf(disc)
    assert t_sheaf(kd).values == kd.values
    assert triangle_identities_hold(kd)


def test_sierpinski_unit_is_diagonal(sierpinski):
    k = constant_sheaf(sierpinski)
    tk = t_sheaf(k)
    assert tk.dim("c") == 2 and tk.dim("o") == 1
    eta = unit_map(k)
    assert eta.component("c") == Matrix.from_rows([[1], [1]])
    assert triangle_identities_hold(k)
    assert triangle_identities_hold(indicator_sheaf(sierpinski, "c"))


def test_cosimplicial_identities(sierpinski, circle):
    for site in (sierpinski, circle):
        bar = BarResolution(constant_sheaf(site), 3)
        assert bar.cosimplicial_identities_hold()


def _alternating_sum_reference(bar, n):
    """The differential d^n as built before: the alternating sum of the
    cofaces, one SheafMap.add at a time."""
    d = None
    for i in range(n + 2):
        term = bar.cofaces[(n + 1, i)]
        if i % 2 == 1:
            term = -term
        d = term if d is None else d.add(term)
    return d


@pytest.mark.parametrize("site_name", ["sphere.site", "pseudocircle.site", "sierpinski.site"])
def test_bar_differentials_match_alternating_sum(corpus, site_name):
    site = corpus(site_name)
    sheaf = corpus("constK.sheaf", site=site)
    for length in (site.height + 1, site.height + 2):
        bar = BarResolution(sheaf, length)
        assert sorted(bar.differentials) == list(range(length))
        for n, d in bar.differentials.items():
            ref = _alternating_sum_reference(bar, n)
            assert (d.source, d.target) == (ref.source, ref.target)
            for x in site.elements:
                assert d.component(x) == ref.component(x), (n, x)
        assert bar.cosimplicial_identities_hold()


def test_bar_quasi_iso_with_enough_points(sierpinski, circle):
    for site in (sierpinski, circle):
        for sheaf in (constant_sheaf(site), indicator_sheaf(site, site.elements[0])):
            assert bar_is_quasi_iso(sheaf)
            assert pullback_bar_is_quasi_iso(sheaf)


def test_negative_control_two_tier():
    bad = FiniteSite(["c", "o"], [("c", "o")], ["o"])
    assert not bad.has_enough_points
    sky = indicator_sheaf(bad, "c")
    assert not bar_is_quasi_iso(sky)
    assert pullback_bar_is_quasi_iso(sky)
    with pytest.raises(PreconditionError):
        sheaf_cohomology(sky, "gd")
    # the oracle still works without points
    assert sheaf_cohomology(sky, "cech") == {0: 1, 1: 0}


def test_routes_agree_sierpinski(sierpinski):
    k = constant_sheaf(sierpinski)
    for via in ("gd", "gd2", "cech"):
        assert sheaf_cohomology(k, via) == {0: 1, 1: 0}


def test_routes_agree_circle(circle):
    k = constant_sheaf(circle)
    for via in ("gd", "gd2", "cech"):
        assert sheaf_cohomology(k, via) == {0: 1, 1: 1}


@pytest.mark.slow
def test_routes_agree_sphere(sphere):
    k = constant_sheaf(sphere)
    for via in ("gd", "gd2", "cech"):
        assert sheaf_cohomology(k, via) == {0: 1, 1: 0, 2: 1}


def test_contractible_models_have_point_cohomology(sierpinski):
    chain = FiniteSite(["a", "b", "c"], [("a", "b"), ("b", "c")], ["a", "b", "c"])
    k = constant_sheaf(chain)
    assert sheaf_cohomology(k, "cech") == {0: 1, 1: 0, 2: 0}
    assert sheaf_cohomology(k, "gd") == {0: 1, 1: 0, 2: 0}


def test_gd_functorial_identity(sierpinski):
    k = constant_sheaf(sierpinski)
    ident = SiteMap(sierpinski, sierpinski, {"c": "c", "o": "o"})
    push = Pushforward(ident, k)
    a = SheafMap(k, push.sheaf, {x: Matrix.identity(1) for x in sierpinski.elements})
    rep = gd_functorial(ident, k, a)
    assert rep.passed and rep.induced_h0 == Matrix.identity(1)


def test_gd_functorial_collapse(sierpinski):
    k = constant_sheaf(sierpinski)
    pt = FiniteSite(["x"], [], ["x"])
    collapse = SiteMap(sierpinski, pt, {"c": "x", "o": "x"})
    push = Pushforward(collapse, k)
    kpt = constant_sheaf(pt)
    coords = push.bases["x"][0].coords_of([1, 1])
    a = SheafMap(kpt, push.sheaf, {"x": Matrix(len(coords), 1, [[v] for v in coords])})
    rep = gd_functorial(collapse, k, a)
    assert rep.passed and rep.induced_h0.rank == 1


def test_gd_functorial_open_point_inclusion(sierpinski):
    pt = FiniteSite(["x"], [], ["x"])
    kpt = constant_sheaf(pt)
    incl = SiteMap(pt, sierpinski, {"x": "o"})
    push = Pushforward(incl, kpt)
    k = constant_sheaf(sierpinski)
    a = SheafMap(k, push.sheaf, {x: Matrix.identity(1) for x in sierpinski.elements})
    rep = gd_functorial(incl, kpt, a)
    assert rep.passed and rep.induced_h0.rank == 1


def test_sitemap_validation(sierpinski):
    with pytest.raises(ValidationError):
        SiteMap(sierpinski, sierpinski, {"c": "o", "o": "c"})


def test_gd_tensor_unit(sierpinski):
    k = constant_sheaf(sierpinski)
    rep = gd_tensor(k, k)
    assert rep.passed
    assert rep.sections_left == rep.sections_right == {0: 1, 1: 0}


def test_gd_tensor_circle(circle):
    k = constant_sheaf(circle)
    rep = gd_tensor(k, k)
    assert rep.passed
    assert rep.sections_left == rep.sections_right == {0: 1, 1: 1}


def test_gd_tensor_skyscraper(sierpinski):
    sky = indicator_sheaf(sierpinski, "c")
    k = constant_sheaf(sierpinski)
    rep = gd_tensor(sky, k)
    assert rep.passed
    assert rep.sections_left == rep.sections_right
    fg = tensor_sheaf(sky, k)
    assert sheaf_cohomology(fg, "cech") == rep.sections_right
