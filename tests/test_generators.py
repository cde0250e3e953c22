import copy
import hashlib
import time
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from coilbounds import slopes
from coilbounds.diagrams import DiagramBuilder, describe, emit_pd, parse_pd
from coilbounds.errors import NotACrossingCircle, NotAKnot, TooManyCrossings
from coilbounds.generators import (
    CoilSpec,
    fill_crossing_circle,
    gen_augmented,
    gen_clasped_two_bridge,
    gen_double_coil,
    gen_two_bridge,
)
from coilbounds.generators import _build_plat, _coil_braid
from coilbounds.slopes import ContinuedFraction, Slope, cfrac_expand
from diagram_oracle import (
    coil_braid_by_joins,
    component_map,
    plat_by_cap_chase,
    strand_labels,
    trace_faces,
    twist_regions,
)


def coprime_pairs(qmax):
    return [(p, q) for q in range(2, qmax + 1) for p in range(1, q) if gcd(p, q) == 1]


# --- two-bridge -------------------------------------------------------------


def test_two_bridge_examples():
    d = gen_two_bridge(ContinuedFraction((2, 2)))
    assert d.n_crossings == 4 and d.n_twist_regions == 2 and d.is_alternating()
    d = gen_two_bridge(ContinuedFraction((2,)))
    assert d.n_crossings == 2 and d.n_twist_regions == 1
    assert d.n_components == 2  # Hopf-link pattern


def test_two_bridge_stats_sweep():
    """Crossing count, alternation, component parity, and the twist-region
    law t = k - [a1 = 1] for every slope with q <= 60."""
    for p, q in coprime_pairs(60):
        c = cfrac_expand(Slope(p, q))
        d = gen_two_bridge(c)
        assert d.n_crossings == sum(c.terms)
        assert d.is_alternating()
        assert d.n_components == (1 if q % 2 else 2)
        expected = c.length - (1 if c.terms[0] == 1 else 0)
        assert d.n_twist_regions == expected, (p, q, c.terms)


def test_two_bridge_region_sizes():
    d = gen_two_bridge(ContinuedFraction((3, 1, 4)))
    assert sorted(len(r) for r in twist_regions(d)) == [1, 3, 4]
    # leading 1 coalesces with the next region
    d = gen_two_bridge(ContinuedFraction((1, 1, 2)))
    assert sorted(len(r) for r in twist_regions(d)) == [2, 2]


def test_two_bridge_region_sizes_sweep():
    """Region sizes are exactly the continued-fraction terms, except that a
    leading 1 merges into the following term."""
    for p, q in coprime_pairs(40):
        terms = list(cfrac_expand(Slope(p, q)).terms)
        d = gen_two_bridge(cfrac_expand(Slope(p, q)))
        expected = [terms[0] + terms[1]] + terms[2:] if terms[0] == 1 else terms
        got = sorted(len(r) for r in twist_regions(d))
        assert got == sorted(expected), (p, q, terms, got)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(terms=st.lists(st.integers(1, 5), min_size=1, max_size=8), with_clasp=st.booleans())
@example(terms=[1], with_clasp=False)
@example(terms=[3], with_clasp=False)
@example(terms=[2], with_clasp=True)
@example(terms=[1, 2], with_clasp=False)
@example(terms=[2, 1, 3], with_clasp=True)
def test_plat_closure_matches_cap_chase(terms, with_clasp):
    """The closing joins written by cases wire the plat as chasing caps
    through four columns does."""
    ref = DiagramBuilder()
    ref_info = plat_by_cap_chase(ref, terms, with_clasp)
    fast, fast_info = _build_plat(terms, with_clasp)
    assert fast._peer == ref._peer
    assert fast._under == ref._under
    assert fast_info == ref_info


# --- clasped ----------------------------------------------------------------


def circle_components(d):
    """The component of each circle of ``d.circles``: the strand through
    ``w ^ 1`` for the first passage ``(w, e)``."""
    comp = component_map(d)
    return {role: comp[recs[0][0] ^ 1] for role, (_, recs) in d.circles.items()}


def test_clasped_structure():
    s = Slope(2, 5)
    d = gen_clasped_two_bridge(s)
    k = cfrac_expand(s).length
    assert d.n_crossings == 4 + 4  # plat crossings plus the clasp's four
    assert set(d.circles) == {"clasp"}
    clasp_comp = circle_components(d)["clasp"]
    assert 0 <= clasp_comp < d.n_components
    # the two regions of [2,2], plus the clasp's two strand-hugging bigon pairs
    assert d.n_twist_regions == k + 2


def test_clasped_bad_slope():
    with pytest.raises(ValueError):
        gen_clasped_two_bridge(Slope(0, 1))
    with pytest.raises(ValueError):
        gen_clasped_two_bridge(Slope(7, 5))


def test_clasp_filling_gives_alternating_two_bridge():
    """One of the two filling signs turns the clasp into a new twist region
    of 2N crossings on an alternating diagram."""
    for p, q in [(2, 5), (1, 2), (3, 5), (3, 7), (4, 9)]:
        c = cfrac_expand(Slope(p, q))
        d = gen_clasped_two_bridge(Slope(p, q))
        for n in (1, 2, 3):
            results = []
            for sign in (1, -1):
                filled = fill_crossing_circle(d, "clasp", sign * n)
                assert filled.n_crossings == sum(c.terms) + 2 * n
                results.append(filled)
            alternating = [f for f in results if f.is_alternating()]
            assert len(alternating) == 1
            expected = c.length + 1 - (1 if c.terms[0] == 1 else 0)
            assert alternating[0].n_twist_regions == expected


# --- double coils -----------------------------------------------------------


def test_coil_figure8():
    d = gen_double_coil(CoilSpec(1, 2, 1, 1))
    assert d.n_crossings == 4
    assert d.n_components == 1
    assert d.is_alternating()
    assert d.n_twist_regions == 2
    assert sorted(len(r) for r in twist_regions(d)) == [2, 2]


def test_coil_35():
    d = gen_double_coil(CoilSpec(3, 5, 1, 1))
    assert d.n_crossings == 40
    assert d.n_components == 1


def test_coil_not_a_knot():
    with pytest.raises(NotAKnot):
        CoilSpec(2, 4, 1, 1)


def test_coil_crossing_count_formula():
    for p, q in coprime_pairs(6):
        for n1, n2 in [(1, 1), (2, -1), (-3, 2)]:
            spec = CoilSpec(p, q, n1, n2)
            d = gen_double_coil(spec)
            assert d.n_crossings == q * (q - 1) * (abs(n1) + abs(n2))
            assert d.n_components == 1


def test_coil_twist_region_closed_form():
    for p, q in coprime_pairs(12):
        for n1, n2 in [(1, 1), (-1, 2), (2, -3), (1, -1)]:
            spec = CoilSpec(p, q, n1, n2)
            assert gen_double_coil(spec).n_twist_regions == spec.twist_region_count


# --- augmented + filling ----------------------------------------------------


def test_augmented_structure():
    for p, q in [(1, 2), (3, 5), (2, 5)]:
        d = gen_augmented(Slope(p, q))
        assert d.n_components == 3
        assert d.n_crossings == 4 * q
        roles = circle_components(d)
        assert set(roles) == {"C1", "C2"}
        assert roles["C1"] != roles["C2"]
    with pytest.raises(ValueError, match=r"^need 0 < p < q, got 3/2$"):
        gen_augmented(Slope(3, 2))


def test_fill_zero_deletes_circle():
    d = gen_augmented(Slope(1, 2))
    f = fill_crossing_circle(d, "C1", 0)
    # the deleted circle had 2q = 4 crossings; nothing else changes
    assert f.n_crossings == 4
    assert f.n_components == 2


def test_fill_both_circles_with_zero_is_the_empty_diagram():
    # the second fill keeps no crossing and lays no braid: finish on the
    # empty builder gives the diagram of the empty PD text
    for p, q in coprime_pairs(8):
        d = gen_augmented(Slope(p, q))
        for first, second in (("C1", "C2"), ("C2", "C1")):
            f = fill_crossing_circle(fill_crossing_circle(d, first, 0), second, 0)
            assert emit_pd(f) == ""
            assert f.circles == {}
            assert describe(parse_pd(emit_pd(f))) == describe(parse_pd(""))


def test_finish_neither_rewrites_nor_keeps_the_callers_circles():
    calls = []
    real = DiagramBuilder.finish

    def finish(b, circles=None):
        before = copy.deepcopy(circles)
        d = real(b, circles)
        calls.append((circles, before, d))
        return d

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DiagramBuilder, "finish", finish)
        d = gen_augmented(Slope(3, 7))
        fill_crossing_circle(gen_clasped_two_bridge(Slope(3, 7)), "clasp", 2)
        fill_crossing_circle(d, "C1", -1)
    assert len(calls) == 4
    for circles, before, d in calls:
        assert circles == before
        assert d.circles is not circles
        assert set(d.circles) == set(circles)


def test_fill_non_circle():
    d = gen_augmented(Slope(1, 2))
    with pytest.raises(NotACrossingCircle):
        fill_crossing_circle(d, "C9", 1)
    with pytest.raises(NotACrossingCircle):
        fill_crossing_circle(gen_two_bridge(ContinuedFraction((2, 2))), 0, 1)
    with pytest.raises(NotACrossingCircle):
        fill_crossing_circle(gen_two_bridge(ContinuedFraction((2, 2))), "C1", 1)
    # a circle is named by its role only: a component id, None or an
    # unhashable value is refused as not a crossing circle, never with a
    # TypeError
    for circle in (*range(d.n_components), None, ["C1"], {"C1": 1}, b"C1"):
        with pytest.raises(NotACrossingCircle, match="is not a crossing circle of this diagram"):
            fill_crossing_circle(d, circle, 2)
    assert set(d.circles) == {"C1", "C2"}
    assert set(fill_crossing_circle(d, "C2", 2).circles) == {"C1"}
    # the twist count, unlike the circle, must be an int
    with pytest.raises(TypeError, match="^full-twist count must be an integer$"):
        fill_crossing_circle(d, "C1", 1.0)


def test_fill_matches_direct_coil():
    """Both routes must agree; for small cases the crossings even come out
    in the same order, giving identical PD text."""
    for p, q, n1, n2 in [(1, 2, 1, 1), (2, 5, 2, -3), (3, 7, -1, 2), (5, 8, 1, 1)]:
        filled = fill_crossing_circle(
            fill_crossing_circle(gen_augmented(Slope(p, q)), "C1", n1), "C2", n2
        )
        direct = gen_double_coil(CoilSpec(p, q, n1, n2))
        assert filled.n_crossings == direct.n_crossings
        assert filled.n_components == direct.n_components == 1
        assert filled.n_twist_regions == direct.n_twist_regions
        assert filled.is_alternating() == direct.is_alternating()
        face_sizes = lambda d: sorted(len(f) for f in trace_faces(d))
        assert face_sizes(filled) == face_sizes(direct)
        assert filled.circles == direct.circles == {}
    assert emit_pd(
        fill_crossing_circle(
            fill_crossing_circle(gen_augmented(Slope(1, 2)), "C1", 1), "C2", 1
        )
    ) == emit_pd(gen_double_coil(CoilSpec(1, 2, 1, 1)))


def test_fill_refuses_oversized_twists_up_front(monkeypatch):
    d = gen_augmented(Slope(2, 5))
    start = time.perf_counter()
    with pytest.raises(TooManyCrossings, match="C1 filled with 1000000 full twists"):
        fill_crossing_circle(d, "C1", 10**6)  # would be 2*10^7 crossings
    assert time.perf_counter() - start < 1
    # the guard counts exactly the crossings the fill builds
    built = fill_crossing_circle(d, "C2", -3).n_crossings
    assert built == d.n_crossings - 2 * 5 + 5 * 4 * 3
    monkeypatch.setattr(slopes, "MAX_CROSSINGS", built)
    fill_crossing_circle(d, "C2", -3)
    monkeypatch.setattr(slopes, "MAX_CROSSINGS", built - 1)
    with pytest.raises(TooManyCrossings):
        fill_crossing_circle(d, "C2", -3)


def test_circle_passages_are_dart_pairs():
    """Every passage (w, e) is one encircled strand, whose edge inside the
    circle joins w ^ 2 to e ^ 2, and w ^ 1 lies on the circle its role names."""
    passages = 0
    for p, q in coprime_pairs(8):
        s = Slope(p, q)
        augmented = gen_augmented(s)
        diagrams = [augmented, gen_clasped_two_bridge(s)] + [
            fill_crossing_circle(augmented, role, n)
            for role in ("C1", "C2")
            for n in (-2, -1, 0, 1, 2)
        ]
        for d in diagrams:
            roles = circle_components(d)
            for role, (_, recs) in d.circles.items():
                circle = strand_labels(d)[roles[role]]
                for w, e in recs:
                    assert d.mate[w ^ 2] == e ^ 2
                    assert d.labels[w ^ 1] in circle
                    passages += 1
    assert passages == 2 * 122 + 2 * 21 + 10 * 122


def test_delete_clasp():
    s = Slope(2, 5)
    d = gen_clasped_two_bridge(s)
    f = fill_crossing_circle(d, "clasp", 0)
    assert f.n_crossings == sum(cfrac_expand(s).terms)
    assert f.is_alternating()


@pytest.mark.parametrize("seed", range(5))
def test_fill_matches_direct_random(seed):
    import random

    rng = random.Random(seed)
    while True:
        q = rng.randint(2, 6)
        p = rng.randint(1, q - 1)
        if gcd(p, q) == 1:
            break
    n1 = rng.choice([-3, -2, -1, 1, 2, 3])
    n2 = rng.choice([-3, -2, -1, 1, 2, 3])
    filled = fill_crossing_circle(
        fill_crossing_circle(gen_augmented(Slope(p, q)), "C1", n1), "C2", n2
    )
    direct = gen_double_coil(CoilSpec(p, q, n1, n2))
    assert filled.n_crossings == direct.n_crossings
    assert filled.n_twist_regions == direct.n_twist_regions
    assert filled.n_components == direct.n_components == 1


def test_roundtrip_all_generated_up_to_200_crossings():
    from coilbounds.diagrams import parse_pd

    diagrams = []
    for p, q in coprime_pairs(16):
        diagrams.append(gen_two_bridge(cfrac_expand(Slope(p, q))))
    for p, q in coprime_pairs(6):
        diagrams.append(gen_clasped_two_bridge(Slope(p, q)))
        diagrams.append(gen_augmented(Slope(p, q)))
        diagrams.append(gen_double_coil(CoilSpec(p, q, 2, -2)))
    for d in diagrams:
        assert d.n_crossings <= 200
        text = emit_pd(d)
        assert emit_pd(parse_pd(text)) == text


# sha256 of each generator's newline-joined PD codes: PD output is a
# contract, so any change to these digests must be deliberate
GOLDEN_SLOPES = [(1, 2), (2, 5), (3, 7), (5, 8), (8, 13), (13, 420), (211, 420)]
GOLDEN_COIL_SLOPES = [(1, 2), (2, 5), (3, 7), (5, 8), (8, 13), (13, 34)]
GOLDEN_PD_SHA256 = {
    "augmented": "262f0c01d7f5455f2dde3847a1b6abcbbb71a5ea405ab1b72f15492f78101e6d",
    "clasped": "0b4d720f8b6b8d2ac6a093e16154a225b22c86df5420b6147a9d563df9c69f3a",
    "two_bridge": "e091259e393f105c965aaecbdd70d55dcd07ac5fed323b5c49f0cf13cf83ce37",
    "coil": "003e8618f9ce1ebf29f208f323a18ae6f55da9e83535f25575fc13e74d1f00b0",
    "fill": "4bfb665202762acb980638ebba4bac87771b69aa8c9436d446921c4c111dcd66",
    "delete": "a81afe40a6b4d97300d07422c22f3114688e8e60a2cff1ae5434afc879351e20",
}


def test_generator_pd_golden():
    def digest(diagrams):
        h = hashlib.sha256()
        for d in diagrams:
            h.update(emit_pd(d).encode() + b"\n")
        return h.hexdigest()

    def fill(p, q):
        d = fill_crossing_circle(gen_augmented(Slope(p, q)), "C1", 2)
        return fill_crossing_circle(d, "C2", -1)

    def delete():
        # n = 0 fills: each circle alone, the second circle after the first,
        # and the clasp
        for p, q in GOLDEN_COIL_SLOPES:
            aug = gen_augmented(Slope(p, q))
            yield fill_crossing_circle(aug, "C1", 0)
            yield fill_crossing_circle(aug, "C2", 0)
            yield fill_crossing_circle(fill_crossing_circle(aug, "C1", 2), "C2", 0)
        for p, q in GOLDEN_SLOPES:
            yield fill_crossing_circle(gen_clasped_two_bridge(Slope(p, q)), "clasp", 0)

    got = {
        "augmented": digest(gen_augmented(Slope(p, q)) for p, q in GOLDEN_SLOPES),
        "clasped": digest(gen_clasped_two_bridge(Slope(p, q)) for p, q in GOLDEN_SLOPES),
        "two_bridge": digest(
            gen_two_bridge(cfrac_expand(Slope(p, q))) for p, q in GOLDEN_SLOPES
        ),
        "coil": digest(gen_double_coil(CoilSpec(p, q, 1, -2)) for p, q in GOLDEN_COIL_SLOPES),
        "fill": digest(fill(p, q) for p, q in GOLDEN_COIL_SLOPES),
        "delete": digest(delete()),
    }
    assert got == GOLDEN_PD_SHA256


# coils of the size the coil-build benchmark generates: 15 200, 18 720 and
# 18 960 crossings, hashed as test_generator_pd_golden hashes its codes
GOLDEN_LARGE_COILS = [(7, 20, 15, -25), (11, 40, 5, -7), (37, 80, 1, 2)]
GOLDEN_LARGE_COIL_SHA256 = "9265b80780d303f08cdf93df1c8f461da6ef8909741e11c3a1a0fe6ac65bc6aa"


def test_large_coil_pd_golden():
    h = hashlib.sha256()
    for spec in GOLDEN_LARGE_COILS:
        h.update(emit_pd(gen_double_coil(CoilSpec(*spec))).encode() + b"\n")
    assert h.hexdigest() == GOLDEN_LARGE_COIL_SHA256


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    q=st.integers(2, 40),
    n=st.integers(1, 6),
    sign=st.sampled_from([1, -1]),
    held=st.sampled_from([0, 1, 7]),
)
@example(q=2, n=1, sign=1, held=0)
@example(q=40, n=6, sign=-1, held=7)
def test_slice_braid_matches_join_reference(q, n, sign, held):
    """The slice-wired braid lays the dart array and ports that wiring it
    one join at a time does, on a fresh builder and on one that already
    holds crossings, as fill_crossing_circle's builder does."""
    fast, ref = DiagramBuilder(), DiagramBuilder()
    fast.crossings(held)
    ref.crossings(held)
    assert _coil_braid(fast, q, sign * n) == coil_braid_by_joins(ref, q, sign * n)
    assert fast._peer == ref._peer
    assert fast._under == ref._under
