import hashlib
import math
import os
import re
import subprocess
import sys
from array import array
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import coilbounds
from coilbounds import _planar, slopes, svg
from coilbounds.diagrams import parse_pd
from coilbounds.errors import TooManyCrossings
from coilbounds.generators import (
    CoilSpec,
    fill_crossing_circle,
    gen_augmented,
    gen_clasped_two_bridge,
    gen_double_coil,
    gen_two_bridge,
)
from coilbounds.slopes import ContinuedFraction, Slope, cfrac_expand
from coilbounds.svg import curve_svg, render_svg
from drawing_oracle import canonical_runs, crossing_edges, subdivided_rotation

TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"


def test_render_empty():
    out = render_svg(parse_pd(""))
    assert out.startswith("<svg") and out.endswith("</svg>")
    assert 'class="xing"' not in out


def test_render_trefoil_glyphs():
    out = render_svg(parse_pd(TREFOIL))
    assert out.count('class="xing"') == 3
    assert out.count('<g class="component"') == 1


def test_render_augmented_strokes():
    out = render_svg(gen_augmented(Slope(2, 5)))
    assert out.count('<g class="component"') == 3
    strokes = {
        part.split('"')[0]
        for part in out.split('stroke="')[1:]
        if not part.startswith("inherit")
    }
    assert len(strokes) >= 3  # three distinct component colors
    assert out.count('class="xing"') == 20


def test_render_glyph_count_matches_crossings():
    for d in [
        gen_two_bridge(ContinuedFraction((3, 2))),
        gen_double_coil(CoilSpec(1, 2, 2, 1)),
        parse_pd("X(1,2,2,1)"),
    ]:
        assert render_svg(d).count('class="xing"') == d.n_crossings


def test_render_deterministic_and_seeded():
    d = gen_two_bridge(ContinuedFraction((2, 2)))
    assert render_svg(d) == render_svg(d)


def test_curve_svg_wellformed():
    for text in ("1/0", "0/1", "2/5", "3/5", "1/2"):
        out = curve_svg(Slope.parse(text))
        assert out.startswith("<svg") and out.endswith("</svg>")
        assert out.count('class="curve"') >= 1
    both = curve_svg(Slope(1, 0), Slope(2, 5))
    assert both.count('class="curve"') > curve_svg(Slope(1, 0)).count('class="curve"')


_PICTURE_SLOPE = (
    st.tuples(st.integers(-300, 300), st.integers(0, 400))
    .filter(lambda t: gcd(abs(t[0]), t[1]) == 1 and t != (-1, 0))
    .map(lambda t: Slope(*t))
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_PICTURE_SLOPE, min_size=1, max_size=3))
@example([Slope(1, 0), Slope(0, 1)])
@example([Slope(250, 1)])  # 502 ticks, over 12 000 points
def test_curve_svg_refuses_by_points_drawn(picture):
    """Under a cap of 10^4, every accepted picture draws at most 10^4 points."""
    cap = 10**4
    with mock.patch.object(slopes, "MAX_CROSSINGS", cap):
        try:
            out = curve_svg(*picture)
        except TooManyCrossings:
            assert picture != [Slope(1, 0), Slope(0, 1)]
            return
    assert picture != [Slope(250, 1)]
    drawn = re.findall(r'<polyline class="curve" points="([^"]*)"', out)
    assert sum(len(points.split()) for points in drawn) <= cap


def test_render_refuses_above_the_drawing_cap():
    d = gen_two_bridge(ContinuedFraction((11,)))
    with mock.patch.object(svg, "MAX_DRAWN_CROSSINGS", 11):
        assert render_svg(d).count('class="xing"') == 11
    with mock.patch.object(svg, "MAX_DRAWN_CROSSINGS", 10), \
            mock.patch.object(svg, "_layout", side_effect=AssertionError("laid out")):
        with pytest.raises(TooManyCrossings, match="drawing of 11 crossings: at most 10"):
            render_svg(d)


@pytest.mark.parametrize(
    "slope, digest",
    [
        ("1/0", "d379abb35f6217f4344c696645508fc421143704696ff8bc4463592441847ef1"),
        ("0/1", "a0f0aaea5790dda7a288af399ba5653b5ea76af6b5ef4face552e263db2a747e"),
        ("2/5", "dae7328bc1a2f6be1cb4beabbd4e0602b2c7ef336756c796c93949a0c9ac0a89"),
        ("-3/7", "ef5fe6813a9f7d3a4ee9ff8ca6f9084b147f121016fb835733bae2c54c883f9b"),
        ("7/3", "20864a67a3b63ac07bab064dfbba2b8ff6a03c03e157bddfde910137d2d04a01"),
    ],
)
def test_curve_svg_golden(slope, digest):
    out = curve_svg(Slope.parse(slope))
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Taken from this package's own layout once the canonical ordering picked by
# its stated rule (the chord-free outer node found most recently): the
# drawing is Chrobak and Payne's, with networkx 3.6's triangulation and shift
# step given that ordering (test_layout_matches_networkx), and the corpus
# drawings meet Lemma 1 and have no crossing edges (the tests below).
AUGMENTED_2_5_DIGEST = "cfba66d0dbc8ca8963dd4ab2b9db445013b5e6f1409296b7c6a940265fc4cf00"


def test_render_svg_golden():
    out = render_svg(gen_augmented(Slope(2, 5)))
    assert hashlib.sha256(out.encode()).hexdigest() == AUGMENTED_2_5_DIGEST


def test_render_svg_independent_of_hash_seed():
    script = (
        "import hashlib; from coilbounds import Slope, gen_augmented, render_svg; "
        "print(hashlib.sha256(render_svg(gen_augmented(Slope(3, 7))).encode()).hexdigest())"
    )
    src = str(Path(coilbounds.__file__).parents[1])
    digests = {
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "1", "2")
    }
    assert len(digests) == 1


def _flat_embedding(emb):
    """A networkx embedding of the nodes 0..N-1 as ``_planar``'s flat
    arrays (head, cw, ccw, twin, leftmost)."""
    half = {}  # (u, w) -> its half-edge, numbered node by node, clockwise
    head, cw, ccw, leftmost = array("i"), array("i"), array("i"), array("i")
    for u in range(len(emb)):
        nbrs = list(emb.neighbors_cw_order(u))
        base = len(head)
        leftmost.append(base)
        for i, w in enumerate(nbrs):
            half[u, w] = base + i
            head.append(w)
            cw.append(base + (i + 1) % len(nbrs))
            ccw.append(base + (i - 1) % len(nbrs))
    twin = array("i", (half[w, u] for u, w in half))
    return head, cw, ccw, twin, leftmost


def _our_ordering(emb, outer_face):
    """``_planar``'s canonical ordering of networkx's triangulation, in the
    form networkx's ``get_canonical_ordering`` returns."""
    order, contours, ends = _planar.get_canonical_ordering(_flat_embedding(emb), outer_face)
    return [(order[0], []), (order[1], [])] + [
        (order[k], list(contours[ends[k + 1] : ends[k]])) for k in range(2, len(order))]


def _networkx_layout(nx, d):
    """The positions networkx draws for the graph that svg._layout lays out,
    when its canonical ordering is ours: networkx triangulates and shifts."""
    emb = nx.PlanarEmbedding()
    for node, nbrs in subdivided_rotation(d).items():
        emb.add_half_edge(node, nbrs[0])
        for prev, w in zip(nbrs, nbrs[1:]):
            emb.add_half_edge(node, w, ccw=prev)
    emb.check_structure()
    from networkx.algorithms import planar_drawing

    with mock.patch.object(planar_drawing, "get_canonical_ordering", _our_ordering):
        return nx.combinatorial_embedding_to_pos(emb)


def _coprime(q_max):
    return [(p, q) for q in range(2, q_max + 1) for p in range(1, q) if math.gcd(p, q) == 1]


def _layout_corpus():
    yield "figure-8", parse_pd("X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)")
    # kinks make cut vertices: the only diagrams here that reach the branch
    # of _planar.make_bi_connected that adds edges
    yield "kink", parse_pd("X(1,1,2,2)")
    yield "kinked trefoil", parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,7) X(7,8,8,3)")
    yield "kinked figure-8", parse_pd(
        "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,9) X(9,10,10,8)"
    )
    for p, q in _coprime(7):
        for n1, n2 in ((1, 1), (-1, 2), (2, -1)):
            yield f"coil {p}/{q} {n1} {n2}", gen_double_coil(CoilSpec(p, q, n1, n2))
    for p, q in _coprime(39):
        yield f"two-bridge {p}/{q}", gen_two_bridge(cfrac_expand(Slope(p, q)))
    for p, q in _coprime(19):
        yield f"clasped {p}/{q}", gen_clasped_two_bridge(Slope(p, q))
    for p, q in _coprime(6):
        aug = gen_augmented(Slope(p, q))
        yield f"augmented {p}/{q}", aug
        for n in (-1, 1):
            yield f"augmented {p}/{q} C1 {n}", fill_crossing_circle(aug, "C1", n)
    # the hardest for the port: the 180 crossings that cli-short draws, a
    # fan centre of degree about 180, and long twist regions side by side
    yield "coil 3/4 -9 6", gen_double_coil(CoilSpec(3, 4, -9, 6))
    yield "two-bridge [60]", gen_two_bridge(ContinuedFraction((60,)))
    yield "two-bridge [2, 40, 3]", gen_two_bridge(ContinuedFraction((2, 40, 3)))
    # a big face: two faces of about 1 200 nodes each, where a pick that
    # scans for a chord-free node would be quadratic
    yield "two-bridge [400]", gen_two_bridge(ContinuedFraction((400,)))
    yield "augmented 5/11 C2 2", fill_crossing_circle(gen_augmented(Slope(5, 11)), "C2", 2)


def test_layout_matches_networkx():
    nx = pytest.importorskip("networkx")
    count = 0
    for name, d in _layout_corpus():
        xs, ys = svg._layout(d)
        theirs = _networkx_layout(nx, d)
        assert len(theirs) == len(xs), name
        assert all(theirs[u] == (xs[u], ys[u]) for u in range(len(xs))), name
        count += 1
    assert count > 600


def _ordering_of_layout(d):
    """The graph that ``svg._layout(d)`` orders, as {node: set of its
    neighbours} once triangulated, and the ordering (order, contours, ends)."""
    seen = []
    real = _planar.get_canonical_ordering

    def record(emb, outer_face):
        head, _, _, twin, _ = emb
        adj = {}
        for h, w in enumerate(head):
            adj.setdefault(head[twin[h]], set()).add(w)
        seen.append((adj, real(emb, outer_face)))
        return seen[-1][1]

    with mock.patch.object(_planar, "get_canonical_ordering", record):
        svg._layout(d)
    (found,) = seen
    return found


def test_canonical_ordering_meets_lemma_1():
    for name, d in _layout_corpus():
        adj, (order, contours, ends) = _ordering_of_layout(d)
        rotation = subdivided_rotation(d)
        assert all(w in adj[u] for u, nbrs in rotation.items() for w in nbrs), name
        runs = [list(contours[ends[k + 1] : ends[k]]) for k in range(2, len(order))]
        assert canonical_runs(adj, list(order)) == runs, name


def test_corpus_drawings_have_no_crossing_edges():
    count = 0
    for name, d in _layout_corpus():
        if d.n_crossings > 40:
            continue
        xs, ys = svg._layout(d)
        rotation = subdivided_rotation(d)
        edges = [(u, w) for u, nbrs in rotation.items() for w in nbrs if u < w]
        assert crossing_edges({u: (xs[u], ys[u]) for u in rotation}, edges) is None, name
        count += 1
    assert count > 600
