import math
import random
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import assume, given, settings, strategies as st

from coilbounds import slopes
from coilbounds.diagrams import (
    _UNWIRED,
    DiagramBuilder,
    PlanarDiagram,
    describe,
    emit_pd,
    parse_pd,
    pd_pieces,
)
from coilbounds.errors import (
    BuilderSpent,
    EdgePairingError,
    NonPlanarRotation,
    NonQuadrivalent,
    PDSyntaxError,
    TooManyCrossings,
)
from coilbounds.generators import (
    CoilSpec,
    fill_crossing_circle,
    gen_augmented,
    gen_clasped_two_bridge,
    gen_double_coil,
    gen_two_bridge,
)
from coilbounds.slopes import ContinuedFraction, Slope, cfrac_expand
from coilbounds.svg import render_svg
from diagram_oracle import (
    finish_by_rotation,
    pair_labels,
    strand_labels,
    trace_faces,
    twist_regions,
)

TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
FIGURE8 = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"


def test_parse_trefoil():
    d = parse_pd(TREFOIL)
    assert d.n_crossings == 3
    assert d.n_components == 1
    assert len(trace_faces(d)) == d.n_faces == 5


def test_parse_empty():
    d = parse_pd("")
    assert d.n_crossings == 0
    assert emit_pd(d) == ""
    assert len(trace_faces(d)) == d.n_faces == 1
    assert d.n_twist_regions == 0
    assert d.is_alternating()


def test_parse_errors():
    with pytest.raises(PDSyntaxError):
        parse_pd("X(1,2,3)")
    with pytest.raises(PDSyntaxError):
        parse_pd("Y(1,2,3,4)")
    with pytest.raises(PDSyntaxError):
        parse_pd("X(0,1,2,3)")
    with pytest.raises(EdgePairingError):
        parse_pd("X(1,1,1,2) X(2,3,3,4)")
    with pytest.raises(NonPlanarRotation):
        # two disjoint kinks: a split diagram is not a sphere diagram here
        parse_pd("X(1,2,2,1) X(3,4,4,3)")
    # labels are held to 2000 digits, well inside int()'s 4300-digit limit
    label = "1" * 2000
    assert parse_pd(f"X({label},2,2,{label})").labels[0] == int(label)
    with pytest.raises(PDSyntaxError):
        parse_pd(f"X({label}1,2,2,{label}1)")
    # labels are ASCII digits: int() would read these as 1, 2, 2, 1
    for digits in ("\u0661\u0662\u0662\u0661", "\uff11\uff12\uff12\uff11"):
        with pytest.raises(PDSyntaxError):
            parse_pd("X({},{},{},{})".format(*digits))


def test_parse_refuses_too_many_terms_up_front(monkeypatch):
    count = parse_pd(FIGURE8).n_crossings
    monkeypatch.setattr(slopes, "MAX_CROSSINGS", count)
    assert emit_pd(parse_pd(FIGURE8)) == FIGURE8
    with pytest.raises(PDSyntaxError):
        parse_pd("X(1) " * count)
    # one term over the cap is refused before any term is read
    monkeypatch.setattr(slopes, "MAX_CROSSINGS", count - 1)
    with pytest.raises(TooManyCrossings):
        parse_pd(FIGURE8)
    with pytest.raises(TooManyCrossings):
        parse_pd("X(1) " * count)


def test_parse_refuses_long_text_in_one_copy(monkeypatch):
    # the terms are counted one at a time: no term or copy of the text is kept
    monkeypatch.setattr(slopes, "MAX_CROSSINGS", 10)
    text = "X(1,2,2,1) " * 10**5
    tracemalloc.start()
    try:
        with pytest.raises(TooManyCrossings):
            parse_pd(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(text) // 10


def _peak_bytes(run):
    """The tracemalloc peak of ``run()``, in bytes."""
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_big_coil_peak_memory_per_crossing():
    # 18 960 crossings: large enough that the dart arrays, not fixed costs,
    # set the peak.  The builder's wiring and the finished diagram are flat
    # arrays of 4-byte ints and its scratch a byte per crossing, the walk in
    # finish writes the finished label and dart arrays in place, parsing
    # reads the labels into one array and pairs them through another, and
    # neither the faces nor the twist regions copy the dart array twice.
    spec = CoilSpec(37, 80, 1, 2)
    crossings = spec.crossing_count
    assert _peak_bytes(lambda: gen_double_coil(spec)) <= 80 * crossings
    text = emit_pd(gen_double_coil(spec))
    assert _peak_bytes(lambda: describe(parse_pd(text))) <= 80 * crossings


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="Python 3.10 keeps call arguments on the caller's stack "
                    "until the call returns, so parse_pd cannot free its text")
def test_parse_frees_a_text_no_caller_keeps():
    # the text (26 B/crossing) is gone before the labels are paired, so it
    # and the pairing's arrays are never held at once
    d = gen_double_coil(CoilSpec(37, 80, 1, 2))
    text = emit_pd(d)
    assert _peak_bytes(lambda: parse_pd(" " + text)) <= 72 * d.n_crossings


def test_pd_pieces_holds_one_chunk_of_terms():
    # 18 960 crossings, about 19 chunks: a walk holds one chunk at a time
    d = gen_double_coil(CoilSpec(37, 80, 1, 2))
    assert _peak_bytes(lambda: sum(map(len, pd_pieces(d)))) <= 200_000


def test_render_peak_memory_per_crossing():
    # 5 060 crossings: the drawing lays out 5V nodes on flat half-edge
    # arrays (about 30V half-edges of 16 bytes at the end) and keeps one
    # position table, which render_svg scales in place; that table, the
    # SVG pieces and the joined text set the peak, about 2 000 B/crossing
    d = gen_double_coil(CoilSpec(2, 11, 23, 23))
    assert _peak_bytes(lambda: render_svg(d)) <= 2500 * d.n_crossings


def test_built_coil_held_memory_per_crossing():
    # what a built diagram keeps, once the builder is gone: the flat label
    # and dart arrays and the strands, 4 bytes per dart each
    spec = CoilSpec(37, 80, 1, 2)
    tracemalloc.start()
    try:
        d = gen_double_coil(spec)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d.n_crossings == spec.crossing_count
    assert held <= 48 * spec.crossing_count


def test_label_pairing_errors():
    with pytest.raises(EdgePairingError, match="edge label 4 appears 1 times"):
        parse_pd("X(1,2,2,1) X(3,3,4,5)")
    with pytest.raises(EdgePairingError, match="edge label 1 appears 3 times"):
        parse_pd("X(1,1,1,2) X(2,3,3,4)")


# labels for relabelled built diagrams: sparse, around 2^32 (from 2^32 on,
# parse_pd keeps them in a tuple), 2^63 and 2^64, and up to the 2000-digit limit
_LABEL_VALUES = st.one_of(
    st.integers(1, 10**6),
    st.integers(2**32 - 3, 2**32 + 3),
    st.integers(2**63 - 3, 2**63 + 3),
    st.integers(2**64 - 3, 2**64 + 3),
    st.integers(2**64, 10**2000 - 1),
)


@st.composite
def _relabelled(draw):
    """Flat labels of a built diagram with each edge renamed, and perhaps one
    dart moved to another edge's label (seen three times, its own once) or to
    a fresh label (seen once)."""
    d = draw(_built_diagram())
    names = draw(st.lists(_LABEL_VALUES, min_size=d.n_edges, max_size=d.n_edges,
                          unique=True))
    labels = [names[label - 1] for label in d.labels]
    if labels and draw(st.booleans()):
        dart = draw(st.integers(0, len(labels) - 1))
        labels[dart] = draw(st.one_of(st.sampled_from(labels), _LABEL_VALUES))
    return labels


def _paired(run):
    """``run()``, or the message of the EdgePairingError it raises."""
    try:
        return run()
    except EdgePairingError as e:
        return str(e)


@settings(max_examples=80, deadline=None)
@given(_relabelled())
def test_parse_pairs_labels_as_the_oracle(labels):
    want = _paired(lambda: pair_labels(labels))
    got = _paired(lambda: parse_pd(_pd_text(labels)))
    if isinstance(want, str):
        assert got == want
    else:
        assert tuple(got.mate) == want
        assert tuple(got.labels) == tuple(labels)


@pytest.mark.parametrize("big, kept", [(2**32 - 1, array), (2**32, tuple)])
def test_labels_stay_an_array_below_2_to_the_32(big, kept):
    # the trefoil with its label 5 renamed: the largest label a C unsigned
    # int holds keeps the flat array, one more falls back to Python ints
    labels = [big if label == 5 else label for label in parse_pd(TREFOIL).labels]
    text = _pd_text(labels)
    d = parse_pd(text)
    assert type(d.labels) is kept
    assert emit_pd(d) == text
    assert describe(d) == describe(parse_pd(TREFOIL))


def test_mate_pairs_edge_labels():
    d = parse_pd(FIGURE8)
    assert d.n_edges == 8
    label = d.labels  # label of each dart
    ends = {}
    for e, f in enumerate(d.mate):
        assert f != e and d.mate[f] == e
        assert label[e] == label[f]
        ends.setdefault(label[e], set()).update((e, f))
    assert sorted(ends) == list(range(1, 9))
    assert all(len(darts) == 2 for darts in ends.values())


def test_orientation_consistency_required():
    # reversing one crossing's under direction breaks strand orientation
    with pytest.raises(EdgePairingError):
        parse_pd("X(2,4,1,5) X(3,6,4,1) X(5,2,6,3)")


def test_face_counts():
    for text, faces in ((TREFOIL, 5), ("X(1,2,2,1)", 3), (FIGURE8, 6)):
        d = parse_pd(text)
        assert len(trace_faces(d)) == d.n_faces == faces


def test_twist_regions_examples():
    d = parse_pd(TREFOIL)
    assert d.n_twist_regions == 1 and twist_regions(d) == ((0, 1, 2),)
    d = parse_pd(FIGURE8)
    assert d.n_twist_regions == 2 and sorted(len(r) for r in twist_regions(d)) == [2, 2]
    assert parse_pd("X(1,2,2,1)").n_twist_regions == 1


def test_is_alternating():
    assert parse_pd(TREFOIL).is_alternating()
    assert parse_pd(FIGURE8).is_alternating()
    d = gen_double_coil(CoilSpec(3, 5, 1, 1))
    assert not d.is_alternating()  # q=5 coils pass over several strands in a row


def test_euler_formula_generated():
    for terms in [(2,), (3,), (2, 2), (1, 1, 2), (4, 3, 2), (2, 1, 1, 3)]:
        d = gen_two_bridge(ContinuedFraction(terms))
        v, f = d.n_crossings, len(trace_faces(d))
        assert f == d.n_faces
        assert d.n_edges == 2 * v
        assert v - 2 * v + f == 2


def test_roundtrip_generated():
    for d in [
        parse_pd(TREFOIL),
        gen_two_bridge(ContinuedFraction((3, 1, 4))),
        gen_double_coil(CoilSpec(2, 5, 2, -2)),
    ]:
        text = emit_pd(d)
        again = parse_pd(text)
        assert emit_pd(again) == text
        assert again.n_components == d.n_components
        assert again.n_twist_regions == d.n_twist_regions


def test_twist_regions_relabel_invariant():
    d = parse_pd(TREFOIL)
    rng = random.Random(7)
    labels = list(range(1, d.n_edges + 1))
    for trial in range(20):
        perm = labels[:]
        rng.shuffle(perm)
        relabel = dict(zip(labels, perm))
        moved = parse_pd(_pd_text([relabel[x] for x in d.labels]))
        assert moved.n_twist_regions == d.n_twist_regions
        assert moved.is_alternating() == d.is_alternating()


def test_builder_dangling_slot():
    b = DiagramBuilder()
    b.crossings(1)
    with pytest.raises(EdgePairingError):
        b.finish()


def test_builder_rejects_bad_slots():
    b = DiagramBuilder()
    b.crossings(2)
    for bad in (-1, 8):  # darts are 0..4V-1; a list index -1 would alias dart 7
        with pytest.raises(EdgePairingError, match="darts are 0..7"):
            b.join(bad, 5)
    b.join(0, 5)
    with pytest.raises(EdgePairingError, match="wired twice"):
        b.join(0, 6)
    with pytest.raises(EdgePairingError, match="itself"):
        b.join(2, 2)
    b.join(7, 1)  # the rejected calls left darts 7 and 1 unwired
    with pytest.raises(NonQuadrivalent, match="under diagonal"):
        b.crossings(1, under=2)


def test_builder_refuses_wiring_that_is_not_an_involution():
    # written directly, as the coil braid and the fill splice write: dart 3
    # leads to dart 1, which leads back to 2, so the strand walk from dart 0
    # would circle 1 -> 3 -> 1 and never return without the check
    b = DiagramBuilder()
    b.crossings(1)
    b._peer[:] = array(b._peer.typecode, [3, 2, 1, 1])
    with pytest.raises(EdgePairingError, match=r"slot \(0, 3\) is wired to \(0, 1\)"):
        b.finish()


def test_builder_refuses_a_dart_wired_to_itself():
    # written directly: darts 0 and 2 are their own peers, an involution that
    # join refuses; the walk from dart 0 turns back at dart 2, and once every
    # strand is walked finish names the first dart wired to itself
    b = DiagramBuilder()
    b.crossings(1)
    b._peer[:] = array(b._peer.typecode, [0, 3, 2, 1])
    with pytest.raises(EdgePairingError, match=r"cannot wire slot \(0, 0\) to itself"):
        b.finish()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=5).filter(
        lambda t: len(t) == 1 or t[-1] >= 2
    )
)
def test_roundtrip_random_two_bridge(terms):
    d = gen_two_bridge(ContinuedFraction(tuple(terms)))
    text = emit_pd(d)
    assert emit_pd(parse_pd(text)) == text


# --- builder path -------------------------------------------------------------
#
# DiagramBuilder.finish hands its labels and dart array to PlanarDiagram, as
# parse_pd does once it has paired the labels it read; the strands, faces and
# connectivity are validated alike.

def _assert_same_diagram(d, again):
    assert again.mate == d.mate
    assert again.strands == d.strands
    assert trace_faces(again) == trace_faces(d)
    assert again.n_faces == d.n_faces
    assert again.n_edges == d.n_edges
    assert again.labels == d.labels


_PQ = st.integers(2, 7).flatmap(
    lambda q: st.tuples(st.integers(1, q - 1), st.just(q))
).filter(lambda pq: math.gcd(*pq) == 1)
_TWIST = st.sampled_from([-3, -2, -1, 1, 2, 3])


@st.composite
def _build(draw):
    """A function that builds one diagram, with any generator."""
    p, q = draw(_PQ)
    kind = draw(st.sampled_from(["coil", "two_bridge", "clasped", "augmented", "fill"]))
    if kind == "coil":
        spec = CoilSpec(p, q, draw(_TWIST), draw(_TWIST))
        return lambda: gen_double_coil(spec)
    if kind == "two_bridge":
        return lambda: gen_two_bridge(cfrac_expand(Slope(p, q)))
    if kind == "clasped":
        return lambda: gen_clasped_two_bridge(Slope(p, q))
    fills = []
    if kind == "fill":
        for role in draw(st.sampled_from([["C1"], ["C2"], ["C1", "C2"], ["C2", "C1"]])):
            fills.append((role, draw(st.sampled_from([0, -2, -1, 1, 2]))))

    def build():
        d = gen_augmented(Slope(p, q))
        for role, n in fills:
            d = fill_crossing_circle(d, role, n)
        return d

    return build


def _built_diagram():
    return _build().map(lambda build: build())


@settings(max_examples=60, deadline=None)
@given(_built_diagram())
def test_builder_path_matches_parse_path(d):
    _assert_same_diagram(d, parse_pd(emit_pd(d)))


@settings(max_examples=60, deadline=None)
@given(_built_diagram())
def test_components_are_dart_strands(d):
    labels = strand_labels(d)
    comp = {}
    for k, strand in enumerate(d.strands):
        for x in strand:
            for y in (x, x ^ 2):
                assert y not in comp  # no dart on two strands, or twice on one
                comp[y] = k
    assert sorted(comp) == list(range(len(d.mate)))  # each dart on exactly one strand
    for k, strand in enumerate(d.strands):
        for x in strand:
            assert comp[d.mate[x ^ 2]] == k  # the strand leaves x ^ 2 along its edge
    for dart, k in comp.items():
        assert d.labels[dart] in labels[k]
    assert d.is_alternating() == parse_pd(emit_pd(d)).is_alternating()


@settings(max_examples=30, deadline=None)
@given(_built_diagram())
def test_twist_regions_sorted_partition(d):
    # the oracle's regions partition the crossings, and the count is theirs
    regions = twist_regions(d)
    assert regions == tuple(sorted(regions))
    assert sorted(c for r in regions for c in r) == list(range(d.n_crossings))
    assert d.n_twist_regions == len(regions)


_PARSED = [
    parse_pd(text)
    for text in (TREFOIL, FIGURE8, "X(1,2,2,1)", "X(1,1,2,2)",
                 "X(1,4,2,5) X(3,6,4,1) X(5,2,6,7) X(7,8,8,3)", "")
]


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    _built_diagram(),
    _built_diagram().map(lambda d: parse_pd(emit_pd(d))),
    st.sampled_from(_PARSED),
))
def test_traced_faces_give_face_count_and_twist_regions(d):
    assert len(trace_faces(d)) == d.n_faces
    assert len(twist_regions(d)) == d.n_twist_regions


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    _built_diagram(),
    # p = 2: the bands between the coil regions merge two bigon pairs
    st.builds(lambda q, n1, n2: gen_double_coil(CoilSpec(2, q, n1, n2)),
              st.sampled_from([3, 5, 7, 9]), _TWIST, _TWIST),
    _built_diagram().map(lambda d: parse_pd(emit_pd(d))),
    st.sampled_from(_PARSED),
))
def test_twist_region_count_is_number_of_regions(d):
    assert d.n_twist_regions == len(twist_regions(d))


def test_twist_region_count_on_every_plat_to_q_60():
    for q in range(2, 61):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                d = gen_two_bridge(cfrac_expand(Slope(p, q)))
                assert d.n_twist_regions == len(twist_regions(d)), (p, q)


_MAP = "builder darts"  # a circle role no generator lays


def _finishes(build):
    """Run ``build()``; return, for every ``finish`` it calls, the builder's
    wiring and under diagonals copied before the call, the diagram, the
    map ``final`` from builder darts to diagram darts, and the circles the
    call was given.  The map is read
    through ``circles``, as generators read it: one more role holds the
    passage ``(x, x)`` for every builder dart x, and it is removed before
    ``build`` sees the diagram."""
    calls = []
    real = DiagramBuilder.finish

    def finish(b, circles=None):
        peer, under = list(b._peer), list(b._under)
        darts = [(x, x) for x in range(len(peer))]
        d = real(b, {**(circles or {}), _MAP: (1, darts)})
        with pytest.raises(BuilderSpent):
            real(b, circles)
        _, passages = d.circles.pop(_MAP)
        final = [w for w, _ in passages]
        assert final == [e for _, e in passages]
        calls.append((peer, under, d, final, circles))
        return d

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DiagramBuilder, "finish", finish)
        build()
    return calls


@settings(max_examples=60, deadline=None)
@given(_build())
def test_finish_maps_builder_darts_onto_the_diagram(build):
    for peer, under, d, final, _ in _finishes(build):
        assert sorted(final) == list(range(len(peer)))
        for x, y in enumerate(peer):
            assert d.mate[final[x]] == final[y]
        # each crossing starts at the incoming under-strand: the builder's under
        # diagonal lands on slots 0 and 2, and walking on from every slot 0
        # enters no crossing at slot 2
        for c, u in enumerate(under):
            assert final[4 * c + u] & 1 == 0
        seen = set()
        for start in range(0, len(d.mate), 4):
            x = start
            while x not in seen:
                assert x & 3 != 2
                seen.add(x)
                x = d.mate[x ^ 2]


@settings(max_examples=60, deadline=None)
@given(_build())
def test_finish_numbers_and_turns_as_the_reference(build):
    for peer, under, d, _, circles in _finishes(build):
        labels, mate, want_circles = finish_by_rotation(peer, under, circles)
        assert list(d.labels) == labels
        assert list(d.mate) == mate
        assert d.circles == want_circles


def test_finish_of_the_empty_builder_spends_it():
    b = DiagramBuilder()
    d = b.finish()
    assert d.n_crossings == 0 and d.circles == {}
    with pytest.raises(BuilderSpent, match="finished already"):
        b.finish()


def _labelled(mate):
    """Flat PD labels that pair exactly the darts that ``mate`` pairs."""
    labels = [0] * len(mate)
    edges = 0
    for d, m in enumerate(mate):
        if not labels[d]:
            edges += 1
            labels[d] = labels[m] = edges
    return array("I", labels)


def _outcome(build):
    try:
        return build()
    except (EdgePairingError, NonPlanarRotation) as e:
        return type(e), str(e)


@settings(max_examples=60, deadline=None)
@given(_built_diagram(), st.data())
def test_corrupted_mate_same_outcome_on_both_paths(d, data):
    # rewire two edges {a, b}, {c, e} into {a, c}, {b, e}
    assume(d.n_crossings > 0)
    mate = list(d.mate)
    a = data.draw(st.integers(0, len(mate) - 1))
    c = data.draw(st.sampled_from([x for x in range(len(mate)) if x not in (a, mate[a])]))
    b, e = mate[a], mate[c]
    mate[a], mate[c], mate[b], mate[e] = c, a, e, b
    labels = _labelled(mate)
    fast = _outcome(lambda: PlanarDiagram(labels, array(d.mate.typecode, mate)))
    full = _outcome(lambda: parse_pd(_pd_text(labels)))
    if isinstance(full, tuple):
        assert fast == full
    else:
        _assert_same_diagram(full, fast)


def _pd_text(labels):
    """PD text of flat labels, written term by term."""
    return " ".join(
        "X({},{},{},{})".format(*labels[i:i + 4]) for i in range(0, len(labels), 4)
    )


def _builder_copy(b, d, offset=0):
    """Wire ``d``'s crossings into builder ``b``, crossing ids shifted by ``offset``."""
    b.crossings(d.n_crossings)  # PD slot 0 enters under: diagonal 0/2 is under
    for x, y in enumerate(d.mate):
        if x < y:
            b.join(x + 4 * offset, y + 4 * offset)


def test_builder_rejects_non_planar_rotation():
    # one crossing whose two diagonals close on themselves: 1 face, not 3
    b = DiagramBuilder()
    b.crossings(1)
    b.join(0, 2)
    b.join(1, 3)
    with pytest.raises(NonPlanarRotation, match="faces"):
        b.finish()
    with pytest.raises(NonPlanarRotation, match="faces"):
        parse_pd("X(1,2,1,2)")


def test_builder_rejects_split_diagram():
    trefoil = parse_pd(TREFOIL)
    b = DiagramBuilder()
    _builder_copy(b, trefoil)
    _builder_copy(b, trefoil, offset=3)
    with pytest.raises(NonPlanarRotation, match="split"):
        b.finish()
    shifted = _pd_text([x + 6 for x in trefoil.labels])
    with pytest.raises(NonPlanarRotation, match="split"):
        parse_pd(TREFOIL + " " + shifted)


def test_builder_copy_round_trips():
    d = parse_pd(FIGURE8)
    b = DiagramBuilder()
    _builder_copy(b, d)
    again = b.finish()
    assert again.n_crossings == 4 and again.n_components == 1
    assert len(trace_faces(again)) == again.n_faces == 6


def _flipped_trefoil():
    """The trefoil's labels and mate with crossing 0 turned by half a turn,
    so that its under-strand enters at slot 2."""
    d = parse_pd(TREFOIL)
    turn = [4 * c + s for c in range(d.n_crossings) for s in range(4)]
    turn[0:4] = [2, 3, 0, 1]  # new dart -> old dart (an involution)
    mate = array(d.mate.typecode, [turn[d.mate[turn[x]]] for x in range(len(turn))])
    return tuple(d.labels[t] for t in turn), mate


def test_flipped_strand_rejected_on_both_paths():
    # finish orients every strand itself, so a flipped strand can only reach
    # the builder path as a corrupted dart array
    labels, mate = _flipped_trefoil()
    with pytest.raises(EdgePairingError, match="orientation"):
        PlanarDiagram(labels, mate)
    with pytest.raises(EdgePairingError, match="orientation"):
        parse_pd(_pd_text(labels))


def test_repr_of_a_diagram_whose_validation_raised():
    # a traceback shows the half-built diagram: its repr names the crossings
    # and leaves out the components it never walked
    d = PlanarDiagram.__new__(PlanarDiagram)
    with pytest.raises(EdgePairingError, match="orientation"):
        d.__init__(*_flipped_trefoil())
    assert repr(d) == "<PlanarDiagram 3 crossings>"
    assert repr(parse_pd(TREFOIL)) == "<PlanarDiagram 3 crossings, 1 components>"


@pytest.mark.parametrize("dart", range(12))
def test_an_unwired_dart_raises_at_once(dart):
    # finish fills mate with _UNWIRED before numbering, so a dart it failed to
    # number sends a strand or face walk out of the array instead of circling
    d = parse_pd(TREFOIL)
    mate = array(d.mate.typecode, d.mate)
    mate[dart] = _UNWIRED
    with pytest.raises(IndexError):
        PlanarDiagram(d.labels, mate)
