import random

import pytest
from hypothesis import given, settings, strategies as st

from coilbounds.diagrams import (
    DiagramBuilder,
    PlanarDiagram,
    emit_pd,
    parse_pd,
)
from coilbounds.errors import (
    EdgePairingError,
    NonPlanarRotation,
    NonQuadrivalent,
    PDSyntaxError,
)
from coilbounds.generators import CoilSpec, gen_double_coil, gen_two_bridge
from coilbounds.slopes import ContinuedFraction

TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
FIGURE8 = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"


def test_parse_trefoil():
    d = parse_pd(TREFOIL)
    assert d.n_crossings == 3
    assert d.n_components == 1
    assert len(d.faces()) == 5


def test_parse_empty():
    d = parse_pd("")
    assert d.n_crossings == 0
    assert emit_pd(d) == ""
    assert len(d.faces()) == 1
    assert d.twist_regions().count == 0
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
    with pytest.raises(NonQuadrivalent):
        PlanarDiagram([(1, 2, 3)])


def test_label_pairing_errors():
    with pytest.raises(EdgePairingError, match="edge label 4 appears 1 times"):
        parse_pd("X(1,2,2,1) X(3,3,4,5)")
    with pytest.raises(EdgePairingError, match="edge label 1 appears 3 times"):
        parse_pd("X(1,1,1,2) X(2,3,3,4)")
    with pytest.raises(EdgePairingError, match="bad edge label"):
        PlanarDiagram([(1, 2, 2, "1")])


def test_mate_and_ends_of():
    d = parse_pd(FIGURE8)
    assert d.n_edges == 8
    for e, f in enumerate(d.mate):
        assert f != e and d.mate[f] == e
    for label in range(1, 9):
        (c1, s1), (c2, s2) = d.ends_of(label)
        assert (c1, s1) < (c2, s2)  # first appearance first
        assert d.crossings[c1][s1] == d.crossings[c2][s2] == label
        assert d.mate[4 * c1 + s1] == 4 * c2 + s2


def test_orientation_consistency_required():
    # reversing one crossing's under direction breaks strand orientation
    with pytest.raises(EdgePairingError):
        parse_pd("X(2,4,1,5) X(3,6,4,1) X(5,2,6,3)")


def test_face_counts():
    assert len(parse_pd(TREFOIL).faces()) == 5
    assert len(parse_pd("X(1,2,2,1)").faces()) == 3
    assert len(parse_pd(FIGURE8).faces()) == 6


def test_twist_regions_examples():
    t = parse_pd(TREFOIL).twist_regions()
    assert t.count == 1 and len(t.regions[0]) == 3
    t = parse_pd(FIGURE8).twist_regions()
    assert t.count == 2 and sorted(len(r) for r in t.regions) == [2, 2]
    assert parse_pd("X(1,2,2,1)").twist_regions().count == 1


def test_is_alternating():
    assert parse_pd(TREFOIL).is_alternating()
    assert parse_pd(FIGURE8).is_alternating()
    d = gen_double_coil(CoilSpec(3, 5, 1, 1))
    assert not d.is_alternating()  # q=5 coils pass over several strands in a row


def test_euler_formula_generated():
    for terms in [(2,), (3,), (2, 2), (1, 1, 2), (4, 3, 2), (2, 1, 1, 3)]:
        d = gen_two_bridge(ContinuedFraction(terms))
        v, f = d.n_crossings, len(d.faces())
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
        assert again.twist_regions().count == d.twist_regions().count


def test_twist_regions_relabel_invariant():
    d = parse_pd(TREFOIL)
    rng = random.Random(7)
    labels = list(range(1, d.n_edges + 1))
    for trial in range(20):
        perm = labels[:]
        rng.shuffle(perm)
        relabel = dict(zip(labels, perm))
        moved = PlanarDiagram(
            [tuple(relabel[x] for x in cr) for cr in d.crossings]
        )
        assert moved.twist_regions().count == d.twist_regions().count
        assert moved.is_alternating() == d.is_alternating()


def test_builder_dangling_slot():
    b = DiagramBuilder()
    b.crossing()
    with pytest.raises(EdgePairingError):
        b.finish()


def test_builder_rejects_bad_slots():
    b = DiagramBuilder()
    b.crossing()
    b.crossing()
    with pytest.raises(EdgePairingError):
        b.wire((0, 4), (1, 1))  # would alias slot 0 of crossing 1
    b.wire((0, 0), (1, 1))
    with pytest.raises(EdgePairingError):
        b.wire((0, 0), (1, 2))
    with pytest.raises(EdgePairingError):
        b.wire((0, 2), (0, 2))


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
