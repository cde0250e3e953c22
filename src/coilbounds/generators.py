"""Generators for every diagram family around double coil knots.

Four constructions share one combinatorial backbone:

* ``gen_two_bridge``       standard alternating 4-plat from a continued
                           fraction, one twist region per term;
* ``gen_clasped_two_bridge``  the full plat plus one more syllable, a
                           clasp (a crossing circle on two strands, four
                           crossings), with the bottom arcs re-attached;
* ``gen_augmented``        the 3-component parent link: the embedded curve
                           of slope p/q in the projection sphere plus two
                           crossing circles, each encircling the q strands
                           that run through one coil region;
* ``gen_double_coil``      the (p, q) double coil knot itself, with the
                           1/n_i fillings realized as coil braids
                           ((sigma_1 ... sigma_{q-1})^q)^(n_i) laid into
                           the two regions, q(q-1) crossings per full
                           twist, and crossing-free connecting bands.

``fill_crossing_circle`` performs the filling as honest diagram surgery on
a built diagram (delete the circle, splice a braid into the encircled
strands); generating a coil directly and filling the augmented link must
agree crossing-for-crossing, which the test suite checks.

Coil regions sit around the two vertical arcs of the projection-sphere
model (see ``curves``); the two regions carry opposite local orientations
in the plane, so a right-handed twist in the second region is laid down
mirrored.  The convention is normalized so that ``gen_double_coil(1,2,1,1)``
is the standard alternating figure-8 diagram.

``CoilSpec``, the (p, q, n1, n2) parameters, lives in ``slopes`` so that the
bounds need no diagram code; it is re-exported here.
"""

from __future__ import annotations

from array import array

from .curves import (
    GATE_C1_EAST,
    GATE_C2_EAST,
    circle_passages,
    trace_gate_events,
)
from .builder import DiagramBuilder
from .diagrams import PlanarDiagram
from .errors import NotACrossingCircle
from .slopes import CoilSpec, ContinuedFraction, Slope, cfrac_expand, check_crossing_count

__all__ = [
    "CoilSpec",
    "gen_two_bridge",
    "gen_clasped_two_bridge",
    "gen_double_coil",
    "gen_augmented",
    "fill_crossing_circle",
]

# The second coil region is rotated by pi in the plane relative to the
# first; laying its twists mirrored keeps "positive n = right-handed"
# consistent and pins (1,2,1,1) to the figure-8 knot.
_REGION_ORIENT = (1, -1)


# ---------------------------------------------------------------------------
# 4-plats
# ---------------------------------------------------------------------------
#
# Braid crossings use slots 0=NW, 1=SW, 2=SE, 3=NE (counterclockwise) with
# strands read top to bottom; clasp crossings use slots 0=N, 1=W, 2=S, 3=E.


def _lay_circle(b, orient, west, east):
    """Join a crossing circle (the clasp, C1 or C2) on diagonal 1/3 of the
    crossings whose first darts are ``west[i]`` and ``east[i]``, strand i
    running on diagonal 0/2; return ``(orient, passages)`` for ``finish``,
    passage i being ``(west[i], east[i] + 2)``."""
    for t in range(len(east) - 1):
        b.join(east[t] + 3, east[t + 1] + 1)
        b.join(west[t] + 3, west[t + 1] + 1)
    b.join(east[-1] + 3, west[-1] + 3)
    b.join(east[0] + 1, west[0] + 1)
    return orient, [(w, e + 2) for w, e in zip(west, east)]


def _build_plat(terms, with_clasp: bool):
    """Lay the plat of ``terms`` (plus the clasp, by ``_lay_circle`` as the
    augmented circles are) on three columns and close it.

    Syllable i twists columns (1, 2) when i is even and (0, 1) when i is
    odd, and the clasp takes syllable k's place, so columns 1 and 2 always
    hold crossings and column 0 does unless k = 1 with no clasp.  The
    closing joins depend only on the parity of the last syllable; the
    bottom ones avoid a kink under the last twist.
    """
    b = DiagramBuilder()
    cols = [[], [], []]  # (north, south) darts per crossing, top to bottom
    for idx, a in enumerate(terms):
        odd = idx % 2
        # alternating diagram: syllables alternate handedness
        for c in b.crossings(a, under=1 - odd):
            cols[1 - odd].append((4 * c, 4 * c + 1))
            cols[2 - odd].append((4 * c + 3, 4 * c + 2))

    clasp_info = None
    last = len(terms) - 1  # index of the last syllable
    if with_clasp:
        last += 1
        col = 1 - last % 2
        nl, nr = (4 * c for c in b.crossings(2, under=0))  # north gate passes over
        sl, sr = (4 * c for c in b.crossings(2, under=1))
        cols[col] += [(nl, nl + 2), (sl, sl + 2)]
        cols[col + 1] += [(nr, nr + 2), (sr, sr + 2)]
        clasp_info = _lay_circle(b, 1, [nl, nr], [sl, sr])

    # each column joins its crossings top to bottom; those crossings are
    # fresh and each of their darts is wired once here, so the wiring is
    # written directly, and ``finish`` checks it
    peer = b._peer
    for items in cols:
        for (_, south), (north, _) in zip(items, items[1:]):
            peer[south] = north
            peer[north] = south
    (top1, bot1), (top2, bot2) = ((items[0][0], items[-1][1]) for items in cols[1:])
    if not cols[0]:  # k = 1 with no clasp
        closing = ((top1, bot1), (top2, bot2))
    else:
        top0, bot0 = cols[0][0][0], cols[0][-1][1]
        if last % 2:
            closing = ((top0, top1), (bot1, bot2), (top2, bot0))
        else:
            closing = ((top0, top1), (bot0, bot1), (top2, bot2))
    for x, y in closing:
        b.join(x, y)
    return b, clasp_info


def gen_two_bridge(c: ContinuedFraction) -> PlanarDiagram:
    """Standard alternating 2-bridge diagram with one twist region per term."""
    check_crossing_count(sum(c.terms), f"two-bridge diagram {c}")
    b, _ = _build_plat(c.terms, with_clasp=False)
    return b.finish()


def gen_clasped_two_bridge(s: Slope) -> PlanarDiagram:
    """Clasped 2-bridge link: the plat of p/q plus a clasp component.

    The diagram agrees with ``gen_two_bridge`` above the projection
    surface; below it, the two closing arcs attach to different punctures
    and thread a crossing circle (the clasp) that bounds a 2-punctured
    disk.  Filling the clasp with +-1/N surgery turns the diagram into an
    alternating 2-bridge diagram with k+1 twist regions.
    """
    if s.is_infinite or not 0 < s.p < s.q:
        raise ValueError(f"need 0 < p < q, got {s}")
    c = cfrac_expand(s)
    check_crossing_count(sum(c.terms) + 4, f"clasped two-bridge diagram of {s}")
    b, clasp_info = _build_plat(c.terms, with_clasp=True)
    return b.finish({"clasp": clasp_info})


# ---------------------------------------------------------------------------
# Coil braids
# ---------------------------------------------------------------------------
#
# Braid crossings between vertically adjacent strand positions use slots
# 0=W_upper, 1=W_lower, 2=E_lower, 3=E_upper (counterclockwise); a positive
# generator takes the lower-west strand over to upper-east.


def _row_targets(q: int) -> list[int]:
    """Where each dart of one braid row is wired, relative to the row's first dart.

    A row is sigma_1 ... sigma_{q-1}: crossing i twists positions i and
    i+1.  Dart 4*i + s of the row leads to ``targets[4*i + s]``, which is
    negative in the row above and at least 4(q-1) in the row below.
    """
    row = 4 * (q - 1)
    targets = []
    for i in range(q - 1):
        last = i == q - 2
        targets += (
            # slot 0: the strand arriving from position i + 1 in the row above
            4 * i + 3 - row if last else 4 * i + 6 - row,
            # slot 1: from position i, left by the previous crossing of this row
            4 * i - 1 if i else 2 - row,
            # slot 2: on to the row below, where position i is twisted next
            row + 4 * i - 4 if i else row + 1,
            # slot 3: on to the next crossing of this row, or below
            row + 4 * i if last else 4 * i + 5,
        )
    return targets


def _coil_braid(b, q: int, n_signed: int):
    """Lay n_signed full twists on q strands; return (west, east) port darts.

    The braid is q*|n_signed| identical rows, so each dart of a row is wired
    down every row by one extended-slice assignment into the builder's dart
    array: O(q) slices instead of a ``join`` per edge.  The braid owns its
    fresh crossings, and each slice stays inside them: a dart wired to the
    row above skips the first row (the west ports), one wired to the row
    below skips the last (the east ports).  Python refuses a slice of the
    wrong length, and ``finish`` refuses wiring that is not an involution.
    """
    rows = q * abs(n_signed)
    if not rows:  # the empty braid has no ports
        return [], []
    first = b.crossings(rows * (q - 1), under=0 if n_signed > 0 else 1).start
    row = 4 * (q - 1)  # darts per row
    start = 4 * first
    end = start + rows * row
    peer = b._peer
    for pos, target in enumerate(_row_targets(q)):
        lo = start + pos + (row if target < 0 else 0)
        hi = end - (row if target >= row else 0)
        shift = target - pos
        peer[lo:hi:row] = array(peer.typecode, range(lo + shift, hi + shift, row))
    west = [start + 1] + list(range(start, start + row, 4))
    east = list(range(end - row + 2, end, 4)) + [end - 1]
    return west, east


def gen_double_coil(spec: CoilSpec) -> PlanarDiagram:
    """One-component diagram of the (p, q) double coil knot.

    All crossings lie in the two coil regions; the q(q-1)|n_i| crossings of
    region i realize n_i full twists, and the connecting bands carry p
    strands off to one side and q-p to the other, exactly as the traced
    curve of slope p/q dictates.
    """
    check_crossing_count(
        spec.crossing_count, f"double coil (p,q,n1,n2)=({spec.p},{spec.q},{spec.n1},{spec.n2})"
    )
    events = trace_gate_events(spec.p, spec.q)
    passages = circle_passages(events)
    b = DiagramBuilder()
    port = [0] * len(events)  # gate event -> braid port dart
    for region, n in ((0, spec.n1), (1, spec.n2)):
        west, east = _coil_braid(b, spec.q, n * _REGION_ORIENT[region])
        for pos, (w, e) in enumerate(passages[region]):
            port[w], port[e] = west[pos], east[pos]
    # a band runs from each exit to the next entry; the exits are the even
    # events (``trace_gate_events`` gives the order)
    for i in range(0, len(events), 2):
        b.join(port[i], port[i + 1])
    diagram = b.finish()
    if diagram.n_components != 1:
        raise AssertionError("double coil construction must close to a knot")
    return diagram


# ---------------------------------------------------------------------------
# Augmented parent links
# ---------------------------------------------------------------------------


def gen_augmented(s: Slope) -> PlanarDiagram:
    """The 3-component parent link of the (p, q) double coils.

    The curve of slope p/q lies flat in the projection sphere; each of the
    two crossing circles crosses its q strands twice, passing over them on
    its east side and under on its west side, for 4q crossings in all.
    """
    if s.is_infinite or not 0 < s.p < s.q:
        raise ValueError(f"need 0 < p < q, got {s}")
    check_crossing_count(4 * s.q, f"augmented link of {s}")
    events = trace_gate_events(s.p, s.q)
    passages = circle_passages(events)
    b = DiagramBuilder()
    over_gates = (GATE_C1_EAST, GATE_C2_EAST)
    # first dart of each gate event's crossing
    cross = [4 * b.crossings(1, 0 if ev.gate in over_gates else 1).start for ev in events]

    # curve: one edge between consecutive gate events
    m = len(events)
    for i, ev in enumerate(events):
        j = (i + 1) % m
        out_slot = 2 if ev.eastbound else 0
        in_slot = 0 if events[j].eastbound else 2
        b.join(cross[i] + out_slot, cross[j] + in_slot)

    circles = {}
    for region, role in ((0, "C1"), (1, "C2")):
        west = [cross[w] for w, _ in passages[region]]
        east = [cross[e] for _, e in passages[region]]
        circles[role] = _lay_circle(b, _REGION_ORIENT[region], west, east)
    diagram = b.finish(circles)
    if diagram.n_components != 3:
        raise AssertionError("augmented link must have three components")
    return diagram


# ---------------------------------------------------------------------------
# Filling
# ---------------------------------------------------------------------------


def fill_crossing_circle(d: PlanarDiagram, circle: str, n: int) -> PlanarDiagram:
    """Replace a crossing circle by n full twists of its encircled strands.

    ``circle`` is a role of ``d.circles``: "C1" or "C2" of an augmented
    link, or "clasp" of a clasped two-bridge link.  The circle's 2q
    crossings give way to a coil braid with n*q*(q-1) crossings, which is
    empty for n = 0.  One walk splices it in for every n: each wired dart
    joins the next wired dart along its strand, stepping straight through
    the circle's crossings where no braid port sits.  The filled diagram
    keeps the other circles.
    """
    if not isinstance(n, int):
        raise TypeError("full-twist count must be an integer")
    if not isinstance(circle, str) or circle not in d.circles:
        raise NotACrossingCircle(f"{circle!r} is not a crossing circle of this diagram")
    circles = dict(d.circles)
    orient, recs = circles.pop(circle)
    q = len(recs)
    check_crossing_count(
        d.n_crossings - 2 * q + q * (q - 1) * abs(n), f"{circle} filled with {n} full twists"
    )
    through = {x >> 2: x & 1 for rec in recs for x in rec}  # circle crossing -> encircled diagonal
    kept = [c for c in range(d.n_crossings) if c not in through]
    mate = d.mate
    b = DiagramBuilder()
    b.crossings(len(kept))
    west, east = _coil_braid(b, q, n * orient)
    # old dart -> new dart: a kept crossing keeps its slots, a passage's
    # outer darts take the braid's ports, and every other dart gets -1
    new = [-1] * len(mate)
    for i, c in enumerate(kept):
        new[4 * c:4 * c + 4] = range(4 * i, 4 * i + 4)
    for (w, e), port_w, port_e in zip(recs, west, east):
        new[w], new[e] = port_w, port_e
    # each end of a spliced edge writes its own peer; ``finish`` checks the
    # wiring is an involution
    peer = b._peer
    for x, y in enumerate(mate):
        nx = new[x]
        if nx < 0:
            continue
        while new[y] < 0:  # follow the encircled strand through the circle
            if y & 1 != through[y >> 2]:
                raise AssertionError("surgery strayed onto the circle strand")
            y = mate[y ^ 2]
        peer[nx] = new[y]
    del peer  # ``finish`` frees the builder's wiring once it has read it

    for role, (other_orient, passages) in circles.items():
        circles[role] = other_orient, [(new[w], new[e]) for w, e in passages]
    return b.finish(circles)
