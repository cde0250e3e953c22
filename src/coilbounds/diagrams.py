"""Planar link diagrams as decorated 4-valent plane graphs.

A diagram is stored in PD form: four edge labels per crossing, listed
counterclockwise starting from the incoming under-strand, so slots 0 and 2
always carry the under-strand and slots 1 and 3 the over-strand.  Each
edge label appears exactly twice in the whole diagram.  The rotation
system implied by the labels must define an embedding in the sphere, which
for a connected 4-valent graph means exactly V + 2 faces.

Darts
-----
An edge-end is a *dart*, the integer ``4*c + s`` for crossing ``c`` and
slot ``s``.  Every per-edge-end fact is a flat sequence indexed by dart:
``labels[d]`` is the label of dart d, and ``mate[d]`` the other end of its
edge.  The labels only name the edges.  Three permutations drive
everything:

* ``mate``      swaps the two ends of each edge,
* ``s -> s+2``  walks a strand through a crossing,
* ``s -> s+1``  rotates counterclockwise around a crossing; faces are the
  orbits of mate followed by rotation.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import chain, islice
from operator import itemgetter

from . import slopes
from .errors import (
    BuilderSpent,
    EdgePairingError,
    NonPlanarRotation,
    NonQuadrivalent,
    PDSyntaxError,
)

__all__ = [
    "PlanarDiagram",
    "DiagramBuilder",
    "parse_pd",
    "emit_pd",
    "verify_pd_text",
]


class PlanarDiagram:
    """An immutable, validated planar diagram in PD form.

    ``labels`` and ``mate`` are indexed by dart: ``labels[4*c + s]`` names
    the edge leaving crossing ``c`` at slot ``s``, and ``mate[4*c + s]`` is
    that edge's other end.  ``strands[k]`` lists the darts at which link
    component k enters its crossings, in walk order; a component passes
    through each entering dart x and its exit x ^ 2.  ``circles`` maps the
    role of each crossing circle a generator laid ("C1", "C2", "clasp") to
    ``(orient, passages)``, which ``generators.fill_crossing_circle`` reads;
    it is empty for other diagrams.  Edge labels are read only to pair and
    print the PD text.  Validation traces the faces once: it proves their
    count is V + 2 (``n_faces``) and keeps only each bigon's two crossings,
    from which ``n_twist_regions`` counts the twist regions.
    """

    __slots__ = ("labels", "circles", "mate", "strands", "_bigons")

    def __init__(self, labels, circles=None, *, _mate=None):
        # ``_mate`` is the hand-over of a caller that already holds the dart
        # array: ``DiagramBuilder.finish`` wired it, and ``parse_pd`` paired
        # the labels it read, so the labels are neither copied nor checked
        # again.  Strands, faces and the sphere count are checked on every path.
        if _mate is None:
            labels = tuple(labels)
            if len(labels) % 4:
                raise NonQuadrivalent(f"{len(labels)} edge-ends are not four per crossing")
            for label in labels:
                if type(label) is not int or label < 1:
                    raise EdgePairingError(f"bad edge label {label!r}")
            _mate = _pair_labels(labels)
        self.mate = _mate
        self.labels = labels
        self.circles = {} if circles is None else circles
        self.strands = self._walk_strands()
        faces, self._bigons = self._trace_faces()
        v = self.n_crossings
        if v and faces != v + 2:
            raise NonPlanarRotation(
                f"rotation system has {faces} faces, a sphere embedding needs {v + 2}"
            )

    # -- validation ---------------------------------------------------------

    def _walk_strands(self):
        """Partition the darts into link components, one strand each.

        Components containing under-passages are walked in the orientation
        the PD convention dictates (under-strands enter at slot 0); meeting
        a slot-2 entrance means the code orients some strand both ways.  The
        underlying graph is connected iff the components are, joined at the
        crossings where they meet; a knot needs no such check.
        """
        mate = self.mate
        n = len(mate)
        comp = [-1] * n  # the component through each dart, while walking
        strands: list[tuple[int, ...]] = []
        for start in chain(range(0, n, 4), range(n)):
            if comp[start] >= 0:
                continue
            k = len(strands)
            strand = []
            d = start
            while True:
                if d & 3 == 2:
                    raise EdgePairingError(
                        f"inconsistent strand orientation at crossing {d >> 2}"
                    )
                out = d ^ 2
                comp[d] = comp[out] = k
                strand.append(d)
                d = mate[out]
                if d == start:
                    break
            strands.append(tuple(strand))
        if len(strands) > 1:
            # darts 4c and 4c + 1 lie on the two strands through crossing c
            merges = _union_find(len(strands), zip(comp[0::4], comp[1::4]))
            if merges < len(strands) - 1:
                raise NonPlanarRotation("diagram is split (underlying graph disconnected)")
        return tuple(strands)

    def _trace_faces(self):
        mate = self.mate
        seen = bytearray(len(mate))
        count = 0
        bigons = []
        for d0 in range(len(mate)):
            if seen[d0]:
                continue
            count += 1
            size = 0
            d = d0
            while not seen[d]:
                seen[d] = 1
                size += 1
                m = mate[d]
                d = (m & ~3) + ((m + 1) & 3)
            if size == 2:  # a bigon: keep its crossings, d0's and mate[d0]'s
                bigons.append((d0 >> 2, mate[d0] >> 2))
        return count, tuple(bigons)

    # -- queries -------------------------------------------------------------

    @property
    def n_crossings(self) -> int:
        return len(self.labels) // 4

    @property
    def n_edges(self) -> int:
        return len(self.mate) // 2

    @property
    def n_faces(self) -> int:
        """V + 2, as validation proved; the empty diagram is one face."""
        return self.n_crossings + 2 if self.labels else 1

    @property
    def n_components(self) -> int:
        return len(self.strands)

    def is_alternating(self) -> bool:
        """True iff crossings alternate over/under along every component."""
        for strand in self.strands:
            prev = strand[-1] & 3 == 0  # slot 0 enters under
            for d in strand:
                under = d & 3 == 0
                if under == prev:
                    return False
                prev = under
        return True

    @property
    def n_twist_regions(self) -> int:
        """The number of twist regions: maximal chains of crossings joined
        by bigon faces.  A crossing adjacent to no bigon (or only to a bigon
        folding back onto itself) is a region by itself."""
        v = self.n_crossings
        return v - _union_find(v, self._bigons)

    def __repr__(self):
        return f"<PlanarDiagram {self.n_crossings} crossings, {self.n_components} components>"


def _union_find(n, pairs):
    """Join every pair in a union-find over 0..n-1; return the number of
    pairs that joined two classes, so n minus that many classes remain."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    merges = 0
    for a, b in pairs:
        a, b = find(a), find(b)
        if a != b:
            parent[a] = b
            merges += 1
    return merges


def _pair_labels(labels):
    """Pair equal labels, dart by dart, into the dart array ``mate``."""
    first: dict[int, int] = {}  # label -> its first dart, in order of appearance
    mate = [-1] * len(labels)
    for d, label in enumerate(labels):
        e = first.setdefault(label, d)
        if e != d and mate[e] < 0:
            mate[e] = d
            mate[d] = e
    if -1 in mate:  # some label appears once, or three or more times
        counts = Counter(labels)
        label = next(label for label in first if counts[label] != 2)
        raise EdgePairingError(
            f"edge label {label} appears {counts[label]} times, expected 2"
        )
    return tuple(mate)


# ---------------------------------------------------------------------------
# PD-code text
# ---------------------------------------------------------------------------

# a label of up to MAX_DIGITS ASCII digits, like the CLI's slope integers
_LABEL = rf"([0-9]{{1,{slopes.MAX_DIGITS}}})"
_QUOTED_TERM = 40  # characters of a bad term that an error message quotes
_TERM = re.compile(rf"X\({_LABEL},{_LABEL},{_LABEL},{_LABEL}\)\Z")
_WORD = re.compile(r"\S+")  # a term as str.split() finds it


def parse_pd(text: str) -> PlanarDiagram:
    """Parse whitespace-separated ``X(a,b,c,d)`` terms into a diagram.

    A text of more than ``slopes.MAX_CROSSINGS`` terms is refused before any
    term is read or split off, so refusing it costs no more than the text.
    A label is 1 to ``MAX_DIGITS`` ASCII digits, not all zeros; anything
    else is a ``PDSyntaxError``, which quotes the start of the bad term.
    Each term is checked once, here, and the flat labels with their
    pairing are handed to ``PlanarDiagram`` as ``DiagramBuilder.finish``
    hands over its wiring.
    """
    cap = slopes.MAX_CROSSINGS
    if len(text) > 2 * cap:  # a shorter text holds at most cap terms
        terms = sum(1 for _ in islice(_WORD.finditer(text), cap + 1))
        slopes.check_crossing_count(terms, "PD code")
    labels = []
    for token in text.split():
        m = _TERM.match(token)
        if not m:
            raise PDSyntaxError(f"bad PD term {_quote(token)}")
        term = [*map(int, m.groups())]
        if 0 in term:  # the grammar admits digits only, so 0 is the one bad value
            raise PDSyntaxError(f"edge labels must be positive in {_quote(token)}")
        labels += term
    labels = tuple(labels)
    return PlanarDiagram(labels, _mate=_pair_labels(labels))


def verify_pd_text(text: str) -> str:
    """Validate a PD code and describe it in one line.

    Parsing is the whole check: label pairing, strand orientation, faces,
    the Euler count and connectivity (see ``parse_pd``).
    """
    d = parse_pd(text)
    return (
        f"ok: {d.n_crossings} crossings, {d.n_edges} edges, {d.n_faces} faces, "
        f"{d.n_components} components, {d.n_twist_regions} twist regions, "
        f"alternating={d.is_alternating()}"
    )


def _quote(token: str) -> str:
    """repr of a PD term, cut to its first _QUOTED_TERM characters."""
    if len(token) > _QUOTED_TERM:
        return repr(token[:_QUOTED_TERM]) + "..."
    return repr(token)


def emit_pd(d: PlanarDiagram) -> str:
    terms = iter(d.labels)  # four reads of one iterator take one crossing's labels
    return " ".join(map("X({},{},{},{})".format, terms, terms, terms, terms))


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


# slots of a crossing read counterclockwise from slot r
_ROTATED = tuple(tuple((r + i) % 4 for i in range(4)) for r in range(4))


class DiagramBuilder:
    """Assemble a diagram from crossings with explicit slot wiring.

    Positions are darts ``4*crossing + slot``, slots in counterclockwise
    planar order; ``under`` selects which diagonal carries the under-strand
    (0 for slots 0/2, 1 for 1/3).  ``finish`` orients each component,
    numbers the edges along the strands, and rotates every crossing so its
    labels start at the incoming under-strand; it returns the map from
    builder darts to finished darts so callers can carry the darts they
    recorded into the finished diagram.

    ``join`` checks each edge it wires.  A generator that owns fresh
    crossings may write ``_peer`` directly (the coil braid's slices, the
    fill splice); ``finish`` checks that every dart is wired and that the
    wiring is an involution, whichever way it was written.

    A builder is spent after ``finish``: once the checks pass, ``finish``
    releases ``_peer`` and ``_under`` and frees the wiring as soon as it is
    read, before the diagram's dart array is built.  A caller that keeps a
    reference to ``_peer`` across the call keeps it alive.  Finishing a spent
    builder raises ``BuilderSpent``.
    """

    def __init__(self):
        self._peer: list[int] = []  # dart -> dart, -1 while unwired
        self._under: list[int] = []

    def crossings(self, count: int, under: int = 0) -> range:
        """Add ``count`` crossings with the same under diagonal; return their ids."""
        if under not in (0, 1):
            raise NonQuadrivalent("under diagonal must be 0 or 1")
        first = len(self._under)
        self._peer += [-1] * (4 * count)
        self._under += [under] * count
        return range(first, first + count)

    def crossing(self, under: int = 0) -> int:
        return self.crossings(1, under).start

    def join(self, da: int, db: int) -> None:
        """Wire dart ``da`` to dart ``db`` (dart = 4 * crossing + slot)."""
        peer = self._peer
        if not (0 <= da < len(peer) and 0 <= db < len(peer)):
            raise EdgePairingError(f"darts are 0..{len(peer) - 1}, got {da} and {db}")
        for d in (da, db):
            if peer[d] >= 0:
                raise EdgePairingError(f"slot {divmod(d, 4)} wired twice")
        if da == db:
            raise EdgePairingError(f"cannot wire slot {divmod(da, 4)} to itself")
        peer[da] = db
        peer[db] = da

    def finish(self, circles=None):
        """Return ``(diagram, final)``; builder dart d is diagram dart final[d].

        ``circles`` becomes the diagram's ``circles`` as it is; a caller that
        recorded builder darts in it maps them through ``final``.
        """
        peer, under = self._peer, self._under
        if peer is None:
            raise BuilderSpent("this builder was finished already")
        n = len(peer)
        if -1 in peer:
            raise EdgePairingError(f"slot {divmod(peer.index(-1), 4)} left dangling")

        # Walk every strand once, numbering its edges in walk order; a dart
        # is walked once its edge has a label.  Each edge is checked from the
        # end it is walked out of: wiring that is an involution on every
        # walked edge brings each walk back to its start, so a bad wiring
        # raises here instead of walking forever.
        labels = [0] * n
        entered = bytearray(n)
        next_label = 1
        for start in range(n):
            if labels[start]:
                continue
            d = start
            while True:
                entered[d] = 1
                out = d ^ 2  # slot s + 2 of the same crossing
                d = peer[out]
                if peer[d] != out:
                    raise EdgePairingError(
                        f"slot {divmod(out, 4)} is wired to {divmod(d, 4)}, "
                        f"which is wired to {divmod(peer[d], 4)}"
                    )
                labels[out] = labels[d] = next_label
                next_label += 1
                if d == start:
                    break
        self._peer = self._under = None  # spent: the wiring lives on only here
        # rotate each crossing so its labels start at the incoming under-strand:
        # finished dart 4c + i is builder dart 4c + (i + turns[c]) mod 4
        turns = [u if entered[4 * c + u] else u + 2 for c, u in enumerate(under)]
        del entered, under
        # final inverts that: a turn is 0..3, so _ROTATED[-r] turns by -r mod 4
        blocks = range(0, n, 4)
        final = [b + i for b, r in zip(blocks, turns) for i in _ROTATED[-r]]
        if not n:  # the empty diagram; an itemgetter needs an item
            return PlanarDiagram((), circles, _mate=()), final
        # Gather in C, and free the wiring before the next set of darts is
        # made: far[d] = final[peer[d]], and with source[e] the builder dart
        # of finished dart e, mate[e] = far[source[e]] and the diagram's
        # label of e is labels[source[e]].
        far = itemgetter(*peer)(final)
        del peer
        gather = itemgetter(*[b + i for b, r in zip(blocks, turns) for i in _ROTATED[r]])
        mate = gather(far)
        del far
        labels = gather(labels)
        del gather
        return PlanarDiagram(labels, circles, _mate=mate), final
