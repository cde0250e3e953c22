"""Assembling planar diagrams from crossings with explicit slot wiring.

``DiagramBuilder`` is how every generator makes a diagram: it adds
crossings, wires their darts, and ``finish`` orients the strands, numbers
the edges into flat arrays and returns the ``diagrams.PlanarDiagram`` of
those arrays, with the generator's circle passages carried into its darts.
It is also reachable as ``diagrams.DiagramBuilder``.
"""

from __future__ import annotations

from array import array

from .diagrams import _DARTS, _UNWIRED, PlanarDiagram, _filled
from .errors import BuilderSpent, EdgePairingError, NonQuadrivalent

__all__ = ["DiagramBuilder"]


class DiagramBuilder:
    """Assemble a diagram from crossings with explicit slot wiring.

    Positions are darts ``4*crossing + slot``, slots in counterclockwise
    planar order; ``under`` selects which diagonal carries the under-strand
    (0 for slots 0/2, 1 for 1/3).  The wiring ``_peer`` is a flat array of
    C unsigned ints, ``_UNWIRED`` where a dart is not wired yet, and the
    under diagonals ``_under`` are a ``bytearray``, a byte per crossing.
    ``finish`` walks the strands twice: the first walk checks the wiring and
    turns every crossing so its labels start at the incoming under-strand,
    the second numbers the edges along the strands.  It carries the circle
    passages a generator recorded in builder darts into the finished
    diagram's darts.

    ``join`` checks each edge it wires.  A generator that owns fresh
    crossings may write ``_peer`` directly (the coil braid's slices, the
    fill splice); ``finish`` checks that every dart is wired, that the
    wiring is an involution and that no dart is wired to itself, whichever
    way it was written.

    A builder is spent after ``finish``: once the checks pass, ``finish``
    releases ``_peer`` and ``_under``, so the wiring is freed as soon as the
    walks that read it have written the diagram's arrays.  A caller that keeps
    a reference to ``_peer`` across the call keeps it alive.  Finishing a
    spent builder raises ``BuilderSpent``.
    """

    def __init__(self):
        self._peer = array(_DARTS)  # dart -> dart, _UNWIRED while unwired
        self._under = bytearray()  # crossing -> its under diagonal

    def crossings(self, count: int, under: int = 0) -> range:
        """Add ``count`` crossings with the same under diagonal; return their ids."""
        if under not in (0, 1):
            raise NonQuadrivalent("under diagonal must be 0 or 1")
        first = len(self._under)
        self._peer += _filled(_UNWIRED, 4 * count)
        self._under += bytes((under,)) * count
        return range(first, first + count)

    def join(self, da: int, db: int) -> None:
        """Wire dart ``da`` to dart ``db`` (dart = 4 * crossing + slot)."""
        peer = self._peer
        n = len(peer)
        if not (0 <= da < n and 0 <= db < n):
            raise EdgePairingError(f"darts are 0..{n - 1}, got {da} and {db}")
        if peer[da] & peer[db] != _UNWIRED:  # not both unwired
            d = da if peer[da] != _UNWIRED else db
            raise EdgePairingError(f"slot {divmod(d, 4)} wired twice")
        if da == db:
            raise EdgePairingError(f"cannot wire slot {divmod(da, 4)} to itself")
        peer[da] = db
        peer[db] = da

    def finish(self, circles=None) -> PlanarDiagram:
        """Return the finished diagram, in two walks over the strands: the
        first checks every edge and turns each crossing, the second numbers
        the edges and writes the diagram's arrays.

        ``circles`` maps the role of each crossing circle to ``(orient,
        passages)`` in builder darts.  A passage ``(w, e)`` holds the outer
        darts of one encircled strand at the circle's two crossings: its edge
        inside the circle joins ``w ^ 2`` to ``e ^ 2``, and ``w ^ 1`` lies on
        the circle itself.  The diagram's ``circles`` holds the same passages
        in finished darts, in a new dict; the caller's dict is left as it is.
        """
        peer, under = self._peer, self._under
        if peer is None:
            raise BuilderSpent("this builder was finished already")
        n = len(peer)
        if _UNWIRED in peer:
            raise EdgePairingError(f"slot {divmod(peer.index(_UNWIRED), 4)} left dangling")

        # Pass 1 orients.  It walks each strand from the first dart not walked
        # yet and checks each edge from the end it is walked out of, so a bad
        # wiring raises here instead of walking forever.  Crossing c is turned
        # turn[c] slots, the slot where a walk enters its under diagonal (once
        # in a valid wiring), so builder dart d is finished dart d & -4 |
        # (d - turn[d >> 2]) & 3.  A walk that meets a dart wired to itself
        # turns back and still ends; the first such dart is named after pass 1.
        turn = bytearray(under)  # the under diagonal's parity, until walked
        walked = bytearray(n)
        starts = []
        turned_back = False
        start = walked.find(0)
        while start >= 0:
            starts.append(start)
            d = start
            while True:
                c = d >> 2
                if not (d ^ turn[c]) & 1:  # entering c's under diagonal
                    turn[c] = d & 3
                out = d ^ 2  # slot s + 2 of the same crossing
                walked[d] = walked[out] = 1
                d = peer[out]
                if peer[d] != out:  # not wired back
                    raise EdgePairingError(
                        f"slot {divmod(out, 4)} is wired to {divmod(d, 4)}, "
                        f"which is wired to {divmod(peer[d], 4)}"
                    )
                if d == out:  # wired to itself: the walk turns back
                    turned_back = True
                if d == start:
                    break
            start = walked.find(0, start)
        del walked
        if turned_back:
            d = next(d for d in range(n) if peer[d] == d)
            raise EdgePairingError(f"cannot wire slot {divmod(d, 4)} to itself")

        # Pass 2 numbers the edges in walk order, straight into finished darts.
        labels = _filled(0, n)  # by finished dart
        mate = _filled(_UNWIRED, n)  # an unnumbered dart fails the diagram's walks
        label = 0
        for start in starts:
            d = start
            pos = d & -4 | (d - turn[d >> 2]) & 3
            while True:
                po = pos ^ 2  # the finished dart the walk leaves by
                d = peer[d ^ 2]
                pos = d & -4 | (d - turn[d >> 2]) & 3
                label += 1
                labels[po] = labels[pos] = label
                mate[po] = pos
                mate[pos] = po
                if d == start:
                    break
        self._peer = self._under = None  # spent: the wiring is read
        del peer, under
        if circles is not None:  # each passage's builder darts, as finished darts
            circles = {
                role: (orient, [(w & -4 | (w - turn[w >> 2]) & 3, e & -4 | (e - turn[e >> 2]) & 3)
                                for w, e in passages])
                for role, (orient, passages) in circles.items()
            }
        return PlanarDiagram(labels, mate, circles)
