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

_UNWIRED_DART = array(_DARTS, (_UNWIRED,))
_GUESS = bytes.maketrans(b"\0\1", b"\4\5")  # under diagonal u -> the guessed turn u + 4


class DiagramBuilder:
    """Assemble a diagram from crossings with explicit slot wiring.

    Positions are darts ``4*crossing + slot``, slots in counterclockwise
    planar order; ``under`` selects which diagonal carries the under-strand
    (0 for slots 0/2, 1 for 1/3).  The wiring ``_peer`` is a flat array of
    C unsigned ints, ``_UNWIRED`` where a dart is not wired yet, and the
    under diagonals ``_under`` are a ``bytearray``, a byte per crossing.
    ``finish`` orients each component, numbers the edges along the strands,
    rotates every crossing so its labels start at the incoming under-strand,
    and carries the circle passages a generator recorded in builder darts
    into the finished diagram's darts.

    ``join`` checks each edge it wires.  A generator that owns fresh
    crossings may write ``_peer`` directly (the coil braid's slices, the
    fill splice); ``finish`` checks that every dart is wired, that the
    wiring is an involution and that no dart is wired to itself, whichever
    way it was written.

    A builder is spent after ``finish``: once the checks pass, ``finish``
    releases ``_peer`` and ``_under``, so the wiring is freed as soon as the
    walk that reads it has written the diagram's arrays.  A caller that keeps
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
        self._peer += _UNWIRED_DART * (4 * count)
        self._under += bytes((under,)) * count
        return range(first, first + count)

    def crossing(self, under: int = 0) -> int:
        return self.crossings(1, under).start

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
        """Return the finished diagram.

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

        # Walk every strand once, numbering its edges in walk order, and write
        # each edge straight into the finished diagram.  Crossing c is turned
        # turn[c] slots, so that its labels start at the incoming under-strand:
        # builder dart d is finished dart d & -4 | (d - turn[d >> 2]) & 3.  The
        # first walk along c's under diagonal fixes turn[c]; until then it is
        # c's under diagonal plus 4, a guess that puts the over-strand at
        # slots 1 and 3 and that _swap_over corrects if it is half a turn out.
        # Each edge is checked from the end it is walked out of: wiring that
        # is an involution on every walked edge brings each walk back to its
        # start, so a bad wiring raises here instead of walking forever.  A
        # walk that meets a dart wired to itself turns back along its strand,
        # so it walks more than the n/2 edges a valid wiring has; until a walk
        # turns back, the walks are done once they have numbered n/2 edges.
        turn = under.translate(_GUESS)
        labels = _filled(_DARTS, 0, n)  # by finished dart
        mate = _filled(_DARTS, 0, n)
        next_label = 1
        p = 0
        turned_back = False
        while next_label <= n // 2 or turned_back:
            try:
                p = labels.index(0, p)  # finished darts are labelled as they are walked
            except ValueError:
                break
            for start in range(p & -4, (p & -4) + 4):  # the first dart not walked yet
                if not labels[start & -4 | (start - turn[p >> 2]) & 3]:
                    break
            d = start
            po = -1  # the finished dart the walk left by; none before the start
            while True:
                t = turn[d >> 2]
                if t > 3 and not (d ^ t) & 1:  # the first walk along this under diagonal
                    turn[d >> 2] = d & 3
                    pos = d & -4
                    if po >= 0:
                        labels[po] = labels[pos] = next_label
                        mate[po] = pos
                        mate[pos] = po
                        next_label += 1
                    if d & 3 != t & 3 and (labels[pos + 1] or labels[pos + 3]):
                        _swap_over(labels, mate, pos + 1)
                else:
                    pos = d & -4 | (d - t) & 3
                    if po >= 0:
                        labels[po] = labels[pos] = next_label
                        mate[po] = pos
                        mate[pos] = po
                        next_label += 1
                        if d == start:
                            break
                po = pos ^ 2
                out = d ^ 2  # slot s + 2 of the same crossing
                d = peer[out]
                if peer[d] != out or d == out:  # not wired back, or wired to itself
                    if d != out:
                        raise EdgePairingError(
                            f"slot {divmod(out, 4)} is wired to {divmod(d, 4)}, "
                            f"which is wired to {divmod(peer[d], 4)}"
                        )
                    turned_back = True
        if next_label - 1 != n // 2:  # some walk turned back: a dart is its own peer
            d = next(d for d in range(n) if peer[d] == d)
            raise EdgePairingError(f"cannot wire slot {divmod(d, 4)} to itself")
        self._peer = self._under = None  # spent: the wiring is read
        del peer, under
        if circles is not None:  # each passage's builder darts, as finished darts
            circles = {
                role: (orient, [(w & -4 | (w - turn[w >> 2]) & 3, e & -4 | (e - turn[e >> 2]) & 3)
                                for w, e in passages])
                for role, (orient, passages) in circles.items()
            }
        return PlanarDiagram(labels, circles, _mate=mate)


def _swap_over(labels, mate, a):
    """Swap the over-strand slots a and a ^ 2 of one crossing, labels and
    wiring, as far as they are written: an edge is moved with its end, and
    an end at either slot moves too."""
    b = a ^ 2
    la, lb = labels[a], labels[b]
    ma, mb = mate[a], mate[b]
    labels[a], labels[b] = lb, la
    if lb:
        na = mb ^ 2 if mb | 2 == b else mb
        mate[a] = na
        mate[na] = a
    if la:
        nb = ma ^ 2 if ma | 2 == b else ma
        mate[b] = nb
        mate[nb] = b
