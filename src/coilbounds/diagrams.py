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
slot ``s``.  Every per-edge-end fact is a flat ``array`` indexed by dart,
holding machine integers rather than a Python int per entry: ``labels[d]``
is the label of dart d, and ``mate[d]`` the other end of its edge.  The
labels only name the edges.  Three permutations drive everything:

* ``mate``      swaps the two ends of each edge,
* ``s -> s+2``  walks a strand through a crossing,
* ``s -> s+1``  rotates counterclockwise around a crossing; faces are the
  orbits of mate followed by rotation.
"""

from __future__ import annotations

import re
from array import array
from itertools import chain, islice, repeat

from . import slopes
from .errors import EdgePairingError, NonPlanarRotation, PDSyntaxError

__all__ = ["PlanarDiagram", "DiagramBuilder", "parse_pd", "emit_pd", "pd_pieces",
           "describe"]

# Typecode of the flat arrays, darts and edge labels alike: C unsigned ints.
# 4 * MAX_CROSSINGS darts fit many times over, and so does every label a
# builder numbers (at most half the darts); a parsed label of 2^32 or more
# keeps the labels in a tuple.  Unsigned, because array stores those faster
# than signed ones.
_DARTS = "I"
_UNWIRED = (1 << 8 * array(_DARTS).itemsize) - 1  # no dart: the largest C unsigned int


class PlanarDiagram:
    """An immutable, validated planar diagram in PD form.

    ``labels`` and ``mate`` are flat arrays indexed by dart: ``labels[4*c + s]``
    names the edge leaving crossing ``c`` at slot ``s``, and ``mate[4*c + s]``
    is that edge's other end.  Both are ``array``s of C unsigned ints, except
    that ``labels`` is a tuple of Python ints when some label is 2^32 or more
    (PD labels may have 2000 digits).
    ``strands[k]`` is an array of the darts at which link component k enters
    its crossings, in walk order; a component passes through each entering
    dart x and its exit x ^ 2.  ``circles`` maps the
    role of each crossing circle a generator laid ("C1", "C2", "clasp") to
    ``(orient, passages)``, which ``generators.fill_crossing_circle`` reads;
    it is empty for other diagrams.  Edge labels are read only to pair and
    print the PD text.  Validation traces the faces once: it proves their
    count is V + 2 (``n_faces``) and keeps only each bigon's two crossings,
    from which ``n_twist_regions`` counts the twist regions.

    Only ``parse_pd`` and ``DiagramBuilder.finish`` build one, each handing
    over labels and the ``mate`` that pairs them; labels from elsewhere come
    in as PD text.  The constructor checks strands, connectivity and faces,
    not ``mate`` itself; a walk that reaches a dart ``mate`` leaves
    ``_UNWIRED`` raises ``IndexError`` at once instead of circling.
    """

    __slots__ = ("labels", "circles", "mate", "strands", "_bigons")

    def __init__(self, labels, mate, circles=None):
        self.mate = mate
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
        entered = bytearray(n)  # where the strands walked so far enter, once more follow
        covered = 0  # darts on those strands, entering or leaving
        strands = []
        for start in chain(range(0, n, 4), range(n)):
            if covered == n:
                break
            if entered[start] or entered[start ^ 2]:
                continue
            strand = array(_DARTS)
            append = strand.append
            d = start
            while True:
                if d & 3 == 2:
                    raise EdgePairingError(
                        f"inconsistent strand orientation at crossing {d >> 2}"
                    )
                append(d)
                d = mate[d ^ 2]
                if d == start:
                    break
            strands.append(strand)
            # it leaves each crossing by the other end of the diagonal it
            # enters; no dart is its own mate, so it never enters that end
            covered += 2 * len(strand)
            if covered < n:  # more strands to walk: mark where this one enters
                for d in strand:
                    entered[d] = 1
        if len(strands) > 1:
            comp = _filled(0, n)  # the strand through each dart
            for k, strand in enumerate(strands):
                for d in strand:
                    comp[d] = comp[d ^ 2] = k
            # darts 4c and 4c + 1 lie on the two strands through crossing c
            merges = _union_find(zip(comp[0::4], comp[1::4]))
            if merges < len(strands) - 1:
                raise NonPlanarRotation("diagram is split (underlying graph disconnected)")
        return tuple(strands)

    def _trace_faces(self):
        # The faces are the orbits of d -> rotation(mate[d]).  Its conjugate
        # by mate, d -> mate[rotation(d)], has orbits of the same sizes, and
        # each of its bigons joins the same two crossings.  Its table is the
        # dart array shifted by one, slot 3 turning back to slot 0.
        mate = self.mate
        turn = mate[1:]
        turn.extend(mate[:1])
        turn[3::4] = mate[0::4]
        seen = bytearray(len(turn))
        count = 0
        bigons = []
        d0 = seen.find(0)
        while d0 >= 0:
            count += 1
            seen[d0] = 1
            d = turn[d0]
            if d != d0 and turn[d] == d0:  # a bigon: keep its two crossings
                bigons.append((d0 >> 2, d >> 2))
            while d != d0:
                seen[d] = 1
                d = turn[d]
            d0 = seen.find(0, d0 + 1)
        return count, tuple(bigons)

    # -- queries -------------------------------------------------------------

    @property
    def n_crossings(self) -> int:
        return len(self.mate) // 4

    @property
    def n_edges(self) -> int:
        return len(self.mate) // 2

    @property
    def n_faces(self) -> int:
        """V + 2, as validation proved; the empty diagram is one face."""
        return self.n_crossings + 2 if self.mate else 1

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
        return self.n_crossings - _union_find(self._bigons)

    def __repr__(self):
        # no strands if __init__ raised before walking them
        components = f", {self.n_components} components" if hasattr(self, "strands") else ""
        return f"<PlanarDiagram {self.n_crossings} crossings{components}>"


def _filled(value, count):
    """A dart array of ``count`` copies of ``value``."""
    return array(_DARTS, (value,)) * count


def _union_find(pairs):
    """Join every pair in a union-find; return the number of pairs that
    joined two classes, so over n elements n minus that many classes remain.
    Only the elements the pairs name are held, not all n."""
    parent = {}  # each joined element's parent; a root has no entry

    def find(a):
        root = a
        while root in parent:
            root = parent[root]
        while a != root:  # point the path walked at its root
            parent[a], a = root, parent[a]
        return root

    merges = 0
    for a, b in pairs:
        a, b = find(a), find(b)
        if a != b:
            parent[a] = b
            merges += 1
    return merges


def _pair_labels(labels):
    """Pair equal labels, dart by dart, into the dart array ``mate``.

    The first dart of each label is kept in a dense array indexed by label;
    labels that are not all within 1..n/2 (n darts) are first renumbered by
    rank from 0, so one pass pairs every text.
    """
    n = len(labels)
    keys = labels
    top = max(labels, default=0)
    if top > n // 2:  # renumber the labels 0, 1, ... by rank
        from bisect import bisect_left

        distinct = sorted(set(labels))
        keys = array(_DARTS, map(bisect_left, repeat(distinct), labels))
        top = len(distinct) - 1
    first = _filled(_UNWIRED, top + 1)  # key -> its first dart
    mate = _filled(_UNWIRED, n)
    for d, key in enumerate(keys):
        e = first[key]
        if e == _UNWIRED:
            first[key] = d
        elif mate[e] == _UNWIRED:
            mate[e] = d
            mate[d] = e
    if _UNWIRED in mate:  # some label appears once, or three or more times
        counts = _filled(0, top + 1)
        for key in keys:
            counts[key] += 1
        d = next(d for d, key in enumerate(keys) if counts[key] != 2)
        raise EdgePairingError(
            f"edge label {labels[d]} appears {counts[keys[d]]} times, expected 2"
        )
    return mate


# ---------------------------------------------------------------------------
# PD-code text
# ---------------------------------------------------------------------------

# a label of up to MAX_DIGITS ASCII digits, like the CLI's slope integers
_LABEL = rf"([0-9]{{1,{slopes.MAX_DIGITS}}})"
_QUOTED_TERM = 40  # characters of a bad term that an error message quotes
_TERM = re.compile(rf"X\({_LABEL},{_LABEL},{_LABEL},{_LABEL}\)")
# a term none of whose labels is all zeros
_POSITIVE = rf"(?!0+[,)]){_LABEL}"
_GOOD_TERM = re.compile(rf"X\({_POSITIVE},{_POSITIVE},{_POSITIVE},{_POSITIVE}\)")
_WORD = re.compile(r"\S+")  # a term as str.split() finds it


def parse_pd(text: str) -> PlanarDiagram:
    """Parse whitespace-separated ``X(a,b,c,d)`` terms into a diagram.

    A text of more than ``slopes.MAX_CROSSINGS`` terms is refused before any
    term is read or split off, so refusing it costs no more than the text.
    A label is 1 to ``MAX_DIGITS`` ASCII digits, not all zeros; anything
    else is a ``PDSyntaxError``, which quotes the start of the bad term.
    The terms are read in one lazy pass straight into a flat label array,
    whose pairing ``_pair_labels`` checks and builds, after the text is let
    go; ``PlanarDiagram`` then checks the strands, connectivity and faces.
    This is the one way a label list from outside becomes a diagram.
    """
    cap = slopes.MAX_CROSSINGS
    if len(text) > 2 * cap:  # a shorter text holds at most cap terms
        terms = sum(1 for _ in islice(_WORD.finditer(text), cap + 1))
        slopes.check_crossing_count(terms, "PD code")
    try:
        labels = array(_DARTS, map(int, chain.from_iterable(_term_labels(text))))
    except OverflowError:  # a label of 2^32 or more: read them all as Python ints
        labels = tuple(map(int, chain.from_iterable(_term_labels(text))))
    # from here only the labels are read: on Python 3.11+ this frees a text no
    # caller keeps, as parse_pd(fh.read()); 3.10 holds it on the caller's stack
    del text
    return PlanarDiagram(labels, _pair_labels(labels))


def _term_labels(text):
    """The four label digit strings of each term of ``text``, in order."""
    match = _GOOD_TERM.fullmatch
    for word in _WORD.finditer(text):
        m = match(text, word.start(), word.end())
        if m is None:
            token = word[0]
            if _TERM.fullmatch(token):  # the grammar admits digits only, so 0 is the one bad value
                raise PDSyntaxError(f"edge labels must be positive in {_quote(token)}")
            raise PDSyntaxError(f"bad PD term {_quote(token)}")
        yield m.groups()


def describe(d: PlanarDiagram) -> str:
    """Describe a diagram in one line.  ``describe(parse_pd(text))`` checks a
    PD code, since parsing is the whole check (see ``parse_pd``)."""
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
    return "".join(pd_pieces(d))


def pd_pieces(d: PlanarDiagram):
    """The PD text of ``d`` in pieces that join to ``emit_pd(d)``: chunks of
    terms and the spaces between them, so that a writer holds one chunk at a
    time, neither a string per crossing nor the whole text."""
    terms = iter(d.labels)  # four reads of one iterator take one crossing's labels
    terms = map("X({},{},{},{})".format, terms, terms, terms, terms)
    space = ""
    while chunk := " ".join(islice(terms, _EMIT_CHUNK)):
        yield space
        yield chunk
        space = " "


# terms per chunk of emitted text: a chunk in flight holds about 130 B a term,
# 135 KB at 1 024, and a larger chunk raises a writer's peak and saves no time
_EMIT_CHUNK = 1 << 10


def __getattr__(name):
    # DiagramBuilder lives in .builder, which imports this module; it is
    # imported on first use, as the package root imports its modules
    if name == "DiagramBuilder":
        from .builder import DiagramBuilder

        return DiagramBuilder
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
