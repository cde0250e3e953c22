"""Planar link diagrams as decorated 4-valent plane graphs.

A diagram is stored in PD form: one 4-tuple of edge labels per crossing,
listed counterclockwise starting from the incoming under-strand, so slots
0 and 2 always carry the under-strand and slots 1 and 3 the over-strand.
Each edge label appears exactly twice in the whole diagram.  The rotation
system implied by the tuples must define an embedding in the sphere, which
for a connected 4-valent graph means exactly V + 2 faces.

Darts
-----
An edge-end is a *dart*, the integer ``4*c + s`` for crossing ``c`` and
slot ``s``.  Edges are stored once, as the dart array ``mate``; the labels
only name them.  Three permutations drive everything:

* ``mate``      swaps the two ends of each edge,
* ``s -> s+2``  walks a strand through a crossing,
* ``s -> s+1``  rotates counterclockwise around a crossing; faces are the
  orbits of mate followed by rotation.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

from .errors import (
    EdgePairingError,
    NonPlanarRotation,
    NonQuadrivalent,
    PDSyntaxError,
)

__all__ = [
    "PlanarDiagram",
    "TwistRegionPartition",
    "DiagramBuilder",
    "parse_pd",
    "emit_pd",
]


@dataclass(frozen=True)
class TwistRegionPartition:
    """Partition of the crossings into maximal bigon chains."""

    regions: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.regions)


class PlanarDiagram:
    """An immutable, validated planar diagram in PD form.

    ``mate`` is the dart array: ``mate[4*c + s]`` is the other end of the
    edge leaving crossing ``c`` at slot ``s``.
    """

    __slots__ = (
        "crossings",
        "provenance",
        "mate",
        "_edge_dart",
        "_components",
        "_component_slots",
        "_faces",
    )

    def __init__(self, crossings, provenance=None):
        crossings = tuple(tuple(x) for x in crossings)
        self.crossings = crossings
        self.provenance = provenance
        self.mate, self._edge_dart = _pair_labels(crossings)
        self._components, self._component_slots = self._walk_strands()
        self._faces = self._trace_faces()
        self._check_sphere()

    # -- validation ---------------------------------------------------------

    def _walk_strands(self):
        """Partition edges into link components; record crossing passages.

        Components containing under-passages are walked in the orientation
        the PD convention dictates (under-strands enter at slot 0); meeting
        a slot-2 entrance means the code orients some strand both ways.
        """
        n = 4 * len(self.crossings)
        entered = [False] * n
        components: list[tuple[int, ...]] = []
        component_slots: list[tuple[int, ...]] = []

        def walk(start: int):
            labels, slots = [], []
            d = start
            while True:
                c, s = divmod(d, 4)
                if s == 2:
                    raise EdgePairingError(
                        f"inconsistent strand orientation at crossing {c}"
                    )
                entered[d] = True
                entered[4 * c + (s + 2) % 4] = True
                slots.append(s)
                out = 4 * c + (s + 2) % 4
                labels.append(self.crossings[c][(s + 2) % 4])
                d = self.mate[out]
                if d == start:
                    break
            components.append(tuple(labels))
            component_slots.append(tuple(slots))

        for c in range(len(self.crossings)):
            if not entered[4 * c]:
                walk(4 * c)
        for d in range(n):
            if not entered[d]:
                walk(d)
        return tuple(components), tuple(component_slots)

    def _trace_faces(self):
        n = 4 * len(self.crossings)
        seen = [False] * n
        out: list[tuple[int, ...]] = []
        for d0 in range(n):
            if seen[d0]:
                continue
            face = []
            d = d0
            while not seen[d]:
                seen[d] = True
                face.append(d)
                m = self.mate[d]
                d = (m & ~3) + ((m + 1) & 3)
            out.append(tuple(face))
        return tuple(out)

    def _check_sphere(self):
        v = len(self.crossings)
        if v == 0:
            return
        # connectivity of the underlying 4-valent graph
        seen = {0}
        stack = [0]
        while stack:
            c = stack.pop()
            for s in range(4):
                c2 = self.mate[4 * c + s] // 4
                if c2 not in seen:
                    seen.add(c2)
                    stack.append(c2)
        if len(seen) != v:
            raise NonPlanarRotation("diagram is split (underlying graph disconnected)")
        if len(self._faces) != v + 2:
            raise NonPlanarRotation(
                f"rotation system has {len(self._faces)} faces, "
                f"a sphere embedding needs {v + 2}"
            )

    # -- queries -------------------------------------------------------------

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    @property
    def n_edges(self) -> int:
        return len(self._edge_dart)

    @property
    def n_components(self) -> int:
        return len(self._components)

    @property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Edge labels of each link component, in traversal order."""
        return self._components

    def ends_of(self, label: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """(crossing, slot) of both ends of an edge, smaller dart first."""
        d = self._edge_dart[label]
        return divmod(d, 4), divmod(self.mate[d], 4)

    def component_of_edge(self, label: int) -> int:
        for i, comp in enumerate(self._components):
            if label in comp:
                return i
        raise KeyError(label)

    def faces(self) -> tuple[tuple[int, ...], ...]:
        if not self.crossings:
            return ((),)
        return self._faces

    def is_alternating(self) -> bool:
        """True iff crossings alternate over/under along every component."""
        for slots in self._component_slots:
            n = len(slots)
            for i in range(n):
                if (slots[i] == 0) == (slots[(i + 1) % n] == 0):
                    return False
        return True

    def twist_regions(self) -> TwistRegionPartition:
        """Maximal chains of crossings joined by bigon faces.

        Two crossings belong to the same twist region when some sequence of
        bigon faces connects them; a crossing adjacent to no bigon (or only
        to a bigon folding back onto itself) is a region by itself.
        """
        v = len(self.crossings)
        parent = list(range(v))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for face in self._faces:
            if len(face) == 2:
                c1, c2 = face[0] // 4, face[1] // 4
                if c1 != c2:
                    parent[find(c1)] = find(c2)
        groups: dict[int, list[int]] = {}
        for c in range(v):
            groups.setdefault(find(c), []).append(c)
        regions = tuple(tuple(g) for g in sorted(groups.values()))
        return TwistRegionPartition(regions)

    def __repr__(self):
        return f"<PlanarDiagram {self.n_crossings} crossings, {self.n_components} components>"


def _pair_labels(crossings):
    """Check the tuples and pair equal labels into the dart array ``mate``.

    Returns ``(mate, edge_dart)``; ``edge_dart`` maps each label to its
    first dart, in order of first appearance.
    """
    mate = [-1] * (4 * len(crossings))
    edge_dart: dict[int, int] = {}
    for c, x in enumerate(crossings):
        if len(x) != 4:
            raise NonQuadrivalent(f"crossing {x} does not have four edge-ends")
        for s, label in enumerate(x):
            if not isinstance(label, int) or label < 1:
                raise EdgePairingError(f"bad edge label {label!r}")
            d = 4 * c + s
            e = edge_dart.setdefault(label, d)
            if e != d and mate[e] < 0:
                mate[e] = d
                mate[d] = e
    if -1 in mate:  # some label appears once, or three or more times
        counts = Counter(label for x in crossings for label in x)
        label = next(label for label in edge_dart if counts[label] != 2)
        raise EdgePairingError(
            f"edge label {label} appears {counts[label]} times, expected 2"
        )
    return tuple(mate), edge_dart


# ---------------------------------------------------------------------------
# PD-code text
# ---------------------------------------------------------------------------

_TERM = re.compile(r"X\((\d+),(\d+),(\d+),(\d+)\)\Z")


def parse_pd(text: str, provenance=None) -> PlanarDiagram:
    """Parse whitespace-separated ``X(a,b,c,d)`` terms into a diagram."""
    crossings = []
    for token in text.split():
        m = _TERM.match(token)
        if not m:
            raise PDSyntaxError(f"bad PD term {token!r}")
        labels = tuple(int(g) for g in m.groups())
        if any(label < 1 for label in labels):
            raise PDSyntaxError(f"edge labels must be positive in {token!r}")
        crossings.append(labels)
    return PlanarDiagram(crossings, provenance)


def emit_pd(d: PlanarDiagram) -> str:
    return " ".join("X({},{},{},{})".format(*x) for x in d.crossings)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


class DiagramBuilder:
    """Assemble a diagram from crossings with explicit slot wiring.

    Slots are given in counterclockwise planar order; ``under`` selects
    which diagonal carries the under-strand (0 for slots 0/2, 1 for 1/3).
    ``finish`` orients each component, numbers the edges along the strands,
    and rotates every crossing so its tuple starts at the incoming
    under-strand; it reports the applied rotations so callers can translate
    slot references into the finished diagram.
    """

    def __init__(self):
        self._peer: list[int] = []  # dart -> dart, -1 while unwired
        self._under: list[int] = []

    def crossing(self, under: int = 0) -> int:
        if under not in (0, 1):
            raise NonQuadrivalent("under diagonal must be 0 or 1")
        self._peer.extend((-1, -1, -1, -1))
        self._under.append(under)
        return len(self._under) - 1

    def wire(self, a: tuple[int, int], b: tuple[int, int]) -> None:
        if not (0 <= a[1] < 4 and 0 <= b[1] < 4):
            raise EdgePairingError(f"slots are 0..3, got {a} and {b}")
        da, db = 4 * a[0] + a[1], 4 * b[0] + b[1]
        for end, d in ((a, da), (b, db)):
            if self._peer[d] >= 0:
                raise EdgePairingError(f"slot {end} wired twice")
        if da == db:
            raise EdgePairingError(f"cannot wire slot {a} to itself")
        self._peer[da] = db
        self._peer[db] = da

    def finish(self, provenance=None):
        """Return ``(diagram, rotations)``; final slot = (slot - rot) mod 4."""
        peer, under = self._peer, self._under
        if -1 in peer:
            raise EdgePairingError(f"slot {divmod(peer.index(-1), 4)} left dangling")

        labels = [0] * len(peer)
        incoming_under = [None] * len(under)
        entered = [False] * len(peer)
        next_label = 1
        for start in range(len(peer)):
            if entered[start]:
                continue
            d = start
            while True:
                c, s = divmod(d, 4)
                out = d ^ 2  # slot s + 2 of the same crossing
                entered[d] = entered[out] = True
                if s % 2 == under[c]:
                    incoming_under[c] = s
                if labels[out] == 0:
                    labels[out] = labels[peer[out]] = next_label
                    next_label += 1
                d = peer[out]
                if d == start:
                    break

        rotations = []
        tuples = []
        for c, r in enumerate(incoming_under):
            if r is None:
                raise EdgePairingError(f"crossing {c} has no under passage")
            rotations.append(r)
            tuples.append(tuple(labels[4 * c + (r + i) % 4] for i in range(4)))
        return PlanarDiagram(tuples, provenance), rotations
