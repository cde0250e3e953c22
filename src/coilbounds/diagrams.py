"""Planar link diagrams as decorated 4-valent plane graphs.

A diagram is stored in PD form: one 4-tuple of edge labels per crossing,
listed counterclockwise starting from the incoming under-strand, so slots
0 and 2 always carry the under-strand and slots 1 and 3 the over-strand.
Each edge label appears exactly twice in the whole diagram.  The rotation
system implied by the tuples must define an embedding in the sphere, which
for a connected 4-valent graph means exactly V + 2 faces.

Darts
-----
Internally an edge-end is a *dart*, the integer ``4*c + s`` for crossing
``c`` and slot ``s``.  Three permutations drive everything:

* ``mate``      swaps the two ends of each edge,
* ``s -> s+2``  walks a strand through a crossing,
* ``s -> s+1``  rotates counterclockwise around a crossing; faces are the
  orbits of mate followed by rotation.
"""

from __future__ import annotations

import re
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
    "faces",
    "twist_regions",
    "is_alternating",
]


@dataclass(frozen=True)
class TwistRegionPartition:
    """Partition of the crossings into maximal bigon chains."""

    regions: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.regions)


class PlanarDiagram:
    """An immutable, validated planar diagram in PD form."""

    __slots__ = (
        "crossings",
        "provenance",
        "_ends",
        "_mate",
        "_components",
        "_component_slots",
        "_faces",
    )

    def __init__(self, crossings, provenance=None):
        crossings = tuple(tuple(x) for x in crossings)
        for x in crossings:
            if len(x) != 4:
                raise NonQuadrivalent(f"crossing {x} does not have four edge-ends")
            for label in x:
                if not isinstance(label, int) or label < 1:
                    raise EdgePairingError(f"bad edge label {label!r}")
        self.crossings = crossings
        self.provenance = provenance
        self._ends = self._pair_edges()
        self._mate = self._build_mate()
        self._components, self._component_slots = self._walk_strands()
        self._faces = self._trace_faces()
        self._check_sphere()

    # -- validation ---------------------------------------------------------

    def _pair_edges(self):
        ends: dict[int, list[tuple[int, int]]] = {}
        for c, x in enumerate(self.crossings):
            for s, label in enumerate(x):
                ends.setdefault(label, []).append((c, s))
        for label, where in ends.items():
            if len(where) != 2:
                raise EdgePairingError(
                    f"edge label {label} appears {len(where)} times, expected 2"
                )
        return ends

    def _build_mate(self):
        mate = [0] * (4 * len(self.crossings))
        for (c1, s1), (c2, s2) in self._ends.values():
            mate[4 * c1 + s1] = 4 * c2 + s2
            mate[4 * c2 + s2] = 4 * c1 + s1
        return mate

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
                d = self._mate[out]
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
                m = self._mate[d]
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
                c2 = self._mate[4 * c + s] // 4
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
        return len(self._ends)

    @property
    def n_components(self) -> int:
        return len(self._components)

    @property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Edge labels of each link component, in traversal order."""
        return self._components

    def ends_of(self, label: int) -> tuple[tuple[int, int], tuple[int, int]]:
        a, b = self._ends[label]
        return a, b

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


def faces(d: PlanarDiagram):
    return d.faces()


def twist_regions(d: PlanarDiagram) -> TwistRegionPartition:
    return d.twist_regions()


def is_alternating(d: PlanarDiagram) -> bool:
    return d.is_alternating()


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
        self._peer: list[list] = []
        self._under: list[int] = []

    def crossing(self, under: int = 0) -> int:
        if under not in (0, 1):
            raise NonQuadrivalent("under diagonal must be 0 or 1")
        self._peer.append([None] * 4)
        self._under.append(under)
        return len(self._peer) - 1

    def wire(self, a: tuple[int, int], b: tuple[int, int]) -> None:
        for c, s in (a, b):
            if self._peer[c][s] is not None:
                raise EdgePairingError(f"slot {(c, s)} wired twice")
        if a == b:
            raise EdgePairingError(f"cannot wire slot {a} to itself")
        self._peer[a[0]][a[1]] = b
        self._peer[b[0]][b[1]] = a

    def peer(self, end: tuple[int, int]):
        return self._peer[end[0]][end[1]]

    def finish(self, provenance=None):
        """Return ``(diagram, rotations)``; final slot = (slot - rot) mod 4."""
        v = len(self._peer)
        for c in range(v):
            for s in range(4):
                if self._peer[c][s] is None:
                    raise EdgePairingError(f"slot {(c, s)} left dangling")

        labels = [[0] * 4 for _ in range(v)]
        incoming_under = [None] * v
        entered = [[False] * 4 for _ in range(v)]
        next_label = 1

        def walk(c0, s0):
            nonlocal next_label
            c, s = c0, s0
            while True:
                entered[c][s] = True
                entered[c][(s + 2) % 4] = True
                if s in (self._under[c], self._under[c] + 2):
                    incoming_under[c] = s
                out = (s + 2) % 4
                if labels[c][out] == 0:
                    label = next_label
                    next_label += 1
                    labels[c][out] = label
                    c2, s2 = self._peer[c][out]
                    labels[c2][s2] = label
                c, s = self._peer[c][out]
                if (c, s) == (c0, s0):
                    break

        for c in range(v):
            for s in range(4):
                if not entered[c][s]:
                    walk(c, s)

        rotations = []
        tuples = []
        for c in range(v):
            r = incoming_under[c]
            if r is None:
                raise EdgePairingError(f"crossing {c} has no under passage")
            rotations.append(r)
            tuples.append(tuple(labels[c][(r + i) % 4] for i in range(4)))
        return PlanarDiagram(tuples, provenance), rotations
