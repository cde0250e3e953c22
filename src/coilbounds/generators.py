"""Generators for every diagram family around double coil knots.

Four constructions share one combinatorial backbone:

* ``gen_two_bridge``       standard alternating 4-plat from a continued
                           fraction, one twist region per term;
* ``gen_clasped_two_bridge``  the same plat with the final twist region
                           replaced by a clasp (a crossing circle on two
                           strands) and the bottom arcs re-attached;
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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .curves import (
    GATE_C1_EAST,
    GATE_C1_WEST,
    GATE_C2_EAST,
    GATE_C2_WEST,
    circle_passages,
    is_entering_event,
    trace_gate_events,
)
from .diagrams import DiagramBuilder, PlanarDiagram
from .errors import NotACrossingCircle, NotAKnot
from .slopes import ContinuedFraction, Slope, cfrac_expand

__all__ = [
    "CoilSpec",
    "gen_two_bridge",
    "gen_clasped_two_bridge",
    "gen_double_coil",
    "gen_augmented",
    "fill_crossing_circle",
    "generalized_twist_regions",
]

# The second coil region is rotated by pi in the plane relative to the
# first; laying its twists mirrored keeps "positive n = right-handed"
# consistent and pins (1,2,1,1) to the figure-8 knot.
_REGION_ORIENT = (1, -1)


@dataclass(frozen=True)
class CoilSpec:
    """Parameters (p, q, n1, n2) of a double coil knot diagram."""

    p: int
    q: int
    n1: int
    n2: int

    def __post_init__(self):
        if self.q < 2 or not 0 < self.p < self.q:
            raise ValueError(f"need 0 < p < q with q >= 2, got p={self.p} q={self.q}")
        if gcd(self.p, self.q) != 1:
            raise NotAKnot(f"gcd({self.p},{self.q}) != 1: two coils on shared strands form a link")
        if self.n1 == 0 or self.n2 == 0:
            raise ValueError("full-twist counts n1, n2 must be non-zero")

    @property
    def slope(self) -> Slope:
        return Slope(self.p, self.q)

    @property
    def crossing_count(self) -> int:
        return self.q * (self.q - 1) * (abs(self.n1) + abs(self.n2))

    @property
    def twist_region_count(self) -> int:
        """Twist regions t(D) of ``gen_double_coil(self)``, in closed form:
        q(q-1)(|n1|+|n2|) - 2*[p = 2] for q >= 3, and 2 for q = 2.

        For q = 2 each region is the bigon chain sigma_1^(2n).  For q >= 3 no
        generator of (sigma_1 ... sigma_{q-1})^m repeats without a
        neighbouring generator in between, so no bigon lies inside a region.
        Each region's braid has exactly two crossings carrying two adjacent
        ports: the first sigma_1 (west, positions 0 and 1) and the last
        sigma_{q-1} (east, positions q-2 and q-1).  A bigon must therefore
        join two such crossings through two parallel band edges, and the
        band wiring of ``circle_passages`` does that exactly when p = 2:
        west to west and east to east across the two regions, merging two
        pairs of crossings.  Diagram generation stays the oracle: the law
        is checked against ``twist_regions()`` in the tests and in verify.
        """
        if self.q == 2:
            return 2
        return self.crossing_count - 2 * (self.p == 2)


# ---------------------------------------------------------------------------
# 4-plats
# ---------------------------------------------------------------------------
#
# Braid crossings use slots 0=NW, 1=SW, 2=SE, 3=NE (counterclockwise) with
# strands read top to bottom; clasp crossings use slots 0=N, 1=W, 2=S, 3=E.


def _syllable_column(idx: int) -> int:
    """Left column of the strand pair twisted by syllable ``idx`` (0-based)."""
    return 1 if idx % 2 == 0 else 0


def _resolve_plat_closure(b, col_items, top_caps, bottom_caps):
    """Wire column chains and the plat caps.

    ``col_items[j]`` lists (north_dart, south_dart) per crossing on column
    j, top to bottom.  Caps and crossing-free columns are symbolic links
    between column terminals; each chain of links joins exactly two
    concrete darts.
    """
    for items in col_items:
        for (_, south), (north, _) in zip(items, items[1:]):
            b.wire(south, north)

    darts = {}
    links: dict[tuple, list] = {}
    for j, items in enumerate(col_items):
        darts[("T", j)] = items[0][0] if items else None
        darts[("B", j)] = items[-1][1] if items else None
        if not items:
            links.setdefault(("T", j), []).append(("B", j))
            links.setdefault(("B", j), []).append(("T", j))
    for side, (a, bb) in (("T", top_caps[0]), ("T", top_caps[1]),
                          ("B", bottom_caps[0]), ("B", bottom_caps[1])):
        links.setdefault((side, a), []).append((side, bb))
        links.setdefault((side, bb), []).append((side, a))

    wired = set()
    for start, dart in darts.items():
        if dart is None or start in wired:
            continue
        prev, node = None, start
        while True:
            nxt = [x for x in links[node] if x != prev]
            if not nxt:
                raise AssertionError("open plat closure chain")
            prev, node = node, nxt[0]
            if darts[node] is not None:
                break
        wired.add(start)
        wired.add(node)
        b.wire(dart, darts[node])


def _plat_caps(last_col: int):
    """Bottom cap pattern avoiding a kink under the final twist position."""
    if last_col == 1:
        return ((0, 1), (2, 3))
    return ((1, 2), (0, 3))


def _build_plat(terms, with_clasp: bool):
    b = DiagramBuilder()
    col_items = [[] for _ in range(4)]
    for idx, a in enumerate(terms):
        col = _syllable_column(idx)
        # alternating diagram: syllables alternate handedness
        under = 1 if idx % 2 == 0 else 0
        for _ in range(a):
            c = b.crossing(under=under)
            col_items[col].append(((c, 0), (c, 1)))
            col_items[col + 1].append(((c, 3), (c, 2)))

    clasp_info = None
    k = len(terms)
    if with_clasp:
        col = _syllable_column(k)
        nl = b.crossing(under=0)  # north gate passes over the strands
        nr = b.crossing(under=0)
        sl = b.crossing(under=1)
        sr = b.crossing(under=1)
        for c_top, c_bot, j in ((nl, sl, col), (nr, sr, col + 1)):
            col_items[j].append(((c_top, 0), (c_top, 2)))
            col_items[j].append(((c_bot, 0), (c_bot, 2)))
        b.wire((nl, 3), (nr, 1))
        b.wire((sl, 3), (sr, 1))
        b.wire((nr, 3), (sr, 3))
        b.wire((nl, 1), (sl, 1))
        # strand passages through the clasp, braid-start side first
        clasp_info = {
            "strands": 2,
            "orient": 1,
            "passages": [[nl, 0, sl, 2], [nr, 0, sr, 2]],
        }
        last_col = col
    else:
        last_col = _syllable_column(k - 1)

    _resolve_plat_closure(b, col_items, ((0, 1), (2, 3)), _plat_caps(last_col))
    return b, clasp_info


def gen_two_bridge(c: ContinuedFraction) -> PlanarDiagram:
    """Standard alternating 2-bridge diagram with one twist region per term."""
    b, _ = _build_plat(c.terms, with_clasp=False)
    prov = {"generator": "two_bridge", "cfrac": list(c.terms)}
    diagram, _ = b.finish(prov)
    return diagram


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
    b, clasp_info = _build_plat(c.terms, with_clasp=True)
    prov = {
        "generator": "clasped_two_bridge",
        "slope": str(s),
        "cfrac": list(c.terms),
        "circles": {"clasp": clasp_info},
        "roles": {},
    }
    diagram, rotations = b.finish(prov)
    _remap_circle_slots(prov, rotations)
    _assign_circle_components(diagram, prov)
    return diagram


# ---------------------------------------------------------------------------
# Coil braids
# ---------------------------------------------------------------------------
#
# Braid crossings between vertically adjacent strand positions use slots
# 0=W_upper, 1=W_lower, 2=E_lower, 3=E_upper (counterclockwise); a positive
# generator takes the lower-west strand over to upper-east.


def _coil_braid(b, q: int, n_signed: int):
    """Lay n_signed full twists on q strands; return (west, east) port darts."""
    under = 0 if n_signed > 0 else 1
    west = [None] * q
    current = [None] * q
    for _ in range(q * abs(n_signed)):
        for i in range(q - 1):
            c = b.crossing(under=under)
            for pos, slot in ((i, 1), (i + 1, 0)):
                if current[pos] is None:
                    west[pos] = (c, slot)
                else:
                    b.wire(current[pos], (c, slot))
            current[i] = (c, 2)
            current[i + 1] = (c, 3)
    return west, current


def gen_double_coil(spec: CoilSpec) -> PlanarDiagram:
    """One-component diagram of the (p, q) double coil knot.

    All crossings lie in the two coil regions; the q(q-1)|n_i| crossings of
    region i realize n_i full twists, and the connecting bands carry p
    strands off to one side and q-p to the other, exactly as the traced
    curve of slope p/q dictates.
    """
    events = trace_gate_events(spec.p, spec.q)
    passages = circle_passages(events)
    b = DiagramBuilder()
    port = {}
    for region, n in ((0, spec.n1), (1, spec.n2)):
        west, east = _coil_braid(b, spec.q, n * _REGION_ORIENT[region])
        for pos, (i, j) in enumerate(passages[region]):
            if events[i].eastbound:
                port[i], port[j] = west[pos], east[pos]
            else:
                port[i], port[j] = east[pos], west[pos]
    for i, ev in enumerate(events):
        if not is_entering_event(ev):
            j = (i + 1) % len(events)
            b.wire(port[i], port[j])
    prov = {
        "generator": "double_coil",
        "p": spec.p,
        "q": spec.q,
        "n1": spec.n1,
        "n2": spec.n2,
    }
    diagram, _ = b.finish(prov)
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
    events = trace_gate_events(s.p, s.q)
    passages = circle_passages(events)
    b = DiagramBuilder()
    over_gates = (GATE_C1_EAST, GATE_C2_EAST)
    cross = [b.crossing(under=0 if ev.gate in over_gates else 1) for ev in events]

    # curve: one edge between consecutive gate events
    m = len(events)
    for i, ev in enumerate(events):
        j = (i + 1) % m
        out_slot = 2 if ev.eastbound else 0
        in_slot = 0 if events[j].eastbound else 2
        b.wire((cross[i], out_slot), (cross[j], in_slot))

    circles = {}
    for region, role in ((0, "C1"), (1, "C2")):
        east_gate = GATE_C1_EAST if region == 0 else GATE_C2_EAST
        east, west, recs = [], [], []
        for i, j in passages[region]:
            pair = {events[i].gate: cross[i], events[j].gate: cross[j]}
            e = pair[east_gate]
            w = pair[GATE_C1_WEST if region == 0 else GATE_C2_WEST]
            east.append(e)
            west.append(w)
            recs.append([w, 0, e, 2])  # outer slots: west faces W, east faces E
        for t in range(len(east) - 1):
            b.wire((east[t], 3), (east[t + 1], 1))
            b.wire((west[t], 3), (west[t + 1], 1))
        b.wire((east[-1], 3), (west[-1], 3))
        b.wire((east[0], 1), (west[0], 1))
        circles[role] = {
            "strands": s.q,
            "orient": _REGION_ORIENT[region],
            "passages": recs,
        }

    prov = {
        "generator": "augmented",
        "p": s.p,
        "q": s.q,
        "circles": circles,
        "roles": {},
        "fills": {},
    }
    diagram, rotations = b.finish(prov)
    _remap_circle_slots(prov, rotations)
    _assign_circle_components(diagram, prov)
    if diagram.n_components != 3:
        raise AssertionError("augmented link must have three components")
    return diagram


def _remap_circle_slots(prov, rotations):
    for info in prov.get("circles", {}).values():
        info["passages"] = [
            [ca, (sa - rotations[ca]) % 4, cb, (sb - rotations[cb]) % 4]
            for ca, sa, cb, sb in info["passages"]
        ]


def _assign_circle_components(diagram, prov):
    roles = prov.setdefault("roles", {})
    for role, info in prov.get("circles", {}).items():
        ca, sa, _, _ = info["passages"][0]
        circle_slot = (sa + 1) % 4  # the non-through diagonal
        label = diagram.crossings[ca][circle_slot]
        comp = diagram.component_of_edge(label)
        info["component"] = comp
        roles[role] = comp


# ---------------------------------------------------------------------------
# Filling
# ---------------------------------------------------------------------------


def _find_circle_role(prov, circle):
    circles = (prov or {}).get("circles", {})
    if isinstance(circle, str):
        if circle in circles:
            return circle
    else:
        for role, info in circles.items():
            if info.get("component") == circle:
                return role
    raise NotACrossingCircle(f"{circle!r} is not a provenance-marked crossing circle")


def fill_crossing_circle(d: PlanarDiagram, circle, n: int) -> PlanarDiagram:
    """Replace a crossing circle by n full twists of its encircled strands.

    ``circle`` is a component id (or provenance role name).  The circle's
    2q crossings disappear; for n != 0 a coil braid with n*q*(q-1)
    crossings is spliced into the q strands, and n = 0 simply deletes the
    circle.  Everything outside the circle's thin region is untouched.
    """
    if not isinstance(n, int):
        raise TypeError("full-twist count must be an integer")
    prov = dict(d.provenance or {})
    role = _find_circle_role(prov, circle)
    circles = {k: dict(v) for k, v in prov.get("circles", {}).items()}
    info = circles.pop(role)
    q = info["strands"]
    recs = info["passages"]
    deleted = {c for ca, _, cb, _ in recs for c in (ca, cb)}
    outer = {}
    for pos, (ca, sa, cb, sb) in enumerate(recs):
        outer[(ca, sa)] = ("W", pos)
        outer[(cb, sb)] = ("E", pos)
    through = {}
    for ca, sa, cb, sb in recs:
        through[ca] = (sa % 2)
        through[cb] = (sb % 2)

    mate = d.mate

    kept = [c for c in range(d.n_crossings) if c not in deleted]
    old2new = {c: i for i, c in enumerate(kept)}
    b = DiagramBuilder()
    for _ in kept:
        b.crossing(under=0)

    if n == 0:
        def resolve(dart):
            while dart // 4 in deleted:
                if dart % 2 != through[dart // 4]:
                    raise AssertionError("resolution strayed onto the circle strand")
                dart = mate[dart ^ 2]
            return dart

        done = set()
        for c in kept:
            for slot in range(4):
                here = 4 * c + slot
                if here in done:
                    continue
                other = resolve(mate[here])
                done.add(here)
                done.add(other)
                b.wire((old2new[c], slot), (old2new[other // 4], other % 4))
        if not kept:
            return PlanarDiagram((), {"generator": "trivial", "note": "all crossings removed"})
    else:
        west, east = _coil_braid(b, q, n * info.get("orient", 1))

        def port_dart(tag):
            side, pos = tag
            return west[pos] if side == "W" else east[pos]

        for a, b_end in enumerate(mate):
            if a > b_end:
                continue
            resolved = []
            for c, slot in (divmod(a, 4), divmod(b_end, 4)):
                if c in deleted:
                    tag = outer.get((c, slot))
                    resolved.append(port_dart(tag) if tag else None)
                else:
                    resolved.append((old2new[c], slot))
            if resolved[0] is None and resolved[1] is None:
                continue  # circle strand or in-region edge
            if None in resolved:
                raise AssertionError("edge half-deleted by circle surgery")
            b.wire(resolved[0], resolved[1])

    for other in circles.values():
        other["passages"] = [
            [old2new[ca], sa, old2new[cb], sb] for ca, sa, cb, sb in other["passages"]
        ]

    fills = dict(prov.get("fills", {}))
    fills[role] = n
    prov["fills"] = fills
    prov["circles"] = circles
    prov["roles"] = {}
    if (
        prov.get("generator") == "augmented"
        and not circles
        and all(fills.get(r) for r in ("C1", "C2"))
    ):
        prov = {
            "generator": "double_coil",
            "p": prov["p"],
            "q": prov["q"],
            "n1": fills["C1"],
            "n2": fills["C2"],
            "filled": True,
        }
        diagram, _ = b.finish(prov)
        return diagram
    diagram, rotations = b.finish(prov)
    _remap_circle_slots(prov, rotations)
    _assign_circle_components(diagram, prov)
    return diagram


# ---------------------------------------------------------------------------
# Generalized twist regions
# ---------------------------------------------------------------------------


def generalized_twist_regions(d: PlanarDiagram) -> int:
    """Smallest known partition of the crossings into generalized twist regions.

    Exact for generator-provenance diagrams: a double coil is 2 by
    construction; the standard alternating 2-bridge plat is k, its number
    of ordinary twist regions, because every coil on 3 or more strands has
    uniformly handed crossings while adjacent plat syllables alternate
    handedness, so no two syllables can merge.  Diagrams without provenance
    get the greedy bigon-chain upper bound (each ordinary twist region is a
    generalized twist region on two strands).
    """
    prov = d.provenance or {}
    gen = prov.get("generator")
    if gen == "double_coil":
        return 2
    if gen == "two_bridge":
        return len(prov["cfrac"])
    return d.twist_regions().count
