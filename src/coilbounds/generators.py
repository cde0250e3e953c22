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

``CoilSpec``, the (p, q, n1, n2) parameters, lives in ``slopes`` so that the
bounds need no diagram code; it is re-exported here.
"""

from __future__ import annotations

from .curves import (
    GATE_C1_EAST,
    GATE_C2_EAST,
    check_crossing_count,
    circle_passages,
    is_entering_event,
    trace_gate_events,
)
from .diagrams import DiagramBuilder, PlanarDiagram
from .errors import NotACrossingCircle
from .slopes import CoilSpec, ContinuedFraction, Slope, cfrac_expand

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


def _syllable_column(idx: int) -> int:
    """Left column of the strand pair twisted by syllable ``idx`` (0-based)."""
    return 1 if idx % 2 == 0 else 0


def _close_plat(b, cols, top_caps, bottom_caps):
    """Wire column chains and the plat caps.

    ``cols[j]`` lists (north, south) darts per crossing on column j, top to
    bottom.  A cap joins two column ends on one side; from each end of a
    column with crossings, caps and crossing-free columns lead to exactly
    one other such end.
    """
    for items in cols:
        for (_, south), (north, _) in zip(items, items[1:]):
            b.join(south, north)
    cap = {}
    for side, caps in enumerate((top_caps, bottom_caps)):
        for x, y in caps:
            cap[side, x], cap[side, y] = y, x
    ends = [(items[0][0], items[-1][1]) if items else None for items in cols]
    for j, pair in enumerate(ends):
        for side in (0, 1) if pair else ():
            s, k = side, cap[side, j]
            for _ in cols:
                if ends[k]:
                    break
                s = 1 - s  # through the empty column, then its cap
                k = cap[s, k]
            else:
                raise AssertionError("open plat closure chain")
            if pair[side] < ends[k][s]:  # each joined pair once
                b.join(pair[side], ends[k][s])


def _plat_caps(last_col: int):
    """Bottom cap pattern avoiding a kink under the final twist position."""
    if last_col == 1:
        return ((0, 1), (2, 3))
    return ((1, 2), (0, 3))


def _build_plat(terms, with_clasp: bool):
    b = DiagramBuilder()
    cols = [[] for _ in range(4)]
    for idx, a in enumerate(terms):
        col = _syllable_column(idx)
        # alternating diagram: syllables alternate handedness
        under = 1 if idx % 2 == 0 else 0
        for c in b.crossings(a, under=under):
            cols[col].append((4 * c, 4 * c + 1))
            cols[col + 1].append((4 * c + 3, 4 * c + 2))

    clasp_info = None
    k = len(terms)
    if with_clasp:
        col = _syllable_column(k)
        nl, nr = (4 * c for c in b.crossings(2, under=0))  # north gate passes over
        sl, sr = (4 * c for c in b.crossings(2, under=1))
        for top, bot, j in ((nl, sl, col), (nr, sr, col + 1)):
            cols[j] += [(top, top + 2), (bot, bot + 2)]
        b.join(nl + 3, nr + 1)
        b.join(sl + 3, sr + 1)
        b.join(nr + 3, sr + 3)
        b.join(nl + 1, sl + 1)
        # strand passages through the clasp, braid-start side first
        clasp_info = {"orient": 1, "passages": [(nl, sl + 2), (nr, sr + 2)]}
        last_col = col
    else:
        last_col = _syllable_column(k - 1)

    _close_plat(b, cols, ((0, 1), (2, 3)), _plat_caps(last_col))
    return b, clasp_info


def gen_two_bridge(c: ContinuedFraction) -> PlanarDiagram:
    """Standard alternating 2-bridge diagram with one twist region per term."""
    check_crossing_count(sum(c.terms), f"two-bridge diagram {c}")
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
    check_crossing_count(sum(c.terms) + 4, f"clasped two-bridge diagram of {s}")
    b, clasp_info = _build_plat(c.terms, with_clasp=True)
    prov = {
        "generator": "clasped_two_bridge",
        "slope": str(s),
        "cfrac": list(c.terms),
        "circles": {"clasp": clasp_info},
        "roles": {},
    }
    return _finish_circles(b, prov)


# ---------------------------------------------------------------------------
# Coil braids
# ---------------------------------------------------------------------------
#
# Braid crossings between vertically adjacent strand positions use slots
# 0=W_upper, 1=W_lower, 2=E_lower, 3=E_upper (counterclockwise); a positive
# generator takes the lower-west strand over to upper-east.


def _coil_braid(b, q: int, n_signed: int):
    """Lay n_signed full twists on q strands; return (west, east) port darts."""
    rows = q * abs(n_signed)
    if not rows:  # the empty braid has no ports
        return [], []
    first = b.crossings(rows * (q - 1), under=0 if n_signed > 0 else 1).start
    join = b.join
    # row 0 reaches every position for the first time: those are the west ports
    west = [4 * first + 1] + [4 * (first + i) for i in range(q - 1)]
    current = [None] * q
    d = 4 * first
    for i in range(q - 1):
        if i:
            join(current[i], d + 1)
        current[i] = d + 2
        current[i + 1] = d + 3
        d += 4
    for _ in range(rows - 1):
        for i in range(q - 1):
            join(current[i], d + 1)
            join(current[i + 1], d)
            current[i] = d + 2
            current[i + 1] = d + 3
            d += 4
    return west, current


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
    for i, ev in enumerate(events):
        if not is_entering_event(ev):
            j = (i + 1) % len(events)
            b.join(port[i], port[j])
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
    check_crossing_count(4 * s.q, f"augmented link of {s}")
    events = trace_gate_events(s.p, s.q)
    passages = circle_passages(events)
    b = DiagramBuilder()
    over_gates = (GATE_C1_EAST, GATE_C2_EAST)
    # first dart of each gate event's crossing
    cross = [4 * b.crossing(under=0 if ev.gate in over_gates else 1) for ev in events]

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
        for t in range(len(east) - 1):
            b.join(east[t] + 3, east[t + 1] + 1)
            b.join(west[t] + 3, west[t + 1] + 1)
        b.join(east[-1] + 3, west[-1] + 3)
        b.join(east[0] + 1, west[0] + 1)
        circles[role] = {
            "orient": _REGION_ORIENT[region],
            # outer slots: west faces W, east faces E
            "passages": [(w, e + 2) for w, e in zip(west, east)],
        }

    prov = {
        "generator": "augmented",
        "p": s.p,
        "q": s.q,
        "circles": circles,
        "roles": {},
        "fills": {},
    }
    diagram = _finish_circles(b, prov)
    if diagram.n_components != 3:
        raise AssertionError("augmented link must have three components")
    return diagram


def _finish_circles(b, prov):
    """Finish ``b``; carry circle passages into it and name each circle's component.

    A passage ``(w, e)`` holds the outer darts of one encircled strand at
    the circle's two crossings: its edge inside the circle joins ``w ^ 2``
    to ``e ^ 2``, and ``w ^ 1`` lies on the circle itself.
    """
    diagram, final = b.finish(prov)
    roles = prov["roles"] = {}
    for role, info in prov["circles"].items():
        info["passages"] = [(final[w], final[e]) for w, e in info["passages"]]
        roles[role] = diagram.component_of(info["passages"][0][0] ^ 1)
    return diagram


# ---------------------------------------------------------------------------
# Filling
# ---------------------------------------------------------------------------


def _find_circle_role(prov, circle):
    if isinstance(circle, str) and circle in prov.get("circles", {}):
        return circle
    for role, comp in prov.get("roles", {}).items():
        if comp == circle:
            return role
    raise NotACrossingCircle(f"{circle!r} is not a provenance-marked crossing circle")


def fill_crossing_circle(d: PlanarDiagram, circle, n: int) -> PlanarDiagram:
    """Replace a crossing circle by n full twists of its encircled strands.

    ``circle`` is a component id (or provenance role name).  The circle's
    2q crossings give way to a coil braid with n*q*(q-1) crossings, which
    is empty for n = 0.  One walk splices it in for every n: each wired
    dart joins the next wired dart along its strand, stepping straight
    through the circle's crossings where no braid port sits.
    """
    if not isinstance(n, int):
        raise TypeError("full-twist count must be an integer")
    prov = dict(d.provenance or {})
    role = _find_circle_role(prov, circle)
    circles = {k: dict(v) for k, v in prov.get("circles", {}).items()}
    info = circles.pop(role)
    recs = info["passages"]
    q = len(recs)
    check_crossing_count(
        d.n_crossings - 2 * q + q * (q - 1) * abs(n), f"{role} filled with {n} full twists"
    )
    deleted = {x >> 2 for rec in recs for x in rec}
    kept = [c for c in range(d.n_crossings) if c not in deleted]
    if not kept and not n:
        return PlanarDiagram((), {"generator": "trivial", "note": "all crossings removed"})
    mate = d.mate
    b = DiagramBuilder()
    b.crossings(len(kept))
    west, east = _coil_braid(b, q, n * info["orient"])
    # old dart -> new dart: a kept crossing keeps its slots, a passage's
    # outer darts take the braid's ports, and every other dart gets -1
    new = [-1] * len(mate)
    for i, c in enumerate(kept):
        new[4 * c:4 * c + 4] = range(4 * i, 4 * i + 4)
    for (w, e), port_w, port_e in zip(recs, west, east):
        new[w], new[e] = port_w, port_e
    through = {x >> 2: x & 1 for rec in recs for x in rec}  # encircled diagonal
    join = b.join
    for x, y in enumerate(mate):
        nx = new[x]
        if nx < 0:
            continue
        while new[y] < 0:  # follow the encircled strand through the circle
            if y & 1 != through[y >> 2]:
                raise AssertionError("surgery strayed onto the circle strand")
            y = mate[y ^ 2]
        if x < y:  # each joined pair once
            join(nx, new[y])

    for other in circles.values():
        other["passages"] = [(new[w], new[e]) for w, e in other["passages"]]

    fills = dict(prov.get("fills", {}))
    fills[role] = n
    prov["fills"] = fills
    prov["circles"] = circles
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
    return _finish_circles(b, prov)
