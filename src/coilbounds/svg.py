"""SVG rendering: diagrams from their rotation systems, curves on the
framed sphere.

Diagram drawing never uses generator geometry: the dart array alone
fixes a combinatorial sphere embedding, each edge is subdivided twice, and
Chrobak and Payne's straight-line grid drawing lays the subdivision out
honoring that embedding (``_planar``, ported from networkx's
``combinatorial_embedding_to_pos``).  The embedding is the one that
``PlanarDiagram`` validated when the diagram was built, so drawing does
not prove it again.  Under-strands are drawn with a gap at each crossing
and the over-strand is re-stroked on top (one ``xing`` glyph per
crossing).

Curves are drawn in the annulus picture of the projection sphere: the
fundamental strip wraps into an annulus, the folded bottom and top edges
become the inner and outer boundary circles, and fold connectors run as
chords through the inner disk or nested arcs outside.  A picture is refused
by the crossing cap on the number of points its curves would draw, before
any is sampled.  Only ``curve_svg`` loads ``curves``, so drawing a diagram
reads no curve code; fold points are exact integers over 4|p|, so no
picture loads ``fractions``.
"""

from __future__ import annotations

import math

from .errors import TooManyCrossings
from .slopes import Slope, check_crossing_count

__all__ = ["render_svg", "curve_svg", "MAX_DRAWN_CROSSINGS"]

_PALETTE = (
    "#1f6fb4",
    "#c8401f",
    "#2e8b57",
    "#8a2be2",
    "#d4880c",
    "#13889c",
    "#a0355c",
)

_DIAGRAM_SIZE = 480  # width and height of a diagram drawing, in pixels

# No diagram of more crossings than this is drawn.  Drawing the coil
# (37, 80, 8, -8), 101 120 crossings, took 195 MB and 9.2 s (max RSS and wall
# time of ``gen coil --svg``, Python 3.11, 2 vCPUs): about 2 000 B and 90 us
# per crossing, so a drawing at the cap needs about 0.4 GB.
MAX_DRAWN_CROSSINGS = 2 * 10**5

_SVG_OPEN = (
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    'viewBox="0 0 {w} {h}" width="{w}" height="{h}">'
)


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _polyline(points, stroke, width, cls=None) -> str:
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    c = f' class="{cls}"' if cls else ""
    return (
        f'<polyline{c} points="{pts}" fill="none" stroke="{stroke}" '
        f'stroke-width="{width}" stroke-linecap="round"/>'
    )


def render_svg(d) -> str:
    """Deterministic planar drawing of a ``PlanarDiagram``; strand breaks show depth.

    Raises ``TooManyCrossings``, before any layout work, if ``d`` has more
    than ``MAX_DRAWN_CROSSINGS`` crossings.
    """
    v = d.n_crossings
    if v > MAX_DRAWN_CROSSINGS:
        raise TooManyCrossings(f"drawing of {v} crossings: at most {MAX_DRAWN_CROSSINGS} are drawn")
    if v == 0:
        return _SVG_OPEN.format(w=_DIAGRAM_SIZE, h=_DIAGRAM_SIZE) + "</svg>"

    xs, ys = _layout(d)
    x0, y0 = min(xs), min(ys)
    margin = 0.06 * _DIAGRAM_SIZE
    scale = (_DIAGRAM_SIZE - 2 * margin) / (max(max(xs) - x0, max(ys) - y0) or 1.0)
    pos = [(margin + (x - x0) * scale, margin + (y - y0) * scale) for x, y in zip(xs, ys)]

    mate = d.mate
    parts = [_SVG_OPEN.format(w=_DIAGRAM_SIZE, h=_DIAGRAM_SIZE)]
    over = [None] * v  # the colour of each crossing's over-strand
    for i, strand in enumerate(d.strands):
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(f'<g class="component" stroke="{color}">')
        for e in strand:
            if e & 1:  # the strand enters crossing e >> 2 at over-slot 1 or 3
                over[e >> 2] = color
            e1, e2 = sorted((e ^ 2, mate[e ^ 2]))  # the edge leaving e, smaller dart first
            pts = [pos[e1 >> 2], pos[v + e1], pos[v + e2], pos[e2 >> 2]]
            if e1 & 1 == 0:  # under-strand slots 0 and 2 stop short of the crossing
                pts[0] = _lerp(pts[0], pts[1], 0.45)
            if e2 & 1 == 0:
                pts[3] = _lerp(pts[3], pts[2], 0.45)
            parts.append(_polyline(pts, "inherit", 2.4))
        parts.append("</g>")
    for c in range(v):
        a = _lerp(pos[c], pos[v + 4 * c + 1], 0.6)
        bb = _lerp(pos[c], pos[v + 4 * c + 3], 0.6)
        parts.append(_polyline([a, pos[c], bb], over[c], 2.4, cls="xing"))
    parts.append("</svg>")
    return "".join(parts)


def _lerp(a, b, t):
    return (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)


def _layout(d):
    """Straight-line positions of the twice-subdivided diagram graph.

    Crossing c is node c, and the subdivision node next to dart e is node
    V + e, so the edge with darts e < mate[e] becomes the path
    c(e), V + e, V + mate[e], c(mate[e]).  Its half-edges are numbered by
    dart: 4c + s runs from crossing c to node V + 4c + s, 4V + e from node
    V + e back to its crossing, and 8V + e from node V + e to node
    V + mate[e].  The positions, flat arrays x and y indexed by node, come
    from Chrobak and Payne's grid drawing in ``_planar``, with the faces
    found from the nodes c, V + 4c, ..., V + 4c + 3 for each c in turn and
    the canonical ordering picked by the rule that ``_planar`` states, so
    no hash or container order enters the drawing.  ``_planar`` is imported
    here, not at module level, so that only commands that draw a diagram
    load it.

    The embedding is not checked again: ``PlanarDiagram`` proved ``d.mate``
    connected with V + 2 faces, and subdividing keeps both (5V nodes, 6V
    edges).  Each crossing's half-edges turn clockwise in slot order from
    slot 0, and each subdivision node's two start with the one that points
    along its path toward c(e), as networkx's rotations would.
    """
    from array import array

    from . import _planar

    v = d.n_crossings
    n = 4 * v
    mate = d.mate
    head = array("i", range(v, v + n))
    head.extend(e >> 2 for e in range(n))
    head.extend(v + f for f in mate)
    twin = array("i", range(n, 2 * n))
    twin.extend(range(n))
    twin.extend(2 * n + f for f in mate)
    cw = array("i", (h & -4 | (h + 1) & 3 for h in range(n)))
    ccw = array("i", (h & -4 | (h - 1) & 3 for h in range(n)))
    for rot in (cw, ccw):  # a subdivision node's two half-edges follow each other
        rot.extend(range(2 * n, 3 * n))
        rot.extend(range(n, 2 * n))
    leftmost = array("i", range(0, n, 4))
    leftmost.extend(n + e if e < f else 2 * n + e for e, f in enumerate(mate))
    nodes = (w for c in range(v) for w in (c, *range(v + 4 * c, v + 4 * c + 4)))
    return _planar.combinatorial_embedding_to_pos((head, cw, ccw, twin, leftmost), nodes)


# ---------------------------------------------------------------------------
# Curves on the annulus picture
# ---------------------------------------------------------------------------

_R_INNER, _R_OUTER = 60.0, 120.0
_CENTER = 150.0
_CURVE_SIZE = 300


def _to_xy(strip_x: float, strip_y: float):
    r = _R_INNER + 2.0 * strip_y * (_R_OUTER - _R_INNER)
    th = 2.0 * math.pi * strip_x
    return (_CENTER + r * math.cos(th), _CENTER - r * math.sin(th))


def _point_bound(s: Slope) -> int:
    """The most points ``_curve_paths`` draws for s.

    1/0 draws two 25-point arcs, a chord and a 33-point connector, and 0/1
    one 97-point circle.  Any other p/q folds 2|p| times, alternately on the
    bottom and the top edge: 2|p| + 1 pieces of at most 7 + 24 * width
    points, widths summing to q, then |p| 2-point chords and |p| 33-point
    connectors.
    """
    if s.q == 0:
        return 85
    if s.p == 0:
        return 97
    return 49 * abs(s.p) + 24 * s.q + 7


def _curve_paths(s: Slope):
    """Sampled xy polylines of the curve of slope s, one per smooth piece."""
    from .curves import fold_parameters

    p, q = s.p, s.q
    if q == 0:
        left = [_to_xy(0.25, t / 48.0) for t in range(25)]
        right = [_to_xy(0.75, t / 48.0) for t in range(25)]
        return [left, right, [left[0], right[0]], _outer_connector(0.25)]
    if p == 0:
        return [[_to_xy(t / 96.0, 0.25) for t in range(97)]]

    den, folds = fold_parameters(p, q)
    paths = []
    cuts = [0] + [num for num, _ in folds] + [q * den]
    for a, b in zip(cuts, cuts[1:]):
        n = max(6, int(24 * ((b - a) / den)))
        xa, xb = a / den, b / den
        paths.append([_strip_xy(p, q, xa + (xb - xa) * t / n) for t in range(n + 1)])
    for num, m in folds:
        xm = num % den / den
        if m % 2 == 0:  # the fold sits at y = m/2: on the bottom edge
            paths.append([_to_xy(xm, 0.0), _to_xy(1.0 - xm, 0.0)])
        else:
            paths.append(_outer_connector(min(xm, 1.0 - xm)))
    return paths


def _strip_xy(p, q, x):
    y = (p * x + 0.25) / q
    ym = y % 1.0
    if ym > 0.5:
        return _to_xy((1.0 - x) % 1.0, 1.0 - ym)
    return _to_xy(x % 1.0, ym)


def _outer_connector(x0: float):
    """Arc outside the annulus joining top-fold partners at angles +-2*pi*x0.

    Connectors near the first coil region route around angle 0, those near
    the second around pi; depths nest so distinct connectors stay disjoint.
    """
    t0 = 2.0 * math.pi * x0  # in (0, pi)
    if t0 < math.pi / 2.0:
        lo, hi = -t0, t0
        depth = 8.0 + 30.0 * (t0 / math.pi)
    else:
        lo, hi = t0, 2.0 * math.pi - t0
        depth = 8.0 + 30.0 * ((math.pi - t0) / math.pi)
    pts = []
    for t in range(33):
        th = lo + (hi - lo) * t / 32.0
        r = _R_OUTER + depth * math.sin(math.pi * t / 32.0)
        pts.append((_CENTER + r * math.cos(th), _CENTER - r * math.sin(th)))
    return pts


def curve_svg(*slopes: Slope) -> str:
    """Framed-sphere picture of one or more curves, as SVG polylines.

    Raises ``TooManyCrossings`` if the curves would draw more than
    ``slopes.MAX_CROSSINGS`` points between them.
    """
    check_crossing_count(
        sum(map(_point_bound, slopes)),
        f"picture of {', '.join(map(str, slopes))} (counting each point drawn)",
    )
    parts = [_SVG_OPEN.format(w=_CURVE_SIZE, h=_CURVE_SIZE)]
    # framing: boundary circles (arcs A, A'), the two vertical arcs, punctures
    for r in (_R_INNER, _R_OUTER):
        parts.append(
            f'<circle cx="{_CENTER}" cy="{_CENTER}" r="{r}" fill="none" '
            'stroke="#bbbbbb" stroke-width="1" stroke-dasharray="4 3"/>'
        )
    for th in (0.0, math.pi):
        x1, y1 = _CENTER + _R_INNER * math.cos(th), _CENTER - _R_INNER * math.sin(th)
        x2, y2 = _CENTER + _R_OUTER * math.cos(th), _CENTER - _R_OUTER * math.sin(th)
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            'stroke="#888888" stroke-width="1.5"/>'
        )
        for r in (_R_INNER, _R_OUTER):
            cx, cy = _CENTER + r * math.cos(th), _CENTER - r * math.sin(th)
            parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" fill="#333333"/>')
    for i, s in enumerate(slopes):
        color = _PALETTE[i % len(_PALETTE)]
        for path in _curve_paths(s):
            parts.append(_polyline(path, color, 2.0, cls="curve"))
    parts.append("</svg>")
    return "".join(parts)
