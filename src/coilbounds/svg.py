"""SVG rendering: diagrams from their rotation systems, curves on the
framed sphere.

Diagram drawing never uses generator geometry: the crossing tuples alone
fix a combinatorial sphere embedding, each edge is subdivided twice, and
networkx's planar straight-line drawing lays the subdivision out honoring
that embedding.  Under-strands are drawn with a gap at each crossing and
the over-strand is re-stroked on top (one ``xing`` glyph per crossing).

Curves are drawn in the annulus picture of the projection sphere: the
fundamental strip wraps into an annulus, the folded bottom and top edges
become the inner and outer boundary circles, and fold connectors run as
chords through the inner disk or nested arcs outside.
"""

from __future__ import annotations

import math
from fractions import Fraction

import networkx as nx

from .curves import fold_parameters
from .diagrams import PlanarDiagram
from .slopes import Slope

__all__ = ["render_svg", "curve_svg"]

_PALETTE = (
    "#1f6fb4",
    "#c8401f",
    "#2e8b57",
    "#8a2be2",
    "#d4880c",
    "#13889c",
    "#a0355c",
)

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


def render_svg(d: PlanarDiagram, seed_layout: int = 0, size: int = 480) -> str:
    """Deterministic planar drawing of a diagram; strand breaks show depth."""
    if d.n_crossings == 0:
        return _SVG_OPEN.format(w=size, h=size) + "</svg>"

    pos = nx.combinatorial_embedding_to_pos(_subdivided_embedding(d))
    pos = _normalize(pos, seed_layout, size)
    v = d.n_crossings

    comp_of = {}
    for i, comp in enumerate(d.components):
        for label in comp:
            comp_of[label] = i

    parts = [_SVG_OPEN.format(w=size, h=size)]
    glyphs = []
    for i, comp in enumerate(d.components):
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(f'<g class="component" stroke="{color}">')
        for label in comp:
            (c1, s1), (c2, s2) = d.ends_of(label)
            pts = [pos[c1], pos[v + 4 * c1 + s1], pos[v + 4 * c2 + s2], pos[c2]]
            if s1 in (0, 2):
                pts[0] = _lerp(pts[0], pts[1], 0.45)
            if s2 in (0, 2):
                pts[3] = _lerp(pts[3], pts[2], 0.45)
            parts.append(_polyline(pts, "inherit", 2.4))
        parts.append("</g>")
    for c, x in enumerate(d.crossings):
        a = _lerp(pos[c], pos[v + 4 * c + 1], 0.6)
        bb = _lerp(pos[c], pos[v + 4 * c + 3], 0.6)
        color = _PALETTE[comp_of[x[1]] % len(_PALETTE)]
        glyphs.append(_polyline([a, pos[c], bb], color, 2.4, cls="xing"))
    parts.extend(glyphs)
    parts.append("</svg>")
    return "".join(parts)


def _lerp(a, b, t):
    return (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)


def _subdivided_embedding(d: PlanarDiagram):
    """PlanarEmbedding of the twice-subdivided diagram graph.

    Crossing c is node c, and the subdivision node next to dart e is node
    V + e, so the edge with darts e < mate[e] becomes the path
    c(e), V + e, V + mate[e], c(mate[e]).  Integer nodes keep networkx's
    set iteration, and with it the drawing, independent of the hash seed.
    """
    v = d.n_crossings
    neighbors = {c: [v + 4 * c + s for s in range(4)] for c in range(v)}
    for e, f in enumerate(d.mate):
        if e < f:
            neighbors[v + e] = [e // 4, v + f]
            neighbors[v + f] = [v + e, f // 4]

    emb = nx.PlanarEmbedding()
    for node, nbrs in neighbors.items():
        prev = None
        for w in nbrs:
            if prev is None:
                emb.add_half_edge(node, w)
            else:
                emb.add_half_edge(node, w, ccw=prev)
            prev = w
    emb.check_structure()
    return emb


def _normalize(pos, seed_layout, size):
    angle = (seed_layout % 360) * math.pi / 180.0
    ca, sa = math.cos(angle), math.sin(angle)
    rotated = {
        k: (x * ca - y * sa, x * sa + y * ca) for k, (x, y) in pos.items()
    }
    xs = [p[0] for p in rotated.values()]
    ys = [p[1] for p in rotated.values()]
    span = max(max(xs) - min(xs), max(ys) - min(ys)) or 1.0
    margin = 0.06 * size
    scale = (size - 2 * margin) / span
    return {
        k: (margin + (x - min(xs)) * scale, margin + (y - min(ys)) * scale)
        for k, (x, y) in rotated.items()
    }


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


def _curve_paths(s: Slope):
    """Sampled xy polylines of the curve of slope s, one per smooth piece."""
    p, q = s.p, s.q
    if q == 0:
        left = [_to_xy(0.25, t / 48.0) for t in range(25)]
        right = [_to_xy(0.75, t / 48.0) for t in range(25)]
        return [left, right, [left[0], right[0]], _outer_connector(0.25)]
    if p == 0:
        return [[_to_xy(t / 96.0, 0.25) for t in range(97)]]

    folds = fold_parameters(p, q)
    paths = []
    cuts = [Fraction(0)] + folds + [Fraction(q)]
    for a, b in zip(cuts, cuts[1:]):
        n = max(6, int(24 * float(b - a)))
        paths.append(
            [_strip_xy(p, q, float(a) + (float(b) - float(a)) * t / n) for t in range(n + 1)]
        )
    for x in folds:
        xm = float(x % 1)
        is_bottom = ((p * x + Fraction(1, 4)) / q) % 1 == 0
        if is_bottom:
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
    """Framed-sphere picture of one or more curves, as SVG polylines."""
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
