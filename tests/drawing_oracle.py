"""Test oracles for diagram drawings, written from the drawing's definition alone.

``subdivided_rotation`` is the graph that ``svg._layout`` lays out, as each
node's neighbours in clockwise order, read off ``d.mate``: crossing c is
node c, and the subdivision node next to dart e is node V + e.

``canonical_runs`` checks Chrobak and Payne's Lemma 1 for an
ordering of a graph: v1 and v2 are adjacent, and each later vk has at least
two earlier neighbours, which form one contiguous run of the outer path
v1 ... v2 of the graph the earlier nodes span; vk then replaces the inside
of that run.  ``crossing_edges`` is the O(E^2) test that a straight-line
drawing has no two edges that cross, touch or overlap, other than at a
shared end.
"""


def subdivided_rotation(d):
    """{node: [its neighbours, clockwise]} of the twice-subdivided diagram graph."""
    v = d.n_crossings
    rotation = {c: [v + 4 * c + s for s in range(4)] for c in range(v)}
    for e, f in enumerate(d.mate):
        if e < f:
            rotation[v + e] = [e // 4, v + f]
            rotation[v + f] = [v + e, f // 4]
    return rotation


def canonical_runs(adj, order):
    """The runs (wp, ..., wq) of the outer path that v3, v4, ... of ``order``
    cover, in order, for the graph ``adj`` (node -> set of its neighbours).

    Raises ``AssertionError`` naming the first vk that breaks Lemma 1, so
    that ``order`` is not a canonical ordering of ``adj``.
    """
    if sorted(order) != sorted(adj):
        raise AssertionError("the ordering is not a permutation of the nodes")
    rank = {u: k for k, u in enumerate(order)}
    v1, v2 = order[:2]
    if v2 not in adj[v1]:
        raise AssertionError("v1 and v2 are not adjacent")
    nxt = {v1: v2}  # the outer path v1 ... v2, as each node's successor
    prv = {v2: v1}
    runs = []
    for k in range(2, len(order)):
        vk = order[k]
        earlier = {u for u in adj[vk] if rank[u] < k}
        if len(earlier) < 2:
            raise AssertionError(f"v{k + 1} = {vk} has {len(earlier)} earlier neighbour(s)")
        u = next(iter(earlier))
        if u not in nxt and u not in prv:
            raise AssertionError(f"v{k + 1} = {vk} has an earlier neighbour {u} "
                                 "off the outer path")
        wp = wq = u
        while wp in prv and prv[wp] in earlier:
            wp = prv[wp]
        while wq in nxt and nxt[wq] in earlier:
            wq = nxt[wq]
        run = [wp]
        while run[-1] != wq:
            run.append(nxt[run[-1]])
        if len(run) != len(earlier):
            raise AssertionError(f"v{k + 1} = {vk}: its earlier neighbours are not "
                                 "one run of the outer path")
        for w in run[1:-1]:
            del nxt[w], prv[w]
        nxt[wp], prv[vk], nxt[vk], prv[wq] = vk, wp, wq, vk
        runs.append(run)
    return runs


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a, b, c):
    """c, collinear with a and b, lies on the closed segment ab."""
    return min(a[0], b[0]) <= c[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])


def crossing_edges(pos, edges):
    """The first two edges of the drawing that meet other than at a shared
    end, a string if two nodes share a position, or None.  ``pos`` maps a
    node to integer (x, y); ``edges`` lists (u, w) pairs."""
    if len(set(pos.values())) != len(pos):
        return "two nodes share a position"
    boxes = [(min(pos[a][0], pos[b][0]), max(pos[a][0], pos[b][0]),
              min(pos[a][1], pos[b][1]), max(pos[a][1], pos[b][1])) for a, b in edges]
    for i, (a, b) in enumerate(edges):
        pa, pb = pos[a], pos[b]
        x0, x1, y0, y1 = boxes[i]
        for j in range(i + 1, len(edges)):
            u0, u1, w0, w1 = boxes[j]
            if u0 > x1 or u1 < x0 or w0 > y1 or w1 < y0:
                continue  # the closed bounding boxes are apart
            c, e = edges[j]
            pc, pe = pos[c], pos[e]
            shared = {a, b} & {c, e}
            if shared:
                # two edges at one node meet elsewhere only if they overlap
                (s,) = shared
                p, q = (pb if s == a else pa), (pe if s == c else pc)
                ps = pos[s]
                if _orient(ps, p, q) == 0 and (
                        (p[0] - ps[0]) * (q[0] - ps[0]) + (p[1] - ps[1]) * (q[1] - ps[1]) > 0):
                    return (a, b), (c, e)
                continue
            d1, d2 = _orient(pa, pb, pc), _orient(pa, pb, pe)
            d3, d4 = _orient(pc, pe, pa), _orient(pc, pe, pb)
            if ((d1 > 0) != (d2 > 0) and d1 and d2 and (d3 > 0) != (d4 > 0) and d3 and d4) or (
                    d1 == 0 and _on_segment(pa, pb, pc) or d2 == 0 and _on_segment(pa, pb, pe)
                    or d3 == 0 and _on_segment(pc, pe, pa) or d4 == 0 and _on_segment(pc, pe, pb)):
                return (a, b), (c, e)
    return None
