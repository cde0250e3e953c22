"""Straight-line grid drawing of a planar rotation system (Chrobak–Payne).

M. Chrobak and T. H. Payne, "A linear-time algorithm for drawing a planar
graph on a grid", Information Processing Letters 54 (1995); technical
report 1989.

This is a port of networkx 3.6's ``combinatorial_embedding_to_pos``
(``networkx/algorithms/planar_drawing.py``: ``triangulate_embedding``,
``make_bi_connected``, ``triangulate_face``, ``get_canonical_ordering``
and the shift step) and of the parts of ``PlanarEmbedding``
(``networkx/algorithms/planarity.py``) that it uses.  Every rotation is
walked in the same order as there, so the triangulation and the shift
step are networkx's; the canonical ordering picks its next node by the
rule that ``get_canonical_ordering`` states, not by hash-table order, so
the drawing is a function of the embedding alone and the ordering takes
linear time.  The tests give networkx this ordering and compare the
positions.  networkx is Copyright (c) 2004-2025, NetworkX Developers, and
is distributed under the 3-clause BSD license, reproduced at the end of
this file.

An embedding ``emb`` is the tuple (head, cw, ccw, twin, leftmost) of
flat arrays indexed by half-edge or node, where networkx keeps a dict of
neighbours per node: half-edge h runs to node ``head[h]``, ``twin[h]``
runs back, and ``cw[h]`` and ``ccw[h]`` are the half-edges next to h
clockwise and counterclockwise around its tail.  ``leftmost[v]`` is the
half-edge where v's clockwise order starts, networkx's last neighbour
key; it never moves, where networkx's moves to an added edge, since no walk
here sees the difference (see ``add_edge``).  The edges the drawing adds
get the next free half-edge numbers, two each.  ``svg._layout`` numbers
the given half-edges by the diagram's darts.  The drawing needs a
connected, simple sphere embedding with at least four nodes; nothing
here checks it, since ``svg._layout`` builds it from a validated
``PlanarDiagram``.
"""

from __future__ import annotations

from array import array


def add_edge(emb, p, q):
    """Add the edge v1-v3 between p = v1 -> v2 and q = v3 -> v2.

    v1 -> v3 goes first clockwise from p, v3 -> v1 first counterclockwise
    from q.  Returns v1 -> v3.  networkx makes v3 -> v1 v3's leftmost
    where q was; here neither leftmost moves.  The new half-edge lands just
    counterclockwise of q, so a walk from either start meets the half-edges
    not yet visited in the same order.
    """
    head, cw, ccw, twin, _ = emb
    a = len(head)
    v1, v3 = head[twin[p]], head[twin[q]]
    head.append(v3)
    head.append(v1)
    twin.append(a + 1)
    twin.append(a)
    r = cw[p]
    cw.append(r)
    ccw.append(p)
    ccw[r] = cw[p] = a
    r = ccw[q]
    cw.append(q)
    ccw.append(r)
    cw[r] = ccw[q] = a + 1
    return a


def cw_order(cw, start):
    """Half-edges clockwise from ``start``, each next one read when it is reached."""
    yield start
    h = cw[start]
    while h != start:
        yield h
        h = cw[h]


def combinatorial_embedding_to_pos(emb, nodes):
    """Integer grid positions, arrays (x, y), of a straight-line drawing: v at (x[v], y[v]).

    Triangulates ``emb`` in place, keeping its largest face as the outer
    face, then places the nodes in canonical order; ``nodes`` gives the
    order in which the faces are found.
    """
    outer_face = triangulate_embedding(emb, nodes)
    order, contours, ends = get_canonical_ordering(emb, outer_face)
    n = len(order)

    # node -> child in the two trees, -1 for none
    left_t_child = array("i", [-1]) * n
    right_t_child = array("i", [-1]) * n
    delta_x = array("i", [0]) * n
    y_coordinate = array("i", [0]) * n

    # 1. Relative positions
    v1, v2, v3 = order[0], order[1], order[2]
    right_t_child[v1] = v3
    delta_x[v2] = 1
    delta_x[v3] = 1
    y_coordinate[v3] = 1
    right_t_child[v3] = v2

    for k in range(3, n):
        vk = order[k]
        a, b = ends[k + 1], ends[k]  # vk's contour is contours[a:b]
        wp, wp1, wq1, wq = contours[a], contours[a + 1], contours[b - 2], contours[b - 1]

        # stretch the gaps
        delta_x[wp1] += 1
        delta_x[wq] += 1

        delta_x_wp_wq = sum(delta_x[x] for x in contours[a + 1 : b])

        # adjust the offsets
        delta_x[vk] = (-y_coordinate[wp] + delta_x_wp_wq + y_coordinate[wq]) // 2
        y_coordinate[vk] = (y_coordinate[wp] + delta_x_wp_wq + y_coordinate[wq]) // 2
        delta_x[wq] = delta_x_wp_wq - delta_x[vk]

        # install vk
        right_t_child[wp] = vk
        right_t_child[vk] = wq
        if b - a > 2:  # vk covers more than one edge: wp1 .. wq1 hang under it
            delta_x[wp1] -= delta_x[vk]
            left_t_child[vk] = wp1
            right_t_child[wq1] = -1

    # 2. Absolute positions: a parent's x is final before its children's
    remaining_nodes = [v1]
    while remaining_nodes:
        parent = remaining_nodes.pop()
        for tree in (left_t_child, right_t_child):
            child = tree[parent]
            if child >= 0:
                delta_x[child] += delta_x[parent]
                remaining_nodes.append(child)
    return delta_x, y_coordinate


def get_canonical_ordering(emb, outer_face):
    """Canonical ordering of a triangulation, as flat arrays (order, contours, ends).

    order[k] is vk, and for k >= 2, contours[ends[k + 1]:ends[k]] lists
    vk's neighbours from wp to wq, the part of G_(k-1)'s outer face that
    vk covers.  Chrobak–Payne, Lemma 1: starting from the whole graph,
    repeatedly remove an outer node that has no chord.  The rule: remove
    the chord-free outer node found most recently.  A node is found when
    it is chord-free on the outer face at the start, in ``outer_face``
    order, when it joins the outer face chord-free, in order from wp to wq,
    and when its last chord becomes an outer edge, wp before wq.
    """
    head, cw, ccw, _, leftmost = emb
    n = len(leftmost)
    v1 = outer_face[0]
    v2 = outer_face[1]
    chords = array("i", [0]) * n  # node -> number of its chords
    # node -> flags: 1 once on the outer face, 2 once removed (marked), so
    # a node is on the outer face of what is left when its flags are 1
    outer = bytearray(n)
    for v in outer_face:
        outer[v] = 1

    # outer-face neighbours, -1 for none, without v1 -> v2 and v2 -> v1
    outer_face_ccw_nbr = array("i", [-1]) * n
    outer_face_cw_nbr = array("i", [-1]) * n
    for a, b in zip(outer_face[1:], outer_face[2:] + outer_face[:1]):
        outer_face_ccw_nbr[a] = b
        outer_face_cw_nbr[b] = a

    for v in outer_face:
        for h in cw_order(cw, leftmost[v]):
            nbr = head[h]
            if (outer[nbr] == 1 and outer_face_ccw_nbr[v] != nbr
                    and outer_face_cw_nbr[v] != nbr):
                chords[v] += 1
    # chord-free outer nodes, the one found last on top; v1 and v2 count the
    # edge v1-v2 as a chord until the last pick, so neither is ever picked
    ready = array("i", (v for v in outer_face if not chords[v]))
    stamp = array("i", [0]) * n  # node -> the last k at which it joined the outer face

    order = array("i", [0]) * n
    order[0] = v1
    order[1] = v2
    contours = array("i")
    ends = array("i", [0]) * (n + 1)

    for k in range(n - 1, 1, -1):
        v = ready.pop()
        while outer[v] != 1 or chords[v]:  # removed, or gained a chord since pushed
            v = ready.pop()
        outer[v] |= 2

        # v has exactly two neighbours on the outer face, wp and wq
        wp = wq = -1
        for h in cw_order(cw, leftmost[v]):
            nbr = head[h]
            if outer[nbr] == 1:
                if nbr == v1:
                    wp, hp = v1, h
                elif nbr == v2:
                    wq = v2
                elif outer_face_cw_nbr[nbr] == v:
                    wp, hp = nbr, h
                else:
                    wq = nbr
                if wp >= 0 and wq >= 0:
                    break

        # v's neighbours from wp to wq join the outer face
        start = len(contours)
        contours.append(wp)
        nbr = wp
        while nbr != wq:
            hp = ccw[hp]
            next_nbr = head[hp]
            contours.append(next_nbr)
            outer_face_cw_nbr[nbr] = next_nbr
            outer_face_ccw_nbr[next_nbr] = nbr
            outer[next_nbr] |= 1
            nbr = next_nbr
        order[k] = v
        ends[k] = len(contours)

        if ends[k] - start == 2:
            # the chord wp-wq is now an outer edge
            for w in (wp, wq):
                chords[w] -= 1
                if not chords[w]:
                    ready.append(w)
        else:
            new_face_nodes = contours[start + 1 : -1]
            for w in new_face_nodes:
                stamp[w] = k
            for w in new_face_nodes:
                for h in cw_order(cw, leftmost[w]):
                    nbr = head[h]
                    if (outer[nbr] == 1 and outer_face_ccw_nbr[w] != nbr
                            and outer_face_cw_nbr[w] != nbr):
                        chords[w] += 1
                        if stamp[nbr] != k:
                            chords[nbr] += 1
                if not chords[w]:
                    ready.append(w)

    return order, contours, ends


def triangulate_face(emb, h12):
    """Triangulate the face on the left of the half-edge h12 = v1 -> v2."""
    head, cw, ccw, twin, leftmost = emb
    v1 = head[twin[h12]]
    h23 = ccw[twin[h12]]
    if v1 == head[h23]:
        return
    while v1 != head[ccw[twin[h23]]]:  # v4, after v3
        # is v3 a neighbour of v1?  Both rotations are read in step, so a
        # fan centre's is read no further than the other node's; the else
        # runs when one of them meets the other node.
        v3 = head[h23]
        x = sx = leftmost[v1]
        y = sy = leftmost[v3]
        while head[x] != v3 and head[y] != v1:
            x, y = cw[x], cw[y]
            if x == sx or y == sy:
                h12 = add_edge(emb, h12, twin[h23])
                break
        else:
            v1 = head[h12]
            h12 = h23
        h23 = ccw[twin[h12]]


def triangulate_embedding(emb, nodes):
    """Make ``emb`` 2-connected and triangulate all faces but the largest.

    Walks the faces in the order networkx's ``make_bi_connected`` does,
    from each node of ``nodes`` clockwise, and returns the nodes of the
    largest face, which stays the outer face.
    """
    head, cw, ccw, twin, leftmost = emb
    outer_face = []
    face_starts = array("i")
    edges_visited = bytearray(len(head))
    met = array("i", [-1]) * len(leftmost)  # node -> first half-edge of the last walk to meet it
    for v in nodes:
        for h0 in cw_order(cw, leftmost[v]):
            if edges_visited[h0]:
                continue
            # walk the face left of h0, splitting cut vertices
            edges_visited[h0] = 1
            face = [v]
            met[v] = h0
            h12 = h0
            h23 = ccw[twin[h0]]
            while h23 != h0:
                v2 = head[h12]
                if met[v2] == h0:
                    # v2 met twice: an edge v1-v3 keeps the face 2-connected
                    edges_visited[h23] = 1
                    h12 = add_edge(emb, h12, twin[h23])
                    edges_visited += b"\1\1"
                else:
                    met[v2] = h0
                    face.append(v2)
                    h12 = h23
                h23 = ccw[twin[h12]]
                edges_visited[h12] = 1
            face_starts.append(h0)
            if len(face) > len(outer_face):
                outer_face, outer_start = face, h0

    for h0 in face_starts:
        if h0 != outer_start:
            triangulate_face(emb, h0)
    return outer_face


# networkx license (3-clause BSD), for the code ported above:
#
# Copyright (c) 2004-2025, NetworkX Developers
# Aric Hagberg <hagberg@lanl.gov>
# Dan Schult <dschult@colgate.edu>
# Pieter Swart <swart@lanl.gov>
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions are
# met:
#
#   * Redistributions of source code must retain the above copyright
#     notice, this list of conditions and the following disclaimer.
#
#   * Redistributions in binary form must reproduce the above
#     copyright notice, this list of conditions and the following
#     disclaimer in the documentation and/or other materials provided
#     with the distribution.
#
#   * Neither the name of the NetworkX Developers nor the names of its
#     contributors may be used to endorse or promote products derived
#     from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
