"""Straight-line grid drawing of a planar rotation system (Chrobak–Payne).

M. Chrobak and T. H. Payne, "A linear-time algorithm for drawing a planar
graph on a grid", Information Processing Letters 54 (1995); technical
report 1989.

This is a port of networkx 3.6's ``combinatorial_embedding_to_pos``
(``networkx/algorithms/planar_drawing.py``: ``triangulate_embedding``,
``make_bi_connected``, ``triangulate_face``, ``get_canonical_ordering``
and the shift step) and of the parts of ``PlanarEmbedding``
(``networkx/algorithms/planarity.py``) that it uses.  Every dict and set
operation is made in the same order as there, so the positions, and the
order of their keys, are the ones networkx returns; the tests compare the
two.  networkx is Copyright (c) 2004-2025, NetworkX Developers, and is
distributed under the 3-clause BSD license, reproduced at the end of this
file.

An embedding is a dict ``succ``: node -> {neighbour: [cw, ccw]}, where cw
and ccw are the neighbours next to that neighbour clockwise and
counterclockwise around the node.  As in networkx, the last key of
``succ[v]`` is v's leftmost neighbour, where the clockwise order starts.
The drawing needs a connected sphere embedding with at least four nodes;
nothing here checks it, since ``svg._layout`` builds it from a validated
``PlanarDiagram``.
"""

from __future__ import annotations

from collections import defaultdict

CW, CCW = 0, 1


def add_half_edge(succ, v, w, *, cw=None, ccw=None):
    """Add the half-edge v -> w next to v's neighbour ``cw`` or ``ccw``.

    Naming ``cw`` puts w first counterclockwise from it, naming ``ccw``
    first clockwise; v's first half-edge names neither.
    """
    nbrs = succ.setdefault(v, {})
    succ.setdefault(w, {})
    if not nbrs:
        nbrs[w] = [w, w]
        return
    leftmost = next(reversed(nbrs))
    if cw is not None:
        ref_ccw = nbrs[cw][CCW]
        nbrs[w] = [cw, ref_ccw]
        nbrs[ref_ccw][CW] = w
        nbrs[cw][CCW] = w
        # with cw the leftmost neighbour, w is the last key and takes its place
        move_leftmost_to_end = cw != leftmost
    else:
        ref_cw = nbrs[ccw][CW]
        nbrs[w] = [ref_cw, ccw]
        nbrs[ref_cw][CCW] = w
        nbrs[ccw][CW] = w
        move_leftmost_to_end = True
    if move_leftmost_to_end:
        nbrs[leftmost] = nbrs.pop(leftmost)


def neighbors_cw_order(succ, v):
    """v's neighbours clockwise from the leftmost one, read as they are walked."""
    nbrs = succ[v]
    start = next(reversed(nbrs))
    yield start
    current = nbrs[start][CW]
    while current != start:
        yield current
        current = nbrs[current][CW]


def next_face_half_edge(succ, v, w):
    """The half-edge after v -> w along the face on its left."""
    return w, succ[w][v][CCW]


def combinatorial_embedding_to_pos(succ):
    """Integer grid positions {node: (x, y)} of a straight-line drawing.

    Triangulates ``succ`` in place, keeping its largest face as the outer
    face, then places the nodes in canonical order.
    """
    outer_face = triangulate_embedding(succ)

    # node -> child in the two trees; absent: not yet placed, None: no subtree
    left_t_child = {}
    right_t_child = {}
    delta_x = {}
    y_coordinate = {}

    node_list = get_canonical_ordering(succ, outer_face)

    # 1. Relative positions
    v1, v2, v3 = node_list[0][0], node_list[1][0], node_list[2][0]

    delta_x[v1] = 0
    y_coordinate[v1] = 0
    right_t_child[v1] = v3
    left_t_child[v1] = None

    delta_x[v2] = 1
    y_coordinate[v2] = 0
    right_t_child[v2] = None
    left_t_child[v2] = None

    delta_x[v3] = 1
    y_coordinate[v3] = 1
    right_t_child[v3] = v2
    left_t_child[v3] = None

    for k in range(3, len(node_list)):
        vk, contour_nbrs = node_list[k]
        wp = contour_nbrs[0]
        wp1 = contour_nbrs[1]
        wq = contour_nbrs[-1]
        wq1 = contour_nbrs[-2]
        adds_mult_tri = len(contour_nbrs) > 2

        # stretch the gaps
        delta_x[wp1] += 1
        delta_x[wq] += 1

        delta_x_wp_wq = sum(delta_x[x] for x in contour_nbrs[1:])

        # adjust the offsets
        delta_x[vk] = (-y_coordinate[wp] + delta_x_wp_wq + y_coordinate[wq]) // 2
        y_coordinate[vk] = (y_coordinate[wp] + delta_x_wp_wq + y_coordinate[wq]) // 2
        delta_x[wq] = delta_x_wp_wq - delta_x[vk]
        if adds_mult_tri:
            delta_x[wp1] -= delta_x[vk]

        # install vk
        right_t_child[wp] = vk
        right_t_child[vk] = wq
        if adds_mult_tri:
            left_t_child[vk] = wp1
            right_t_child[wq1] = None
        else:
            left_t_child[vk] = None

    # 2. Absolute positions
    pos = {v1: (0, y_coordinate[v1])}
    remaining_nodes = [v1]
    while remaining_nodes:
        parent = remaining_nodes.pop()
        for tree in (left_t_child, right_t_child):
            child = tree[parent]
            if child is not None:
                pos[child] = (pos[parent][0] + delta_x[child], y_coordinate[child])
                remaining_nodes.append(child)
    return pos


def get_canonical_ordering(succ, outer_face):
    """Canonical ordering [(vk, contour of G_k from wp to wq)] of a triangulation.

    Chrobak–Payne, Lemma 1: starting from the whole graph, repeatedly
    remove an outer node that has no chord.
    """
    v1 = outer_face[0]
    v2 = outer_face[1]
    chords = defaultdict(int)  # node -> number of its chords
    marked_nodes = set()
    ready_to_pick = set(outer_face)

    # outer-face neighbours, without v1 -> v2 and v2 -> v1
    outer_face_ccw_nbr = {}
    prev_nbr = v2
    for idx in range(2, len(outer_face)):
        outer_face_ccw_nbr[prev_nbr] = outer_face[idx]
        prev_nbr = outer_face[idx]
    outer_face_ccw_nbr[prev_nbr] = v1

    outer_face_cw_nbr = {}
    prev_nbr = v1
    for idx in range(len(outer_face) - 1, 0, -1):
        outer_face_cw_nbr[prev_nbr] = outer_face[idx]
        prev_nbr = outer_face[idx]

    def is_outer_face_nbr(x, y):
        if x not in outer_face_ccw_nbr:
            return outer_face_cw_nbr[x] == y
        if x not in outer_face_cw_nbr:
            return outer_face_ccw_nbr[x] == y
        return outer_face_ccw_nbr[x] == y or outer_face_cw_nbr[x] == y

    def is_on_outer_face(x):
        return x not in marked_nodes and (x in outer_face_ccw_nbr or x == v1)

    for v in outer_face:
        for nbr in neighbors_cw_order(succ, v):
            if is_on_outer_face(nbr) and not is_outer_face_nbr(v, nbr):
                chords[v] += 1
                ready_to_pick.discard(v)

    canonical_ordering = [None] * len(succ)
    canonical_ordering[0] = (v1, [])
    canonical_ordering[1] = (v2, [])
    ready_to_pick.discard(v1)
    ready_to_pick.discard(v2)

    for k in range(len(succ) - 1, 1, -1):
        v = ready_to_pick.pop()
        marked_nodes.add(v)

        # v has exactly two neighbours on the outer face, wp and wq
        wp = None
        wq = None
        for nbr in neighbors_cw_order(succ, v):
            if nbr in marked_nodes:
                continue
            if is_on_outer_face(nbr):
                if nbr == v1:
                    wp = v1
                elif nbr == v2:
                    wq = v2
                elif outer_face_cw_nbr[nbr] == v:
                    wp = nbr
                else:
                    wq = nbr
            if wp is not None and wq is not None:
                break

        # v's neighbours from wp to wq join the outer face
        wp_wq = [wp]
        nbr = wp
        while nbr != wq:
            next_nbr = succ[v][nbr][CCW]
            wp_wq.append(next_nbr)
            outer_face_cw_nbr[nbr] = next_nbr
            outer_face_ccw_nbr[next_nbr] = nbr
            nbr = next_nbr

        if len(wp_wq) == 2:
            # the chord wp-wq is now an outer edge
            chords[wp] -= 1
            if chords[wp] == 0:
                ready_to_pick.add(wp)
            chords[wq] -= 1
            if chords[wq] == 0:
                ready_to_pick.add(wq)
        else:
            new_face_nodes = set(wp_wq[1:-1])
            for w in new_face_nodes:
                ready_to_pick.add(w)
                for nbr in neighbors_cw_order(succ, w):
                    if is_on_outer_face(nbr) and not is_outer_face_nbr(w, nbr):
                        chords[w] += 1
                        ready_to_pick.discard(w)
                        if nbr not in new_face_nodes:
                            chords[nbr] += 1
                            ready_to_pick.discard(nbr)
        canonical_ordering[k] = (v, wp_wq)

    return canonical_ordering


def triangulate_face(succ, v1, v2):
    """Triangulate the face on the left of the half-edge v1 -> v2."""
    _, v3 = next_face_half_edge(succ, v1, v2)
    _, v4 = next_face_half_edge(succ, v2, v3)
    if v1 in (v2, v3):
        return
    while v1 != v4:
        if v3 in succ[v1]:
            v1, v2, v3 = v2, v3, v4
        else:
            add_half_edge(succ, v1, v3, ccw=v2)
            add_half_edge(succ, v3, v1, cw=v2)
            v1, v2, v3 = v1, v3, v4
        _, v4 = next_face_half_edge(succ, v2, v3)


def triangulate_embedding(succ):
    """Make ``succ`` 2-connected and triangulate all faces but the largest.

    Returns the nodes of the largest face, which stays the outer face.
    """
    outer_face = []
    face_list = []
    edges_visited = set()
    for v in succ:
        for w in neighbors_cw_order(succ, v):
            new_face = make_bi_connected(succ, v, w, edges_visited)
            if new_face:
                face_list.append(new_face)
                if len(new_face) > len(outer_face):
                    outer_face = new_face

    for face in face_list:
        if face is not outer_face:
            triangulate_face(succ, face[0], face[1])
    return outer_face


def make_bi_connected(succ, starting_node, outgoing_node, edges_counted):
    """Walk the face left of starting_node -> outgoing_node, splitting cut vertices.

    Returns the face's nodes, or [] if the half-edge is in ``edges_counted``;
    adds every half-edge walked to ``edges_counted``.
    """
    if (starting_node, outgoing_node) in edges_counted:
        return []
    edges_counted.add((starting_node, outgoing_node))

    v1 = starting_node
    v2 = outgoing_node
    face_list = [starting_node]
    face_set = set(face_list)
    _, v3 = next_face_half_edge(succ, v1, v2)

    while v2 != starting_node or v3 != outgoing_node:
        if v2 in face_set:
            # v2 met twice: an edge v1-v3 keeps the face 2-connected
            add_half_edge(succ, v1, v3, ccw=v2)
            add_half_edge(succ, v3, v1, cw=v2)
            edges_counted.add((v2, v3))
            edges_counted.add((v3, v1))
            v2 = v1
        else:
            face_set.add(v2)
            face_list.append(v2)

        v1 = v2
        v2, v3 = next_face_half_edge(succ, v2, v3)
        edges_counted.add((v1, v2))

    return face_list


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
