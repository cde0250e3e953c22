"""Test oracles for diagrams, written from the PD convention alone.

``trace_faces`` pairs darts by their edge labels, not through ``mate``, and
walks each face as the documented orbit: cross the edge, then turn one slot
counterclockwise.  ``strand_labels`` names each strand of ``d.strands`` by
the edge labels it leaves along.
"""


def trace_faces(d):
    """The faces of ``d`` as tuples of darts ``4*crossing + slot``.

    The empty diagram is the sphere: one face with no darts.
    """
    labels = [x for crossing in d.crossings for x in crossing]
    ends = {}
    for dart, label in enumerate(labels):
        ends.setdefault(label, []).append(dart)
    other = {}
    for a, b in ends.values():
        other[a], other[b] = b, a
    if not labels:
        return ((),)
    faces, seen = [], set()
    for start in range(len(labels)):
        if start in seen:
            continue
        face, dart = [], start
        while dart not in seen:
            seen.add(dart)
            face.append(dart)
            end = other[dart]
            dart = 4 * (end // 4) + (end + 1) % 4
        faces.append(tuple(face))
    return tuple(faces)


def strand_labels(d):
    """Edge labels of each link component, in traversal order: the edge
    leaving each dart of its strand (``d.strands``)."""
    return tuple(
        tuple(d.crossings[x // 4][(x + 2) % 4] for x in strand) for strand in d.strands
    )
