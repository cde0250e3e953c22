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


def coil_braid_by_joins(b, q, n_signed):
    """Reference coil braid: ``generators._coil_braid`` wired one
    ``DiagramBuilder.join`` at a time, row by row, with ``current[i]`` the
    dart at which the strand at position i leaves the braid so far.

    Crossings use slots 0=W_upper, 1=W_lower, 2=E_lower, 3=E_upper; crossing
    i of a row twists positions i and i+1.  Returns the (west, east) port
    darts, bottom position first.
    """
    rows = q * abs(n_signed)
    if not rows:
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
