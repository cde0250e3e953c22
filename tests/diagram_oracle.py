"""Test oracles for diagrams, written from the PD convention alone.

``pair_labels`` pairs equal edge labels through a dict of each label's first
dart: the reference for the dense pairing in ``diagrams._pair_labels``.

``trace_faces`` pairs darts by their edge labels, not through ``mate``, and
walks each face as the documented orbit: cross the edge, then turn one slot
counterclockwise.  ``twist_regions`` joins the crossings of those traced
faces' bigons.  ``strand_labels`` names each strand of ``d.strands`` by the
edge labels it leaves along, and ``component_map`` names the strand
through every dart.

``finish_by_rotation`` is the reference for ``DiagramBuilder.finish``: it
numbers the edges in builder darts and rotates the crossings only at the end.
"""

from collections import Counter

from coilbounds.errors import EdgePairingError


def pair_labels(labels):
    """The dart array ``mate`` of flat PD labels, as a tuple: each dart is
    paired with the other dart of its label.  A label that appears once, or
    three or more times, is an ``EdgePairingError`` naming the first such
    label in order of appearance."""
    first = {}  # label -> its first dart, in order of appearance
    mate = [-1] * len(labels)
    for d, label in enumerate(labels):
        e = first.setdefault(label, d)
        if e != d and mate[e] < 0:
            mate[e] = d
            mate[d] = e
    if -1 in mate:
        counts = Counter(labels)
        label = next(label for label in first if counts[label] != 2)
        raise EdgePairingError(
            f"edge label {label} appears {counts[label]} times, expected 2"
        )
    return tuple(mate)


def trace_faces(d):
    """The faces of ``d`` as tuples of darts ``4*crossing + slot``.

    The empty diagram is the sphere: one face with no darts.
    """
    labels = list(d.labels)
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


def twist_regions(d):
    """The twist regions of ``d``, maximal chains of crossings joined by the
    bigons of ``trace_faces``, as a partition of the crossings sorted by
    smallest crossing."""
    region = list(range(d.n_crossings))
    for face in trace_faces(d):
        if len(face) == 2:
            old, new = region[face[0] // 4], region[face[1] // 4]
            region = [new if r == old else r for r in region]
    groups = {}
    for c, r in enumerate(region):
        groups.setdefault(r, []).append(c)
    return tuple(tuple(g) for g in groups.values())


def strand_labels(d):
    """Edge labels of each link component, in traversal order: the edge
    leaving each dart of its strand (``d.strands``), slot s + 2 of the
    crossing it enters."""
    return tuple(
        tuple(d.labels[4 * (x // 4) + (x + 2) % 4] for x in strand) for strand in d.strands
    )


def component_map(d):
    """The index in ``d.strands`` of the strand through each dart: a strand
    enters its crossings at its darts x and leaves them at x ^ 2."""
    comp = [None] * len(d.mate)
    for k, strand in enumerate(d.strands):
        for x in strand:
            comp[x] = comp[x ^ 2] = k
    return comp


def finish_by_rotation(peer, under, circles=None):
    """Reference ``DiagramBuilder.finish`` of a valid wiring: the finished
    ``(labels, mate, circles)``, as lists and a dict.

    Each walk starts at the first builder dart no walk has labelled yet and
    numbers the edges it leaves by, the first leaving the start's crossing.
    Only then is every crossing rotated so that slot 0 is the slot at which
    its under-strand enters, ``under[c]`` or ``under[c] + 2``.
    """
    n = len(peer)
    label_of = [0] * n  # by builder dart
    enter = [None] * (n // 4)  # crossing -> the slot its under-strand enters at
    label = 0
    for start in range(n):
        if label_of[start]:
            continue
        dart = start
        while True:
            c, slot = divmod(dart, 4)
            if slot % 2 == under[c]:
                enter[c] = slot
            out = 4 * c + (slot + 2) % 4
            dart = peer[out]
            label += 1
            label_of[out] = label_of[dart] = label
            if dart == start:
                break
    final = [4 * (x // 4) + (x - enter[x // 4]) % 4 for x in range(n)]
    labels, mate = [0] * n, [0] * n
    for x in range(n):
        labels[final[x]] = label_of[x]
        mate[final[x]] = final[peer[x]]
    circles = {
        role: (orient, [(final[w], final[e]) for w, e in passages])
        for role, (orient, passages) in (circles or {}).items()
    }
    return labels, mate, circles


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


def plat_by_cap_chase(b, terms, with_clasp):
    """Reference plat: ``generators._build_plat`` laid on four columns and
    closed by chasing caps, with no case analysis of which columns hold
    crossings.

    Syllable i twists columns (1, 2) when i is even and (0, 1) when i is
    odd, the clasp taking syllable k's place.  The top caps join columns
    (0, 1) and (2, 3); the bottom caps do too when the last syllable twists
    columns (1, 2), and join (1, 2) and (0, 3) otherwise.  From each end of
    a column with crossings, caps and crossing-free columns lead to exactly
    one other such end.  Braid crossings use slots 0=NW, 1=SW, 2=SE, 3=NE;
    clasp crossings 0=N, 1=W, 2=S, 3=E.  Returns the clasp's
    ``(orient, passages)`` record, or None.
    """
    cols = [[] for _ in range(4)]  # (north, south) darts per crossing
    for idx, a in enumerate(terms):
        col = 1 if idx % 2 == 0 else 0
        for c in b.crossings(a, under=1 if idx % 2 == 0 else 0):
            cols[col].append((4 * c, 4 * c + 1))
            cols[col + 1].append((4 * c + 3, 4 * c + 2))
    clasp_info = None
    last_col = 1 if (len(terms) - 1) % 2 == 0 else 0
    if with_clasp:
        last_col = 1 - last_col
        nl, nr = (4 * c for c in b.crossings(2, under=0))
        sl, sr = (4 * c for c in b.crossings(2, under=1))
        for top, bot, j in ((nl, sl, last_col), (nr, sr, last_col + 1)):
            cols[j] += [(top, top + 2), (bot, bot + 2)]
        b.join(nl + 3, nr + 1)
        b.join(sl + 3, sr + 1)
        b.join(nr + 3, sr + 3)
        b.join(nl + 1, sl + 1)
        clasp_info = (1, [(nl, sl + 2), (nr, sr + 2)])

    for items in cols:
        for (_, south), (north, _) in zip(items, items[1:]):
            b.join(south, north)
    bottom_caps = ((0, 1), (2, 3)) if last_col == 1 else ((1, 2), (0, 3))
    cap = {}
    for side, caps in enumerate((((0, 1), (2, 3)), bottom_caps)):
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
    return clasp_info
