"""Hash every small generator and fill output, to show a change leaves them alone.

Run from the repository root, on the tree before and after a change:

    PYTHONPATH=src python tests/identity_corpus.py

It prints the number of outputs and one sha256 over, for each output, its
PD text, ``circles``, ``strands`` and the ``describe`` line of its re-parsed
text, plus the SVG of every diagram of at most 200 crossings.  The outputs
are the two-bridge, clasped and augmented diagrams of every reduced p/q
with q <= 13, each circle of those filled alone and both filled in either
order with -2..2 full twists, and the direct coils (p, q, n1, n2) with
q <= 9 and n1, n2 in -2, -1, 1, 2.  An output that raises is hashed as its
error's type and message.

It then finishes mutated copies of the wiring that some of those builds
hand to ``DiagramBuilder.finish``: two edges with their ends swapped, one
or two edges whose ends are each wired to themselves, a dangling dart, a
dart wired to a dart that is not wired back, a crossing whose under
diagonal is flipped, and a self-wired edge with a dart not wired back (to
show which of the two is named), each at darts drawn from a generator
seeded by the build's name.  Each is hashed as its PD text and
``circles``, or as its error's type and message.  Equal hashes mean
byte-identical outputs.  The file has no ``test_`` prefix, so pytest
does not collect it.
"""

import hashlib
import random
import sys
from math import gcd

from coilbounds.diagrams import _UNWIRED, DiagramBuilder, describe, emit_pd, parse_pd
from coilbounds.generators import (
    CoilSpec,
    fill_crossing_circle,
    gen_augmented,
    gen_clasped_two_bridge,
    gen_double_coil,
    gen_two_bridge,
)
from coilbounds.slopes import Slope, cfrac_expand
from coilbounds.svg import render_svg

TWISTS = range(-2, 3)
COIL_TWISTS = (-2, -1, 1, 2)
SVG_CROSSINGS = 200


def _slopes(max_q):
    return [Slope(p, q) for q in range(2, max_q + 1) for p in range(1, q) if gcd(p, q) == 1]


def _builds():
    """(name, build) for every output of the corpus, in a fixed order."""
    for s in _slopes(13):
        yield f"two-bridge {s}", lambda s=s: gen_two_bridge(cfrac_expand(s))
        yield f"clasped {s}", lambda s=s: gen_clasped_two_bridge(s)
        yield f"augmented {s}", lambda s=s: gen_augmented(s)
        for n in TWISTS:
            yield f"clasp {s} {n}", lambda s=s, n=n: fill_crossing_circle(
                gen_clasped_two_bridge(s), "clasp", n)
            for role in ("C1", "C2"):
                yield f"{role} {s} {n}", lambda s=s, n=n, role=role: fill_crossing_circle(
                    gen_augmented(s), role, n)
        for first, second in (("C1", "C2"), ("C2", "C1")):
            for n1 in TWISTS:
                for n2 in TWISTS:
                    yield f"{first} {n1} {second} {n2} {s}", (
                        lambda s=s, a=(first, n1), b=(second, n2): fill_crossing_circle(
                            fill_crossing_circle(gen_augmented(s), *a), *b))
    for s in _slopes(9):
        for n1 in COIL_TWISTS:
            for n2 in COIL_TWISTS:
                yield f"coil {s} {n1} {n2}", lambda s=s, n1=n1, n2=n2: gen_double_coil(
                    CoilSpec(s.p, s.q, n1, n2))


def _mutation_builds():
    """(name, build) for the builds whose wirings are mutated."""
    for s in _slopes(13):
        yield f"two-bridge {s}", lambda s=s: gen_two_bridge(cfrac_expand(s))
        yield f"clasped {s}", lambda s=s: gen_clasped_two_bridge(s)
        yield f"augmented {s}", lambda s=s: gen_augmented(s)
        yield f"clasp {s} 1", lambda s=s: fill_crossing_circle(gen_clasped_two_bridge(s), "clasp", 1)
        yield f"C1 {s} -1", lambda s=s: fill_crossing_circle(gen_augmented(s), "C1", -1)
        yield f"C2 {s} 2", lambda s=s: fill_crossing_circle(gen_augmented(s), "C2", 2)
    for s in _slopes(9):
        for n1 in COIL_TWISTS:
            for n2 in COIL_TWISTS:
                yield f"coil {s} {n1} {n2}", lambda s=s, n1=n1, n2=n2: gen_double_coil(
                    CoilSpec(s.p, s.q, n1, n2))


def _wirings(build):
    """Copies of the wiring, under diagonals and circles of every ``finish``
    that ``build()`` calls."""
    calls = []
    real = DiagramBuilder.finish

    def finish(b, circles=None):
        kept = None if circles is None else {
            role: (orient, list(passages)) for role, (orient, passages) in circles.items()}
        calls.append((b._peer[:], b._under[:], kept))
        return real(b, circles)

    DiagramBuilder.finish = finish
    try:
        build()
    finally:
        DiagramBuilder.finish = real
    return calls


def _swap_ends(peer, under, rng):
    a = rng.randrange(len(peer))
    c = rng.choice([x for x in range(len(peer)) if x not in (a, peer[a])])
    b, e = peer[a], peer[c]
    peer[a], peer[c], peer[b], peer[e] = c, a, e, b


def _self_wired(count):
    def mutate(peer, under, rng):
        for a in rng.sample([x for x in range(len(peer)) if x < peer[x]], count):
            peer[peer[a]] = peer[a]
            peer[a] = a
    return mutate


def _dangle(peer, under, rng):
    peer[rng.randrange(len(peer))] = _UNWIRED


def _not_wired_back(peer, under, rng):
    a = rng.randrange(len(peer))
    peer[a] = rng.choice([x for x in range(len(peer)) if x != peer[a]])


def _flip_under(peer, under, rng):
    under[rng.randrange(len(under))] ^= 1


def _self_wired_and_not_wired_back(peer, under, rng):
    _self_wired(1)(peer, under, rng)
    _not_wired_back(peer, under, rng)


MUTATIONS = {
    "swapped ends": _swap_ends,
    "one self-wired edge": _self_wired(1),
    "two self-wired edges": _self_wired(2),
    "dangling dart": _dangle,
    "not wired back": _not_wired_back,
    "flipped under": _flip_under,
    "self-wired edge and not wired back": _self_wired_and_not_wired_back,
}


def _mutants():
    """(name, finish) for every mutated wiring, in a fixed order."""
    for name, build in _mutation_builds():
        for k, (peer, under, circles) in enumerate(_wirings(build)):
            for kind, mutate in MUTATIONS.items():
                label = f"{name} finish {k} {kind}"
                rng = random.Random(label)
                p, u = peer[:], under[:]
                mutate(p, u, rng)
                yield label, lambda p=p, u=u, circles=circles: _finish(p, u, circles)


def _finish(peer, under, circles):
    b = DiagramBuilder()
    b._peer, b._under = peer, under
    return b.finish(circles)


def _mutant_record(finish):
    try:
        d = finish()
    except Exception as e:
        return f"{type(e).__name__}: {e}"
    return f"{emit_pd(d)}\n{sorted(d.circles.items())!r}"


def _record(build):
    """The text that stands for one output."""
    try:
        d = build()
    except Exception as e:  # an output that raises is hashed as its error
        return f"{type(e).__name__}: {e}"
    text = emit_pd(d)
    parts = [
        text,
        repr(sorted(d.circles.items())),
        repr([list(strand) for strand in d.strands]),
        describe(parse_pd(text)),
    ]
    if d.n_crossings <= SVG_CROSSINGS:
        parts.append(render_svg(d))
    return "\n".join(parts)


def main():
    h = hashlib.sha256()
    count = 0
    for name, build in _builds():
        h.update(f"{name}\n{_record(build)}\n\n".encode())
        count += 1
    for name, finish in _mutants():
        h.update(f"{name}\n{_mutant_record(finish)}\n\n".encode())
        count += 1
    print(f"{count} outputs sha256 {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
