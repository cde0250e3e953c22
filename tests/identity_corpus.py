"""Hash every small generator and fill output, to show a change leaves them alone.

Run from the repository root, on the tree before and after a change:

    PYTHONPATH=src python tests/identity_corpus.py

It prints the number of outputs and one sha256 over, for each output, its
PD text, ``circles``, ``strands`` and ``verify_pd_text`` line, plus the SVG
of every diagram of at most 200 crossings.  The outputs are the two-bridge,
clasped and augmented diagrams of every reduced p/q with q <= 13, each
circle of those filled alone and both filled in either order with -2..2
full twists, and the direct coils (p, q, n1, n2) with q <= 9 and n1, n2 in
-2, -1, 1, 2.  An output that raises is hashed as its error's type and
message.  Equal hashes mean byte-identical outputs.  The file has no
``test_`` prefix, so pytest does not collect it.
"""

import hashlib
import sys
from math import gcd

from coilbounds.diagrams import emit_pd, verify_pd_text
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
        verify_pd_text(text),
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
    print(f"{count} outputs sha256 {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
