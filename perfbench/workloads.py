"""Seeded command batches, one builder per workload.

A batch is the list of CLI invocations one pass of a run makes.  Every
argument, config file and PD file name comes from the seed; the same seed
gives the same batch.  Each batch keeps a fixed count of every command
kind and draws only the parameters, from ranges where the cost of a kind
barely moves, so that two seeds cost about the same.  NOTES.md says why
each workload exists.

Every spec handed to ``bounds``/``lambda``/``family`` is certified
(|n_i| >= 4 on both regions), no coil exceeds about 5e4 crossings, and no
family config sets ``diagram_cap``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path

WORKLOADS = ("cli-short", "coil-build", "verify-suite")

# A standard figure-eight PD code, written by the benchmark itself for the
# verify-suite warm-up.
FIGURE_EIGHT_PD = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)\n"


@dataclass
class Command:
    """One CLI invocation: ``python -m coilbounds <argv>``.

    ``kind`` selects the output check in ``checks.py``; ``expect`` holds the
    generated parameters that check needs.
    """

    kind: str
    argv: list[str]
    expect: dict = field(default_factory=dict)


@dataclass
class Batch:
    commands: list[Command]
    warmup: Command
    files: dict[str, str] = field(default_factory=dict)  # inputs written at set-up


def coprime(rng: random.Random, q: int, lo: int = 1, hi: int | None = None) -> int:
    hi = q - 1 if hi is None else hi
    return rng.choice([p for p in range(lo, hi + 1) if gcd(p, q) == 1])


def twist(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice((-1, 1)) * rng.randint(lo, hi)


def split_twists(rng: random.Random, total: int) -> tuple[int, int]:
    """Signed (n1, n2) with |n1| + |n2| == total."""
    a = rng.randint(1, total - 1)
    return rng.choice((-1, 1)) * a, rng.choice((-1, 1)) * (total - a)


def build(workload: str, seed: int, workdir: Path) -> Batch:
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, workdir)


# ---------------------------------------------------------------------------
# cli-short: 40 short commands, 5 of them (1 in 8) drawing SVG
# ---------------------------------------------------------------------------
#
# 40 commands give one pass at least 10 samples beyond its 75th percentile,
# so every run reports the tail at the same percentile.


def _spec_args(rng, qmax=60):
    q = rng.randint(2, qmax)
    p = coprime(rng, q)
    n1, n2 = twist(rng, 4, 12), twist(rng, 4, 12)
    return p, q, n1, n2


def _bounds_cmd(rng, name, use_slope):
    p, q, n1, n2 = _spec_args(rng)
    argv = [name]
    argv += ["--slope", f"{p}/{q}"] if use_slope else ["--p", str(p), "--q", str(q)]
    argv += ["--n1", str(n1), "--n2", str(n2)]
    precision = 6
    if rng.random() < 0.5:
        precision = rng.randint(3, 12)
        argv += ["--precision", str(precision)]
    return Command("bounds", argv, {"p": p, "q": q, "n1": n1, "n2": n2,
                                    "precision": precision})


def _any_slope(rng, cap):
    """A reduced slope a/b with 0 <= a, b <= cap (1/0 allowed).

    Numerators stay non-negative: argparse would read "-3/5" as an option.
    """
    while True:
        a, b = rng.randint(0, cap), rng.randint(0, cap)
        if (a, b) != (0, 0) and gcd(abs(a), b) == 1 and (b or a == 1):
            return a, b


def _svg_coil(rng):
    """A small coil (about 180 crossings) so drawing cost barely depends on the seed."""
    q = rng.randint(3, 5)
    total = {3: 30, 4: 15, 5: 9}[q]
    n1, n2 = split_twists(rng, total)
    return coprime(rng, q), q, n1, n2


def _cli_short(rng, wd: Path) -> Batch:
    files, cmds = _family_cmds(rng, wd)
    for i in range(6):
        cmds.append(_bounds_cmd(rng, "bounds", use_slope=i % 2 == 1))
    for i in range(4):
        cmds.append(_bounds_cmd(rng, "lambda", use_slope=i % 2 == 1))
    for _ in range(3):
        q = rng.randint(3, 200)
        p = coprime(rng, q) + q * rng.randint(0, 3)
        cmds.append(Command("cfrac", ["cfrac", f"{p}/{q}"], {"p": p, "q": q}))
    for fmt in ("text", "json", "text"):
        q = rng.randint(3, 200)
        p = coprime(rng, q) + q * rng.randint(0, 2)
        cmds.append(Command("slope", ["slope", f"{p}/{q}", "--format", fmt],
                            {"p": p, "q": q, "format": fmt}))
    for cap, oracle in ((60, False),) * 3 + ((12, True),) * 2:
        a, b = _any_slope(rng, cap), _any_slope(rng, cap)
        argv = ["curve", f"{a[0]}/{a[1]}", f"{b[0]}/{b[1]}"] + (["--oracle"] if oracle else [])
        cmds.append(Command("curve", argv, {"s1": a, "s2": b}))
    for use_cfrac in (False, True, False):
        q = rng.randint(2, 40)
        p = coprime(rng, q)
        if use_cfrac:
            argv = ["gen", "twobridge", "--cfrac", "[" + ",".join(map(str, cfrac_terms(p, q))) + "]"]
        else:
            argv = ["gen", "twobridge", "--slope", f"{p}/{q}"]
        cmds.append(Command("twobridge", argv, {"p": p, "q": q}))
    for _ in range(2):
        q = rng.randint(2, 40)
        p = coprime(rng, q)
        cmds.append(Command("clasped", ["gen", "clasped", "--slope", f"{p}/{q}"],
                            {"p": p, "q": q}))
    for use_slope in (False, True, False):
        q = rng.randint(2, 40)
        p = coprime(rng, q)
        argv = ["gen", "augmented"]
        argv += ["--slope", f"{p}/{q}"] if use_slope else ["--p", str(p), "--q", str(q)]
        cmds.append(Command("augmented", argv, {"p": p, "q": q}))
    for _ in range(3):
        q = rng.randint(2, 7)
        p, n1, n2 = coprime(rng, q), twist(rng, 1, 12), twist(rng, 1, 12)
        cmds.append(Command("coil", _coil_argv(p, q, n1, n2), _coil_expect(p, q, n1, n2)))
    # the source of the render command below
    p, q, n1, n2 = _svg_coil(rng)
    src = str(wd / "short-src.pd")
    source = Command("coil", _coil_argv(p, q, n1, n2) + ["--out", src],
                     _coil_expect(p, q, n1, n2, out=src))
    cmds.append(source)
    # SVG: two gen --svg, two curve --svg, and the render --svg below
    for i in range(2):
        p, q, n1, n2 = _svg_coil(rng)
        svg = str(wd / f"short-gen{i}.svg")
        cmds.append(Command("coil", _coil_argv(p, q, n1, n2) + ["--svg", svg],
                            _coil_expect(p, q, n1, n2, svg=svg)))
        a, b = _any_slope(rng, 12), _any_slope(rng, 12)
        svg = str(wd / f"short-curve{i}.svg")
        cmds.append(Command("curve", ["curve", f"{a[0]}/{a[1]}", f"{b[0]}/{b[1]}", "--svg", svg],
                            {"s1": a, "s2": b, "svg": svg}))
    rng.shuffle(cmds)
    # the render must follow its source within the pass
    svg = str(wd / "short-render.svg")
    render = Command("render", ["render", src, "--svg", svg],
                     {"pd": src, "svg": svg, "crossings": source.expect["crossings"]})
    cmds.insert(rng.randint(cmds.index(source) + 1, len(cmds)), render)
    warmup = Command("bounds", ["bounds", "--p", "1", "--q", "2", "--n1", "4", "--n2", "4"],
                     {"p": 1, "q": 2, "n1": 4, "n2": 4, "precision": 6})
    return Batch(cmds, warmup, files)


def _coil_argv(p, q, n1, n2):
    return ["gen", "coil", "--p", str(p), "--q", str(q), "--n1", str(n1), "--n2", str(n2)]


def _coil_expect(p, q, n1, n2, out=None, svg=None):
    return {"p": p, "q": q, "n1": n1, "n2": n2, "out": out, "svg": svg,
            "crossings": q * (q - 1) * (abs(n1) + abs(n2))}


# ---------------------------------------------------------------------------
# coil-build: three big coils written and read back, two big augmented links
# ---------------------------------------------------------------------------
#
# Each command takes about a second, so a pass is short and every command
# is sampled several times in a run.

# (q, |n1| + |n2|): 15 200, 18 720 and 18 960 crossings
COIL_SIZES = ((20, 40), (40, 12), (80, 3))
# q ranges of the augmented links
AUGMENTED_QS = ((400, 420), (460, 480))


def _coil_build(rng, wd: Path) -> Batch:
    blocks = []
    for q, total in COIL_SIZES:
        p = coprime(rng, q)  # the whole range 1..q-1
        n1, n2 = split_twists(rng, total)
        out = str(wd / f"coil-q{q}.pd")
        gen = Command("coil", _coil_argv(p, q, n1, n2) + ["--out", out],
                      _coil_expect(p, q, n1, n2, out=out))
        check = Command("verify-pd", ["verify", "--pd", out],
                        {"crossings": gen.expect["crossings"], "components": 1})
        blocks.append([gen, check])
    # trace_gate_events is quadratic in q with p near q/2 as its worst case
    for lo, hi in AUGMENTED_QS:
        q = rng.randint(lo, hi)
        spread = q // 20
        p = coprime(rng, q, q // 2 - spread, q // 2 + spread)
        blocks.append([Command("augmented", ["gen", "augmented", "--p", str(p), "--q", str(q)],
                               {"p": p, "q": q})])
    rng.shuffle(blocks)
    warm = str(wd / "warmup.pd")
    warmup = Command("coil", _coil_argv(1, 2, 1, 1) + ["--out", warm],
                     _coil_expect(1, 2, 1, 1, out=warm))
    return Batch([c for block in blocks for c in block], warmup)


# ---------------------------------------------------------------------------
# family configs used by cli-short
# ---------------------------------------------------------------------------

README_VARY = "kind = vary-slope\nslope_sequence = fibonacci\nrange_end = 20\nn1 = 4\n"


def fibonacci(count):
    a, b = 1, 2
    out = []
    for _ in range(count):
        out.append((a, b))
        a, b = b, a + b
    return out


def _family_cmds(rng, wd: Path):
    """README vary-slope as JSON, and a seeded odd-denominator family as CSV."""
    count, n = rng.randint(18, 22), twist(rng, 4, 6)
    odd = (f"kind = vary-slope\nslope_sequence = odd-denominators\n"
           f"range_end = {count}\nn1 = {n}\n")
    files = {str(wd / "readme-vary.cfg"): README_VARY, str(wd / "odd.cfg"): odd}
    cmds = [
        Command("family-json",
                ["family", "--config", str(wd / "readme-vary.cfg"), "--format", "json",
                 "--jobs", "1"],
                {"members": [(a, b, 4, 4) for a, b in fibonacci(20)], "kind": "vary-slope"}),
        Command("family-csv", ["family", "--config", str(wd / "odd.cfg"), "--jobs", "1"],
                {"members": [(1, 2 * i + 3, n, n) for i in range(count)], "kind": "vary-slope"}),
    ]
    return files, cmds


# ---------------------------------------------------------------------------
# verify-suite: the acceptance suite; it takes no input, so the seed is unused
# ---------------------------------------------------------------------------


def _verify_suite(rng, wd: Path) -> Batch:
    warm = wd / "figure8.pd"
    warmup = Command("verify-pd", ["verify", "--pd", str(warm)],
                     {"crossings": 4, "components": 1})
    return Batch([Command("verify", ["verify", "--jobs", "1"])], warmup, {str(warm): FIGURE_EIGHT_PD})


_BUILDERS = {
    "cli-short": _cli_short,
    "coil-build": _coil_build,
    "verify-suite": _verify_suite,
}


def cfrac_terms(p: int, q: int) -> list[int]:
    """Euclid on q/p for 0 < p < q: the canonical continued fraction of p/q."""
    terms = []
    num, den = q, p
    while den:
        a, r = divmod(num, den)
        terms.append(a)
        num, den = den, r
    return terms
