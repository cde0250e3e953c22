"""Self-test of the output checks: real outputs pass, corrupted ones fail.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  For every command kind the
workloads use, one real output is produced in-process, checked, then
corrupted in a few ways (exit code, a dropped PD term, a relabelled edge,
a perturbed bound, a missing row, a flipped verdict or PASS line, a
missing SVG glyph); every corruption must be counted as a failure.  It
also checks that BENCHMARK.json lists the metrics the benchmark prints.
Exits 1 if anything is not as expected.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _drop_last_term(text):
    terms = text.split()
    return " ".join(terms[:-1]) + "\n"


def _relabel(text):
    # the first label of the first term becomes a label used nowhere else
    return re.sub(r"X\((\d+),", "X(999999,", text, count=1)


def _bounds(text):
    data = json.loads(text)
    data["volume"]["lower"] *= 1.001
    return json.dumps(data)


def _family_json(text):
    data = json.loads(text)
    data["verdict"] = "Inconclusive" if data["verdict"] != "Inconclusive" else "ExpandingCertified"
    return json.dumps(data)


def _family_json_row(text):
    data = json.loads(text)
    data["rows"][0]["crossings"] += 1
    return json.dumps(data)


def _bump_first_number(pattern):
    def mutate(text):
        return re.sub(pattern, lambda m: m.group(1) + str(int(m.group(2)) + 1), text, count=1)
    return mutate


def _drop_glyph(text):
    if 'class="xing"' in text:
        return re.sub(r'<polyline class="xing"[^>]*/>', "", text, count=1)
    return re.sub(r'<polyline class="curve"[^>]*/>', "", text)


PD_MUTATIONS = (("dropped PD term", _drop_last_term), ("relabelled edge", _relabel))
STDOUT_MUTATIONS = {
    "augmented": PD_MUTATIONS,
    "twobridge": PD_MUTATIONS,
    "clasped": PD_MUTATIONS,
    "bounds": (("perturbed volume.lower", _bounds),),
    "cfrac": (("wrong k", _bump_first_number(r"(k=)(\d+)")),),
    "slope": (("wrong mirror", _bump_first_number(r'(mirror[=":\s]+)(\d+)')),),
    "curve": (("wrong intersection", _bump_first_number(r"(curve-curve=)(\d+)")),),
    "family-csv": (("missing row", lambda t: "\n".join(t.splitlines()[:-1]) + "\n"),),
    "family-json": (("flipped verdict", _family_json), ("wrong crossings", _family_json_row)),
    "verify": (("criterion-03 passing", lambda t: t.replace("FAIL criterion-03 ", "PASS criterion-03 ")),
               ("missing line", lambda t: "\n".join(t.splitlines()[:-1]) + "\n")),
    "verify-pd": (("wrong face count", _bump_first_number(r"(edges, )(\d+)")),),
}


def _file_mutations(cmd):
    e = cmd.expect
    if e.get("out"):
        yield e["out"], PD_MUTATIONS
    if e.get("svg"):
        yield e["svg"], (("missing SVG glyph", _drop_glyph),)


def corruptions(cmd, result):
    """Yield (label, corrupted result, {path: corrupted text})."""
    wrong_exit = 0 if result.returncode else 1
    yield "exit code", replace(result, returncode=wrong_exit), {}
    stdout_mutations = STDOUT_MUTATIONS.get(cmd.kind, ())
    if cmd.kind == "coil" and not cmd.expect.get("out"):
        stdout_mutations = PD_MUTATIONS
    for label, mutate in stdout_mutations:
        yield label, replace(result, stdout=mutate(result.stdout)), {}
    for path, mutations in _file_mutations(cmd):
        original = Path(path).read_text()
        for label, mutate in mutations:
            yield f"{label} in {Path(path).name}", result, {path: mutate(original)}


def _check_with_files(cmd, result, files):
    saved = {path: Path(path).read_text() for path in files}
    try:
        for path, text in files.items():
            Path(path).write_text(text)
        return checks.check(cmd, result)
    finally:
        for path, text in saved.items():
            Path(path).write_text(text)


def _benchmark_json_problems(root):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    listed = [m["name"] for m in spec["per_layer"]]
    printed = [name for name, _ in tracing.PER_LAYER]
    if listed != printed:
        problems.append(f"per_layer in BENCHMARK.json differs from tracing.PER_LAYER: "
                        f"{sorted(set(listed) ^ set(printed))}")
    listed = [m["name"] for m in spec["end_to_end"]]
    if listed != [name for name, _ in run.END_TO_END]:
        problems.append("end_to_end in BENCHMARK.json differs from run.END_TO_END")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("workloads in BENCHMARK.json differ from workloads.WORKLOADS")
    return problems


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import coilbounds.cli as cli

    problems = _benchmark_json_problems(root)
    out_dir = root / run.OUT_DIR
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=out_dir))
    caught = 0
    try:
        seen = set()
        for name in workloads.WORKLOADS:
            batch = workloads.build(name, 0, workdir)
            for path, text in batch.files.items():
                Path(path).write_text(text)
            for cmd in batch.commands:
                # every kind once, plus each SVG-drawing or file-writing variant
                key = (cmd.kind, bool(cmd.expect.get("svg")), bool(cmd.expect.get("out")))
                result = tracing.replay(cli.main, cmd.argv)
                if key in seen:
                    continue
                seen.add(key)
                error = checks.check(cmd, result)
                if error:
                    problems.append(f"real output rejected: {error}")
                    continue
                for label, bad, files in corruptions(cmd, result):
                    if _check_with_files(cmd, bad, files) is None:
                        problems.append(f"{cmd.kind}: corruption not caught: {label}")
                    else:
                        caught += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print(f"{caught} corruptions caught across {len(seen)} command kinds; "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
