"""coilbounds benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload cli-short --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The package is run from source
(``python -m coilbounds`` with ``PYTHONPATH=src``), never installed.  One
client runs the workload's seeded batch as sequential subprocesses, round
robin, until ``--seconds`` have passed (at least one whole pass), and
checks every output with ``checks.py``; ``launcher.py`` starts and times
the children.  Runs of ``reference.py`` between commands measure the
host's speed, and every timing is scaled to a host on which that job
takes ``REF_NOMINAL_S``.  With ``--trace 1`` the batch is instead replayed once
in-process through ``coilbounds.cli.main``, with and without the tracing
wrappers of ``tracing.py``, and the per-layer metrics are printed.  The
last line of stdout is the JSON result; the line before it carries the
run's context (host, versions, sample counts).  Spans and results are also
written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from checks import Result  # noqa: E402
import workloads  # noqa: E402

# A reference job is due every REF_EVERY_S seconds of a run, and a warm
# --version start with every second one.
REF_EVERY_S = 3.0
# The reference job's time on the reference host when it is quiet.  Every
# timing is scaled by REF_NOMINAL_S over the run's median reference time.
REF_NOMINAL_S = 0.4
REFERENCE = Path(__file__).resolve().parent / "reference.py"
COMMAND_TIMEOUT_S = 120
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
OUT_DIR = ".perfbench_out"
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cmd_p50_s", "s"), ("cmd_tail_s", "s"),
              ("peak_rss_mb", "MB"))


class Runner:
    """Runs ``python -m coilbounds`` from the checkout's ``src``, one child at a time.

    Children are started by ``launcher.py``, a process forked while this
    one is still small, so their max-RSS is their own.
    """

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self._launcher = subprocess.Popen(
            [sys.executable, "-I", str(Path(__file__).resolve().parent / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv, python_flags=()) -> Result:
        return self.run_argv([sys.executable, *python_flags, "-m", "coilbounds", *argv])

    def run_argv(self, argv) -> Result:
        out_path, err_path = self.workdir / "child.out", self.workdir / "child.err"
        request = {
            "argv": argv,
            "cwd": str(self.workdir), "env": self.env,
            "stdout": str(out_path), "stderr": str(err_path), "timeout": COMMAND_TIMEOUT_S,
        }
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        reply = json.loads(reply)
        return Result(reply["returncode"], out_path.read_text(), err_path.read_text(),
                      reply["wall"], reply["maxrss_kb"])

    def reference(self) -> float:
        """One run of ``reference.py``: the host's speed now, in seconds."""
        r = self.run_argv([sys.executable, "-I", str(REFERENCE)])
        if r.returncode != 0:
            raise SystemExit(f"reference job failed: {r.stderr.strip()[-300:]}")
        return r.wall

    def close(self):
        self._launcher.stdin.close()
        self._launcher.wait()
        self._launcher.stdout.close()


def host_info(root: Path, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        networkx = metadata.version("networkx")
    except metadata.PackageNotFoundError:
        networkx = None
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "networkx": networkx,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile, interpolated between the two nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail_percentile(n: int) -> int:
    """The highest percentile with at least ten samples beyond it (50 if none)."""
    for pct in TAIL_PERCENTILES:
        if n * (100 - pct) / 100 >= 10:
            return pct
    return 50


def metric(value, unit):
    return {"value": value, "unit": unit}


def version_start(runner: Runner) -> float:
    """One warm ``python -m coilbounds --version``: interpreter, import and parser."""
    r = runner.run(["--version"])
    if r.returncode != 0 or not r.stdout.startswith("coilbounds "):
        raise SystemExit(f"coilbounds --version failed: {r.stderr.strip()[-300:]}")
    return r.wall


def timed_run(runner: Runner, batch, seconds: float):
    """Round-robin passes over the batch until ``seconds`` pass (>= 1 pass).

    Reference jobs and warm ``--version`` starts fall due on the
    ``REF_EVERY_S`` schedule; those due are taken between commands, and
    once more when the run ends.  So the set-up and host samples span the
    run like the command samples do.
    """
    samples = [[] for _ in batch.commands]
    refs, starts, failures, peak_kb, attempted = [], [], [], 0, 0
    start = next_due = time.perf_counter()

    def take_due_starts():
        nonlocal next_due
        now = time.perf_counter()  # fixed, so slow starts cannot make more starts due
        while next_due <= now:
            if len(refs) % 2 == 0:
                starts.append(version_start(runner))
            refs.append(runner.reference())
            next_due += REF_EVERY_S

    i, passes = 0, 0
    while True:
        if i == len(batch.commands):
            i, passes = 0, passes + 1
        if passes and time.perf_counter() - start >= seconds:
            break
        take_due_starts()
        cmd = batch.commands[i]
        result = runner.run(cmd.argv)
        attempted += 1
        error = checks.check(cmd, result)
        if error:
            failures.append(error)
        samples[i].append(result.wall)
        peak_kb = max(peak_kb, result.maxrss_kb)
        i += 1
    take_due_starts()
    return samples, refs, starts, attempted, failures, peak_kb, passes


def pass_crossings(batch) -> int:
    """Crossings in the PD codes one pass emits or reads back."""
    crossings = 0
    for cmd in batch.commands:
        e = cmd.expect
        if cmd.kind in ("coil", "verify-pd", "render"):
            crossings += e["crossings"]
        elif cmd.kind == "augmented":
            crossings += 4 * e["q"]
        elif cmd.kind in ("twobridge", "clasped"):
            crossings += sum(workloads.cfrac_terms(e["p"], e["q"])) + 4 * (cmd.kind == "clasped")
    return crossings


def setup(runner: Runner, batch) -> float:
    """Write the inputs and run the untimed warm-up (it compiles the ``.pyc`` files)."""
    for path, text in batch.files.items():
        Path(path).write_text(text)
    warm = runner.run(batch.warmup.argv)
    error = checks.check(batch.warmup, warm)
    if error:
        raise SystemExit(f"warm-up failed: {error}")
    return warm.wall


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "coilbounds" / "__main__.py").is_file():
        print("perfbench: no src/coilbounds package under the current directory; "
              "run from the root of a coilbounds checkout", file=sys.stderr)
        return 2
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=out_dir))
    runner = Runner(root, workdir)
    try:
        return _run(args, root, out_dir, runner)
    finally:
        runner.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, root, out_dir, runner) -> int:
    workdir = runner.workdir
    info = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            **host_info(root, args.seed)}
    batch = workloads.build(args.workload, args.seed, workdir)
    warmup_s = setup(runner, batch)
    info["warmup_s"] = warmup_s
    info["batch_commands"] = len(batch.commands)

    if args.trace:
        import tracing

        ref = [runner.reference()]
        values, attempted, failures = tracing.traced_replay(
            root, runner, batch, out_dir / f"spans-{args.workload}-{args.seed}.jsonl.gz")
        ref += [runner.reference(), runner.reference()]
        values["host.ref_loop_s"] = statistics.median(ref)
        metrics = {name: metric(values[name], unit) for name, unit in tracing.PER_LAYER}
    else:
        samples, refs, starts, attempted, failures, peak_kb, passes = timed_run(
            runner, batch, args.seconds)
        # whole passes only, so every command counts equally in the percentiles
        pooled = [t for s in samples for t in s[:passes]]
        pct = tail_percentile(len(pooled))
        raw = {
            "setup_s": statistics.median(starts),
            "wall_s": sum(statistics.median(s) for s in samples),
            "cmd_p50_s": statistics.median(pooled),
            "cmd_tail_s": percentile(pooled, pct),
        }
        # Host speed drifts by tens of percent over minutes; the reference
        # job drifts with it, so the scaled timings drift much less.
        scale = REF_NOMINAL_S / statistics.median(refs)
        values = {name: t * scale for name, t in raw.items()}
        values["peak_rss_mb"] = peak_kb / 1024
        wall = values["wall_s"]
        crossings = pass_crossings(batch)
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END}
        info.update({
            "passes": passes,
            "command_medians_s": [statistics.median(s) for s in samples],
            "samples": len(pooled),
            "setup_samples": len(starts),
            "cmd_tail_percentile": pct,
            "host.ref_loop_s": refs,
            "host_scale": scale,
            "unscaled": raw,
            # Reported here rather than in ``metrics``: failed_ratio is 0 on
            # a correct build, and there are no crossings on verify-suite.
            # For a fixed seeded pass the throughput is a constant divided
            # by wall_s.
            "failed_ratio": len(failures) / attempted,
            "crossings_per_s": crossings / wall if crossings else None,
        })
        _print_table(args.workload, metrics, info)
    info["failures"] = failures[:20]
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    with open(out_dir / f"result-{args.workload}-{args.seed}-t{args.trace}.json", "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def _print_table(workload, metrics, info):
    rows = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    rows += [
        ("crossings_per_s", info["crossings_per_s"], "1/s"),
        ("failed_ratio", info["failed_ratio"], "ratio"),
    ]
    print(f"# {workload}: {info['samples']} invocations in {info['passes']} whole passes; "
          f"tail = p{info['cmd_tail_percentile']}")
    for name, value, unit in rows:
        shown = "n/a (not this workload)" if value is None else f"{value:.6g} {unit}"
        print(f"#   {name:16s} {shown}")


if __name__ == "__main__":
    sys.exit(main())
