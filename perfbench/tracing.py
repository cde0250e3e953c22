"""Traced in-process replay: spans around each layer, and the per-layer metrics.

The replay runs the workload's batch once through ``coilbounds.cli.main``
in this process.  Each command runs twice, once plain and once with every
layer's public functions wrapped (alternating which goes first); the ratio
of the two totals is ``trace.overhead_ratio``.

A function is wrapped at every place it is looked up: each loaded
``coilbounds`` module whose namespace binds the same function object gets
the wrapper (``generators`` and ``family`` import names directly), methods
are wrapped on their class, and ``verify.ACCEPTANCE_CHECKS`` is replaced by
a copy with wrapped checks.  A target that no longer exists is skipped and
its metrics read 0.  Spans (name, start, end, parent, invocation, size) are
kept in memory and written out, gzipped, when the replay ends; self times
are derived from them.
"""

from __future__ import annotations

import contextlib
import gzip
from array import array
import importlib
import io
import json
import os
import pkgutil
import re
import statistics
import sys
import time
import traceback

import checks
from checks import Result

_MISSING = object()


def _len_result(args, kwargs, result):
    return 0 if result is _MISSING else len(result)


def _diagram_size(args, kwargs, result):
    return 0 if result is _MISSING else result.n_crossings


def _validated_size(args, kwargs, result):
    return len(getattr(args[0], "crossings", ()))


def _spec(args, kwargs, result):
    s = args[0] if args else kwargs.get("spec")
    return (s.p, s.q, s.n1, s.n2)


def _rows(args, kwargs, result):
    return 0 if result is _MISSING else len(result.rows)


# (module, attribute, span name, size function)
TARGETS = (
    ("slopes", "cfrac_expand", "slopes.cfrac_expand", None),
    ("slopes", "cfrac_eval", "slopes.cfrac_eval", None),
    ("slopes", "canonical_coil_slope", "slopes.canonical_coil_slope", None),
    ("slopes", "mirror_slope", "slopes.mirror_slope", None),
    ("curves", "trace_gate_events", "curves.trace_gate_events", _len_result),
    ("curves", "brute_force_intersection", "curves.oracle", None),
    ("diagrams", "parse_pd", "diagrams.parse_pd", None),
    ("diagrams", "emit_pd", "diagrams.emit_pd", None),
    ("diagrams", "PlanarDiagram.__init__", "diagrams.validate", _validated_size),
    ("diagrams", "PlanarDiagram.twist_regions", "diagrams.twist_regions", None),
    ("diagrams", "DiagramBuilder.finish", "diagrams.finish", None),
    ("generators", "gen_two_bridge", "generators.gen_two_bridge", _diagram_size),
    ("generators", "gen_clasped_two_bridge", "generators.gen_clasped_two_bridge", _diagram_size),
    ("generators", "gen_double_coil", "generators.gen_double_coil", _diagram_size),
    ("generators", "gen_augmented", "generators.gen_augmented", _diagram_size),
    ("generators", "fill_crossing_circle", "generators.fill_crossing_circle", _diagram_size),
    ("bounds", "bound_report", "bounds.bound_report", _spec),
    ("bounds", "coil_volume_interval", "bounds.coil_volume_interval", _spec),
    ("bounds", "coil_lambda_interval", "bounds.coil_lambda_interval", _spec),
    ("bounds", "coil_hyperbolicity_certificate", "bounds.certificate", None),
    ("bounds", "parent_volume_interval", "bounds.parent_volume_interval", None),
    ("family", "analyze_family", "family.analyze_family", _rows),
    ("family", "load_family_config", "family.load_config", None),
    ("family", "report_to_csv", "family.serialise", None),
    ("family", "report_to_json", "family.serialise", None),
    ("svg", "render_svg", "svg.render_svg", None),
    ("svg", "curve_svg", "svg.curve_svg", None),
    ("verify", "run_checks", "verify.run_checks", None),
    ("verify", "verify_pd_text", "verify.verify_pd_text", None),
)

GENERATORS = tuple(name for _, _, name, _ in TARGETS if name.startswith("generators."))
SPEC_SPANS = ("bounds.bound_report", "bounds.coil_volume_interval", "bounds.coil_lambda_interval")
VERIFY_IDS = tuple(i.replace("*", "adj") for i in checks.VERIFY_IDS)

PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.import_networkx_s", "s"),
    ("cli.self_s", "s"),
    ("slopes.self_s", "s"),
    ("slopes.cfrac_expand_calls", "count"),
    ("curves.trace_s", "s"),
    ("curves.trace_calls", "count"),
    ("curves.gate_events", "count"),
    ("curves.trace_s_per_event", "s"),
    ("curves.oracle_s", "s"),
    ("curves.oracle_calls", "count"),
    ("generators.self_s", "s"),
    ("generators.gen_double_coil_s", "s"),
    ("generators.gen_augmented_s", "s"),
    ("generators.fill_s", "s"),
    ("generators.gen_two_bridge_s", "s"),
    ("generators.crossings_built", "count"),
    ("diagrams.finish_s", "s"),
    ("diagrams.validate_s", "s"),
    ("diagrams.validations", "count"),
    ("diagrams.crossings_validated", "count"),
    ("diagrams.validations_per_output", "ratio"),
    ("diagrams.parse_s", "s"),
    ("diagrams.emit_s", "s"),
    ("diagrams.twist_regions_s", "s"),
    ("diagrams.twist_regions_calls", "count"),
    ("bounds.self_s", "s"),
    ("bounds.specs", "count"),
    ("bounds.volume_evals_per_spec", "ratio"),
    ("bounds.cfrac_per_spec", "ratio"),
    ("family.self_s", "s"),
    ("family.rows", "count"),
    ("family.diagram_rows", "count"),
    ("family.diagram_s", "s"),
    ("family.serialise_s", "s"),
    ("svg.render_s", "s"),
    ("svg.render_calls", "count"),
    ("svg.curve_svg_s", "s"),
    *((f"verify.{i}_s", "s") for i in VERIFY_IDS),
    ("verify.budget_ratio_max", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("host.ref_loop_s", "s"),
)


class Tracer:
    """Span recorder plus the table of wrapped names it swaps in and out."""

    def __init__(self, package):
        # Spans live in flat columns: a list of tuples would be scanned by
        # the garbage collector and slow the traced program down.
        self.nid, self.parent, self.inv = array("i"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.size: dict[int, object] = {}
        self.stack = [-1]
        self._inv = [-1]
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.swaps: list[tuple[object, str, object, object]] = []
        modules = [package] + [
            importlib.import_module(m.name)
            for m in pkgutil.iter_modules(package.__path__, package.__name__ + ".")
            if m.name != package.__name__ + ".__main__"
        ]
        for mod_name, attr, span, size in TARGETS:
            owner = sys.modules.get(f"{package.__name__}.{mod_name}")
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                fn = vars(cls).get(method) if cls is not None else None
                if callable(fn):
                    self.swaps.append((cls, method, fn, self.wrap(span, fn, size)))
                continue
            fn = getattr(owner, attr, None)
            if not callable(fn):
                continue
            wrapper = self.wrap(span, fn, size)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self.swaps.append((mod, key, fn, wrapper))
        verify = sys.modules.get(f"{package.__name__}.verify")
        table = getattr(verify, "ACCEPTANCE_CHECKS", None)
        if table is not None:
            wrapped = tuple(
                (label, self.wrap(f"verify.{_check_id(label)}", fn, lambda *_, t=limit: t), limit)
                for label, fn, limit in table
            )
            self.swaps.append((verify, "ACCEPTANCE_CHECKS", table, wrapped))

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, size=None):
        nid, stack, clock = self._id(name), self.stack, time.perf_counter
        nids, parents, invs, inv = self.nid, self.parent, self.inv, self._inv
        starts, ends, sizes = self.start, self.end, self.size

        def wrapper(*args, **kwargs):
            idx = len(nids)
            nids.append(nid)
            parents.append(stack[-1])
            invs.append(inv[0])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            result = _MISSING
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ends[idx] = clock()
                starts[idx] = start
                stack.pop()
                if size is not None:
                    sizes[idx] = size(args, kwargs, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def spans(self):
        """(name, start, end, parent index, invocation, size) per span, in call order."""
        names, sizes = self.names, self.size
        for i, (nid, start, end, parent, inv) in enumerate(
                zip(self.nid, self.start, self.end, self.parent, self.inv)):
            yield names[nid], start, end, parent, inv, sizes.get(i)

    @contextlib.contextmanager
    def installed(self, inv):
        self._inv[0] = inv
        for owner, key, _, wrapper in self.swaps:
            setattr(owner, key, wrapper)
        try:
            yield
        finally:
            for owner, key, original, _ in self.swaps:
                setattr(owner, key, original)

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "inv", "size"]}))
            fh.write("\n")
            for span in self.spans():
                fh.write(json.dumps(span))
                fh.write("\n")


def _check_id(label):
    return label.split()[0].replace("*", "adj")


def replay(main, argv) -> Result:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:  # an escaped exception is a failed invocation
            traceback.print_exc()
            code = 1
    return Result(code or 0, out.getvalue(), err.getvalue())


def import_times(runner, repeats=3):
    """Median cumulative import time of coilbounds and of networkx, from -X importtime."""
    total, networkx = [], []
    for _ in range(repeats):
        r = runner.run(["--version"], python_flags=("-X", "importtime"))
        pkg = nx = 0
        for line in r.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)", line)
            if not m:
                continue
            cumulative, depth, name = int(m.group(1)), len(m.group(2)) - 1, m.group(3)
            if depth == 0 and name.split(".")[0] == "coilbounds":
                pkg += cumulative
            if name == "networkx":
                nx += cumulative
        total.append(pkg / 1e6)
        networkx.append(nx / 1e6)
    return statistics.median(total), statistics.median(networkx)


def traced_replay(root, runner, batch, spans_path):
    """Replay the batch once, plain and traced; return (values, attempted, failures).

    ``values`` maps every name in PER_LAYER except host.ref_loop_s.
    """
    import_s, networkx_s = import_times(runner)
    sys.path.insert(0, str(root / "src"))
    import coilbounds
    import coilbounds.cli as cli

    tracer = Tracer(coilbounds)
    main = tracer.wrap("cli.main", cli.main)
    plain = traced = 0.0
    attempted, failures = 0, []
    cwd = os.getcwd()
    os.chdir(runner.workdir)
    try:
        for inv, cmd in enumerate(batch.commands):
            for with_trace in ((False, True) if inv % 2 == 0 else (True, False)):
                start = time.perf_counter()
                if with_trace:
                    with tracer.installed(inv):
                        result = replay(main, cmd.argv)
                    traced += time.perf_counter() - start
                else:
                    result = replay(cli.main, cmd.argv)
                    plain += time.perf_counter() - start
                attempted += 1
                error = checks.check(cmd, result)
                if error:
                    failures.append(error)
    finally:
        os.chdir(cwd)
    tracer.write(spans_path)
    values = layer_metrics(tracer)
    values["cli.import_s"] = import_s
    values["cli.import_networkx_s"] = networkx_s
    values["trace.overhead_ratio"] = traced / plain
    return values, attempted, failures


def layer_metrics(tracer) -> dict:
    spans = list(tracer.spans())
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start

    count: dict[str, int] = {}
    dur: dict[str, float] = {}
    own: dict[str, float] = {}
    size: dict[str, float] = {}
    for i, (name, start, end, _, _, s) in enumerate(spans):
        count[name] = count.get(name, 0) + 1
        dur[name] = dur.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start - child[i])
        if isinstance(s, int):
            size[name] = size.get(name, 0) + s

    def layer_self(layer):
        return sum((v for k, v in own.items() if k.startswith(layer + ".")), 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    specs = {(inv, s) for name, _, _, _, inv, s in spans if name in SPEC_SPANS and s is not None}
    family_diagram_s = 0.0
    family_diagram_rows = 0
    spec_cfrac = 0
    limits = {}
    for name, start, end, parent, _, s in spans:
        parent_name = spans[parent][0] if parent >= 0 else None
        if name in ("generators.gen_double_coil", "diagrams.twist_regions") \
                and parent_name == "family.analyze_family":
            family_diagram_s += end - start
            family_diagram_rows += name == "generators.gen_double_coil"
        elif name == "slopes.cfrac_expand":
            # calls made for a spec: inside a spec-level bounds call, or by
            # the family row itself
            if parent_name == "family.analyze_family":
                spec_cfrac += 1
                continue
            j = parent
            while j >= 0 and spans[j][0] not in SPEC_SPANS:
                j = spans[j][3]
            spec_cfrac += j >= 0
        elif name.startswith("verify.criterion-"):
            limits[name] = s
    budget = [dur[n] / limits[n] for n in limits if limits[n]]

    outputs = sum(count.get(g, 0) for g in GENERATORS) + count.get("diagrams.parse_pd", 0)
    validations = count.get("diagrams.validate", 0)
    trace_s, events = dur.get("curves.trace_gate_events", 0.0), size.get("curves.trace_gate_events", 0)
    values = {
        "cli.self_s": own.get("cli.main", 0.0),
        "slopes.self_s": layer_self("slopes"),
        "slopes.cfrac_expand_calls": count.get("slopes.cfrac_expand", 0),
        "curves.trace_s": trace_s,
        "curves.trace_calls": count.get("curves.trace_gate_events", 0),
        "curves.gate_events": events,
        "curves.trace_s_per_event": ratio(trace_s, events),
        "curves.oracle_s": dur.get("curves.oracle", 0.0),
        "curves.oracle_calls": count.get("curves.oracle", 0),
        "generators.self_s": layer_self("generators"),
        "generators.gen_double_coil_s": dur.get("generators.gen_double_coil", 0.0),
        "generators.gen_augmented_s": dur.get("generators.gen_augmented", 0.0),
        "generators.fill_s": dur.get("generators.fill_crossing_circle", 0.0),
        "generators.gen_two_bridge_s": dur.get("generators.gen_two_bridge", 0.0),
        "generators.crossings_built": sum(size.get(g, 0) for g in GENERATORS),
        "diagrams.finish_s": own.get("diagrams.finish", 0.0),
        "diagrams.validate_s": dur.get("diagrams.validate", 0.0),
        "diagrams.validations": validations,
        "diagrams.crossings_validated": size.get("diagrams.validate", 0),
        "diagrams.validations_per_output": ratio(validations, outputs),
        "diagrams.parse_s": dur.get("diagrams.parse_pd", 0.0),
        "diagrams.emit_s": dur.get("diagrams.emit_pd", 0.0),
        "diagrams.twist_regions_s": dur.get("diagrams.twist_regions", 0.0),
        "diagrams.twist_regions_calls": count.get("diagrams.twist_regions", 0),
        "bounds.self_s": layer_self("bounds"),
        "bounds.specs": len(specs),
        "bounds.volume_evals_per_spec": ratio(count.get("bounds.coil_volume_interval", 0), len(specs)),
        "bounds.cfrac_per_spec": ratio(spec_cfrac, len(specs)),
        "family.self_s": layer_self("family"),
        "family.rows": size.get("family.analyze_family", 0),
        "family.diagram_rows": family_diagram_rows,
        "family.diagram_s": family_diagram_s,
        "family.serialise_s": dur.get("family.serialise", 0.0),
        "svg.render_s": dur.get("svg.render_svg", 0.0),
        "svg.render_calls": count.get("svg.render_svg", 0),
        "svg.curve_svg_s": dur.get("svg.curve_svg", 0.0),
        "verify.budget_ratio_max": max(budget, default=0.0),
    }
    for i in VERIFY_IDS:
        values[f"verify.{i}_s"] = dur.get(f"verify.{i}", 0.0)
    return values
