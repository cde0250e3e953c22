import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from math import gcd
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import coilbounds
import coilbounds.diagrams
import coilbounds.generators
from coilbounds.cli import main
from coilbounds.diagrams import emit_pd, parse_pd
from coilbounds.errors import ConfigError
from coilbounds.family import fibonacci_slopes, load_family_config
from coilbounds.generators import CoilSpec, gen_double_coil
from coilbounds.slopes import Slope


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cfrac(capsys):
    code, out, _ = run(capsys, "cfrac", "2/5")
    assert code == 0 and out == "[2,2] k=2\n"


def test_python_dash_m(tmp_path):
    # ``python -m coilbounds`` runs ``__main__``, as the benchmark starts every command
    env = {**os.environ, "PYTHONPATH": str(Path(coilbounds.__file__).parents[1])}
    ok = subprocess.run([sys.executable, "-m", "coilbounds", "cfrac", "2/5"],
                        env=env, capture_output=True, text=True, cwd=tmp_path)
    assert (ok.returncode, ok.stdout) == (0, "[2,2] k=2\n")
    bad = subprocess.run([sys.executable, "-m", "coilbounds", "cfrac", "0/1"],
                         env=env, capture_output=True, text=True, cwd=tmp_path)
    assert (bad.returncode, bad.stdout) == (1, "")
    assert bad.stderr.startswith("NonHyperbolicSlope: ")


def test_cfrac_canonicalizes(capsys):
    code, out, _ = run(capsys, "cfrac", "7/5")
    assert code == 0 and out == "[2,2] k=2\n"


def test_negative_slope_goes_after_double_dash(capsys):
    # argparse reads "-3/5" as an option; after "--" it is the slope
    code, out, _ = run(capsys, "cfrac", "--", "-3/5")
    assert code == 0 and out == "[2,2] k=2\n"


def test_slope(capsys):
    code, out, _ = run(capsys, "slope", "3/5")
    assert code == 0
    assert out == "canonical=3/5 mirror=2/5 cfrac=[1,1,2] k=3\n"
    code, out, _ = run(capsys, "slope", "3/5", "--format", "json")
    assert json.loads(out)["mirror"] == "2/5"


def test_curve(capsys):
    code, out, _ = run(capsys, "curve", "1/0", "2/5")
    assert code == 0 and out == "curve-curve=10 arc-curve=5\n"
    code, out2, _ = run(capsys, "curve", "1/0", "2/5", "--oracle")
    assert code == 0 and out2 == out


def test_curve_oracle_cap(capsys):
    # the crossing cap is the oracle's only guard; --oracle-cap is gone
    code, out, _ = run(capsys, "curve", "1/40", "2/5", "--oracle")
    assert code == 0 and out == "curve-curve=150 arc-curve=75\n"
    with pytest.raises(SystemExit) as exc:
        main(["curve", "1/40", "2/5", "--oracle", "--oracle-cap", "40"])
    assert exc.value.code == 2


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "--p", "3", "--q", "5", "--n1", "4", "--n2", "4")
    assert code == 0
    data = json.loads(out)
    assert data["k"] == 3 and data["ell"] == 64.25
    assert abs(data["volume"]["lower"] - 2.59165) < 1e-4
    assert data["volume"]["strictUpper"] is True
    assert abs(data["lambda"]["upper"] - 4881.05) < 0.1


def test_bounds_slope_flag_and_precision(capsys):
    code, out, _ = run(
        capsys, "bounds", "--slope", "3/5", "--n1", "4", "--n2", "4",
        "--precision", "12",
    )
    assert code == 0
    data = json.loads(out)
    assert abs(data["volume"]["upper"] - 43.9663485205) < 1e-9


def test_lambda_subcommand(capsys):
    code, out, _ = run(capsys, "lambda", "--p", "3", "--q", "5", "--n1", "4", "--n2", "4")
    assert code == 0
    assert "lambda" in json.loads(out)


def test_bounds_uncertified_exit(capsys):
    code, _, err = run(capsys, "bounds", "--p", "1", "--q", "2", "--n1", "1", "--n2", "1")
    assert code == 1
    assert err.startswith("NoHyperbolicityCertificate")


def test_nonhyperbolic_slope_exit(capsys):
    code, _, err = run(capsys, "cfrac", "0/1")
    assert code == 1 and err.startswith("NonHyperbolicSlope")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--p", "3", "--q", "5"])  # missing twist counts
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["gen", "twobridge"])  # neither --slope nor --cfrac
    assert exc.value.code == 2


def test_bounds_slope_canonicalized(capsys):
    _, want, _ = run(capsys, "bounds", "--p", "2", "--q", "5", "--n1", "4", "--n2", "4")
    code, out, _ = run(capsys, "bounds", "--slope", "7/5", "--n1", "4", "--n2", "4")
    assert code == 0 and out == want


# malformed or out-of-range slope / continued-fraction text
BAD_SLOPE_ARGV = [
    ("cfrac", "abc"),
    ("curve", "abc", "2/5"),
    ("slope", "1/x"),
    ("gen", "twobridge", "--cfrac", "[0,2]"),
    ("gen", "twobridge", "--cfrac", "[a]"),
    ("gen", "twobridge", "--slope", "5/3"),
    ("gen", "clasped", "--slope", "5/3"),
    ("gen", "augmented", "--slope", "5/3"),
    ("gen", "augmented", "--p", "2", "--q", "4"),
    ("gen", "augmented", "--p", "-1", "--q", "3"),
    ("bounds", "--slope", "2/x", "--n1", "4", "--n2", "4"),
    # over 2000 digits: the intersection number would pass Python's str limit
    ("curve", f"1/{10**2200 + 1}", f"{10**2200 + 1}/1"),
    ("cfrac", f"1/{10**2200 + 1}"),
    ("gen", "twobridge", "--cfrac", f"[{10**2200 + 1}]"),
]


# crossing columns q(q-1)(|n1|+|n2|) past Python's 4300-digit int-to-str limit,
# and one under it but past the 2000-digit cap
HUGE_CONFIGS = {
    "huge-slope.cfg": "kind = vary-slope\nslope_sequence = custom-list\n"
    f"slopes = 1/{10**2200 + 1}\nn1 = 4\nrange_end = 1\n",
    "huge-q.cfg": f"kind = fixed-slope\np = 1\nq = {10**2200 + 1}\nn2 = 4\n"
    "range_start = 4\nrange_end = 4\n",
    "wide.cfg": "kind = vary-slope\nslope_sequence = custom-list\n"
    f"slopes = 1/{10**1999 + 1}\nn1 = {10**300}\n",
}


@pytest.mark.parametrize("name", sorted(HUGE_CONFIGS))
def test_family_crossing_digits_capped(name):
    with pytest.raises(ConfigError, match="2000 digits"):
        load_family_config(HUGE_CONFIGS[name])


# windows past the 10 000-member cap, which must be refused before any
# member is built: range(4, 10**100) has no len(), and each term of the
# sequences costs work
WIDE_CONFIGS = {
    "wide-fixed.cfg": "kind = fixed-slope\np = 2\nq = 5\nn2 = 6\nrange_start = 4\n"
    f"range_end = {10**100}\n",
    "wide-fibonacci.cfg": f"kind = vary-slope\nslope_sequence = fibonacci\nn1 = 4\nrange_end = {10**100}\n",
    "wide-odd.cfg": "kind = vary-slope\nslope_sequence = odd-denominators\nn1 = 4\n"
    f"range_end = {10**100}\n",
}


@pytest.mark.parametrize("name", sorted(WIDE_CONFIGS))
def test_family_window_capped_before_building(name):
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="more than 10000 members"):
        load_family_config(WIDE_CONFIGS[name])
    assert time.perf_counter() - start < 3


# a fibonacci window inside the member cap whose later terms are all past the
# 2000-digit crossing cap
FIBONACCI_10000 = "kind = vary-slope\nslope_sequence = fibonacci\nn1 = 4\nrange_end = 10000\n"


@pytest.mark.parametrize("range_start", [1, 4000])
def test_family_refused_at_first_over_cap_member(monkeypatch, range_start):
    # term t is F(t)/F(t+1), starting 1/2; with n1 = n2 = 4 its crossing
    # column is 8 q (q - 1)
    a, b, term = 1, 2, 1
    while 8 * b * (b - 1) < 10**2000:
        a, b, term = b, a + b, term + 1
    first = term - range_start  # its index in the window
    built = []
    real = coilbounds.family.CoilSpec
    monkeypatch.setattr(
        coilbounds.family, "CoilSpec", lambda *args: built.append(args) or real(*args)
    )
    config = FIBONACCI_10000 + f"range_start = {range_start}\n"
    with pytest.raises(ConfigError, match=rf"^member {first}: .* 2000 digits$"):
        load_family_config(config)
    assert len(built) == first + 1  # no member past it was built


@pytest.mark.parametrize("seq, range_end, members_built", [
    ("fibonacci", 10000, 4783),  # refused at member 4782, the first over the cap
    ("fibonacci", 40, 40),
    ("odd-denominators", 40, 40),
])
def test_vary_slope_member_runs_euclid_once(monkeypatch, seq, range_end, members_built):
    # a built-in sequence yields coprime pairs, so each member's CoilSpec is
    # its only gcd
    calls, built = [], []
    real_gcd, real_spec = coilbounds.slopes.gcd, coilbounds.family.CoilSpec
    monkeypatch.setattr(coilbounds.slopes, "gcd", lambda a, b: calls.append(a) or real_gcd(a, b))
    monkeypatch.setattr(
        coilbounds.family, "CoilSpec", lambda *args: built.append(args) or real_spec(*args)
    )
    config = f"kind = vary-slope\nslope_sequence = {seq}\nn1 = 4\nrange_end = {range_end}\n"
    refused = members_built < range_end
    with pytest.raises(ConfigError) if refused else contextlib.nullcontext():
        load_family_config(config)
    assert len(built) == members_built
    assert len(calls) == members_built


# a float past its range is refused, never printed as Infinity
FLOAT_OVERFLOW_ARGV = [
    ("bounds", "--p", "2", "--q", "5", "--n1", str(10**155), "--n2", str(10**155)),
    ("bounds", "--p", "6765", "--q", "10946", "--n1", str(17 * 10**307), "--n2", "5"),
    ("family", "--config", "overflow.cfg"),
    ("family", "--config", "overflow.cfg", "--format", "json"),
]
# every family config file the error tests read
FAMILY_FILES = {
    **HUGE_CONFIGS,
    **WIDE_CONFIGS,
    "overflow.cfg": f"kind = vary-slope\nslope_sequence = custom-list\nslopes = 2/5\nn1 = {10**155}\n",
    "fibonacci-10000.cfg": FIBONACCI_10000,
}


@pytest.mark.parametrize("argv", FLOAT_OVERFLOW_ARGV)
def test_float_overflow_refused(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "overflow.cfg").write_text(FAMILY_FILES["overflow.cfg"])
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("OverflowError: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "--p", "5", "--q", "3", "--n1", "4", "--n2", "4"),
        ("bounds", "--p", "0", "--q", "3", "--n1", "4", "--n2", "4"),
        ("bounds", "--slope", "3/1", "--n1", "4", "--n2", "4"),
        ("bounds", "--p", "2", "--q", "5", "--n1", "0", "--n2", "4"),
        ("lambda", "--slope", "2/5", "--n1", "4", "--n2", "0"),
        ("gen", "coil", "--p", "7", "--q", "5", "--n1", "1", "--n2", "1"),
        ("gen", "coil", "--slope", "2/5", "--n1", "0", "--n2", "1"),
        *BAD_SLOPE_ARGV,
        ("verify", "--pd", "."),  # a directory where a file is read
        ("verify", "--pd", ""),  # an empty path is a path, not "run the suite"
        ("bounds", "--p", "1", "--q", "3", "--n1", str(10**400), "--n2", "5"),  # beyond float
        ("render", "."),
        ("family", "--config", "."),
        *(("family", "--config", name) for name in sorted(HUGE_CONFIGS)),
        *(("family", "--config", name) for name in sorted(WIDE_CONFIGS)),
        *FLOAT_OVERFLOW_ARGV,
        ("family", "--config", "fibonacci-10000.cfg"),
    ],
)
def test_bad_coil_spec_is_named_or_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    for name, text in FAMILY_FILES.items():
        (tmp_path / name).write_text(text)
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (1, 2) and "Traceback" not in err
    if argv in BAD_SLOPE_ARGV:
        assert code == 2
    # usage errors say "error:", domain errors lead with the error class name
    assert "error:" in err if code == 2 else err.split(":")[0].isidentifier()


def test_widest_slope_still_accepted(capsys):
    big = 10**2000 - 1
    code, out, _ = run(capsys, "curve", f"1/{big}", f"{big}/1")
    assert code == 0 and out == f"curve-curve={2 * (big * big - 1)} arc-curve={big * big - 1}\n"


def _no_constants(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("n", [10**160, 10**300, -(10**300)])
def test_bounds_huge_twist_is_finite_json(capsys, n):
    code, out, _ = run(capsys, "bounds", "--p", "2", "--q", "5", "--n1", str(n), "--n2", "5")
    assert code == 0
    data = json.loads(out, parse_constant=_no_constants)
    assert data["certificate"]["witnesses"]["slope_length_lower"][0] >= 2 * abs(n)


def test_zero_over_zero_stays_named(capsys):
    code, _, err = run(capsys, "cfrac", "0/0")
    assert code == 1 and err.startswith("ZeroOverZero")


@pytest.mark.parametrize("cmd", [("verify", "--pd"), ("render",)])
def test_undecodable_file_is_named(tmp_path, capsys, cmd):
    pd_file = tmp_path / "latin1.pd"
    pd_file.write_bytes(b"X(1,\xff,2,2)\n")
    code, out, err = run(capsys, *cmd, str(pd_file))
    assert code == 1 and out == "" and err.startswith("UnicodeDecodeError: ")


@pytest.mark.parametrize("cmd", [("verify", "--pd"), ("render",)])
def test_huge_pd_label_is_named(tmp_path, capsys, cmd):
    pd_file = tmp_path / "huge.pd"
    ones = "1" * 5000  # past int()'s 4300-digit limit
    pd_file.write_text(f"X({ones},2,2,{ones})\n")
    code, out, err = run(capsys, *cmd, str(pd_file))
    assert code == 1 and out == "" and err.startswith("PDSyntaxError: bad PD term")


BAD_PD_TERMS = {
    "non-ascii-digits.pd": "X(\u0661,\u0662,\u0662,\u0661)",  # Arabic-Indic digits
    "long-bad-term.pd": f"X({'1' * 1999},2,{'1' * 1999})",  # three labels
}


@pytest.mark.parametrize("name", sorted(BAD_PD_TERMS))
@pytest.mark.parametrize("cmd", [("verify", "--pd"), ("render",)])
def test_bad_pd_term_is_named_briefly(tmp_path, capsys, cmd, name):
    pd_file = tmp_path / name
    pd_file.write_text(BAD_PD_TERMS[name] + "\n", encoding="utf-8")
    code, out, err = run(capsys, *cmd, str(pd_file))
    assert code == 1 and out == "" and err.startswith("PDSyntaxError: bad PD term")
    assert len(err.encode()) < 200  # the message quotes only the start of the term


def _slow_check():
    time.sleep(0.02)
    return True, "slept"


def test_verify_timings_keep_stdout(monkeypatch, capsys):
    from coilbounds import verify

    # the 1 s checks plus one planted over its budget keep the test short
    fast = [entry for entry in verify.ACCEPTANCE_CHECKS if entry[2] == 1.0]
    late = ("criterion-99 planted slow check", _slow_check, 0.001)
    monkeypatch.setattr(verify, "ACCEPTANCE_CHECKS", (*fast, late))
    code, plain, plain_err = run(capsys, "verify")
    code_t, timed, err = run(capsys, "verify", "--timings")
    assert code == code_t == 0 and timed == plain and plain_err == ""
    lines = err.splitlines()
    assert len(lines) == len(fast) + 1
    for line, (name, _, limit) in zip(lines, (*fast, late)):
        elapsed, _, rest = line.partition("s/")
        assert float(elapsed) >= 0 and rest.startswith(f"{limit:g}s {name}")
    assert lines[-1].endswith("OVER BUDGET")
    assert not any("OVER BUDGET" in line for line in lines[:-1])


_CHECK_PIDS = []


def _pid_check():
    _CHECK_PIDS.append(os.getpid())
    return True, "ran"


def test_verify_jobs_runs_checks_in_calling_process(monkeypatch, capsys):
    from coilbounds import verify

    planted = tuple((f"criterion-9{i} planted pid check", _pid_check, 1.0) for i in range(3))
    monkeypatch.setattr(verify, "ACCEPTANCE_CHECKS", planted)
    _CHECK_PIDS.clear()
    code, plain, _ = run(capsys, "verify")
    code_j, jobs, _ = run(capsys, "verify", "--jobs", "2")
    assert code == code_j == 0 and jobs == plain
    assert plain.splitlines() == [f"PASS {name}: ran" for name, _, _ in planted]
    assert _CHECK_PIDS == [os.getpid()] * 6


def test_verify_exits_1_when_a_check_fails(monkeypatch, capsys):
    from coilbounds import verify

    failed = verify.CheckResult("criterion-99 planted", False, 0.0, 1.0, "planted failure")
    monkeypatch.setattr(verify, "run_checks", lambda: [failed])
    code, out, err = run(capsys, "verify")
    assert code == 1
    assert out == "FAIL criterion-99 planted: planted failure\n"
    assert err.endswith("1 check(s) failed\n")


def test_verify_crashed_check_is_a_failure():
    from coilbounds import verify

    result = verify._run_one(("x", lambda: 1 / 0, 1.0))
    assert not result.ok
    assert result.line == "FAIL x: ZeroDivisionError: division by zero"


def test_verify_pd_parses_once(tmp_path, monkeypatch, capsys):
    from coilbounds import diagrams

    texts = []

    def counted(text):
        texts.append(text)
        return parse_pd(text)

    monkeypatch.setattr(diagrams, "parse_pd", counted)
    pd_file = tmp_path / "trefoil.pd"
    pd_file.write_text("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)\n")
    code, out, err = run(capsys, "verify", "--pd", str(pd_file))
    assert code == 0 and err == "" and out.startswith("ok: 3 crossings, 6 edges, 5 faces")
    assert texts == [pd_file.read_text()]


def test_verify_pd_non_planar(tmp_path, capsys):
    pd_file = tmp_path / "split.pd"
    pd_file.write_text("X(1,1,2,2) X(3,3,4,4)\n")
    code, out, err = run(capsys, "verify", "--pd", str(pd_file))
    assert code == 1 and out == "" and err.startswith("NonPlanarRotation")


# the slope comes from exactly one of --slope and --p --q (or --cfrac)
CONFLICTING_SLOPE_ARGV = [
    ("bounds", "--slope", "2/5", "--p", "3", "--q", "7", "--n1", "4", "--n2", "4"),
    ("gen", "coil", "--slope", "2/5", "--q", "7", "--n1", "1", "--n2", "1"),
    ("gen", "twobridge", "--cfrac", "[2,3]", "--slope", "1/3"),
    ("gen", "augmented", "--slope", "2/5", "--p", "1"),
]


@pytest.mark.parametrize(
    "argv",
    [
        ("cfrac", "2/5", "--precision", "3"),
        ("slope", "2/5", "--out", "x"),
        ("gen", "twobridge", "--slope", "2/5", "--precision", "3"),
        # a flag the chosen generator does not read
        ("gen", "twobridge", "--slope", "2/5", "--n1", "4", "--p", "9"),
        ("gen", "augmented", "--slope", "2/5", "--n1", "4", "--cfrac", "[3]"),
        ("gen", "clasped", "--slope", "2/5", "--p", "3"),
        ("gen", "coil", "--slope", "2/5", "--n1", "1", "--n2", "1", "--cfrac", "[2]"),
        ("verify", "--oracle-cap", "5"),
        ("curve", "2/5", "1/3", "--oracle-cap", "5"),  # no such flag
        ("render", "x.pd", "--out", "y"),
        # a worker count below 1
        ("family", "--config", "fam.cfg", "--jobs", "-1"),
        ("family", "--config", "fam.cfg", "--jobs", "0"),
        ("verify", "--jobs", "0"),
        # --pd validates one file; --jobs and --timings belong to the suite
        ("verify", "--pd", "x.pd", "--jobs", "1"),
        ("verify", "--pd", "x.pd", "--timings"),
        # options are spelled in full: a prefix of one is not read as it
        ("verify", "--p", "good.pd"),
        ("bounds", "--p", "3", "--q", "5", "--n1", "4", "--n2", "4", "--prec", "3"),
        ("--vers",),
        *CONFLICTING_SLOPE_ARGV,
    ],
)
def test_unread_flags_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", CONFLICTING_SLOPE_ARGV)
def test_conflicting_slope_forms_named(capsys, argv):
    with pytest.raises(SystemExit):
        main(list(argv))
    assert "exclude each other" in capsys.readouterr().err


def test_gen_and_render_pipeline(tmp_path, capsys):
    pd_file = tmp_path / "coil.pd"
    svg_file = tmp_path / "coil.svg"
    code, out, _ = run(
        capsys, "gen", "coil", "--p", "2", "--q", "5", "--n1", "1", "--n2", "1",
        "--out", str(pd_file), "--svg", str(svg_file),
    )
    assert code == 0
    d = parse_pd(pd_file.read_text())
    assert d.n_crossings == 40
    assert svg_file.read_text().count('class="xing"') == 40

    code, out, _ = run(capsys, "verify", "--pd", str(pd_file))
    assert code == 0 and out.startswith("ok:")

    out_svg = tmp_path / "again.svg"
    code, _, _ = run(capsys, "render", str(pd_file), "--svg", str(out_svg))
    assert code == 0
    assert out_svg.read_text().count('class="xing"') == 40


def test_curve_svg_writes_the_picture(tmp_path, capsys):
    from coilbounds.svg import curve_svg

    svg_file = tmp_path / "curves.svg"
    code, out, _ = run(capsys, "curve", "2/5", "7/11", "--svg", str(svg_file))
    assert code == 0 and out.startswith("curve-curve=")
    with open(svg_file, newline="") as fh:
        assert fh.read() == curve_svg(Slope(2, 5), Slope(7, 11))


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "twobridge", "--slope", "3/8"),
        ("gen", "clasped", "--slope", "3/8"),
        ("gen", "augmented", "--slope", "3/8"),
        ("gen", "coil", "--p", "3", "--q", "8", "--n1", "2", "--n2", "-1"),
    ],
)
def test_every_generator_pipes_through_render_and_verify(tmp_path, capsys, argv):
    pd_file = tmp_path / "d.pd"
    code, _, _ = run(capsys, *argv, "--out", str(pd_file))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--pd", str(pd_file))
    assert code == 0 and out.startswith("ok:")
    svg_file = tmp_path / "d.svg"
    code, _, _ = run(capsys, "render", str(pd_file), "--svg", str(svg_file))
    assert code == 0 and svg_file.read_text().startswith("<svg")


def test_gen_twobridge_variants(capsys):
    code, out1, _ = run(capsys, "gen", "twobridge", "--slope", "2/5")
    code2, out2, _ = run(capsys, "gen", "twobridge", "--cfrac", "[2,2]")
    assert code == code2 == 0 and out1 == out2
    assert parse_pd(out1).n_crossings == 4


def test_gen_clasped_and_augmented(capsys):
    code, out, _ = run(capsys, "gen", "clasped", "--slope", "2/5")
    assert code == 0 and parse_pd(out).n_crossings == 8
    code, out, _ = run(capsys, "gen", "augmented", "--slope", "2/5")
    assert code == 0
    d = parse_pd(out)
    assert d.n_crossings == 20 and d.n_components == 3


def test_gen_determinism(capsys):
    args = ("gen", "augmented", "--slope", "3/7")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


_COIL = ("gen", "coil", "--p", "2", "--q", "5", "--n1", "1", "--n2", "1")


def _gen_coil_returning(monkeypatch, d):
    """Make ``gen coil`` write the prebuilt diagram ``d``."""
    monkeypatch.setattr(coilbounds.generators, "gen_double_coil", lambda spec: d)


@pytest.mark.parametrize("chunk", [1, 7, 8, 1 << 12])
@pytest.mark.parametrize("crossings", [0, 40])
def test_gen_streams_the_pd_text(tmp_path, monkeypatch, capsys, chunk, crossings):
    # the PD text goes out a chunk of terms at a time, to a file or to
    # stdout; either way it is emit_pd's text and a newline, for the empty
    # diagram, a text of whole chunks (40 terms by 8) and a ragged last chunk
    d = gen_double_coil(CoilSpec(2, 5, 1, 1)) if crossings else parse_pd("")
    assert d.n_crossings == crossings
    _gen_coil_returning(monkeypatch, d)
    monkeypatch.setattr(coilbounds.diagrams, "_EMIT_CHUNK", chunk)
    want = emit_pd(d) + "\n"
    pd_file = tmp_path / "d.pd"
    code, out, _ = run(capsys, *_COIL, "--out", str(pd_file))
    assert code == 0 and out == ""
    assert pd_file.read_text() == want
    code, out, _ = run(capsys, *_COIL)
    assert code == 0 and out == want


def test_gen_streaming_memory_does_not_grow_with_the_diagram(tmp_path, monkeypatch):
    # writing the PD text of coils 4x apart in size peaks at about one chunk
    # of terms either way; building the whole text would peak 4x higher
    peaks = []
    for spec in (CoilSpec(37, 80, 1, 2), CoilSpec(37, 80, 6, 6)):
        _gen_coil_returning(monkeypatch, gen_double_coil(spec))
        tracemalloc.start()
        try:
            assert main([*_COIL, "--out", str(tmp_path / "d.pd")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    small, big = peaks
    assert big < 1.5 * small


def test_family_csv_and_json(tmp_path, capsys):
    cfg = tmp_path / "fam.cfg"
    cfg.write_text(
        "kind = fixed-slope\np = 2\nq = 5\nn2 = 6\nrange_start = 4\nrange_end = 8\n"
    )
    code, out, _ = run(capsys, "family", "--config", str(cfg))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("index,p,q,n1,n2,k,")
    assert len(lines) == 6

    code, out, _ = run(capsys, "family", "--config", str(cfg), "--format", "json")
    data = json.loads(out)
    assert data["verdict"] == "ExpandingCertified"

    code, out_j, _ = run(
        capsys, "family", "--config", str(cfg), "--format", "json", "--jobs", "2"
    )
    assert json.loads(out_j) == data
    # --jobs is validated but has no effect on family, however large
    code, out_j, _ = run(
        capsys, "family", "--config", str(cfg), "--format", "json", "--jobs", str(10**9)
    )
    assert code == 0 and json.loads(out_j) == data


def test_family_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kind = fixed-slope\n")
    code, _, err = run(capsys, "family", "--config", str(cfg))
    assert code == 1 and err.startswith("ConfigError")


# sha256 of the printed `bounds` JSON and `family` CSV/JSON: the reports are
# a contract, so any change to these digests must be deliberate
def _printed(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0, argv
    return buf.getvalue().encode()


def _golden_bounds_argv():
    for q in range(2, 13):
        for p in range(1, q):
            if gcd(p, q) == 1:
                for n1 in (4, -5, 80):
                    for n2 in (4, -5, 80):
                        yield p, q, n1, n2
    fib = fibonacci_slopes(80)  # the i-th has k = i
    for k, n1, n2 in ((80, 1, -1), (80, 1, 4), (40, 2, -2), (27, 3, 3), (2, 10**300, 5)):
        yield fib[k - 1].p, fib[k - 1].q, n1, n2


_CUSTOM = "kind = vary-slope\nslope_sequence = custom-list\n"
# the two README configs, then custom lists with uncertified members, with no
# certified row, and with non-monotone k
REPORT_CONFIGS = {
    "fixed-slope": "kind = fixed-slope\np = 2\nq = 5\nn2 = 6\nrange_start = 4\nrange_end = 100\n",
    "vary-slope": "kind = vary-slope\nslope_sequence = fibonacci\nrange_end = 20\nn1 = 4\n",
    "custom-uncertified": _CUSTOM + "slopes = 1/3, 165580141/267914296, 2/5\nn1 = 2\n",
    "custom-no-rows": _CUSTOM + "slopes = 1/3, 2/5\nn1 = 2\n",
    "custom-non-monotone": _CUSTOM + "slopes = 2/5, 1/3, 3/8\nn1 = 4\n",
}
GOLDEN_REPORT_SHA256 = {
    "bounds-6": "dd8e4be6eb72120dc71958dcde0026ca93fcce25a67df1844742250a389f12b6",
    "bounds-15": "efb00a5536b0e36517c667c4ccd7bb714d92ac2eebabe240e160896f1aa08f64",
    "family-fixed-slope-csv-6": "33cdcb717cd4b450399ba37bd117171aba71edb388bb07cd6712db2ec866c961",
    "family-fixed-slope-csv-15": "30cd02b33f39c28898738e4450def1fe5b66cdd25d097d91f986c078b5da36ad",
    "family-fixed-slope-json-6": "2dbef61c7741d0084997560a9d392cdfa545efdd284b26007e78e0029ec40f7d",
    "family-fixed-slope-json-15": "4bbcf3bae618f7094648ea2df36b25216741ba028deaefe9f82220f5eb3ea522",
    "family-vary-slope-csv-6": "597df7b4b56298e977de7379236c68c204a8de0b668f2f270996e1a2497e0ec6",
    "family-vary-slope-csv-15": "94c8837b6fb116e1d676217161dd0c378a3b1c7a6d239edef2527a7b407a4077",
    "family-vary-slope-json-6": "2d615d29606d62ecf5b7a29f11d5aef9f6fb19f67799ff12dfc71e4d51be6682",
    "family-vary-slope-json-15": "69b839c3461ebf03f0684eb1ba42f7aa178bc294f7b270b76d16d5ffc5ee3165",
    "family-custom-uncertified-csv-6": "61024a986b9284a30ddb4e2eb0cfeb65eaf6b051c7ce2c130e4db61dea8604cf",
    "family-custom-uncertified-csv-15": "a98e2b1c93e4cfb82de8280bf29222f95a4c708dcb8f6d66f3feda0d54446cd2",
    "family-custom-uncertified-json-6": "c6e1ba16a100dd9836ec9b4b94ee04cefb971a4d05a98dbf2a10e8fa4d0298c8",
    "family-custom-uncertified-json-15": "ae3d6e8567d8e44feb74aa243869fd94cac0e4e75b747f3690da82e413086f02",
    "family-custom-no-rows-csv-6": "9ca94863bc996128990a94d6b017800392056ccbebb63514d2bdfd9e1f4c9db8",
    "family-custom-no-rows-csv-15": "9ca94863bc996128990a94d6b017800392056ccbebb63514d2bdfd9e1f4c9db8",
    "family-custom-no-rows-json-6": "b4781e45ce9273ac03bced6f68e4e98b26803e55dfe38e13d8615c658fa387de",
    "family-custom-no-rows-json-15": "b4781e45ce9273ac03bced6f68e4e98b26803e55dfe38e13d8615c658fa387de",
    "family-custom-non-monotone-csv-6": "5961e3e2c10eec95a6387ffaafa1aabae939833fe7940d1088b196dc15409eb0",
    "family-custom-non-monotone-csv-15": "726b16756e8a77c67911d761162d97c86780aa213eb84fca982a27dab4f583e2",
    "family-custom-non-monotone-json-6": "6a35ee8d12b68053878433bbc41e68e4841879e1343765d8f722505d8f3b4f0e",
    "family-custom-non-monotone-json-15": "9661783c5016da6963f2dd51116de2d37d3f2cf7e830ee5153cb6c0a297e2cba",
}


def test_printed_reports_golden(tmp_path):
    got = {}
    for precision in ("6", "15"):
        h = hashlib.sha256()
        for p, q, n1, n2 in _golden_bounds_argv():
            h.update(_printed(["bounds", "--p", str(p), "--q", str(q), "--n1", str(n1),
                               "--n2", str(n2), "--precision", precision]))
        got[f"bounds-{precision}"] = h.hexdigest()
    for name, text in REPORT_CONFIGS.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        for fmt in ("csv", "json"):
            for precision in ("6", "15"):
                out = _printed(["family", "--config", str(cfg), "--format", fmt,
                                "--precision", precision])
                got[f"family-{name}-{fmt}-{precision}"] = hashlib.sha256(out).hexdigest()
    assert got == GOLDEN_REPORT_SHA256


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# No command loads networkx; only drawing a diagram loads the layout module.
IMPORT_CONTRACT = """
import sys
from coilbounds.cli import main

tmp, draw = sys.argv[1], sys.argv[2]
pd, cfg = tmp + "/coil.pd", tmp + "/fam.cfg"
with open(cfg, "w") as fh:
    fh.write("kind = fixed-slope\\np = 2\\nq = 5\\nn2 = 6\\nrange_start = 4\\nrange_end = 6\\n")
for argv in (
    ["bounds", "--p", "3", "--q", "5", "--n1", "4", "--n2", "4"],
    ["cfrac", "2/5"],
    ["curve", "1/0", "2/5", "--svg", tmp + "/curve.svg"],
    ["gen", "coil", "--p", "2", "--q", "5", "--n1", "1", "--n2", "1", "--out", pd],
    ["verify", "--pd", pd],
    ["family", "--config", cfg],
):
    assert main(argv) == 0, argv
    assert "coilbounds._planar" not in sys.modules, argv
drawing = {
    "gen": ["gen", "coil", "--p", "2", "--q", "5", "--n1", "1", "--n2", "1",
            "--out", pd, "--svg", tmp + "/coil.svg"],
    "render": ["render", pd, "--svg", tmp + "/render.svg"],
}[draw]
assert main(drawing) == 0, drawing
assert "coilbounds._planar" in sys.modules, drawing
assert "networkx" not in sys.modules
"""


def test_no_command_imports_networkx(tmp_path):
    src = str(Path(coilbounds.__file__).parents[1])
    for draw in ("gen", "render"):  # a fresh interpreter for each drawing command
        r = subprocess.run(
            [sys.executable, "-c", IMPORT_CONTRACT, str(tmp_path), draw],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True,
        )
        assert r.returncode == 0, (draw, r.stderr)


# Each command imports only the layers it runs; each case runs in a fresh
# interpreter, with the modules it must leave unloaded.
IMPORT_FOOTPRINT = """
import json, sys
argv, absent = json.loads(sys.argv[1]), json.loads(sys.argv[2])
if argv is None:
    import coilbounds
else:
    from coilbounds.cli import main
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    assert code == 0, code
loaded = [m for m in absent if "coilbounds." + m in sys.modules]
assert not loaded, loaded
assert "dataclasses" not in sys.modules
assert "fractions" not in sys.modules and "decimal" not in sys.modules
"""
_PAST_BOUNDS = ["curves", "diagrams", "generators", "svg", "family", "verify"]
_SPEC = ["--p", "3", "--q", "5", "--n1", "4", "--n2", "4"]
FOOTPRINT_CASES = [
    (["--version"], _PAST_BOUNDS),
    (["cfrac", "2/5"], _PAST_BOUNDS),
    (["slope", "3/5", "--format", "json"], _PAST_BOUNDS),
    (["bounds", *_SPEC], _PAST_BOUNDS),
    (["lambda", *_SPEC], _PAST_BOUNDS),
    (["family", "--config", "{cfg}"], ["curves", "diagrams", "generators"]),
    (["gen", "twobridge", "--slope", "2/5"], ["bounds", "family", "verify", "svg"]),
    (["verify", "--pd", "{pd}"],
     ["bounds", "curves", "family", "generators", "verify", "svg", "_planar"]),
    (["render", "{pd}", "--svg", "k.svg"], ["bounds", "curves", "family", "generators", "verify"]),
    (["curve", "2/5", "1/3", "--svg", "c.svg"],
     ["bounds", "diagrams", "family", "generators", "verify", "_planar"]),
    (["curve", "1/40", "2/5", "--oracle"],
     ["bounds", "diagrams", "family", "generators", "verify", "svg", "_planar"]),
    (None, ["errors", "slopes", "bounds", "cli", *_PAST_BOUNDS, "_planar"]),
]


@pytest.mark.parametrize("argv, absent", FOOTPRINT_CASES,
                         ids=[" ".join(a[:2]) if a else "import" for a, _ in FOOTPRINT_CASES])
def test_command_import_footprint(tmp_path, argv, absent):
    cfg = tmp_path / "fam.cfg"
    cfg.write_text("kind = vary-slope\nslope_sequence = fibonacci\nn1 = 4\nrange_end = 5\n")
    pd = tmp_path / "k.pd"
    pd.write_text("X(1,4,2,5) X(3,6,4,1) X(5,2,6,7) X(7,8,8,3)\n")
    if argv is not None:
        argv = [a.format(cfg=cfg, pd=pd) for a in argv]
    r = subprocess.run(
        [sys.executable, "-c", IMPORT_FOOTPRINT, json.dumps(argv), json.dumps(absent)],
        env={**os.environ, "PYTHONPATH": str(Path(coilbounds.__file__).parents[1])},
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert r.returncode == 0, (argv, r.stderr)


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "coil", "--p", "1", "--q", "1000", "--n1", "100", "--n2", "100"),
        ("gen", "twobridge", "--cfrac", "[100000000]"),
        ("gen", "twobridge", "--slope", "1/100000000"),
        ("gen", "clasped", "--slope", "1/999997"),
        ("gen", "augmented", "--p", "1", "--q", "250001"),
        ("curve", "1/1000000000", "2/5", "--svg", "never.svg"),
        ("curve", "1/100000", "2/5", "--oracle"),
        ("curve", "30000/1", "0/1", "--svg", "never.svg"),
    ],
)
def test_oversized_input_refused(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("TooManyCrossings: ")
    assert not any(tmp_path.iterdir())  # nothing written


@pytest.mark.parametrize("argv", [("gen", "twobridge", "--cfrac", "[11]", "--svg", "d.svg"),
                                  ("render", "k.pd", "--svg", "d.svg")])
def test_drawing_refused_above_its_cap(tmp_path, monkeypatch, capsys, argv):
    # under a cap of 10, an 11-crossing drawing is refused: exit 1, no PD
    # text on stdout and no file written
    import coilbounds.svg

    monkeypatch.chdir(tmp_path)
    (tmp_path / "k.pd").write_text(emit_pd(gen_double_coil(CoilSpec(1, 3, 5, 1))))
    monkeypatch.setattr(coilbounds.svg, "MAX_DRAWN_CROSSINGS", 10)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("TooManyCrossings: ")
    assert not (tmp_path / "d.svg").exists()


# --- argv fuzz --------------------------------------------------------------

_INT = st.sampled_from(
    [0, 1, 2, 3, 5, -1, -3, 10**9, -(10**9), 2**63, 10**100, 10**155, 17 * 10**307,
     10**400, 10**2200 + 1]
)
_INT_TEXT = st.one_of(_INT.map(str), st.sampled_from(["", "x", "1.5", "0x10"]))
_SLOPE = st.one_of(
    st.builds("{}/{}".format, _INT, _INT),
    _INT.map(str),
    st.sampled_from(["inf", "1/0", "0/0", "-2/5", " 3/7 ", "2//5", "/", "1/x", "abc", ""]),
    st.text(max_size=6),
)
_CFRAC = st.one_of(
    st.lists(_INT, max_size=4).map(lambda t: "[" + ",".join(map(str, t)) + "]"),
    st.sampled_from(["[]", "[", "2,2", "[a]", "[1,,2]", "[2.5]"]),
    st.text(max_size=6),
)
_OUT = st.sampled_from(["out.txt", "out.svg", ".", "missing/out.txt"])
_PD_IN = st.sampled_from(
    ["good.pd", "huge-label.pd", *sorted(BAD_PD_TERMS), "fam.cfg", "missing.pd", "."]
)
_CONFIG = st.sampled_from(
    ["fam.cfg", "vary.cfg", "bad.cfg", "good.pd", "missing.cfg", ".", *sorted(FAMILY_FILES)]
)
_SPEC = {"--p": _INT_TEXT, "--q": _INT_TEXT, "--n1": _INT_TEXT, "--n2": _INT_TEXT, "--slope": _SLOPE}
_PRECISION = {"--precision": _INT_TEXT}

# subcommand -> (positional argument strategies, {flag: value strategy or None})
_COMMANDS = {
    "cfrac": ([_SLOPE], {}),
    "slope": ([_SLOPE], {"--format": st.sampled_from(["text", "json", "xml"])}),
    "curve": ([_SLOPE, _SLOPE], {"--oracle": None, "--oracle-cap": _INT_TEXT, "--svg": _OUT}),
    "gen": (
        [st.sampled_from(["twobridge", "clasped", "coil", "augmented", "knot"])],
        {"--cfrac": _CFRAC, "--svg": _OUT, "--out": _OUT, **_SPEC},
    ),
    "bounds": ([], {**_PRECISION, "--out": _OUT, **_SPEC}),
    "lambda": ([], {**_PRECISION, "--out": _OUT, **_SPEC}),
    "family": ([], {"--config": _CONFIG, "--format": st.sampled_from(["csv", "json", "xml"]),
                    "--jobs": _INT_TEXT, **_PRECISION, "--out": _OUT}),
    # the bare suite is covered by test_acceptance; here verify always reads a file
    "verify": ([], {"--pd": _PD_IN, "--jobs": _INT_TEXT}),
    "render": ([_PD_IN], {"--svg": _OUT}),
}
_ALL_FLAGS = sorted({flag for _, flags in _COMMANDS.values() for flag in flags})


def _pd_input(argv):
    """The PD file a verify or render argv reads: argparse keeps the last --pd."""
    if argv[0] == "render":
        return argv[1]
    if argv[0] == "verify":
        return [b for a, b in zip(argv, argv[1:]) if a == "--pd"][-1]
    return None


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    positional, flags = _COMMANDS[command]
    argv = [command] + [draw(s) for s in positional]
    names = draw(st.lists(st.sampled_from(sorted(flags)), unique=True) if flags else st.just([]))
    if command == "verify":
        names = ["--pd"] + [n for n in names if n != "--pd"]
    elif "--n1" in flags and draw(st.booleans()):  # a whole coil spec
        spec = ["--p", "--q", "--n1", "--n2"]
        names = spec + [n for n in names if n not in spec]
    if draw(st.booleans()):
        names.append(draw(st.sampled_from(_ALL_FLAGS)))  # possibly not this command's
    for name in names:
        argv.append(name)
        value = flags.get(name, _INT_TEXT)
        if value is not None:
            argv.append(draw(value))
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "good.pd").write_text("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)\n")  # trefoil
    ones = "1" * 5000  # past int()'s 4300-digit limit
    (d / "huge-label.pd").write_text(f"X({ones},2,2,{ones})\n")
    for name, text in BAD_PD_TERMS.items():
        (d / name).write_text(text + "\n", encoding="utf-8")
    (d / "fam.cfg").write_text(
        "kind = fixed-slope\np = 2\nq = 5\nn2 = 6\nrange_start = 4\nrange_end = 6\n"
    )
    (d / "vary.cfg").write_text("kind = vary-slope\nrange_end = 4\nn1 = 5\n")
    (d / "bad.cfg").write_text("kind = fixed-slope\n")
    for name, text in FAMILY_FILES.items():
        (d / name).write_text(text)
    return d


@settings(max_examples=300, deadline=5000, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argv())
@example(argv=["bounds", "--p", "2", "--q", "5", "--n1", str(10**155), "--n2", str(10**155)])
@example(argv=["family", "--config", "overflow.cfg", "--format", "json"])
@example(argv=["family", "--config", "overflow.cfg"])
@example(argv=["verify", "--pd", "non-ascii-digits.pd"])
@example(argv=["render", "non-ascii-digits.pd"])
def test_cli_fuzz_exits_cleanly(fuzz_dir, argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(fuzz_dir)  # relative paths, even mis-parsed ones, stay in the fuzz dir
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse: usage error
                code = e.code
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
    if code != 2 and _pd_input(argv) in BAD_PD_TERMS:
        assert code == 1 and err.getvalue().startswith("PDSyntaxError: "), (argv, err.getvalue())
    # a printed report holds no Infinity or NaN
    text = out.getvalue()
    if code == 0 and text.startswith("{"):
        json.loads(text, parse_constant=_no_constants)
    if code == 0 and text.startswith("index,"):
        cells = {cell for line in text.splitlines() for cell in line.split(",")}
        assert not cells & {"inf", "-inf", "nan"}, (argv, text)
