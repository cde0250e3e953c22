import json

import pytest

from coilbounds.cli import main
from coilbounds.diagrams import parse_pd


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cfrac(capsys):
    code, out, _ = run(capsys, "cfrac", "2/5")
    assert code == 0 and out == "[2,2] k=2\n"


def test_cfrac_canonicalizes(capsys):
    code, out, _ = run(capsys, "cfrac", "7/5")
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
    code, _, err = run(capsys, "curve", "1/40", "2/5", "--oracle")
    assert code == 1 and err.startswith("OracleCapExceeded")
    code, out, _ = run(capsys, "curve", "1/40", "2/5", "--oracle", "--oracle-cap", "40")
    assert code == 0 and out == "curve-curve=150 arc-curve=75\n"


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
]


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
    ],
)
def test_bad_coil_spec_is_named_or_usage_error(capsys, argv):
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


def test_zero_over_zero_stays_named(capsys):
    code, _, err = run(capsys, "cfrac", "0/0")
    assert code == 1 and err.startswith("ZeroOverZero")


def test_verify_pd_non_planar(tmp_path, capsys):
    pd_file = tmp_path / "split.pd"
    pd_file.write_text("X(1,1,2,2) X(3,3,4,4)\n")
    code, out, err = run(capsys, "verify", "--pd", str(pd_file))
    assert code == 1 and out == "" and err.startswith("NonPlanarRotation")


@pytest.mark.parametrize(
    "argv",
    [
        ("cfrac", "2/5", "--precision", "3"),
        ("slope", "2/5", "--out", "x"),
        ("gen", "twobridge", "--slope", "2/5", "--precision", "3"),
        ("verify", "--oracle-cap", "5"),
        ("render", "x.pd", "--out", "y"),
    ],
)
def test_unread_flags_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


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


def test_family_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kind = fixed-slope\n")
    code, _, err = run(capsys, "family", "--config", str(cfg))
    assert code == 1 and err.startswith("ConfigError")


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
