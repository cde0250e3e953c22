import json
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from coilbounds import bounds
from coilbounds.bounds import CONSTANTS, bound_report, disk_obstruction_check
from coilbounds.cli import main
from coilbounds.errors import ConfigError
from coilbounds.family import (
    CoilFamily,
    analyze_family,
    fibonacci_slopes,
    fixed_slope_vary_twists,
    load_family_config,
    odd_denominator_slopes,
    report_to_csv,
    vary_slope_fixed_twists,
    CSV_COLUMNS,
)
from coilbounds.generators import CoilSpec
from coilbounds.slopes import Slope, cfrac_expand


def test_fibonacci_slopes_have_increasing_k():
    slopes = fibonacci_slopes(12)
    assert [str(s) for s in slopes[:4]] == ["1/2", "2/3", "3/5", "5/8"]
    assert [cfrac_expand(s).length for s in slopes] == list(range(1, 13))


def test_odd_denominator_slopes():
    slopes = odd_denominator_slopes(4)
    assert [str(s) for s in slopes] == ["1/3", "1/5", "1/7", "1/9"]
    assert all(cfrac_expand(s).length == 1 for s in slopes)


def test_empty_range_rejected():
    with pytest.raises(ConfigError):
        fixed_slope_vary_twists(2, 5, 6, range(0))


def test_fixed_slope_family():
    rep = analyze_family(fixed_slope_vary_twists(2, 5, 6, range(4, 21)))
    assert rep["verdict"] == "ExpandingCertified"
    assert len(rep["rows"]) == 17 and not rep["uncertified"]
    assert all(tuple(r) == CSV_COLUMNS for r in rep["rows"])
    assert len({r["vol_upper"] for r in rep["rows"]}) == 1
    assert len({r["lambda_lower"] for r in rep["rows"]}) == 1
    assert all(r["generalized_twist_regions"] == 2 for r in rep["rows"])
    assert rep.rows is rep["rows"]  # the attribute perfbench/tracing.py sizes its span by
    # lambda lower = A1 / (8 v8)^2 for the whole family
    expected = CONSTANTS.lambda_floor_numerator / (8 * CONSTANTS.v8) ** 2
    assert abs(rep["rows"][0]["lambda_lower"] - expected) < 1e-25
    assert abs(expected - 1.020e-17) < 1e-19


def test_vary_slope_family():
    rep = analyze_family(vary_slope_fixed_twists(fibonacci_slopes(8), 4))
    assert rep["verdict"] == "NotExpandingCertified"
    ups = [r["lambda_upper"] for r in rep["rows"]]
    assert all(b < a for a, b in zip(ups, ups[1:]))


def test_single_member_family_expanding():
    rep = analyze_family(vary_slope_fixed_twists([Slope(2, 5)], 4))
    assert rep["verdict"] == "ExpandingCertified"


def test_uncertified_rows_listed():
    rep = analyze_family(vary_slope_fixed_twists(fibonacci_slopes(3), 1))
    assert not rep["rows"] and rep["summary"] == {"certified_rows": 0}
    assert rep["uncertified"] == [
        {"index": i, "spec": {"p": p, "q": q, "n1": 1, "n2": 1},
         "error": "NoHyperbolicityCertificate"}
        for i, (p, q) in enumerate([(1, 2), (2, 3), (3, 5)])
    ]
    assert rep["verdict"] == "Inconclusive"


def test_verdict_stable_under_reordering():
    members = fixed_slope_vary_twists(2, 5, 6, range(4, 10)).members
    rep_fwd = analyze_family(CoilFamily("fixed-slope", members))
    rep_rev = analyze_family(CoilFamily("fixed-slope", tuple(reversed(members))))
    assert rep_fwd["verdict"] == rep_rev["verdict"]


def test_jobs_parallel_matches_serial(tmp_path, capsys):
    """family runs in one process; --jobs is still accepted and changes nothing."""
    cfg = tmp_path / "fam.cfg"
    cfg.write_text("kind = fixed-slope\np = 2\nq = 5\nn2 = 6\nrange_start = 4\nrange_end = 15\n")
    printed = []
    for jobs in ("1", "2"):
        assert main(["family", "--config", str(cfg), "--jobs", jobs]) == 0
        printed.append(capsys.readouterr().out)
    fam = fixed_slope_vary_twists(2, 5, 6, range(4, 16))
    assert printed == [report_to_csv(analyze_family(fam))] * 2


def test_twist_growth_experiment():
    """Bounded volume, growing twist number, and the fixed 1/6 filling past
    the punctured-disk obstruction, read from the family rows."""
    rows = analyze_family(fixed_slope_vary_twists(2, 5, 6, range(4, 11)))["rows"]
    assert [r["crossings"] for r in rows] == [20 * (n + 6) for n in range(4, 11)]
    assert disk_obstruction_check(rows[0]["n2"])
    assert all(r["vol_upper"] == rows[0]["vol_upper"] for r in rows)
    growth = [r["twist_regions"] for r in rows]
    assert all(b > a for a, b in zip(growth, growth[1:]))
    assert len(analyze_family(fixed_slope_vary_twists(2, 5, 6, [4]))["rows"]) == 1


def test_config_fixed_slope():
    fam = load_family_config(
        """
        # the bounded-volume sweep
        kind = fixed-slope
        p = 2
        q = 5
        n2 = 6
        range_start = 4
        range_end = 8
        diagram_cap = 100
        """
    )
    # unrecognised keys, diagram_cap among them, are ignored
    assert fam.kind == "fixed-slope" and len(fam.members) == 5


def test_config_vary_slope_custom():
    fam = load_family_config(
        "kind = vary-slope\nslope_sequence = custom-list\nslopes = 2/5, 3/7\nn1 = 5\nrange_end = 2\n"
    )
    assert [str(m.slope) for m in fam.members] == ["2/5", "3/7"]
    assert all(m.n1 == m.n2 == 5 for m in fam.members)


def test_config_custom_list_needs_no_range_end():
    fam = load_family_config(
        "kind = vary-slope\nslope_sequence = custom-list\nslopes = 2/5, 3/7\nn1 = 4\n"
    )
    assert [str(m.slope) for m in fam.members] == ["2/5", "3/7"]


def test_config_errors():
    with pytest.raises(ConfigError):
        load_family_config("kind = nonsense\n")
    with pytest.raises(ConfigError):
        load_family_config("kind = fixed-slope\np = 2\n")  # missing keys
    with pytest.raises(ConfigError):
        load_family_config("just some words\n")


@pytest.mark.parametrize("seq", ["fibonacci", "odd-denominators"])
@pytest.mark.parametrize("start", [0, -3])
def test_config_range_start_below_one(seq, start):
    with pytest.raises(ConfigError, match="range_start"):
        load_family_config(
            f"kind = vary-slope\nslope_sequence = {seq}\n"
            f"range_start = {start}\nrange_end = 5\nn1 = 4\n"
        )


@st.composite
def certified_specs(draw):
    q = draw(st.integers(2, 60))
    p = draw(st.integers(1, q - 1))
    assume(gcd(p, q) == 1)
    n1, n2 = (draw(st.integers(4, 40)) * draw(st.sampled_from((1, -1))) for _ in range(2))
    return CoilSpec(p, q, n1, n2)


@settings(max_examples=100, deadline=None)
@given(certified_specs())
def test_row_reads_bound_report(spec):
    (row,) = analyze_family(CoilFamily("fixed-slope", (spec,)))["rows"]
    rep = bound_report(spec)
    assert (row["k"], row["ell"], row["certificate"]) == (
        rep["k"], rep["ell"], rep["certificate"]["condition"]
    )
    assert (row["vol_lower"], row["vol_upper"], row["lambda_lower"], row["lambda_upper"]) == (
        rep["volume"]["lower"], rep["volume"]["upper"],
        rep["lambda"]["lower"], rep["lambda"]["upper"],
    )


def test_one_cfrac_and_certificate_per_spec(monkeypatch):
    calls = {"cfrac_expand": 0, "coil_hyperbolicity_certificate": 0}
    for name in calls:
        fn = getattr(bounds, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(bounds, name, counted)
    spec = CoilSpec(3, 7, 5, -6)
    bound_report(spec)
    assert calls == {"cfrac_expand": 1, "coil_hyperbolicity_certificate": 1}
    analyze_family(fixed_slope_vary_twists(2, 5, 6, range(4, 9)))
    assert calls == {"cfrac_expand": 6, "coil_hyperbolicity_certificate": 6}


def test_csv_columns_fixed():
    rep = analyze_family(fixed_slope_vary_twists(2, 5, 6, range(4, 6)))
    csv = report_to_csv(rep)
    assert csv.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(csv.splitlines()) == 3


def test_json_report_schema():
    from importlib.resources import files

    import jsonschema

    schema = json.loads(
        files("coilbounds").joinpath("schemas/family_report.schema.json").read_text()
    )
    fam = vary_slope_fixed_twists(fibonacci_slopes(25), 4)
    data = json.loads(json.dumps(analyze_family(fam)))
    jsonschema.validate(data, schema)
    # far members have millions of crossings; both columns are closed forms
    last = data["rows"][-1]
    assert last["crossings"] > 10**6
    assert last["twist_regions"] == fam.members[-1].twist_region_count
