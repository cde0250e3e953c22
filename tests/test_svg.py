import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coilbounds
from coilbounds.diagrams import parse_pd
from coilbounds.generators import CoilSpec, gen_augmented, gen_double_coil, gen_two_bridge
from coilbounds.slopes import ContinuedFraction, Slope
from coilbounds.svg import curve_svg, render_svg

TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"


def test_render_empty():
    out = render_svg(parse_pd(""))
    assert out.startswith("<svg") and out.endswith("</svg>")
    assert 'class="xing"' not in out


def test_render_trefoil_glyphs():
    out = render_svg(parse_pd(TREFOIL))
    assert out.count('class="xing"') == 3
    assert out.count('<g class="component"') == 1


def test_render_augmented_strokes():
    out = render_svg(gen_augmented(Slope(2, 5)))
    assert out.count('<g class="component"') == 3
    strokes = {
        part.split('"')[0]
        for part in out.split('stroke="')[1:]
        if not part.startswith("inherit")
    }
    assert len(strokes) >= 3  # three distinct component colors
    assert out.count('class="xing"') == 20


def test_render_glyph_count_matches_crossings():
    for d in [
        gen_two_bridge(ContinuedFraction((3, 2))),
        gen_double_coil(CoilSpec(1, 2, 2, 1)),
        parse_pd("X(1,2,2,1)"),
    ]:
        assert render_svg(d).count('class="xing"') == d.n_crossings


def test_render_deterministic_and_seeded():
    d = gen_two_bridge(ContinuedFraction((2, 2)))
    assert render_svg(d) == render_svg(d)
    assert render_svg(d, seed_layout=5) != render_svg(d, seed_layout=0)


def test_curve_svg_wellformed():
    for text in ("1/0", "0/1", "2/5", "3/5", "1/2"):
        out = curve_svg(Slope.parse(text))
        assert out.startswith("<svg") and out.endswith("</svg>")
        assert out.count('class="curve"') >= 1
    both = curve_svg(Slope(1, 0), Slope(2, 5))
    assert both.count('class="curve"') > curve_svg(Slope(1, 0)).count('class="curve"')


@pytest.mark.parametrize(
    "slope, digest",
    [
        ("1/0", "d379abb35f6217f4344c696645508fc421143704696ff8bc4463592441847ef1"),
        ("0/1", "a0f0aaea5790dda7a288af399ba5653b5ea76af6b5ef4face552e263db2a747e"),
        ("2/5", "dae7328bc1a2f6be1cb4beabbd4e0602b2c7ef336756c796c93949a0c9ac0a89"),
        ("-3/7", "ef5fe6813a9f7d3a4ee9ff8ca6f9084b147f121016fb835733bae2c54c883f9b"),
        ("7/3", "20864a67a3b63ac07bab064dfbba2b8ff6a03c03e157bddfde910137d2d04a01"),
    ],
)
def test_curve_svg_golden(slope, digest):
    out = curve_svg(Slope.parse(slope))
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The layout comes from networkx's planar straight-line drawing; this digest
# was taken with networkx 3.6.
AUGMENTED_2_5_DIGEST = "b68f826c506b195fe672c6379f03efc8e11a19fb39d38ef58630111f8a51f95c"


def test_render_svg_golden():
    out = render_svg(gen_augmented(Slope(2, 5)))
    assert hashlib.sha256(out.encode()).hexdigest() == AUGMENTED_2_5_DIGEST


def test_render_svg_independent_of_hash_seed():
    script = (
        "import hashlib; from coilbounds import Slope, gen_augmented, render_svg; "
        "print(hashlib.sha256(render_svg(gen_augmented(Slope(3, 7))).encode()).hexdigest())"
    )
    src = str(Path(coilbounds.__file__).parents[1])
    digests = {
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "1", "2")
    }
    assert len(digests) == 1
