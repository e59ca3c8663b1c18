"""Parameter model, config-file parsing, and preset construction."""
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from decwt.master_eq import suggest_extents
from decwt.scenario import (
    _INT_KEYS,
    _KEYS,
    ConfigBundle,
    ConfigParseError,
    GridSpec1D,
    GridSpec2D,
    InvalidParameterError,
    NumericsSpec,
    Scenario,
    characteristic_time,
    config_lines,
    load_scenario,
    parse_config,
    preset_bundle,
)


def test_scenario_defaults_and_alpha0():
    s = Scenario(lam=1.0, b=1.0, label="x")
    # alpha0 = 1/(4 b^2) for a real Gaussian of width b
    assert s.alpha0 == 0.25
    s2 = Scenario(lam=1.0, b=2.0, label="x")
    assert s2.alpha0 == 1.0 / 16.0


@pytest.mark.parametrize("field,value,reported", [
    ("b", -2.0, "b"),
    ("lam", -0.5, "Lambda"),  # reported under its config-file key
    # alpha0 = 1/(4 b^2): b * b underflows to 0 (division by zero) or
    # overflows to inf (alpha0 = 0)
    ("b", 1e-200, "b"), ("b", 1e200, "b"),
])
def test_scenario_rejects_nonphysical(field, value, reported):
    kwargs = dict(lam=1.0, b=1.0, label="x")
    kwargs[field] = value
    with pytest.raises(InvalidParameterError) as exc:
        Scenario(**kwargs)
    assert exc.value.field == reported


@pytest.mark.parametrize("cls, kwargs", [
    (Scenario, {"lam": math.nan}),
    (Scenario, {"lam": math.inf}),
    (Scenario, {"b": math.inf}),
    (NumericsSpec, {"dt": math.inf}),
    (NumericsSpec, {"t_end": math.inf}),
    (NumericsSpec, {"t_end": math.nan}),
    (GridSpec1D, {"n_points": 64, "extent": math.inf}),
], ids=["lam-nan", "lam-inf", "b-inf", "dt-inf", "t_end-inf", "t_end-nan",
        "extent-inf"])
def test_non_finite_parameter_rejected_at_construction(cls, kwargs):
    # NumericsSpec(dt=inf) once ran and wrote only the t = 0 row
    with pytest.raises(InvalidParameterError) as exc:
        cls(**kwargs)
    assert exc.value.field in ("Lambda", "b", "dt", "t_end", "extent")


def test_characteristic_time_scaling():
    # t_b = 1 / (Lambda b^2): doubling b quarters it, doubling Lambda halves it
    s = Scenario(lam=2.0, b=1.0, label="x")
    assert characteristic_time(s) == 0.5
    s = Scenario(lam=2.0, b=2.0, label="x")
    assert characteristic_time(s) == 1.0 / 8.0
    free = Scenario(lam=0.0, b=1.0, label="x")
    with pytest.raises(InvalidParameterError):
        characteristic_time(free)


def test_grid1d_points_and_wavenumbers():
    # the grid covers [-extent, extent) so the step is 2 extent / n
    g = GridSpec1D(n_points=8, extent=4.0)
    assert g.spacing == 1.0
    pts = g.points()
    assert len(pts) == 8
    assert pts[0] == -4.0
    assert pts[-1] == 3.0
    assert np.allclose(np.diff(pts), 1.0)
    # FFT wavenumber convention: k = 2 pi fftfreq(n, d)
    k = g.wavenumbers()
    assert np.allclose(k, 2.0 * np.pi * np.fft.fftfreq(8, d=1.0))


@pytest.mark.parametrize("n", [7, 12, 4, 0])
def test_grid1d_rejects_bad_sizes(n):
    with pytest.raises(InvalidParameterError):
        GridSpec1D(n_points=n, extent=4.0)


@pytest.mark.parametrize("n", [16.0, 8.5, "16", None, True])
def test_grid1d_rejects_non_integer_size(n):
    # 16.0 once raised TypeError from the power-of-two bit test
    with pytest.raises(InvalidParameterError) as exc:
        GridSpec1D(n_points=n, extent=4.0)
    assert exc.value.field == "n_points"


def _finite_float(x):
    try:
        return math.isfinite(float(x))
    except OverflowError:  # an int past the float range
        return False


@given(st.one_of(st.integers(), st.floats(), st.none(), st.text(max_size=4)),
       st.one_of(st.floats(), st.integers(), st.none()))
def test_grid1d_builds_a_valid_spec_or_refuses(n, extent):
    valid_n = (isinstance(n, int) and not isinstance(n, bool) and n >= 8
               and bin(n).count("1") == 1)
    valid_extent = (isinstance(extent, (int, float)) and extent > 0
                    and _finite_float(extent))
    try:
        g = GridSpec1D(n_points=n, extent=extent)
    except InvalidParameterError:
        assert not (valid_n and valid_extent)
    else:
        assert valid_n and valid_extent
        assert (g.n_points, g.extent) == (n, extent)


def test_grid2d_axes():
    g = GridSpec2D(n_y=16, n_z=32, extent_y=4.0, extent_z=8.0)
    assert g.axis_y.n_points == 16 and g.axis_y.extent == 4.0
    assert g.axis_z.n_points == 32 and g.axis_z.extent == 8.0


def test_numerics_validation():
    with pytest.raises(InvalidParameterError):
        NumericsSpec(dt=0.0, t_end=1.0)
    with pytest.raises(InvalidParameterError):
        NumericsSpec(dt=1e-3, t_end=-1.0)
    n = NumericsSpec(dt=1e-3, t_end=1.0)
    assert n.sample_every >= 1


CONFIG = """
# natural units
Lambda = 2.0
b = 1.5
label = demo
n_y = 64
n_z = 128
extent_y = 10.0
extent_z = 20.0
dt = 0.002
t_end = 1.5
"""


def test_parse_config_roundtrip_values():
    bundle = parse_config(CONFIG)
    assert bundle.scenario.lam == 2.0
    assert bundle.scenario.b == 1.5
    assert bundle.scenario.label == "demo"
    assert bundle.grid.n_y == 64 and bundle.grid.n_z == 128
    assert bundle.numerics.dt == 0.002 and bundle.numerics.t_end == 1.5


@pytest.mark.parametrize("key", ["bogus", "ln_floor", "fit_window",
                                 "m", "hbar", "sigma", "t0"])
def test_parse_config_unknown_key_reports_line(key):
    # the deleted ln_floor and fit_window keys, and the fixed units m, hbar,
    # sigma and t0, are refused like any unknown key
    text = f"b = 1.0\n{key} = 3\n"
    with pytest.raises(ConfigParseError) as exc:
        parse_config(text)
    assert exc.value.line_no == 2
    assert key in str(exc.value)


def test_parse_config_duplicate_key_reports_line():
    text = "b = 1.0\nb = 2.0\n"
    with pytest.raises(ConfigParseError) as exc:
        parse_config(text)
    assert exc.value.line_no == 2


def test_parse_config_malformed_line():
    with pytest.raises(ConfigParseError) as exc:
        parse_config("b 1.0\n")
    assert exc.value.line_no == 1


def test_parse_config_bad_number_reports_line():
    with pytest.raises(ConfigParseError) as exc:
        parse_config("b = twelve\n")
    assert exc.value.line_no == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
@pytest.mark.parametrize("key", sorted(set(_KEYS) - _INT_KEYS - {"label"})
                         + ["hbar", "m", "sigma", "t0"])
def test_parse_config_rejects_non_finite_float(key, value):
    # a non-finite value must not reach a run: NaN passes every ">" check.
    # The fixed units hbar, m, sigma and t0 were float keys once; an old
    # config setting one of them to a non-finite value is still refused at
    # its line
    with pytest.raises(ConfigParseError) as exc:
        parse_config(f"label = x\n# comment\n{key} = {value}\n")
    assert exc.value.line_no == 3
    assert key in str(exc.value)


def save(path, bundle):
    """A config file of the bundle's config_lines."""
    path.write_text("\n".join(config_lines(bundle)) + "\n", encoding="utf-8")


def test_save_load_roundtrip_is_bit_exact(tmp_path):
    bundle = parse_config(CONFIG)
    path = tmp_path / "scenario.cfg"
    save(path, bundle)
    back = load_scenario(path)
    assert back.scenario == bundle.scenario
    assert back.grid == bundle.grid
    # floats written with repr: a second save is byte-identical
    path2 = tmp_path / "again.cfg"
    save(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_roundtrip_preserves_awkward_floats(tmp_path):
    text = "dt = 1e-07\nt_end = 0.30000000000000004\n"
    bundle = parse_config(text)
    path = tmp_path / "s.cfg"
    save(path, bundle)
    back = load_scenario(path)
    assert back.numerics.dt == bundle.numerics.dt
    assert back.numerics.t_end == bundle.numerics.t_end


def test_empty_config_is_valid():
    bundle = parse_config("")
    assert isinstance(bundle, ConfigBundle)
    assert bundle.scenario == Scenario() and bundle.numerics == NumericsSpec()
    assert bundle.grid.n_y == bundle.grid.n_z == 256


def test_omitted_extents_follow_suggest_extents():
    for text in ("", "Lambda = 10.0\nb = 0.7\nt_end = 0.5\n"):
        bundle = parse_config(text)
        s = bundle.scenario
        assert (bundle.grid.extent_y, bundle.grid.extent_z) == suggest_extents(
            s, s.alpha0, 0.0, bundle.numerics.t_end)


def test_one_omitted_extent_is_derived_and_the_named_one_kept():
    bundle = parse_config("extent_y = 3.25\n")
    s = bundle.scenario
    assert bundle.grid.extent_y == 3.25
    assert bundle.grid.extent_z == suggest_extents(s, s.alpha0, 0.0, 2.0)[1]


@pytest.mark.parametrize("ext_y, ext_z", [("12.0", "24.0"),
                                          ("0.1", "1e+300"),
                                          ("15.600000000000001", "17.11973842635986")])
def test_named_extents_are_kept_bit_for_bit(ext_y, ext_z):
    # with both extents named, suggest_extents plays no part, whatever b is
    # (b = 1e-70 would suggest 1.2e-69 and 1.2e71)
    bundle = parse_config(f"b = 1e-70\nextent_y = {ext_y}\nextent_z = {ext_z}\n")
    assert (bundle.grid.extent_y, bundle.grid.extent_z) == (float(ext_y), float(ext_z))


@pytest.mark.parametrize("name,lam", [("moderate", 1.0), ("strong", 10.0)])
def test_presets(name, lam):
    bundle = preset_bundle(name)
    s = bundle.scenario
    assert s.lam == lam
    assert s.b == 1.0
    assert bundle.grid.n_y == 512 and bundle.grid.n_z == 512
    assert bundle.numerics.dt == 1e-3 and bundle.numerics.t_end == 2.0
    # decoherence strength Lambda b^4 matches the preset name
    assert math.isclose(s.lam * s.b ** 4, lam)


def test_unknown_preset():
    with pytest.raises(InvalidParameterError):
        preset_bundle("extreme")


_pos = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# ordinary text with blanks, or '#' and the line breaks of str.splitlines
_label_text = (st.text(st.sampled_from("ab=_-. \t\u00e9"), max_size=6)
               | st.text(st.sampled_from("ab#\n\r\x0b\x0c\x1c\x85\u2028"), max_size=4))


@st.composite
def _bundles(draw):
    # mostly a b with a representable alpha0, so few draws are refused
    b = draw(st.floats(min_value=1e-150, max_value=1e150) | _pos)
    lam = draw(st.floats(min_value=0.0, allow_infinity=False))
    b2 = b * b
    if lam > 0.0 and 0.0 < b2 < math.inf and not sys.float_info.min <= lam * b2 * b2 < math.inf:
        # a refused Lambda b^4: Lambda is drawn again where it is a normal float
        lo = sys.float_info.min / b2 / b2
        hi = min(sys.float_info.max / b2 / b2, sys.float_info.max)
        assume(lo <= hi)
        lam = draw(st.floats(min_value=lo, max_value=hi))
    try:
        scenario = Scenario(b=b, lam=lam, label=draw(_label_text | st.text(min_size=1)))
    except InvalidParameterError as exc:
        # b: alpha0 not positive and finite, or Lambda b^4 rounded off the normal floats
        assert exc.field in ("label", "b")
        assume(False)
    p2 = st.integers(3, 12).map(lambda e: 2 ** e)
    grid = GridSpec2D(n_y=draw(p2), n_z=draw(p2),
                      extent_y=draw(_pos), extent_z=draw(_pos))
    numerics = NumericsSpec(
        dt=draw(_pos), t_end=draw(st.floats(min_value=0.0, allow_infinity=False)),
        sample_every=draw(st.integers(1, 10 ** 6)))
    return ConfigBundle(scenario, grid, numerics)


@settings(deadline=None)
@given(_bundles())
def test_config_lines_reparse_to_the_same_bundle(bundle):
    # a config file holds these lines; any bundle that constructs
    # must come back equal, label included
    assert parse_config("\n".join(config_lines(bundle))) == bundle


@pytest.mark.parametrize("label", ["a#b", " x", "x ", "", "a\nb", "a\r", "\u2028x",
                                   "\ud800x"])
def test_label_that_would_not_reload_is_refused(label):
    # each of these once saved as a different label or as an unparsable
    # file; a lone surrogate cannot be written as UTF-8 at all
    with pytest.raises(InvalidParameterError) as exc:
        Scenario(label=label)
    assert exc.value.field == "label"


@given(st.text(), st.sampled_from(["#", " ", "\t", "\n", "\r", "\x85", "\u2028"]),
       st.sampled_from(["prefix", "infix", "suffix"]))
def test_label_with_comment_break_or_outer_space_is_refused(text, bad, where):
    if where == "infix":
        assume(bad in "#\n\r\x85\u2028")  # inner blanks are allowed
    label = {"prefix": bad + text, "infix": text + bad + "x",
             "suffix": text + bad}[where]
    with pytest.raises(InvalidParameterError):
        Scenario(label=label)


@pytest.mark.parametrize("label", ["a=b", "two words", "r\u00e9sum\u00e9"])
def test_save_load_keeps_an_unusual_label(tmp_path, label):
    base = parse_config("")
    bundle = ConfigBundle(Scenario(label=label), base.grid, base.numerics)
    save(tmp_path / "s.cfg", bundle)
    assert load_scenario(tmp_path / "s.cfg") == bundle
