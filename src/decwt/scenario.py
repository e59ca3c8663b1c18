"""Physical scenario, grid and numerics parameter bundles, and the config file format.

Config files are plain text, one ``key = value`` per line, ``#`` starts a comment.
Unknown keys are rejected with the offending line number so typos surface early.
All floats round-trip bit-exactly: the lines of config_lines (repr format),
written to a file, reload through load_scenario to the same values.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


class ConfigParseError(ValueError):
    """Raised for malformed config text; message carries the line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class InvalidParameterError(ValueError):
    """Raised when a parameter value violates its documented constraint."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class Scenario:
    """Physical inputs in the fixed natural units hbar = m = 1 (README,
    "Units and conventions", maps other units onto them).

    lam      long-wavelength scattering strength (decoherence rate density)
    b        initial wave-packet width parameter, alpha0 = 1/(4 b^2); with
             lam > 0 the decoherence strength lam b^4 must be a normal float
    label    tag used for output naming: one line, no '#', no leading or
             trailing whitespace, so a config file reloads it unchanged
    """

    lam: float = 1.0
    b: float = 1.0
    label: str = "run"

    def __post_init__(self):
        if not (self.b > 0.0 and math.isfinite(self.b)):
            raise InvalidParameterError("b", "must be positive and finite")
        if not (self.lam >= 0.0 and math.isfinite(self.lam)):
            raise InvalidParameterError("Lambda", "must be finite and >= 0")
        lb = self.label  # must come back from a UTF-8 config line as is
        if (lb.splitlines() != [lb] or lb != lb.strip() or "#" in lb
                or lb.encode("utf-8", "replace").decode("utf-8") != lb):
            raise InvalidParameterError(
                "label", f"must be one line of UTF-8 text without '#' or "
                f"outer whitespace, got {lb!r}")
        try:  # b*b can underflow to 0 or overflow to inf
            ok = 0.0 < self.alpha0 < math.inf
        except ZeroDivisionError:
            ok = False
        if not ok:
            raise InvalidParameterError("b", "alpha0 = 1/(4 b^2) must be positive and finite")
        b2 = self.b * self.b
        strength = self.lam * b2 * b2  # float products round to 0 or inf, never raise
        if self.lam > 0.0 and not sys.float_info.min <= strength < math.inf:
            raise InvalidParameterError(
                "b", f"Lambda b^4 = {strength!r} must be a finite normal float "
                f"(Lambda = {self.lam!r}, b = {self.b!r})")

    @property
    def alpha0(self) -> float:
        return 1.0 / (4.0 * self.b * self.b)


@dataclass(frozen=True)
class GridSpec1D:
    """Uniform periodic grid on [-extent, extent) with n_points samples."""

    n_points: int
    extent: float

    def __post_init__(self):
        n = self.n_points
        if (not isinstance(n, (int, np.integer)) or isinstance(n, bool)
                or n < 8 or (n & (n - 1)) != 0):
            raise InvalidParameterError("n_points", "must be an integer power of two, >= 8")
        try:  # an int past the float range cannot be a finite extent
            ok = self.extent > 0.0 and math.isfinite(self.extent)
        except (TypeError, OverflowError):
            ok = False
        if not ok:
            raise InvalidParameterError("extent", "must be positive and finite")

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / self.n_points

    def points(self) -> np.ndarray:
        return -self.extent + self.spacing * np.arange(self.n_points)

    def wavenumbers(self) -> np.ndarray:
        # k_n = 2 pi n / (2 extent), n in [-N/2, N/2), fftfreq ordering
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.spacing)


@dataclass(frozen=True)
class GridSpec2D:
    """Tensor grid for density matrices in rotated coordinates (y, z)."""

    n_y: int
    n_z: int
    extent_y: float
    extent_z: float

    def __post_init__(self):
        GridSpec1D(self.n_y, self.extent_y)
        GridSpec1D(self.n_z, self.extent_z)

    @property
    def axis_y(self) -> GridSpec1D:
        return GridSpec1D(self.n_y, self.extent_y)

    @property
    def axis_z(self) -> GridSpec1D:
        return GridSpec1D(self.n_z, self.extent_z)


@dataclass(frozen=True)
class NumericsSpec:
    dt: float = 1e-3
    t_end: float = 2.0
    sample_every: int = 10

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise InvalidParameterError("dt", "must be positive and finite")
        if not (self.t_end >= 0.0 and math.isfinite(self.t_end)):
            raise InvalidParameterError("t_end", "must be finite and >= 0")
        if self.sample_every < 1:
            raise InvalidParameterError("sample_every", "must be >= 1")


def characteristic_time(s: Scenario) -> float:
    """Coherence-decay timescale 1 / (Lambda b^2) of the initial packet."""
    if s.lam == 0.0:
        raise InvalidParameterError("Lambda", "no decoherence timescale when Lambda = 0")
    return 1.0 / (s.lam * s.b * s.b)


# Config keys in file order -> (bundle part, attribute). 'Lambda' is the
# file-facing name of lam.
_KEYS = {
    "label": ("scenario", "label"),
    "Lambda": ("scenario", "lam"), "b": ("scenario", "b"),
    "n_y": ("grid", "n_y"), "n_z": ("grid", "n_z"),
    "extent_y": ("grid", "extent_y"), "extent_z": ("grid", "extent_z"),
    "dt": ("numerics", "dt"), "t_end": ("numerics", "t_end"),
    "sample_every": ("numerics", "sample_every"),
}
_INT_KEYS = {"n_y", "n_z", "sample_every"}


def _parse_lines(text: str) -> dict[str, tuple[int, str]]:
    out: dict[str, tuple[int, str]] = {}
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(i, f"expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigParseError(i, "empty key or value")
        if key not in _KEYS:
            raise ConfigParseError(i, f"unknown key {key!r}")
        if key in out:
            raise ConfigParseError(i, f"duplicate key {key!r}")
        out[key] = (i, value)
    return out


def parse_config(text: str) -> "ConfigBundle":
    """Parse config text over the field defaults of Scenario and NumericsSpec
    and a 256^2 grid. An omitted extent_y or extent_z is sized by
    master_eq.suggest_extents from the config's own scenario and t_end."""
    entries = _parse_lines(text)

    kwargs: dict[str, dict] = {"scenario": {}, "grid": {"n_y": 256, "n_z": 256},
                               "numerics": {}}
    for key, (line_no, value) in entries.items():
        part, attr = _KEYS[key]
        if key == "label":
            kwargs[part][attr] = value
            continue
        try:
            kwargs[part][attr] = int(value) if key in _INT_KEYS else float(value)
        except ValueError:
            kind = "integer" if key in _INT_KEYS else "number"
            raise ConfigParseError(line_no, f"{key}: not a valid {kind}: {value!r}") from None
        if not math.isfinite(kwargs[part][attr]):
            raise ConfigParseError(line_no, f"{key}: not a finite number: {value!r}")

    scenario = Scenario(**kwargs["scenario"])
    numerics = NumericsSpec(**kwargs["numerics"])
    grid = kwargs["grid"]
    if "extent_y" not in grid or "extent_z" not in grid:
        from .master_eq import suggest_extents  # master_eq imports this module

        ext_y, ext_z = suggest_extents(scenario, scenario.alpha0, 0.0, numerics.t_end)
        grid = {"extent_y": ext_y, "extent_z": ext_z, **grid}
    return ConfigBundle(scenario, GridSpec2D(**grid), numerics)


def config_lines(bundle: "ConfigBundle") -> list[str]:
    """One 'key = value' line per config key, in table order; floats are
    written with repr so parse_config reloads them bit for bit."""
    lines = []
    for key, (part, attr) in _KEYS.items():
        v = getattr(getattr(bundle, part), attr)
        lines.append(f"{key} = {v if key in _INT_KEYS or key == 'label' else repr(v)}")
    return lines


@dataclass(frozen=True)
class ConfigBundle:
    scenario: Scenario
    grid: GridSpec2D
    numerics: NumericsSpec


def load_scenario(path) -> ConfigBundle:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# Presets reproduce the two decoherence strengths used throughout the figures:
# Lambda = 1 (moderate) and Lambda = 10 (strong), natural units, alpha0 = 1/4.
# Their box is derived by parse_config at the default t_end = 2.
_PRESETS = {"moderate": 1.0, "strong": 10.0}


def preset_bundle(name: str) -> ConfigBundle:
    if name not in _PRESETS:
        raise InvalidParameterError("preset", f"unknown preset {name!r}, choose from {sorted(_PRESETS)}")
    return parse_config(f"label = {name}\nLambda = {_PRESETS[name]!r}\n"
                        "n_y = 512\nn_z = 512\nsample_every = 50\n")
