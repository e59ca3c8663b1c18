"""Physical scenario, grid and numerics parameter bundles, and the config file format.

Config files are plain text, one ``key = value`` per line, ``#`` starts a comment.
Unknown keys are rejected with the offending line number so typos surface early.
All floats round-trip bit-exactly through save_scenario/load_scenario (repr format).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    """Physical inputs. Natural units (hbar = m = b = 1) are the default;
    the symbols are kept so dimensional variants remain testable.

    m        particle mass
    hbar     Planck constant
    lam      long-wavelength scattering strength (decoherence rate density)
    b        initial wave-packet width parameter, alpha0 = 1/(4 b^2)
    sigma    width of the environment-mode amplitude profile
    t0       reference time for the prescribed linear coupling
    label    free-form tag used for output naming
    """

    m: float = 1.0
    hbar: float = 1.0
    lam: float = 1.0
    b: float = 1.0
    sigma: float = 1.0
    t0: float = 0.0
    label: str = "run"

    def __post_init__(self):
        for name in ("m", "hbar", "b", "sigma"):
            if not (getattr(self, name) > 0.0):
                raise InvalidParameterError(name, "must be positive")
        if self.lam < 0.0:
            raise InvalidParameterError("Lambda", "must be >= 0")
        if not math.isfinite(self.t0):
            raise InvalidParameterError("t0", "must be finite")

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
        if n < 8 or (n & (n - 1)) != 0:
            raise InvalidParameterError("n_points", "must be a power of two, >= 8")
        if not (self.extent > 0.0):
            raise InvalidParameterError("extent", "must be positive")

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
    ln_floor: float = 1e-15  # amplitude floor, relative to max|a|
    fit_window: int = 9      # points used by the curvature fit, odd

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise InvalidParameterError("dt", "must be positive")
        if self.t_end < 0.0:
            raise InvalidParameterError("t_end", "must be >= 0")
        if self.sample_every < 1:
            raise InvalidParameterError("sample_every", "must be >= 1")
        if not (0.0 < self.ln_floor < 1.0):
            raise InvalidParameterError("ln_floor", "must be in (0, 1)")
        if self.fit_window < 3 or self.fit_window % 2 == 0:
            raise InvalidParameterError("fit_window", "must be odd and >= 3")


def characteristic_time(s: Scenario) -> float:
    """Coherence-decay timescale hbar / (Lambda b^2) of the initial packet."""
    if s.lam == 0.0:
        raise InvalidParameterError("Lambda", "no decoherence timescale when Lambda = 0")
    return s.hbar / (s.lam * s.b * s.b)


# Config keys -> (target bundle, attribute). 'Lambda' is the file-facing name of lam.
_SCENARIO_KEYS = {
    "m": "m", "hbar": "hbar", "Lambda": "lam", "b": "b",
    "sigma": "sigma", "t0": "t0", "label": "label",
}
_GRID_KEYS = {"n_y", "n_z", "extent_y", "extent_z"}
_NUMERICS_KEYS = {"dt", "t_end", "sample_every", "ln_floor", "fit_window"}
_INT_KEYS = {"n_y", "n_z", "sample_every", "fit_window"}


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
        known = key in _SCENARIO_KEYS or key in _GRID_KEYS or key in _NUMERICS_KEYS
        if not known:
            raise ConfigParseError(i, f"unknown key {key!r}")
        if key in out:
            raise ConfigParseError(i, f"duplicate key {key!r}")
        out[key] = (i, value)
    return out


def parse_config(text: str, base: "ConfigBundle | None" = None) -> "ConfigBundle":
    """Parse config text over a base bundle (defaults if None)."""
    entries = _parse_lines(text)
    bundle = base if base is not None else default_bundle()
    s, g, n = bundle.scenario, bundle.grid, bundle.numerics

    sc_kwargs, gr_kwargs, nu_kwargs = {}, {}, {}
    for key, (line_no, value) in entries.items():
        if key == "label":
            sc_kwargs["label"] = value
            continue
        try:
            parsed = int(value) if key in _INT_KEYS else float(value)
        except ValueError:
            kind = "integer" if key in _INT_KEYS else "number"
            raise ConfigParseError(line_no, f"{key}: not a valid {kind}: {value!r}") from None
        if key in _SCENARIO_KEYS:
            sc_kwargs[_SCENARIO_KEYS[key]] = parsed
        elif key in _GRID_KEYS:
            gr_kwargs[key] = parsed
        else:
            nu_kwargs[key] = parsed

    return ConfigBundle(
        scenario=replace(s, **sc_kwargs) if sc_kwargs else s,
        grid=replace(g, **gr_kwargs) if gr_kwargs else g,
        numerics=replace(n, **nu_kwargs) if nu_kwargs else n,
    )


@dataclass(frozen=True)
class ConfigBundle:
    scenario: Scenario
    grid: GridSpec2D
    numerics: NumericsSpec


def default_bundle() -> ConfigBundle:
    return ConfigBundle(
        scenario=Scenario(),
        grid=GridSpec2D(n_y=256, n_z=256, extent_y=12.0, extent_z=24.0),
        numerics=NumericsSpec(),
    )


def load_scenario(path) -> ConfigBundle:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def save_scenario(path, bundle: ConfigBundle) -> None:
    """Write a config file that reloads to bit-identical values."""
    s, g, n = bundle.scenario, bundle.grid, bundle.numerics
    lines = [
        f"m = {s.m!r}", f"hbar = {s.hbar!r}", f"Lambda = {s.lam!r}", f"b = {s.b!r}",
        f"sigma = {s.sigma!r}", f"t0 = {s.t0!r}", f"label = {s.label}",
        f"n_y = {g.n_y}", f"n_z = {g.n_z}",
        f"extent_y = {g.extent_y!r}", f"extent_z = {g.extent_z!r}",
        f"dt = {n.dt!r}", f"t_end = {n.t_end!r}", f"sample_every = {n.sample_every}",
        f"ln_floor = {n.ln_floor!r}", f"fit_window = {n.fit_window}",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# Presets reproduce the two decoherence strengths used throughout the figures:
# Lambda = 1 (moderate) and Lambda = 10 (strong), natural units, alpha0 = 1/4.
_PRESETS = {"moderate": 1.0, "strong": 10.0}


def preset_bundle(name: str) -> ConfigBundle:
    if name not in _PRESETS:
        raise InvalidParameterError("preset", f"unknown preset {name!r}, choose from {sorted(_PRESETS)}")
    lam = _PRESETS[name]
    scenario = Scenario(lam=lam, label=name)
    # Box sized by the 6-sigma rule at t_end = 2: sigma_z = sqrt(G(t_end)).
    from .master_eq import suggest_extents  # local import to avoid a cycle

    t_end = 2.0
    ext_y, ext_z = suggest_extents(scenario, scenario.alpha0, 0.0, t_end)
    grid = GridSpec2D(n_y=512, n_z=512, extent_y=ext_y, extent_z=ext_z)
    numerics = NumericsSpec(dt=1e-3, t_end=t_end, sample_every=50)
    return ConfigBundle(scenario=scenario, grid=grid, numerics=numerics)
