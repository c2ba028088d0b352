"""Physical inputs: network parameters, photon pulse shapes, frequency grids.

All quantities are dimensionless; the Lorentzian linewidth gamma = 1 fixes
the rate unit in typical runs.  Every type here is immutable after
construction and every operation is pure, so the whole module is safe to
use from multiple threads without synchronization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Union

import numpy as np

from .errors import NonMonotoneGrid, ParseError, ValidationError, ZeroNorm

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class NetworkParams:
    """Parameters of the two-qubit feedback network.

    kappa:   qubit-field coupling rate, >= 0.
    omega_c: detuning (field central frequency minus qubit transition).
    omega_o: field central frequency; only enters through pulse
             definitions and reporting.
    """

    kappa: float
    omega_c: float = 0.0
    omega_o: float = 0.0

    def __post_init__(self):
        _require_finite("kappa", self.kappa)
        _require_finite("omega_c", self.omega_c)
        _require_finite("omega_o", self.omega_o)
        if self.kappa < 0:
            raise ValidationError(f"kappa must be >= 0, got {self.kappa}")


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform, inclusive 1D frequency grid with n >= 3 points."""

    min: float
    max: float
    n: int

    def __post_init__(self):
        _require_finite("min", self.min)
        _require_finite("max", self.max)
        if self.min >= self.max:
            raise ValidationError(f"grid needs min < max, got [{self.min}, {self.max}]")
        if int(_require_finite("n", self.n)) != self.n or self.n < 3:
            raise ValidationError(f"grid needs an integer n >= 3, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def spacing(self) -> float:
        return (self.max - self.min) / (self.n - 1)

    @cached_property
    def points(self) -> np.ndarray:
        pts = np.linspace(self.min, self.max, self.n)
        pts.setflags(write=False)
        return pts


@dataclass(frozen=True)
class LorentzianPulse:
    """Single-photon spectral amplitude with a Lorentzian line shape.

    gamma is the FWHM of the intensity spectrum |amplitude|^2, which is
    centered at nu = -omega_o.  The amplitude is normalized to unit L2
    norm on the whole real line.
    """

    gamma: float
    omega_o: float = 0.0

    def __post_init__(self):
        _require_finite("gamma", self.gamma)
        _require_finite("omega_o", self.omega_o)
        if self.gamma <= 0:
            raise ValidationError(f"gamma must be > 0, got {self.gamma}")


@dataclass(frozen=True, eq=False)
class SampledPulse:
    """Single-photon spectral amplitude tabulated on a uniform grid.

    Values are linearly interpolated inside the grid and zero outside.
    Loaders rescale the samples so the trapezoid L2 norm over the grid is
    one; ``scale_applied`` records that factor.
    """

    grid: FrequencyGrid
    values: np.ndarray
    scale_applied: float = 1.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.ndim != 1 or values.size != self.grid.n:
            raise ValidationError(
                f"sampled pulse needs {self.grid.n} values, got shape {values.shape}"
            )
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SampledPulse):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)

    def __hash__(self):
        return hash((self.grid, self.values.tobytes()))


PulseSpec = Union[LorentzianPulse, SampledPulse]


@dataclass(frozen=True)
class TwoPhotonInput:
    """One photon in each input channel; ``identical`` is derived from
    structural equality of the two pulse specs, never from numeric
    closeness."""

    left: PulseSpec
    right: PulseSpec
    identical: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "identical", self.left == self.right)


def _lorentzian_den(pulse: LorentzianPulse, nu):
    """i (nu + omega_o) - gamma / 2 set part by part: the values of the
    complex arithmetic for finite nu, in fewer passes over the array."""
    den = np.empty(np.shape(nu), dtype=complex)
    den.real, den.imag = -0.5 * pulse.gamma, np.add(nu, pulse.omega_o)
    return den


def pulse_amplitude(pulse: PulseSpec, nu):
    """Spectral amplitude of ``pulse`` at frequency ``nu``.

    Accepts a scalar or ndarray and broadcasts.  Sampled pulses are
    linearly interpolated inside their grid and zero outside.
    """
    if isinstance(pulse, LorentzianPulse):
        out = (math.sqrt(pulse.gamma) / _SQRT_2PI) / _lorentzian_den(pulse, np.asarray(nu, dtype=float))
    elif isinstance(pulse, SampledPulse):
        out = np.interp(nu, pulse.grid.points, pulse.values, left=0.0, right=0.0)
    else:
        raise ValidationError(f"unknown pulse spec {pulse!r}")
    return out if np.ndim(out) else complex(out)


def lorentzian_pair(x: LorentzianPulse, y: LorentzianPulse, nu, mu):
    """pulse_amplitude(x, nu) * pulse_amplitude(y, mu) of two Lorentzian
    pulses by one complex division; broadcasts over nu and mu."""
    return (math.sqrt(x.gamma * y.gamma) / (2.0 * math.pi)) / (_lorentzian_den(x, nu) * _lorentzian_den(y, mu))


def pulse_center(pulse: PulseSpec) -> float:
    """Frequency at which the pulse intensity peaks (grid midpoint for
    sampled pulses)."""
    if isinstance(pulse, LorentzianPulse):
        return -pulse.omega_o
    return 0.5 * (pulse.grid.min + pulse.grid.max)


def pulse_width(pulse: PulseSpec) -> float:
    """Characteristic spectral width (FWHM-like scale)."""
    if isinstance(pulse, LorentzianPulse):
        return pulse.gamma
    return 0.5 * (pulse.grid.max - pulse.grid.min)


def pulse_support(pulse: PulseSpec):
    """(lo, hi) support of the pulse, or None when it is the whole line."""
    if isinstance(pulse, SampledPulse):
        return (pulse.grid.min, pulse.grid.max)
    return None


def lorentzian_mass(pulse: LorentzianPulse, lo: float, hi: float) -> float:
    """Exact |amplitude|^2 mass of a Lorentzian pulse on [lo, hi]."""
    g = pulse.gamma
    a = math.atan(2.0 * (lo + pulse.omega_o) / g)
    b = math.atan(2.0 * (hi + pulse.omega_o) / g)
    return (b - a) / math.pi


def pulse_tail_mass(pulse: PulseSpec, lo: float, hi: float) -> float:
    """|amplitude|^2 mass lying outside [lo, hi].

    Exact (arctan) for Lorentzian pulses; for sampled pulses the trapezoid
    mass of every sample cell that is not wholly inside the window.
    """
    if isinstance(pulse, LorentzianPulse):
        return max(0.0, 1.0 - lorentzian_mass(pulse, lo, hi))
    pts, intensity = pulse.grid.points, np.abs(pulse.values) ** 2
    cells = 0.5 * np.diff(pts) * (intensity[:-1] + intensity[1:])
    return float(cells[(pts[:-1] < lo) | (pts[1:] > hi)].sum())


def _renormalized(grid: FrequencyGrid, values: np.ndarray):
    # Extreme samples would overflow or underflow when squared: first scale them exactly by a power of two.
    shift, peak = 0, float(np.abs(values).max())
    if not 2.0**-500 <= peak <= 2.0**500:
        shift = -math.frexp(peak)[1]
        values = np.ldexp(values.view(float), shift).view(complex)
    norm_sq = float(np.trapezoid(np.abs(values) ** 2, grid.points))
    if norm_sq <= 0.0:
        raise ZeroNorm("pulse samples are identically zero")
    scale = 1.0 / math.sqrt(norm_sq)
    if not -1074 < math.frexp(scale)[1] + shift <= 1024:
        raise ValidationError("pulse samples need a normalising factor within the double range 5e-324 to 1.8e308")
    # Skip the rescale when the data is already normalized so an emitted
    # pulse file reloads bit-identically.
    if abs(norm_sq - 1.0) <= 1e-12:
        return values, math.ldexp(1.0, shift)
    return values * scale, math.ldexp(scale, shift)


def make_sampled_pulse(grid: FrequencyGrid, values) -> SampledPulse:
    """Build a unit-norm SampledPulse from raw samples."""
    values = np.ascontiguousarray(values, dtype=complex)
    if values.shape != (grid.n,):
        raise ValidationError(f"expected {grid.n} samples, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValidationError("pulse samples must be finite")
    normed, scale = _renormalized(grid, values)
    return SampledPulse(grid=grid, values=normed, scale_applied=scale)


def tabulate_pulse(pulse: PulseSpec, grid: FrequencyGrid) -> SampledPulse:
    """Sample any pulse on ``grid`` and renormalize on that grid."""
    return make_sampled_pulse(grid, pulse_amplitude(pulse, grid.points))


_CSV_HEADER = "nu,re,im"


def _csv_fields(rows) -> np.ndarray:
    """The (n, 3) float fields of CSV data rows, by one float() pass over
    all of them; ValueError names what is wrong with a bad row."""
    if any(s.count(",") != 2 for s in rows):
        raise ValueError("expected 3 comma-separated fields")
    flat = np.array(list(map(float, ",".join(rows).split(",")))) if rows else np.empty(0)
    if not np.isfinite(flat).all():
        raise ValueError("fields must be finite numbers")
    return flat.reshape(-1, 3)


def load_sampled_pulse(path) -> SampledPulse:
    """Load a pulse from CSV with header ``nu,re,im``.

    The frequency column must be strictly increasing and uniformly spaced
    with at least 3 rows.  Samples are renormalized to unit trapezoid L2
    norm; the applied scale factor is recorded on the returned pulse.
    """
    path = Path(path)
    # (file line number, text) of the non-blank lines.
    lines = [(k, s) for k, ln in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if (s := ln.strip())]
    if not lines or lines[0][1].replace(" ", "") != _CSV_HEADER:
        raise ParseError(f"{path}: expected header '{_CSV_HEADER}'")
    try:
        fields = _csv_fields([s for _, s in lines[1:]])
    except ValueError:
        # Name the file line of the first bad row.
        for k, s in lines[1:]:
            try:
                _csv_fields([s])
            except ValueError as exc:
                raise ParseError(f"{path}:{k}: {exc}") from exc
        raise
    if len(fields) < 3:
        raise ParseError(f"{path}: need at least 3 samples, got {len(fields)}")
    nu, re, im = fields.T
    if not np.all(np.diff(nu) > 0):
        raise NonMonotoneGrid(f"{path}: nu column must be strictly increasing")
    spacing = np.diff(nu)
    if np.max(spacing) - np.min(spacing) > 1e-6 * np.mean(spacing):
        raise ParseError(f"{path}: nu column must be uniformly spaced")
    grid = FrequencyGrid(min=float(nu[0]), max=float(nu[-1]), n=nu.size)
    # Set as parts: re + 1j * im is not always complex(re, im), bit for bit.
    values = np.empty(nu.size, dtype=complex)
    values.real, values.imag = re, im
    return make_sampled_pulse(grid, values)


def save_sampled_pulse(pulse: SampledPulse, path) -> None:
    """Emit a pulse as CSV in the format accepted by load_sampled_pulse."""
    pts = pulse.grid.points
    lines = [_CSV_HEADER]
    for nu, v in zip(pts, pulse.values):
        lines.append(f"{float(nu)!r},{float(v.real)!r},{float(v.imag)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
