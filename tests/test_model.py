"""Tests for pulse shapes, grids, parameters, and CSV ingestion."""

import math

import numpy as np
import pytest

from photonsim.errors import (
    NonMonotoneGrid,
    ParseError,
    ValidationError,
    WindowTooNarrow,
    ZeroNorm,
)
from photonsim.model import (
    FrequencyGrid,
    LorentzianPulse,
    NetworkParams,
    SampledPulse,
    TwoPhotonInput,
    load_sampled_pulse,
    make_sampled_pulse,
    pulse_amplitude,
    pulse_norm_sq,
    save_sampled_pulse,
    tabulate_pulse,
)

SQRT_2PI = math.sqrt(2 * math.pi)


def test_network_params_alpha():
    p = NetworkParams(kappa=1.5, omega_c=-0.7)
    assert p.alpha() == complex(-1.5, 0.7)


def test_network_params_validation():
    with pytest.raises(ValidationError):
        NetworkParams(kappa=-0.1)
    with pytest.raises(ValidationError):
        NetworkParams(kappa=float("nan"))


def test_frequency_grid_validation():
    with pytest.raises(ValidationError):
        FrequencyGrid(1.0, 1.0, 5)
    with pytest.raises(ValidationError):
        FrequencyGrid(0.0, 1.0, 2)
    g = FrequencyGrid(-1.0, 1.0, 5)
    assert g.spacing == pytest.approx(0.5)
    assert np.allclose(g.points, [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_frequency_grid_stores_an_integer_count():
    # A float count that is an integer is accepted and stored as an int, so
    # points works and equal grids compare and hash equal.
    g = FrequencyGrid(0.0, 1.0, 5.0)
    assert type(g.n) is int
    assert np.array_equal(g.points, FrequencyGrid(0.0, 1.0, 5).points)
    assert g == FrequencyGrid(0.0, 1.0, 5) and hash(g) == hash(FrequencyGrid(0.0, 1.0, 5))
    for bad in (5.5, float("inf"), float("nan")):
        with pytest.raises(ValidationError):
            FrequencyGrid(0.0, 1.0, bad)


def test_lorentzian_amplitude_at_center():
    # Hand evaluation at the line center: prefactor over -gamma/2.
    val = pulse_amplitude(LorentzianPulse(gamma=1.0, omega_o=0.0), 0.0)
    assert val == pytest.approx(-2.0 / SQRT_2PI, abs=1e-12)
    assert abs(val.imag) < 1e-15


def test_lorentzian_amplitude_hand_value():
    # gamma=2 shifted to omega_o=1, evaluated at nu=-1: sqrt(2)/(-1) / sqrt(2 pi).
    val = pulse_amplitude(LorentzianPulse(gamma=2.0, omega_o=1.0), -1.0)
    assert val == pytest.approx(-math.sqrt(2.0) / SQRT_2PI, abs=1e-12)


def test_lorentzian_amplitude_decay():
    pulse = LorentzianPulse(gamma=1.0, omega_o=0.0)
    nus = np.array([0.5, 1.0, 5.0, 50.0, 5000.0])
    mags = np.abs(pulse_amplitude(pulse, nus))
    assert np.all(np.diff(mags) < 0)
    mags_neg = np.abs(pulse_amplitude(pulse, -nus))
    assert np.all(np.diff(mags_neg) < 0)


def test_lorentzian_intensity_formula():
    # |amplitude|^2 must equal the Lorentzian line shape pointwise.
    rng = np.random.default_rng(42)
    for _ in range(200):
        gamma = rng.uniform(0.1, 5.0)
        omega_o = rng.uniform(-3.0, 3.0)
        nu = rng.uniform(-100.0, 100.0)
        got = abs(pulse_amplitude(LorentzianPulse(gamma, omega_o), nu)) ** 2
        want = gamma / (2 * math.pi) / ((nu + omega_o) ** 2 + gamma**2 / 4)
        assert got == pytest.approx(want, rel=1e-12)


def test_pulse_norm_sq_lorentzian():
    # The analytic tail is added back, so the result is the full-line norm.
    window = FrequencyGrid(-200.0, 200.0, 20001)
    assert pulse_norm_sq(LorentzianPulse(1.0), window) == pytest.approx(1.0, abs=1e-4)
    window4 = FrequencyGrid(-400.0, 400.0, 20001)
    assert pulse_norm_sq(LorentzianPulse(4.0), window4) == pytest.approx(1.0, abs=1e-4)


def test_pulse_norm_sq_window_bounds():
    rng = np.random.default_rng(0)
    for _ in range(20):
        gamma = rng.uniform(0.2, 3.0)
        omega_o = rng.uniform(-2.0, 2.0)
        half = 100.0 * gamma * rng.uniform(1.0, 3.0)
        window = FrequencyGrid(-omega_o - half, -omega_o + half, 4001)
        norm = pulse_norm_sq(LorentzianPulse(gamma, omega_o), window)
        assert 0.99 <= norm <= 1.0 + 1e-9


def test_sampled_pulse_norm():
    grid = FrequencyGrid(0.0, 2.0, 3)
    pulse = make_sampled_pulse(grid, [1.0, 0.0, 0.0])
    norm = np.trapezoid(np.abs(pulse.values) ** 2, grid.points)
    assert norm == pytest.approx(1.0, abs=1e-12)
    assert pulse.scale_applied != 1.0


def test_sampled_pulse_fresh_load_norm(tmp_path):
    path = tmp_path / "pulse.csv"
    path.write_text("nu,re,im\n0,1,0\n1,0,0\n2,0,0\n")
    pulse = load_sampled_pulse(path)
    assert pulse_norm_sq(pulse, pulse.grid) == pytest.approx(1.0, abs=1e-6)


def test_load_rejects_non_monotone(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nu,re,im\n0,1,0\n0,0,1\n1,0,0\n")
    with pytest.raises(NonMonotoneGrid):
        load_sampled_pulse(path)


def test_load_rejects_zero_norm(tmp_path):
    path = tmp_path / "zero.csv"
    path.write_text("nu,re,im\n0,0,0\n1,0,0\n2,0,0\n")
    with pytest.raises(ZeroNorm):
        load_sampled_pulse(path)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nu,re,im\n0,1\n1,0,0\n2,0,0\n")
    with pytest.raises(ParseError):
        load_sampled_pulse(path)
    path.write_text("freq,re,im\n0,1,0\n1,0,0\n2,0,0\n")
    with pytest.raises(ParseError):
        load_sampled_pulse(path)
    path.write_text("nu,re,im\n0,1,0\n1,0,0\n")
    with pytest.raises(ParseError):
        load_sampled_pulse(path)
    path.write_text("nu,re,im\n0,1,0\n1,0,0\n5,0,0\n")
    with pytest.raises(ParseError):
        load_sampled_pulse(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_samples_are_rejected(tmp_path, bad):
    grid = FrequencyGrid(0.0, 2.0, 3)
    with pytest.raises(ValidationError):
        make_sampled_pulse(grid, [1.0, float(bad), 0.5])
    path = tmp_path / "bad.csv"
    path.write_text(f"nu,re,im\n0,1,0\n1,{bad},0\n2,0.5,0\n")
    with pytest.raises(ParseError, match=":3:"):
        load_sampled_pulse(path)


def test_tabulated_lorentzian_round_trip(tmp_path):
    grid = FrequencyGrid(-50.0, 50.0, 4001)
    pulse = tabulate_pulse(LorentzianPulse(1.0), grid)
    path = tmp_path / "lorentzian.csv"
    save_sampled_pulse(pulse, path)
    loaded = load_sampled_pulse(path)
    got = pulse_amplitude(loaded, 0.5)
    want = pulse_amplitude(LorentzianPulse(1.0), 0.5)
    # Up to the load-time renormalization the round trip is exact at a
    # grid node; the renormalization itself contributes ~1.8e-3 here
    # because the window truncates 0.64% of the mass.
    assert abs(got - want * pulse.scale_applied) < 1e-12
    assert abs(got - want) < 2e-3


def test_csv_round_trip_bit_equal(tmp_path):
    grid = FrequencyGrid(-10.0, 10.0, 101)
    pulse = tabulate_pulse(LorentzianPulse(0.7, 0.3), grid)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    save_sampled_pulse(pulse, first)
    save_sampled_pulse(load_sampled_pulse(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_sampled_interpolation_and_zero_extension():
    grid = FrequencyGrid(0.0, 2.0, 3)
    pulse = SampledPulse(grid, np.array([1.0, 1.0, 1.0], dtype=complex))
    assert pulse_amplitude(pulse, 0.5) == pytest.approx(1.0)
    assert pulse_amplitude(pulse, -0.1) == 0.0
    assert pulse_amplitude(pulse, 2.1) == 0.0


def test_sampled_norm_window_too_narrow():
    grid = FrequencyGrid(-5.0, 5.0, 101)
    pulse = tabulate_pulse(LorentzianPulse(1.0), grid)
    with pytest.raises(WindowTooNarrow):
        pulse_norm_sq(pulse, FrequencyGrid(-1.0, 1.0, 11))


def test_two_photon_input_identical_flag():
    a = LorentzianPulse(1.0, 0.0)
    b = LorentzianPulse(1.0, 0.0)
    c = LorentzianPulse(2.0, 0.0)
    assert TwoPhotonInput(a, b).identical
    assert not TwoPhotonInput(a, c).identical
    grid = FrequencyGrid(-1.0, 1.0, 3)
    s1 = SampledPulse(grid, np.array([1, 2, 1], dtype=complex))
    s2 = SampledPulse(grid, np.array([1, 2, 1], dtype=complex))
    s3 = SampledPulse(grid, np.array([1, 2, 2], dtype=complex))
    assert TwoPhotonInput(s1, s2).identical
    assert not TwoPhotonInput(s1, s3).identical
