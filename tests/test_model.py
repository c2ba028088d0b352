"""Tests for pulse shapes, grids, parameters, and CSV ingestion."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photonsim.errors import NonMonotoneGrid, ParseError, ValidationError, ZeroNorm
from photonsim.model import (
    FrequencyGrid,
    LorentzianPulse,
    NetworkParams,
    SampledPulse,
    TwoPhotonInput,
    load_sampled_pulse,
    lorentzian_pair,
    make_sampled_pulse,
    pulse_amplitude,
    pulse_tail_mass,
    save_sampled_pulse,
    tabulate_pulse,
)
from photonsim.observables import single_photon_norm

SQRT_2PI = math.sqrt(2 * math.pi)


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


# A pass-through network (kappa = 0) keeps the pulse, so its output norm
# is the input's: the whole-line integral of |amplitude|^2 for Lorentzian
# pulses and the defining trapezoid norm for sampled ones.
PASS_THROUGH = NetworkParams(0.0)


def test_pulse_norm_sq_lorentzian():
    assert single_photon_norm(LorentzianPulse(1.0), PASS_THROUGH) == pytest.approx(1.0, abs=1e-4)
    assert single_photon_norm(LorentzianPulse(4.0), PASS_THROUGH) == pytest.approx(1.0, abs=1e-4)


def test_pulse_norm_sq_window_bounds():
    rng = np.random.default_rng(0)
    for _ in range(20):
        gamma = rng.uniform(0.2, 3.0)
        omega_o = rng.uniform(-2.0, 2.0)
        norm = single_photon_norm(LorentzianPulse(gamma, omega_o), PASS_THROUGH)
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
    assert single_photon_norm(pulse, PASS_THROUGH) == pytest.approx(1.0, abs=1e-6)


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


def test_parse_errors_name_the_file_line_across_blank_lines(tmp_path):
    # Blank lines are skipped but still counted: the bad row is line 5.
    path = tmp_path / "gaps.csv"
    path.write_text("nu,re,im\n\n0,1,0\n\n1,x,0\n2,1,0\n")
    with pytest.raises(ParseError, match=r"gaps\.csv:5: "):
        load_sampled_pulse(path)


def test_sampled_tail_mass_counts_every_cell_not_inside():
    # Unit samples on 0..10: the cells [0, 3] and [7, 10] lie outside [3, 7].
    flat = SampledPulse(FrequencyGrid(0.0, 10.0, 11), np.ones(11, dtype=complex))
    assert pulse_tail_mass(flat, 3.0, 7.0) == 6.0
    assert pulse_tail_mass(flat, 0.0, 10.0) == 0.0
    assert pulse_tail_mass(flat, 3.5, 7.0) == 7.0  # [3, 4] is partly outside
    # Against the interpolant's own mass beyond +-7.5, 1.089e-2: counting
    # half of each boundary cell as inside once gave 9.45e-3.
    tab = tabulate_pulse(LorentzianPulse(1.0), FrequencyGrid(-10.0, 10.0, 41))
    assert pulse_tail_mass(tab, -7.5, 7.5) == pytest.approx(1.0898e-2, abs=1e-6)


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


_PART = st.floats(-1e3, 1e3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    lo=st.floats(-20.0, 20.0),
    width=st.floats(0.1, 50.0),
    n=st.integers(3, 40),
    data=st.data(),
)
def test_sampled_amplitude_is_one_complex_interpolation(lo, width, n, data):
    # Sampled pulses interpolate the complex samples in one pass; that must
    # agree with interpolating the real and imaginary parts apart to
    # rounding, hit the samples exactly and vanish outside the grid.
    grid = FrequencyGrid(lo, lo + width, n)
    parts = data.draw(st.lists(st.tuples(_PART, _PART), min_size=n, max_size=n))
    pulse = SampledPulse(grid, np.array([complex(re, im) for re, im in parts]))
    values, pts = pulse.values, grid.points
    nodes = st.lists(st.floats(lo - 5.0, lo + width + 5.0), min_size=1, max_size=30)
    nodes = np.array(data.draw(nodes))
    got = pulse_amplitude(pulse, nodes)
    split = np.interp(nodes, pts, values.real, left=0.0, right=0.0) + 1j * np.interp(
        nodes, pts, values.imag, left=0.0, right=0.0
    )
    assert np.all(np.abs(got - split) <= 4 * np.finfo(float).eps * np.max(np.abs(values)))
    outside = (nodes < grid.min) | (nodes > grid.max)
    assert np.all(got[outside] == 0.0)
    assert np.array_equal(pulse_amplitude(pulse, pts), values)
    k = data.draw(st.integers(0, n - 1))
    node = pulse_amplitude(pulse, float(pts[k]))
    assert type(node) is complex and node == values[k]
    assert type(pulse_amplitude(pulse, grid.max + 1.0)) is complex


def _load_row_by_row(path):
    """The pulse CSV parse of one split and one float() per field, row by
    row: the reference for load_sampled_pulse's one-pass parse."""
    lines = [(k, s) for k, ln in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if (s := ln.strip())]
    if not lines or lines[0][1].replace(" ", "") != "nu,re,im":
        raise ParseError(f"{path}: expected header 'nu,re,im'")
    rows = []
    for k, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise ParseError(f"{path}:{k}: expected 3 comma-separated fields")
        try:
            rows.append(tuple(float(p) for p in parts))
        except ValueError as exc:
            raise ParseError(f"{path}:{k}: {exc}") from exc
        if not all(map(math.isfinite, rows[-1])):
            raise ParseError(f"{path}:{k}: fields must be finite numbers")
    if len(rows) < 3:
        raise ParseError(f"{path}: need at least 3 samples, got {len(rows)}")
    nu = np.array([r[0] for r in rows])
    if not np.all(np.diff(nu) > 0):
        raise NonMonotoneGrid(f"{path}: nu column must be strictly increasing")
    spacing = np.diff(nu)
    if np.max(spacing) - np.min(spacing) > 1e-6 * np.mean(spacing):
        raise ParseError(f"{path}: nu column must be uniformly spaced")
    grid = FrequencyGrid(min=float(nu[0]), max=float(nu[-1]), n=len(rows))
    return make_sampled_pulse(grid, np.array([complex(r[1], r[2]) for r in rows]))


def _load_outcome(load, path):
    """A loaded pulse's grid, sample bits and scale, or the error raised."""
    try:
        pulse = load(path)
    except (ParseError, NonMonotoneGrid, ValidationError, ZeroNorm) as exc:
        return type(exc), str(exc)
    return pulse.grid, pulse.values.tobytes(), pulse.scale_applied


_FIELD = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, -2.5e-300, 6.02e23, 5e-324]),
    st.floats(-1e150, 1e150),  # squares stay finite in the renormalization
)
_STYLES = st.sampled_from(["{!r}", "{:.6e}", "{:.17g}", "{:g}", "{:E}"])
_PADS = st.sampled_from(["", " ", "  "])
_BLANKS = st.lists(st.sampled_from(["", "  ", "\t"]), max_size=2)
# Rows that fail one of the parse checks.
_BAD_ROWS = ["1,2", "1,2,3,4", "x,1,0", "1,,0", "0,1e,0", "0,nan,0", "0,1,-inf", "inf,0,1"]


@st.composite
def _pulse_csv(draw):
    """Pulse CSV text: spaced fields in mixed notations between blank
    lines, the frequencies decreasing now and then, and at most one
    malformed row."""
    start, step = draw(st.sampled_from([-2.5, 0.0, 1e-3, 3.0])), draw(st.sampled_from([0.5, 1.0, 0.1, 2e-3]))
    n = draw(st.integers(0, 7))
    order = range(n - 1, -1, -1) if draw(st.integers(0, 7)) == 0 else range(n)
    rows = [",".join(draw(_PADS) + draw(_STYLES).format(x) + draw(_PADS)
                     for x in (start + i * step, draw(_FIELD), draw(_FIELD))) for i in order]
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_BAD_ROWS))
    out = ["nu,re,im"]
    for row in rows:
        out += [*draw(_BLANKS), row]
    return "\n".join(out + draw(_BLANKS)) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_pulse_csv())
@example("nu,re,im\n\n0, -0.0 ,1.5e-3\n  \n5.0e-1,-1.25E+2,-0.0\n1.0,  2e0,3\n\n")
@example("nu,re,im\n0,1,0\n\n1,inf,0\n2,x,0\n")
def test_one_pass_parse_matches_the_row_by_row_parse(tmp_path_factory, text):
    # Same grid, same sample bits (signed zeros included) and same scale,
    # or the same error naming the same file line.
    path = tmp_path_factory.getbasetemp() / "pulse.csv"
    path.write_text(text, encoding="utf-8")
    assert _load_outcome(load_sampled_pulse, path) == _load_outcome(_load_row_by_row, path)


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


_GAMMAS, _CENTRES = st.floats(1e-3, 1e3), st.floats(-100.0, 100.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    x=st.builds(LorentzianPulse, _GAMMAS, _CENTRES),
    y=st.builds(LorentzianPulse, _GAMMAS, _CENTRES),
    nu=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
    mu=st.floats(-1e6, 1e6),
)
def test_lorentzian_pair_is_the_product_of_amplitudes(x, y, nu, mu):
    nu = np.array(nu)
    want = pulse_amplitude(x, nu) * pulse_amplitude(y, mu)
    got = lorentzian_pair(x, y, nu, mu)
    assert got.shape == nu.shape
    assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * np.abs(want))
