"""Tests for the adaptive line integrals and grid rules."""

import math

import numpy as np
import pytest

from photonsim.errors import NoConvergence, ShapeMismatch
from photonsim.model import (
    FrequencyGrid,
    LorentzianPulse,
    NetworkParams,
    TwoPhotonInput,
    pulse_amplitude,
    tabulate_pulse,
)
from photonsim.oracle import residue_j
from photonsim.quadrature import (
    QuadConfig,
    QuadResult,
    graded_seeds,
    integrate_grid_2d,
    integrate_half_line_multi,
    integrate_line,
    integrate_lines,
    j_line,
    j_lines,
    trapezoid_weights,
)


def test_constant_integrand():
    res = integrate_line(lambda x: np.ones_like(x), 0.0, 2.0)
    assert res.value == pytest.approx(2.0, abs=1e-14)
    assert res.abs_error_estimate < 1e-12
    assert res.evaluations >= 15


def test_polynomial_exactness():
    # The embedded low-order rule is exact through degree 13, so any
    # polynomial up to that degree integrates with no subdivision error.
    rng = np.random.default_rng(4)
    for deg in (3, 7, 13):
        coeffs = rng.uniform(-1, 1, deg + 1)
        a, b = -1.7, 2.4
        exact = sum(c / (k + 1) * (b ** (k + 1) - a ** (k + 1)) for k, c in enumerate(coeffs))
        res = integrate_line(lambda x: np.polynomial.polynomial.polyval(x, coeffs), a, b)
        assert abs(res.value - exact) <= 1e-13 * max(1.0, abs(exact))


def test_lorentzian_line_integral():
    # Antiderivative oracle: integral of 1/(x^2+1) over [-1000, 1000]
    # equals 2*atan(1000) (which is pi only up to the 2e-3 tail).
    res = integrate_line(lambda x: 1.0 / (x**2 + 1.0), -1000.0, 1000.0, seeds=[0.0])
    assert res.value.real == pytest.approx(2.0 * math.atan(1000.0), abs=1e-8)


def test_complex_exponential_full_period():
    res = integrate_line(lambda x: np.exp(1j * x), 0.0, 2.0 * math.pi)
    assert abs(res.value) < 1e-10


def test_no_convergence_carries_partial():
    cfg = QuadConfig(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=3)
    with pytest.raises(NoConvergence) as exc_info:
        integrate_line(lambda x: np.abs(x - math.pi / 10) ** 0.51, 0.0, 1.0, cfg)
    partial = exc_info.value.partial
    assert partial is not None
    assert partial.abs_error_estimate > 0


def test_non_finite_error_fails_at_once():
    # A NaN error estimate once let a segment bisect through its whole
    # budget and then return NaN as converged.
    with pytest.raises(NoConvergence) as exc_info:
        integrate_lines(lambda x, _line: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0)
    assert exc_info.value.partial.evaluations == 15


def test_integrate_line_is_one_line_of_integrate_lines():
    # The one-line form returns the batched engine's own numbers, bit for
    # bit: value, error estimate and evaluation count.
    def f(x):
        return 1.0 / ((x - 0.3) ** 2 + 1e-4) + 1j * np.cos(3.0 * x)

    cfg = QuadConfig(rel_tol=1e-12)
    seeds = [0.0, 0.3, 7.5, 99.0]
    res = integrate_line(f, -20.0, 40.0, cfg, seeds=seeds)
    values, errors, evals = integrate_lines(lambda x, line: f(x), -20.0, 40.0, cfg, seeds=[seeds])
    assert res.value == complex(values[0])
    assert res.abs_error_estimate == float(errors[0])
    assert res.evaluations == int(evals[0])
    assert res.evaluations > 15 * len(seeds)  # it had to refine
    with pytest.raises(ValueError):
        integrate_line(f, 1.0, 1.0)


def test_half_line_map():
    values, _, _ = integrate_half_line_multi(lambda x, line: 1.0 / x**2, 1.0, +1, 5.0, QuadConfig())
    assert values[0].real == pytest.approx(1.0, abs=1e-10)
    values, _, _ = integrate_half_line_multi(lambda x, line: 1.0 / x**2, -1.0, -1, 5.0, QuadConfig())
    assert values[0].real == pytest.approx(1.0, abs=1e-10)


def test_vector_half_lines_both_directions():
    # [x^-2, x^-4] beyond +1 and below -1 integrate to [1, 1/3]; x^-3
    # flips sign with the direction.
    def f(x, line):
        return np.stack([x**-2, x**-4, x**-3])

    values, errors, evals = integrate_half_line_multi(f, [1.0, -1.0], [1, -1], 5.0)
    assert values.shape == (2, 3)
    np.testing.assert_allclose(values.real, [[1.0, 1 / 3, 0.5], [1.0, 1 / 3, -0.5]], atol=1e-10)
    assert np.all(errors <= 1e-8)
    assert isinstance(evals, int) and evals >= 30


def lorentz_pair(centres):
    def f(x, line):
        c = centres[line]
        return np.stack([1.0 / (1.0 + (x - c) ** 2), np.exp(-np.abs(x - c)) / (1.0 + x**2)])

    return f


def test_batched_lines_match_lines_run_alone():
    # Refinement decisions for one integral never look at the others, so
    # each line takes the same panels in a batch as alone.
    centres = np.array([0.5, 1.0, 3.0, 7.0, 0.2])
    f = lorentz_pair(centres)
    edge, direction = [1.0, -1.0, 2.0, -3.0, 0.5], [1, -1, 1, -1, 1]
    values, errors, evals = integrate_half_line_multi(f, edge, direction, 5.0)
    total = 0
    for i in range(5):
        alone = lorentz_pair(centres[i:])
        v, e, n = integrate_half_line_multi(alone, edge[i], direction[i], 5.0)
        np.testing.assert_allclose(v[0], values[i], rtol=1e-14, atol=0)
        assert e[0] == pytest.approx(errors[i], rel=1e-12)
        total += n
    assert total == evals
    lo, hi, seeds = [-2.0, 35.0, 0.0], [3.0, 50.0, 1.0], [[0.5], [40.0], [0.2]]
    values, errors, evals = integrate_lines(f, lo, hi, seeds=seeds, tails=(-1.0, 1.0))
    for i in range(3):
        alone = lorentz_pair(centres[i:])
        v, e, n = integrate_lines(alone, lo[i], hi[i], seeds=[seeds[i]], tails=(-1.0, 1.0))
        np.testing.assert_allclose(v[0], values[i], rtol=1e-14, atol=0)
        assert n[0] == evals[i]
    # Windows plus tails cover the whole line: pi for the first component.
    np.testing.assert_allclose(values[:, 0].real, np.pi, atol=1e-9)


def test_half_line_no_convergence_names_lowest_failing_line():
    # With scale = edge = 1, x^-2 maps to a constant in u and converges on
    # one panel; the kink of exp(-|x - 3|) cannot meet 1e-13 in 4 splits.
    cfg = QuadConfig(rel_tol=1e-13, abs_tol=1e-300, max_subdivisions=4)
    hard = np.array([False, False, True, False, True])

    def f(x, line):
        return np.where(hard[line], np.exp(-np.abs(x - 3.0)), x**-2) * np.array([1.0, 2.0])[:, None, None]

    with pytest.raises(NoConvergence) as exc_info:
        integrate_half_line_multi(f, np.ones(5), 1, 1.0, cfg)
    exc = exc_info.value
    assert exc.node == 2
    assert "half-line" in str(exc)
    assert exc.partial.value.shape == (2,)
    assert exc.partial.value[1] == pytest.approx(2.0 * exc.partial.value[0])
    assert exc.partial.abs_error_estimate > 0 and exc.partial.evaluations > 0
    values, _, _ = integrate_half_line_multi(f, np.ones(5), 1, 1.0, QuadConfig())
    np.testing.assert_allclose(values[~hard].real, [[1.0, 2.0]] * 3, atol=1e-12)


def test_vector_columns_equal_the_scalar_integral():
    # A component-major integrand whose 3 rows are one scalar function:
    # every column is the scalar integral bit for bit, with the same error
    # estimates and evaluation counts, windows and both mapped tails alike.
    def g(x, line):
        return 1.0 / (1.0 + (x - line) ** 2) + 1j * np.exp(-0.5 * x**2) / (1.0 + x**2)

    lo, hi, seeds = [-2.0, 35.0, 0.0], [3.0, 50.0, 1.0], [[0.5], [40.0], [0.2]]
    want, want_err, want_evals = integrate_lines(g, lo, hi, seeds=seeds, tails=(-1.0, 1.0))
    values, errors, evals = integrate_lines(lambda x, line: np.stack([g(x, line)] * 3), lo, hi,
                                            seeds=seeds, tails=(-1.0, 1.0))
    assert values.shape == (3, 3)
    for c in range(3):
        np.testing.assert_array_equal(values[:, c], want)
    np.testing.assert_array_equal(errors, want_err)
    np.testing.assert_array_equal(evals, want_evals)
    assert np.all(evals > 15 * 4)  # it had to refine


@pytest.mark.parametrize(
    "f",
    [lambda x, line: np.stack([x**-2, x**-4], axis=-1), lambda x, line: x[:, :1] ** -2],
    ids=["node-major-vector", "short-rows"],
)
def test_values_that_do_not_end_in_the_node_shape_are_rejected(f):
    # An (r, 15, k) result would otherwise be reshaped into wrong numbers.
    with pytest.raises(ShapeMismatch, match="do not end in"):
        integrate_half_line_multi(f, [1.0, -1.0], [1, -1], 5.0)
    with pytest.raises(ShapeMismatch, match="do not end in"):
        integrate_lines(f, 1.0, 2.0)


def test_graded_seeds():
    # Each feature, then c +- d 3^j for j = 0..5, per row of features.
    seeds = graded_seeds([[0.0, 10.0], [1.0, -1.0]], [0.5, 2.0])
    assert seeds.shape == (2, 26)
    np.testing.assert_array_equal(seeds[:, :2], [[0.0, 10.0], [1.0, -1.0]])
    offsets = 3.0 ** np.arange(6)
    want = np.concatenate([-0.5 * offsets, 0.5 * offsets, 10.0 - 2.0 * offsets, 10.0 + 2.0 * offsets])
    np.testing.assert_array_equal(seeds[0, 2:], want)


def test_graded_seeds_reach_the_widest_feature():
    # A narrow feature is graded out to the widest one's scale: 1e4 / 1
    # needs J = ceil(log3(1e4)) = 9; the widest keeps J = 5, and a zero
    # distance (kappa = 0) too.
    seeds = graded_seeds([0.0, 5.0, 7.0], [1.0, 1e4, 0.0])
    assert seeds.shape == (3 + 2 * 10 + 2 * 6 + 2 * 6,)
    offsets = 3.0 ** np.arange(10)
    np.testing.assert_array_equal(seeds[3:23], np.concatenate([-offsets, offsets]))
    np.testing.assert_array_equal(seeds[23:35], 5.0 + 1e4 * np.concatenate([-offsets[:6], offsets[:6]]))
    np.testing.assert_array_equal(seeds[35:], 7.0)


def test_break_points_that_agree_to_rounding_are_merged():
    # Seeds a few ulps apart (mirrored features, kinks of two tabulated
    # pulses) are one break point: 3 panels of 15 evaluations, not 5 with
    # two slivers.  lo is kept, and so is hi against a seed just below it.
    seeds = [[np.nextafter(1.0, 2.0), 2.0, np.nextafter(2.0, 3.0) + 4e-16, 3.0, np.nextafter(4.0, 0.0)]]
    values, _, evals = integrate_lines(lambda x, _line: np.ones_like(x), 1.0, 4.0, seeds=seeds)
    assert evals[0] == 45
    assert values[0] == pytest.approx(3.0, abs=1e-14)
    # Seeds further apart than the merge tolerance stay.
    _, _, evals = integrate_lines(lambda x, _line: np.ones_like(x), 1.0, 4.0, seeds=[[2.0, 2.0 + 1e-12]])
    assert evals[0] == 45


def test_grid_2d_constant():
    grid = FrequencyGrid(0.0, 1.0, 3)
    assert integrate_grid_2d(np.ones((3, 3)), grid, grid) == pytest.approx(1.0, abs=1e-14)


def test_grid_2d_separable_factorizes():
    g1 = FrequencyGrid(-1.0, 2.0, 17)
    g2 = FrequencyGrid(0.0, 5.0, 23)
    rng = np.random.default_rng(8)
    f = rng.normal(size=17) + 1j * rng.normal(size=17)
    g = rng.normal(size=23) + 1j * rng.normal(size=23)
    lhs = integrate_grid_2d(np.outer(f, g), g1, g2)
    rhs = np.trapezoid(f, g1.points) * np.trapezoid(g, g2.points)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))
    # A strided real input on the every-second-point sub-grid and a full
    # 801 x 801 complex one agree with the plain matrix products.
    wide = FrequencyGrid(-40.0, 40.0, 801)
    m = rng.normal(size=(801, 801))
    sub = FrequencyGrid(-40.0, 40.0, 401)
    for values, grid in ((m[::2, ::2], sub), (m + 1j * rng.normal(size=(801, 801)), wide)):
        w = trapezoid_weights(grid)
        want = w @ values @ w
        assert abs(integrate_grid_2d(values, grid, grid) - want) <= 1e-13 * abs(want)


def test_grid_2d_lorentzian_product_mass():
    # Squared-arctan oracle for the windowed product mass; the window
    # [-200, 200] holds all but 2*atan(1/400)/pi of each factor.
    grid = FrequencyGrid(-200.0, 200.0, 2001)
    xi2 = np.abs(pulse_amplitude(LorentzianPulse(1.0), grid.points)) ** 2
    got = integrate_grid_2d(np.outer(xi2, xi2), grid, grid).real
    oracle = (2.0 * math.atan(400.0) / math.pi) ** 2
    assert got == pytest.approx(oracle, abs=1e-6)
    assert got == pytest.approx(1.0, abs=5e-3)


def test_grid_2d_shape_mismatch():
    g1 = FrequencyGrid(0.0, 1.0, 3)
    g2 = FrequencyGrid(0.0, 1.0, 4)
    with pytest.raises(ShapeMismatch):
        integrate_grid_2d(np.ones((3, 3)), g1, g2)


def test_convolve_zero_coupling_is_exact_zero():
    inp = TwoPhotonInput(LorentzianPulse(1.0), LorentzianPulse(1.0))
    res = j_line(0.3 - 0.8, inp, NetworkParams(kappa=0.0))
    assert res == QuadResult(0.0j, 0.0, 0)


def test_convolve_matches_residue_oracle():
    inp = TwoPhotonInput(LorentzianPulse(1.0), LorentzianPulse(1.0))
    params = NetworkParams(1.5, 0.0)
    for s in (0.0, 0.3 - 0.2, 2.0 + 1.0):
        got = j_line(s, inp, params).value
        want = residue_j(s, 1.0, 1.0, 0.0, params)
        assert abs(got - want) <= 1e-6 * max(abs(want), 1e-12)


def test_convolve_no_convergence_names_the_piece():
    # A starved budget fails inside the one engine call, whose message
    # names the piece (window, left tail or right tail) that ran out.
    inp = TwoPhotonInput(LorentzianPulse(1.0), LorentzianPulse(1.0))
    cfg = QuadConfig(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=1)
    with pytest.raises(NoConvergence) as exc_info:
        j_line(0.3 - 0.7, inp, NetworkParams(1.5, 0.0), cfg)
    assert "of its window " in str(exc_info.value)
    partial = exc_info.value.partial
    assert partial is not None
    assert partial.abs_error_estimate > 0
    assert partial.evaluations > 0


@pytest.mark.parametrize(
    "lo, hi, tails, want",
    [(0.0, 1.0, (1.0,), math.pi / 2), (-1.0, 0.0, (-1.0,), math.pi / 2), (-1.0, 1.0, (-1.0, 1.0), math.pi)],
    ids=["right", "left", "both"],
)
def test_integrate_lines_tails_on_either_side(lo, hi, tails, want):
    # Each listed side adds its half-line: -1 below lo, +1 above hi.
    values, _, _ = integrate_lines(lambda x, _line: 1.0 / (1.0 + x**2), lo, hi, tails=tails)
    assert values[0] == pytest.approx(want, abs=1e-12)


def test_integrate_lines_names_the_starved_tail():
    # Line 1 has a narrow peak beyond its window's left edge.  Its window
    # converges, and its left tail runs out of a budget of 2 subdivisions.
    cfg = QuadConfig(abs_tol=1e-300, max_subdivisions=2)

    def f(x, line):
        return 1.0 / (1.0 + x**2) + line / (1e-4 + (x + 30.0) ** 2)

    integrate_lines(f, [-1.0, -1.0], [1.0, 1.0], cfg)
    with pytest.raises(NoConvergence) as exc_info:
        integrate_lines(f, [-1.0, -1.0], [1.0, 1.0], cfg, tails=(-1.0, 1.0))
    assert exc_info.value.node == 1
    assert "of its left tail " in str(exc_info.value)
    partial = exc_info.value.partial
    assert partial is not None
    assert partial.abs_error_estimate > 0
    assert partial.evaluations > 0


_TABULATED = tabulate_pulse(LorentzianPulse(0.8, 0.5), FrequencyGrid(-10.0, 10.0, 81))


@pytest.mark.parametrize(
    ("inp", "params"),
    [
        (TwoPhotonInput(LorentzianPulse(0.6, 0.3), LorentzianPulse(1.8, -0.4)), NetworkParams(0.7, -1.3)),
        (TwoPhotonInput(_TABULATED, LorentzianPulse(1.3)), NetworkParams(1.5, 0.5)),
        (TwoPhotonInput(LorentzianPulse(1.0), LorentzianPulse(1.0)), NetworkParams(0.0)),
    ],
    ids=["distinct-lorentzian", "tabulated-x-lorentzian", "zero-coupling"],
)
def test_convolve_batch_equals_per_pair_calls(inp, params):
    # One engine line per frequency sum: a batch over the sums of a 9 x 9
    # grid reproduces the scalar calls bit for bit, in value, error
    # estimate and evaluation count.
    w = np.linspace(-5.0, 5.0, 9)
    sums = (w[:, None] + w[None, :]).ravel()
    values, errors, evals = j_lines(sums, inp, params)
    assert values.shape == errors.shape == evals.shape == (81,)
    for i, s in enumerate(sums):
        one = j_line(float(s), inp, params)
        assert isinstance(one.value, complex)
        assert one == QuadResult(values[i], errors[i], evals[i])
    if params.kappa == 0.0:
        assert not values.any() and not evals.any()


def test_convolve_reversal_symmetry_identical_pulses():
    # Substituting nu -> (frequency sum - nu) relabels the two pulse
    # factors; for identical pulses the integral must not move.
    pulse = LorentzianPulse(1.3, 0.2)
    inp = TwoPhotonInput(pulse, pulse)
    params = NetworkParams(0.8, 0.5)
    w1, w2 = 0.7, -1.1
    omega_sum = w1 + w2
    from photonsim.kernels import g_kernel

    def forward(nu):
        return (
            pulse_amplitude(pulse, nu)
            * pulse_amplitude(pulse, omega_sum - nu)
            * g_kernel(w1, w2, nu, omega_sum - nu, params)
        )

    def reversed_integrand(nu):
        swapped = omega_sum - nu
        return (
            pulse_amplitude(pulse, swapped)
            * pulse_amplitude(pulse, omega_sum - swapped)
            * g_kernel(w1, w2, swapped, omega_sum - swapped, params)
        )

    a = integrate_line(forward, -80.0, 80.0, seeds=[0.0, omega_sum]).value
    b = integrate_line(reversed_integrand, -80.0, 80.0, seeds=[0.0, omega_sum]).value
    assert abs(a - b) < 1e-10


def test_error_estimate_soundness_on_kernel_family():
    # True error (against the residue oracle) within 10x the estimate, up
    # to 1e-14, on every randomized parameter draw.
    rng = np.random.default_rng(3)
    for _ in range(200):
        kappa = rng.uniform(0.1, 20)
        wc = rng.uniform(-10, 10)
        gamma = rng.uniform(0.2, 5)
        params = NetworkParams(kappa, wc)
        inp = TwoPhotonInput(LorentzianPulse(gamma), LorentzianPulse(gamma))
        w1, w2 = rng.uniform(-6, 6, 2)
        res = j_line(w1 + w2, inp, params)
        want = residue_j(w1 + w2, gamma, gamma, 0.0, params)
        assert abs(res.value - want) <= 10.0 * res.abs_error_estimate + 1e-14


def test_quad_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadConfig(max_subdivisions=0)
    # A NaN tolerance never lets a segment converge; an infinite one accepts
    # every panel on its first pass.
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            QuadConfig(rel_tol=tol)
        with pytest.raises(ValueError, match="finite"):
            QuadConfig(abs_tol=tol)
