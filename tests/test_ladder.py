"""Tests for the batched convolution ladder (quadrature.j_lines on the
integrate_lines engine) against the residue closed form and one-line
integrate_lines calls."""

import tracemalloc

import numpy as np
import pytest

from photonsim.amplitudes import channel_matrices
from photonsim.errors import NoConvergence
from photonsim.model import (
    FrequencyGrid,
    LorentzianPulse,
    NetworkParams,
    TwoPhotonInput,
    make_sampled_pulse,
    pulse_amplitude,
    tabulate_pulse,
)
from photonsim.oracle import residue_j
from photonsim.quadrature import (
    QuadConfig,
    convolution_windows,
    integrate_lines,
    j_line,
    j_lines,
)


def ladder_sums(grid):
    return 2.0 * grid.min + grid.spacing * np.arange(2 * grid.n - 1)


DEFAULT_SUMS = ladder_sums(FrequencyGrid(-40.0, 40.0, 801))


@pytest.mark.parametrize(
    "gamma_l, gamma_r, kappa, omega_c",
    [
        (1.0, 1.0, 1.5, 0.0),  # identical pulses
        (0.7, 1.6, 12.0, 3.0),  # gamma_l != gamma_r
        (1.0, 1.0, 1e-4, 0.0),  # weak coupling
        (1.0, 1.0, 100.0, 0.0),  # strong coupling
        (1.0, 2.0, 0.5, 0.8),  # degenerate double pole: gamma_r = 4 kappa
        (1.0, 1.0, 20.0, 40.0),  # kernel pole at the window edge
    ],
)
def test_ladder_matches_residue_on_default_grid(gamma_l, gamma_r, kappa, omega_c):
    inp = TwoPhotonInput(LorentzianPulse(gamma_l), LorentzianPulse(gamma_r))
    params = NetworkParams(kappa, omega_c)
    values, errors, evals = j_lines(DEFAULT_SUMS, inp, params)
    want = residue_j(DEFAULT_SUMS, gamma_l, gamma_r, 0.0, params)
    assert np.max(np.abs(values - want) / np.abs(want)) <= 1e-9
    assert np.all(evals > 0) and np.all(errors >= 0)


def test_ladder_and_tail_oracle_with_different_centres():
    # The right pulse pole moves with its own centre: at s = 0 and centres
    # (0, 3) the reduced convolution is -4.48e-4 - 2.487e-2i.
    inp = TwoPhotonInput(LorentzianPulse(1.0, 0.0), LorentzianPulse(1.0, 3.0))
    params = NetworkParams(1.5, 0.0)
    assert abs(j_line(0.0, inp, params).value - (-4.4818e-4 - 2.48739e-2j)) < 1e-7
    sums = ladder_sums(FrequencyGrid(-10.0, 10.0, 41))
    for gamma_l, gamma_r, wo_l, wo_r in ((1.0, 1.0, 0.0, 3.0), (0.8, 1.3, -0.5, 2.0)):
        inp = TwoPhotonInput(LorentzianPulse(gamma_l, wo_l), LorentzianPulse(gamma_r, wo_r))
        values, _, _ = j_lines(sums, inp, params)
        for close in ("upper", "lower"):
            want = residue_j(sums, gamma_l, gamma_r, wo_l, params, close, omega_o_r=wo_r)
            assert np.max(np.abs(values - want) / np.abs(want)) <= 1e-9


@pytest.mark.parametrize("kappa", [1e-4, 100.0])
def test_folded_ladder_matches_residue_with_distinct_pulses(kappa):
    # Distinct widths and centres: no mirrored pulse feature falls on
    # another, so every fold of the ladder keeps all its seeds.
    inp = TwoPhotonInput(LorentzianPulse(0.7, -0.6), LorentzianPulse(1.6, 1.1))
    params = NetworkParams(kappa, 0.9)
    values, _, _ = j_lines(DEFAULT_SUMS, inp, params)
    want = residue_j(DEFAULT_SUMS, 0.7, 1.6, -0.6, params, omega_o_r=1.1)
    assert np.max(np.abs(values - want) / np.abs(want)) <= 1e-9


def test_graded_seeds_cut_ladder_evaluations():
    # Before the pole-graded initial mesh this ladder took 1,506,660
    # integrand evaluations; graded seeds measured 1,025,445.
    inp = TwoPhotonInput(LorentzianPulse(1.0), LorentzianPulse(1.0))
    _, _, evals = j_lines(DEFAULT_SUMS, inp, NetworkParams(4.2, 8.4))
    assert evals.sum() <= 0.8 * 1_506_660


def test_residue_j_right_centre_defaults_to_left():
    params = NetworkParams(0.9, 0.4)
    s = np.linspace(-3.0, 3.0, 7)
    assert np.array_equal(
        residue_j(s, 1.2, 0.8, 0.3, params), residue_j(s, 1.2, 0.8, 0.3, params, omega_o_r=0.3)
    )


def tabulated_input(spacing):
    pg = FrequencyGrid(-10.0, 10.0, int(round(20.0 / spacing)) + 1)
    left = tabulate_pulse(LorentzianPulse(0.8, 0.5), pg)
    right = make_sampled_pulse(pg, np.exp(-((pg.points - 1.0) ** 2) / 2.0))
    return TwoPhotonInput(left, right)


def test_tabulated_windows_seed_only_features_and_kinks():
    # Sampled pulses get no pole-graded seeds: the four features, then the
    # left pulse's kinks and the right pulse's kinks mirrored through s.
    inp = tabulated_input(0.5)
    params = NetworkParams(1.2, 0.7)
    sums = ladder_sums(FrequencyGrid(-12.0, 12.0, 25))
    _, _, seeds = convolution_windows(sums, inp, params)
    kinks = inp.left.grid.points
    want = np.column_stack(
        [
            np.full(sums.size, 0.5 * (kinks[0] + kinks[-1])),
            sums - 0.5 * (kinks[0] + kinks[-1]),
            np.full(sums.size, -params.omega_c),
            sums + params.omega_c,
            np.broadcast_to(kinks, (sums.size, kinks.size)),
            sums[:, None] - inp.right.grid.points,
        ]
    )
    assert np.array_equal(seeds, want)


def test_ladder_matches_scalar_integrator_on_tabulated_pulses():
    inp = tabulated_input(0.2)
    params = NetworkParams(1.2, 0.7)
    cfg = QuadConfig()
    sums = ladder_sums(FrequencyGrid(-12.0, 12.0, 25))
    values, _, _ = j_lines(sums, inp, params, cfg)
    wc, two_ik = params.omega_c, 2j * params.kappa
    for s, got in zip(sums, values):
        lo, hi, seeds = convolution_windows(s, inp, params)
        lo, hi, seeds = float(lo[0]), float(hi[0]), seeds[0]
        if not lo < hi:
            assert got == 0.0
            continue

        def integrand(nu, _line, s=s):
            return (
                pulse_amplitude(inp.left, nu)
                * pulse_amplitude(inp.right, s - nu)
                / ((nu + wc - two_ik) * (s - nu + wc - two_ik))
            )

        want = integrate_lines(integrand, lo, hi, cfg, seeds=[seeds])[0][0]
        assert abs(got - want) <= 1e-12 * max(abs(want), 1e-300)


def _supported_on(lo, hi):
    pg = FrequencyGrid(lo, hi, 41)
    return make_sampled_pulse(pg, np.exp(-((pg.points - 0.5 * (lo + hi)) ** 2)))


@pytest.mark.parametrize("side", ["below", "above"])
def test_folded_ladder_with_supports_on_one_side(side):
    # At s = 1 and 3 the product of supports lies wholly below s / 2 (low
    # pulse on the left) or wholly above it (swapped): the fold integrates
    # its mirror image.  At s = -10 the product is empty.
    low, high = _supported_on(-3.0, -1.0), _supported_on(2.0, 6.0)
    inp = TwoPhotonInput(low, high) if side == "below" else TwoPhotonInput(high, low)
    params = NetworkParams(1.2, 0.7)
    wc, two_ik = params.omega_c, 2j * params.kappa
    sums = np.array([-10.0, 1.0, 3.0])
    values, errors, evals = j_lines(sums, inp, params)
    assert values[0] == 0.0 and errors[0] == 0.0 and evals[0] == 0
    for s, got in zip(sums[1:], values[1:]):
        lo, hi, seeds = convolution_windows(s, inp, params)
        assert (hi[0] <= 0.5 * s) if side == "below" else (lo[0] >= 0.5 * s)

        def integrand(nu, _line, s=s):
            return (
                pulse_amplitude(inp.left, nu)
                * pulse_amplitude(inp.right, s - nu)
                / ((nu + wc - two_ik) * (s - nu + wc - two_ik))
            )

        want = integrate_lines(integrand, lo, hi, seeds=seeds)[0][0]
        assert abs(want) > 0.0
        assert abs(got - want) <= 1e-12 * abs(want)


def test_integrate_lines_tails_and_empty_windows():
    # 1/(1 + (x - c)^2) over the whole line from a window plus mapped tails.
    centres = np.array([0.0, 40.0])

    def f(x, line):
        return 1.0 / (1.0 + (x - centres[line]) ** 2)

    values, errors, _ = integrate_lines(f, [-2.0, 35.0], [3.0, 50.0], tails=(-1.0, 1.0))
    np.testing.assert_allclose(values, np.pi, atol=1e-10)
    assert np.all(errors < 1e-8)
    values, errors, evals = integrate_lines(f, [-2.0, 1.0], [3.0, 1.0])
    assert values[0] == pytest.approx(np.arctan(3.0) + np.arctan(2.0), abs=1e-12)
    assert values[1] == 0.0 and errors[1] == 0.0 and evals[1] == 0


def test_no_convergence_names_lowest_failing_rung():
    # Budget-limited tolerance: rungs 1, 2, 10 and 11 fail when run alone
    # (each folded line needs 20 subdivisions, 18 of them its seeds), every
    # other rung converges within 19.
    grid = FrequencyGrid(-6.0, 6.0, 7)
    inp = TwoPhotonInput(LorentzianPulse(1.0), LorentzianPulse(1.0))
    params = NetworkParams(1.5, 0.0)
    cfg = QuadConfig(rel_tol=1e-11, max_subdivisions=19)
    alone = []
    for idx, s in enumerate(ladder_sums(grid)):
        try:
            j_line(s, inp, params, cfg)
        except NoConvergence:
            alone.append(idx)
    assert alone and alone[0] > 0
    with pytest.raises(NoConvergence) as exc_info:
        channel_matrices(grid, inp, params, cfg)
    assert exc_info.value.node == alone[0]
    assert exc_info.value.partial is not None
    assert f"frequency sum {ladder_sums(grid)[alone[0]]:g}" in str(exc_info.value)


def test_ladder_memory_stays_bounded():
    # Traced peak of a tabulated fill: 193 rungs, each seeded at up to 400
    # interpolation kinks.  Measured with numpy 2.4: 3.1 MB at 256 panels
    # per block, 4.0 MB at 1024, 7.7 MB at 4096.
    inp = tabulated_input(0.1)
    grid = FrequencyGrid(-12.0, 12.0, 97)
    params = NetworkParams(1.2, 0.7)
    channel_matrices(grid, inp, params)  # warm caches (grid points)
    tracemalloc.start()
    try:
        channel_matrices(grid, inp, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.6e6
