"""Tests for probabilities, conservation, coincidence scans, spectral
decomposition, and the single-photon observables."""

import time
import tracemalloc

import numpy as np
import pytest

import photonsim.observables
from photonsim.amplitudes import Channel, JointAmplitude, amplitude_grid, channel_matrices, ladder
from photonsim.errors import NoConvergence, ValidationError, WindowTooNarrow, ZeroAmplitude
from photonsim.model import (
    FrequencyGrid,
    LorentzianPulse,
    NetworkParams,
    TwoPhotonInput,
    make_sampled_pulse,
    pulse_amplitude,
    tabulate_pulse,
)
from photonsim.observables import (
    hom_scan,
    probabilities,
    schmidt_report,
    single_photon_norm,
    single_photon_probabilities,
    window_terms,
)
from photonsim.quadrature import QuadConfig, convolution_lines, trapezoid_weights
from photonsim.verify import grid_window_reference

PULSE = LorentzianPulse(1.0, 0.0)
IDENTICAL = TwoPhotonInput(PULSE, PULSE)
GRID = FrequencyGrid(-40.0, 40.0, 401)


def test_pass_through_probabilities_exact():
    p = probabilities(IDENTICAL, NetworkParams(0.0), GRID)
    assert (p.p_ll, p.p_lr, p.p_rr) == (0.0, 1.0, 0.0)
    assert p.total == 1.0
    assert abs(p.total - 1.0) == 0.0


def test_strong_coupling_probabilities():
    p = probabilities(IDENTICAL, NetworkParams(100.0, 0.0), GRID)
    assert p.p_lr >= 0.99
    assert p.p_ll + p.p_rr <= 1e-2


def test_conservation_at_reference_parameters():
    for wc in (0.0, 3.0):
        dev = abs(probabilities(IDENTICAL, NetworkParams(1.5, wc), GRID).total - 1.0)
        assert dev <= 2e-3


def test_conservation_matrix_subset():
    # Conservation must hold across coupling/detuning combinations within
    # max(5 * est_error, 5e-3).
    for gamma in (0.5, 2.0):
        inp = TwoPhotonInput(LorentzianPulse(gamma), LorentzianPulse(gamma))
        for kappa in (0.1, 1.5, 20.0):
            for wc in (0.0, 3.0, 2.0 * kappa):
                p = probabilities(inp, NetworkParams(kappa, wc), GRID)
                dev = abs(p.total - 1.0)
                assert dev <= max(5.0 * p.est_error, 5e-3), (gamma, kappa, wc, dev)


def test_same_channel_amplitudes_are_symmetric():
    # P_LL and P_RR are half the |T|^2 integrals because T_LL and T_RR are
    # symmetric in (omega1, omega2), distinct pulses included; identical
    # pulses give P_LL == P_RR bitwise.
    p = probabilities(IDENTICAL, NetworkParams(1.5, 0.0), GRID)
    assert p.p_ll == p.p_rr
    inp = TwoPhotonInput(LorentzianPulse(0.6, 0.4), LorentzianPulse(1.8, -0.7))
    ga = channel_matrices(GRID, inp, NetworkParams(0.7, -1.3))
    for t in (ga.ll, ga.rr):
        assert np.max(np.abs(t - t.T)) <= 1e-15 * np.max(np.abs(t))


def _nxn_reference(inp, params, grid):
    """(p_ll, p_lr, p_rr, total), the quadrature error term and the rest of
    est_error, with the window summed over the n x n channel matrices, for
    sampled pulses whose supports lie inside the window: nothing linear
    lies beyond it, and the convolution there is bounded from the edges."""
    ref = grid_window_reference(inp, params, grid)
    m = ref.masses
    p = (0.5 * m[0], m[1], 0.5 * m[2])
    return (*p, sum(p)), ref.quadrature, ref.refinement + ref.edge_mass * (grid.max - grid.min) / 6.0


_TABULATED = tabulate_pulse(LorentzianPulse(1.3, 0.5), FrequencyGrid(-15.0, 15.0, 61))
_DISTINCT = TwoPhotonInput(LorentzianPulse(0.88, 0.3), LorentzianPulse(1.7, -0.4))


@pytest.mark.parametrize(
    "inp, params, grid",
    [
        (TwoPhotonInput(_TABULATED, _TABULATED), NetworkParams(1.5, 0.5), FrequencyGrid(-20.0, 20.0, 97)),
    ],
    ids=["tabulated"],
)
def test_probabilities_match_nxn_reference(inp, params, grid):
    p = probabilities(inp, params, grid)
    want, quad, other_err = _nxn_reference(inp, params, grid)
    got = (p.p_ll, p.p_lr, p.p_rr, p.total)
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-14, (got, want)
    # Only the quadrature part of est_error changes, and never upward.
    assert -1e-15 <= p.est_error - other_err <= quad + 1e-15


# (p_ll, p_lr, p_rr, est_error) of the grid path that the whole-plane form
# replaced for Lorentzian inputs (trapezoid window, strips and corners).
@pytest.mark.parametrize(
    "inp, params, grid, include_convolution, grid_path",
    [
        (IDENTICAL, NetworkParams(1.5, 3.0), FrequencyGrid(-40.0, 40.0, 801), True,
         (0.428959271900503, 0.1420814393487675, 0.428959271900503, 3.5433170243705106e-07)),
        (_DISTINCT, NetworkParams(1.43, -0.63), FrequencyGrid(-40.0, 40.0, 80), True,
         (0.2090060951192671, 0.5855204723409848, 0.23525052213881215, 0.13864388350842904)),
        (_DISTINCT, NetworkParams(4.2, 8.4), FrequencyGrid(-40.0, 40.0, 200), True,
         (0.37632525351922846, 0.20635254198564046, 0.41728848580004774, 0.02612977465835076)),
        (_DISTINCT, NetworkParams(1.5, 0.3), FrequencyGrid(-40.0, 40.0, 801), False,
         (0.10215354736954277, 0.6778855816166347, 0.21996084963295873, 8.677704427106658e-07)),
        (_DISTINCT, NetworkParams(20.0, 40.0), FrequencyGrid(-40.0, 40.0, 801), True,
         (0.4125589202075998, 0.1661662851046649, 0.4212747712893305, 1.2932233614162393e-06)),
    ],
    ids=["identical-801", "distinct-80", "distinct-200", "no-convolution", "kappa-20"],
)
def test_lorentzian_probabilities_within_grid_path_error(inp, params, grid, include_convolution, grid_path):
    p = probabilities(inp, params, grid, include_convolution=include_convolution)
    moves = np.abs(np.subtract((p.p_ll, p.p_lr, p.p_rr), grid_path[:3]))
    assert np.all(moves <= grid_path[3]), moves
    assert abs(p.total - 1.0) <= 1e-12
    assert 0.0 < p.est_error <= 1e-7


# (p_ll, p_lr, p_rr) of _DISTINCT from unfolded convolution lines (each
# inner line over the whole real line) at the default tolerance.
@pytest.mark.parametrize(
    "params, unfolded",
    [
        (NetworkParams(1.43, -0.63), (0.19387883890435034, 0.5739231063548054, 0.23219805474084496)),
        (NetworkParams(0.05, 0.4), (0.05281302860426397, 0.7706276003152087, 0.17655937108052824)),
        (NetworkParams(30.0, -12.0), (0.0716476375255576, 0.8549848722479619, 0.07336749022648127)),
    ],
    ids=["kappa-1.43", "kappa-0.05", "kappa-30"],
)
def test_folded_lines_keep_distinct_centre_probabilities(params, unfolded):
    p = probabilities(_DISTINCT, params, GRID)
    assert np.all(np.abs(np.subtract((p.p_ll, p.p_lr, p.p_rr), unfolded)) <= p.est_error)
    assert abs(p.total - 1.0) <= 1e-12


_DISTINCT_WIDTHS = TwoPhotonInput(LorentzianPulse(0.6), LorentzianPulse(1.8))


def _inner_evaluations(monkeypatch, inp, params):
    """Integrand evaluations of the whole-plane probabilities' inner lines.
    They are deterministic, so unlike a timing a guard on them cannot flake."""
    evals = []

    def counted(*args):
        out = convolution_lines(*args)
        evals.append(int(out[2].sum()))
        return out

    monkeypatch.setattr(photonsim.observables, "convolution_lines", counted)
    probabilities(inp, params)
    assert evals
    return sum(evals)


# Inner evaluations of the whole-plane probabilities with convolution lines
# over the whole real line (before the fold at nu = s / 2).
@pytest.mark.parametrize(
    "inp, params, unfolded_evals",
    [
        (IDENTICAL, NetworkParams(1.5, 0.0), 402_720),
        (_DISTINCT_WIDTHS, NetworkParams(0.7, -1.3), 660_705),
    ],
    ids=["identical", "distinct-widths"],
)
def test_folded_lines_cut_inner_evaluations(monkeypatch, inp, params, unfolded_evals):
    assert _inner_evaluations(monkeypatch, inp, params) <= 0.6 * unfolded_evals


# Inner evaluations of the whole-plane probabilities while the outer line's
# error-bound row still steered its refinement, at full weight.
@pytest.mark.parametrize(
    "inp, params, steered_evals",
    [
        (IDENTICAL, NetworkParams(1.5, 0.0), 197_070),
        (IDENTICAL, NetworkParams(1.5, 3.0), 342_765),
        (_DISTINCT_WIDTHS, NetworkParams(0.7, -1.3), 306_105),
    ],
    ids=["identical", "identical-detuned", "distinct-widths"],
)
def test_error_bound_row_does_not_steer_the_outer_line(monkeypatch, inp, params, steered_evals):
    assert _inner_evaluations(monkeypatch, inp, params) < steered_evals


@pytest.mark.parametrize(
    "params", [NetworkParams(1.5, 0.0), NetworkParams(0.25, 0.5), NetworkParams(7.0, -20.0)],
    ids=["1.5-0", "0.25-0.5", "7-(-20)"],
)
def test_identical_pulses_give_p_ll_equal_to_p_rr_bit_for_bit(params):
    p = probabilities(TwoPhotonInput(LorentzianPulse(0.8, 0.3), LorentzianPulse(0.8, 0.3)), params)
    assert p.p_ll == p.p_rr


# Exact P_LR for identical gamma = 1 pulses, confirmed independently of
# this code; Richardson extrapolation of the grid path met the first three
# to 1.3e-10.
@pytest.mark.parametrize(
    "kappa, omega_c, exact",
    [(1.5, 0.0, 5 / 7), (1.0, 2.0, 61 / 325), (0.5, 1.0, 107 / 377), (0.25, 0.5, 439 / 1105),
     (1.5, 3.0, 157 / 1105)],
    ids=["5-7", "61-325", "107-377", "439-1105", "157-1105"],
)
@pytest.mark.parametrize("tol", [None, 1e-6], ids=["default-tol", "tol-1e-6"])
def test_p_lr_matches_exact_values(kappa, omega_c, exact, tol):
    # QuadConfig as ``--tol`` sets it.
    cfg = None if tol is None else QuadConfig(rel_tol=tol, abs_tol=min(1e-12, tol))
    p = probabilities(IDENTICAL, NetworkParams(kappa, omega_c), GRID, cfg)
    assert abs(p.p_lr - exact) <= p.est_error
    if tol is None:
        assert abs(p.p_lr - exact) <= 1e-12
    assert abs(p.total - 1.0) <= 1e-12


def test_probabilities_no_convergence_names_the_frequency_sum():
    # A budget the inner convolution lines exhaust while the Gram line
    # converges (budgets 39 to 45 do): the error names the frequency sum of
    # the outer node, as the ladder names its rung.
    cfg = QuadConfig(rel_tol=1e-10, abs_tol=1e-16, max_subdivisions=41)
    with pytest.raises(NoConvergence, match="convolution did not converge at frequency sum") as exc_info:
        probabilities(IDENTICAL, NetworkParams(1e-2, 0.0), GRID, cfg)
    assert exc_info.value.node is not None


@pytest.mark.parametrize("kappa, p_ll", [(1e-4, 3.9973346e-4), (1e-2, 0.0374593157101)], ids=["1e-4", "1e-2"])
def test_small_kappa_p_ll(kappa, p_ll):
    # Where theta varies on the scale 2 kappa, far below the default grid's
    # spacing of 0.1, the trapezoid window was off by 0.06 without any
    # check failing.  The pins are nested scalar quadrature values.
    p = probabilities(IDENTICAL, NetworkParams(kappa, 0.0), FrequencyGrid(-40.0, 40.0, 801))
    assert abs(p.p_ll - p_ll) <= 1e-9
    assert abs(p.total - 1.0) <= 1e-12


# A pulse tabulated beyond the window: its linear mass out there comes from
# the Gram entries of the two half-lines.  (p_ll, p_lr, p_rr, total)
# recorded from the strip and corner integrals that this replaced.
_WIDE_TABULATED = tabulate_pulse(LorentzianPulse(1.0, 0.3), FrequencyGrid(-30.0, 30.0, 241))


@pytest.mark.parametrize(
    "right, params, want",
    [
        (_WIDE_TABULATED, NetworkParams(1.5, 0.5),
         (0.14168254045924034, 0.7139925119650683, 0.14168254045924034, 0.997357592883549)),
        (LorentzianPulse(1.4), NetworkParams(0.8, -0.6),
         (0.3125092968175974, 0.3679671133765789, 0.3184554313119804, 0.9989318415061567)),
    ],
    ids=["tabulated", "mixed"],
)
def test_tabulated_pulse_beyond_the_window(right, params, want):
    p = probabilities(TwoPhotonInput(_WIDE_TABULATED, right), params, FrequencyGrid(-12.0, 12.0, 97))
    np.testing.assert_allclose((p.p_ll, p.p_lr, p.p_rr, p.total), want, rtol=0, atol=1e-9)


def _gaussian(grid, centre, width):
    return make_sampled_pulse(grid, np.exp(-0.5 * ((grid.points - centre) / width) ** 2))


_FINE, _COARSE = FrequencyGrid(-10.0, 10.0, 201), FrequencyGrid(-10.0, 10.0, 68)


# Tabulated pairs of distinct widths at spacings 0.1 and about 0.3 on [-10, 10], as
# a spectrometer gives them.  (p_ll, p_lr, p_rr, est_error) recorded when the
# sampled pulses were interpolated part by part; one complex interpolation
# may move them by rounding only.
@pytest.mark.parametrize(
    "inp, params, want",
    [
        (TwoPhotonInput(_gaussian(_FINE, 0.3, 0.7), _gaussian(_FINE, -0.4, 1.4)),
         NetworkParams(1.2, 0.5),
         (0.1736071893070284, 0.655239585826368, 0.16939038052271538, 0.000749350676051137)),
        (TwoPhotonInput(tabulate_pulse(LorentzianPulse(0.8, 0.5), _COARSE),
                        tabulate_pulse(LorentzianPulse(1.6, -0.3), _COARSE)),
         NetworkParams(0.9, -0.6),
         (0.2906731441790915, 0.41041232852906767, 0.25133688385128655, 0.00505780505398041)),
    ],
    ids=["gaussian-0.1", "lorentzian-0.3"],
)
def test_tabulated_probabilities_pinned(inp, params, want):
    p = probabilities(inp, params, FrequencyGrid(-12.0, 12.0, 97))
    np.testing.assert_allclose((p.p_ll, p.p_lr, p.p_rr, p.est_error), want, rtol=0, atol=1e-14)


def test_quadrature_term_sums_ladder_errors_per_rung():
    # The ladder error e_k of rung k moves the window mass by at most
    # 2 e_k |sum_{i+j=k} w_i w_j conj(T_ij) u_i u_j|, which by the triangle
    # inequality is at most the pointwise 2 e_k sum |T_ij u_i u_j|.
    grid = FrequencyGrid(-40.0, 40.0, 161)
    params = NetworkParams(0.7, -1.3)
    ga = channel_matrices(grid, _DISTINCT, params)
    wt, w = trapezoid_weights(grid), grid.points
    u = 1.0 / (w + params.omega_c - 2j * params.kappa)
    s_prime, _, fj_err = ladder(grid, _DISTINCT, params)
    uw = wt * u
    want = 0.0
    for c, t in zip((0.5, 1.0, 0.5), (ga.ll, ga.lr, ga.rr)):
        flipped = (np.conj(t) * np.outer(uw, uw))[:, ::-1]
        rungs = np.array([np.trace(flipped, offset=grid.n - 1 - k) for k in range(2 * grid.n - 1)])
        want += 2.0 * c * (np.abs(s_prime) * fj_err) @ np.abs(rungs)
    got = window_terms(_DISTINCT, params, grid).quadrature
    assert got == pytest.approx(want, rel=1e-12)
    assert got <= grid_window_reference(_DISTINCT, params, grid).quadrature


def test_window_terms_need_a_positive_kappa():
    with pytest.raises(ValidationError, match="kappa > 0"):
        window_terms(IDENTICAL, NetworkParams(0.0, 1.0), GRID)


def test_distinct_pulse_conservation():
    inp = TwoPhotonInput(LorentzianPulse(1.0), LorentzianPulse(2.0))
    p = probabilities(inp, NetworkParams(1.5, 0.0), GRID)
    assert abs(p.total - 1.0) <= 5e-3


def test_global_phase_invariance():
    # A one-sided global phase cannot move any channel probability.
    sgrid = FrequencyGrid(-20.0, 20.0, 101)
    base = make_sampled_pulse(sgrid, pulse_amplitude(PULSE, sgrid.points))
    rotated = make_sampled_pulse(sgrid, base.values * np.exp(0.7j))
    params = NetworkParams(1.5, 0.0)
    grid = FrequencyGrid(-20.0, 20.0, 101)
    a = probabilities(TwoPhotonInput(base, base), params, grid)
    b = probabilities(TwoPhotonInput(rotated, base), params, grid)
    assert a.p_ll == pytest.approx(b.p_ll, abs=1e-10)
    assert a.p_lr == pytest.approx(b.p_lr, abs=1e-10)
    assert a.p_rr == pytest.approx(b.p_rr, abs=1e-10)


def test_hom_scan_monotone_and_symmetric():
    rows = hom_scan([0.5, 2.0, 20.0], 2.0, PULSE, GRID)
    assert all(b.p_lr < a.p_lr for a, b in zip(rows, rows[1:]))
    assert rows[-1].p_lr < 0.1
    for r in rows:
        assert r.p_ll == pytest.approx(r.p_rr, abs=1e-6)
        assert r.omega_c == 2.0 * r.kappa


def test_hom_scan_no_detuning_strong_coupling():
    row = hom_scan([100.0], 0.0, PULSE, GRID)[0]
    assert row.p_lr >= 0.99


def test_hom_scan_validation():
    with pytest.raises(ValidationError):
        hom_scan([2.0, 1.0], 2.0, PULSE, GRID)
    with pytest.raises(ValidationError, match="positive"):
        hom_scan([0.0, 1.0], 2.0, PULSE, GRID)
    with pytest.raises(ValidationError, match="empty"):
        hom_scan([], 2.0, PULSE, GRID)


@pytest.mark.parametrize("inp", [IDENTICAL, _DISTINCT], ids=["identical", "distinct"])
def test_lorentzian_probabilities_need_no_grid(inp):
    # Lorentzian pairs are integrated over the whole plane, so a grid is
    # never read: leaving it out gives the same bits.
    params = NetworkParams(0.7, -1.3)
    assert probabilities(inp, params) == probabilities(inp, params, GRID)
    no_conv = probabilities(inp, params, include_convolution=False)
    assert no_conv == probabilities(inp, params, GRID, include_convolution=False)


def test_hom_scan_needs_no_grid_for_lorentzian_pulses():
    pulse = LorentzianPulse(1.3, 0.4)
    assert hom_scan([0.5, 2.0], 1.5, pulse) == hom_scan([0.5, 2.0], 1.5, pulse, GRID)


def test_sampled_pulses_need_a_grid():
    tab = tabulate_pulse(PULSE, FrequencyGrid(-10.0, 10.0, 81))
    for inp in (TwoPhotonInput(tab, tab), TwoPhotonInput(tab, PULSE)):
        with pytest.raises(ValidationError, match="grid"):
            probabilities(inp, NetworkParams(1.5, 0.0))
    with pytest.raises(ValidationError, match="grid"):
        hom_scan([1.0], 2.0, tab)


def test_sampled_pulses_keep_the_convolution_term():
    # Only the whole-plane path of Lorentzian pairs can drop the term.
    tab = tabulate_pulse(PULSE, FrequencyGrid(-10.0, 10.0, 81))
    for inp in (TwoPhotonInput(tab, tab), TwoPhotonInput(tab, PULSE)):
        with pytest.raises(ValidationError, match="convolution"):
            probabilities(inp, NetworkParams(1.5, 0.0), GRID, include_convolution=False)


def test_tabulated_window_too_narrow():
    # The convolution mass beyond a [-1, 1] window is bounded from its edges
    # at about 1.134e-2, above the 1e-2 that the window may leave unmodeled.
    tab = tabulate_pulse(PULSE, FrequencyGrid(-10.0, 10.0, 81))
    with pytest.raises(WindowTooNarrow) as info:
        probabilities(TwoPhotonInput(tab, tab), NetworkParams(0.3, 0.0), FrequencyGrid(-1.0, 1.0, 9))
    assert info.value.tail_bound == pytest.approx(1.134e-2, abs=5e-6)


def test_schmidt_separable_is_rank_one():
    grid = FrequencyGrid(-6.0, 6.0, 121)
    amp = amplitude_grid(Channel.LR, grid, IDENTICAL, NetworkParams(0.0))
    rep = schmidt_report(amp)
    assert rep.entropy <= 1e-9
    assert rep.schmidt_number == pytest.approx(1.0, abs=1e-9)
    assert np.sum(rep.singular_values**2) == pytest.approx(1.0, abs=1e-9)


def test_schmidt_zero_amplitude_raises():
    grid = FrequencyGrid(-6.0, 6.0, 121)
    amp = amplitude_grid(Channel.LL, grid, IDENTICAL, NetworkParams(0.0))
    with pytest.raises(ZeroAmplitude):
        schmidt_report(amp)


def test_schmidt_scale_invariance():
    grid = FrequencyGrid(-6.0, 6.0, 61)
    amp = amplitude_grid(Channel.LR, grid, IDENTICAL, NetworkParams(1.5, 0.0))
    rep = schmidt_report(amp)
    scaled = JointAmplitude(
        channel=amp.channel,
        grid1=amp.grid1,
        grid2=amp.grid2,
        values=amp.values * (3.7 - 0.2j),
        max_point_error=amp.max_point_error,
    )
    rep2 = schmidt_report(scaled)
    assert rep2.entropy == pytest.approx(rep.entropy, abs=1e-10)
    assert rep2.schmidt_number == pytest.approx(rep.schmidt_number, abs=1e-10)


def test_schmidt_grid_stability():
    for wc in (0.0, 3.0):
        entropies = []
        for n in (121, 241):
            grid = FrequencyGrid(-6.0, 6.0, n)
            amp = amplitude_grid(Channel.LR, grid, IDENTICAL, NetworkParams(1.5, wc))
            entropies.append(schmidt_report(amp).entropy)
        assert abs(entropies[0] - entropies[1]) <= 5e-2


def test_schmidt_regression_values():
    # Regression goldens from this implementation (n=121 on [-6, 6]);
    # not literature values.  The entropy is not monotone in the
    # coupling: it peaks near kappa ~ 0.3 for gamma = 1.
    grid = FrequencyGrid(-6.0, 6.0, 121)
    e15 = schmidt_report(amplitude_grid(Channel.LR, grid, IDENTICAL, NetworkParams(1.5, 0.0))).entropy
    e01 = schmidt_report(amplitude_grid(Channel.LR, grid, IDENTICAL, NetworkParams(0.1, 0.0))).entropy
    assert e15 == pytest.approx(0.271434, abs=5e-3)
    assert e01 == pytest.approx(0.431123, abs=5e-3)


def test_single_photon_probabilities_pass_through():
    p_left, p_right = single_photon_probabilities(PULSE, NetworkParams(0.0), GRID)
    assert (p_left, p_right) == (1.0, 0.0)


def test_single_photon_probabilities_strong_coupling():
    p_left, p_right = single_photon_probabilities(PULSE, NetworkParams(100.0, 0.0), GRID)
    assert p_left <= 1e-3
    assert p_right >= 0.999
    assert p_left + p_right == pytest.approx(1.0, abs=1e-12)


def test_single_photon_probabilities_narrowband_resonant():
    # A narrow line parked on the resonance reflects almost completely.
    params = NetworkParams(1.0, omega_c=2.0)
    pulse = LorentzianPulse(0.01, omega_o=params.omega_c)
    grid = FrequencyGrid(-params.omega_c - 10.0, -params.omega_c + 10.0, 801)
    p_left, p_right = single_photon_probabilities(pulse, params, grid)
    assert p_right >= 0.99


def test_single_photon_norm_matrix():
    for gamma in (0.5, 2.0):
        for kappa in (0.1, 10.0):
            norm = single_photon_norm(LorentzianPulse(gamma), NetworkParams(kappa, 1.0))
            assert norm == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("kappa, omega_c", [(0.05, 1.0), (1.5, -2.0), (15.0, 3.0)])
def test_single_photon_integrals_converge_from_graded_seeds(monkeypatch, kappa, omega_c):
    # Break points graded toward the pulse and resonance poles leave each
    # integral at most one bisection sweep; from the bare features the norm
    # took 9 to 12 sweeps.
    sweeps = []
    real = photonsim.observables.integrate_lines

    def counting(f, *args, **kwargs):
        sweeps.append(0)

        def g(x, line):
            sweeps[-1] += 1
            return f(x, line)

        return real(g, *args, **kwargs)

    monkeypatch.setattr(photonsim.observables, "integrate_lines", counting)
    pulse, params = LorentzianPulse(0.7, 0.4), NetworkParams(kappa, omega_c)
    assert single_photon_norm(pulse, params) == pytest.approx(1.0, abs=1e-13)
    single_photon_probabilities(pulse, params, FrequencyGrid(-40.0, 40.0, 801))
    assert sweeps and max(sweeps) <= 2, sweeps


@pytest.mark.parametrize("kappa", [3e10, 1e20])
def test_large_kappa_keeps_the_pulse_tails(kappa):
    # The pulses' graded seeds once stopped at 121.5 gamma, far inside the
    # kernel's first break point at 2 kappa: the panel between them missed
    # 2.6e-3 of each photon's mass while its error estimate read 2.7e-8.
    params = NetworkParams(kappa, 0.0)
    p = probabilities(IDENTICAL, params, GRID)
    assert abs(p.total - 1.0) <= 1e-12
    assert abs(p.total - 1.0) <= p.est_error
    assert single_photon_norm(PULSE, params) == pytest.approx(1.0, abs=1e-12)


def test_probabilities_reports_error_estimate():
    p = probabilities(IDENTICAL, NetworkParams(1.5, 0.0), GRID)
    assert p.est_error > 0
    assert np.isfinite(p.est_error)


def test_probabilities_runs_on_one_core():
    # A matrix product in OpenBLAS's threaded sizes leaves its second
    # worker spinning for about 0.1 s, which doubles the CPU time of the
    # op without making it faster.  Distinct pulses with a detuned cavity
    # take the whole-plane integrals, whose Gauss-Kronrod blocks carry 16
    # (Gram) and 4 (convolution) components.  Host steal only inflates
    # wall time.
    inp = TwoPhotonInput(LorentzianPulse(0.6), LorentzianPulse(1.8))
    time.sleep(0.3)  # let workers woken by earlier tests go idle
    cpu, wall = time.process_time(), time.perf_counter()
    probabilities(inp, NetworkParams(0.7, -1.3), FrequencyGrid(-40.0, 40.0, 801))
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    assert cpu <= 1.25 * wall


@pytest.mark.parametrize("inp", [IDENTICAL, TwoPhotonInput(LorentzianPulse(0.6), LorentzianPulse(1.8))])
def test_probabilities_builds_no_grid_matrix(inp):
    # Lorentzian masses come from line integrals and no grid; one complex
    # 801 x 801 matrix alone would take 10 MB.
    tracemalloc.start()
    try:
        probabilities(inp, NetworkParams(0.7, -1.3), FrequencyGrid(-40.0, 40.0, 801))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6
