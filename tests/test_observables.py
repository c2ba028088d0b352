"""Tests for probabilities, conservation, coincidence scans, spectral
decomposition, and the single-photon observables."""

import time

import numpy as np
import pytest

from photonsim.amplitudes import Channel, JointAmplitude, amplitude_grid
from photonsim.errors import ValidationError, ZeroAmplitude
from photonsim.model import (
    FrequencyGrid,
    LorentzianPulse,
    NetworkParams,
    TwoPhotonInput,
    make_sampled_pulse,
    pulse_amplitude,
)
from photonsim.observables import (
    conservation_check,
    hom_scan,
    probabilities,
    schmidt_report,
    single_photon_norm,
    single_photon_probabilities,
)

PULSE = LorentzianPulse(1.0, 0.0)
IDENTICAL = TwoPhotonInput(PULSE, PULSE)
GRID = FrequencyGrid(-40.0, 40.0, 401)


def test_pass_through_probabilities_exact():
    p = probabilities(IDENTICAL, NetworkParams(0.0), GRID)
    assert (p.p_ll, p.p_lr, p.p_rr) == (0.0, 1.0, 0.0)
    assert p.total == 1.0
    assert conservation_check(IDENTICAL, NetworkParams(0.0), GRID) == 0.0


def test_strong_coupling_probabilities():
    p = probabilities(IDENTICAL, NetworkParams(100.0, 0.0), GRID)
    assert p.p_lr >= 0.99
    assert p.p_ll + p.p_rr <= 1e-2


def test_conservation_at_reference_parameters():
    for wc in (0.0, 3.0):
        dev = conservation_check(IDENTICAL, NetworkParams(1.5, wc), GRID)
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


def test_identical_shortcut_vs_general_path():
    params = NetworkParams(1.5, 0.0)
    short = probabilities(IDENTICAL, params, GRID, use_shortcut=True)
    general = probabilities(IDENTICAL, params, GRID, use_shortcut=False)
    assert short.p_ll == short.p_rr
    assert general.p_ll == pytest.approx(general.p_rr, abs=1e-6)
    assert short.p_ll == pytest.approx(general.p_ll, abs=1e-6)
    assert short.p_lr == general.p_lr


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
    with pytest.raises(ValidationError):
        hom_scan([0.0, 1.0], 2.0, PULSE, GRID)


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
        params=amp.params,
        input=amp.input,
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


def test_probabilities_reports_error_estimate():
    p = probabilities(IDENTICAL, NetworkParams(1.5, 0.0), GRID)
    assert p.est_error > 0
    assert np.isfinite(p.est_error)


def test_probabilities_runs_on_one_core():
    # A matrix product in OpenBLAS's threaded sizes leaves its second
    # worker spinning for about 0.1 s, which doubles the CPU time of the
    # op without making it faster.  Distinct pulses with a detuned cavity
    # take the swap path, the out-of-window tails and the vector-valued
    # Gauss-Kronrod blocks.  Host steal only inflates wall time.
    inp = TwoPhotonInput(LorentzianPulse(0.6), LorentzianPulse(1.8))
    time.sleep(0.3)  # let workers woken by earlier tests go idle
    cpu, wall = time.process_time(), time.perf_counter()
    probabilities(inp, NetworkParams(0.7, -1.3), FrequencyGrid(-40.0, 40.0, 801))
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    assert cpu <= 1.25 * wall
