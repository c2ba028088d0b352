"""Tests for the out-of-window strip and corner integrals and the error
estimate of the probabilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonsim.model import FrequencyGrid, LorentzianPulse, NetworkParams, TwoPhotonInput
from photonsim.observables import _tail_corrections, probabilities

WIDE = FrequencyGrid(-40.0, 40.0, 801)


def lorentzians(gamma_l, gamma_r, omega_o_l=0.0, omega_o_r=0.0):
    return TwoPhotonInput(LorentzianPulse(gamma_l, omega_o_l), LorentzianPulse(gamma_r, omega_o_r))


# Out-of-window masses (LL, LR, RR) on -40:40:801, recorded from the
# nested scalar integrals these batched ones replaced.
@pytest.mark.parametrize(
    "inp, params, want",
    [
        (
            lorentzians(1.0, 1.0),
            NetworkParams(2.0, 4.0),
            (0.00789700511990583, 0.008015122240208271, 0.00789700511990583),
        ),
        (
            lorentzians(1.0, 1.0),
            NetworkParams(20.0, 40.0),  # kernel pole at the window edge
            (0.008784466762886401, 0.008984554400289769, 0.008784466762886401),
        ),
        (
            lorentzians(0.6, 1.8),
            NetworkParams(7.0, -15.0),
            (0.004738784674290369, 0.010784020820477079, 0.012743672101173529),
        ),
        (
            lorentzians(1.0, 1.0, 0.3, -0.4),
            NetworkParams(1.5, 0.0),
            (0.013477108338950364, 0.0023893206895110827, 0.013554063886771587),
        ),
    ],
)
def test_tail_masses_match_recorded_values(inp, params, want):
    got, err = _tail_corrections(inp, params, WIDE, True, True)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert 0 < err < 1e-8


@pytest.mark.parametrize("n", [160, 800])
def test_est_error_covers_conservation_on_even_grids(n):
    # An even point count has no every-second-point sub-grid; the
    # trapezoid part of est_error must still be there.
    p = probabilities(lorentzians(1.0, 1.0), NetworkParams(2.0, 4.0), FrequencyGrid(-40.0, 40.0, n))
    assert abs(p.total - 1.0) <= 5.0 * p.est_error


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    kappa=st.floats(0.5, 20.0),
    detuning=st.floats(-3.0, 3.0),
    gamma_l=st.floats(0.5, 2.0),
    gamma_r=st.floats(0.5, 2.0),
)
def test_conservation_within_error_estimate(kappa, detuning, gamma_l, gamma_r):
    p = probabilities(lorentzians(gamma_l, gamma_r), NetworkParams(kappa, detuning * kappa), WIDE)
    assert abs(p.total - 1.0) <= max(5.0 * p.est_error, 2e-3)
