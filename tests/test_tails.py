"""Tests for the error estimate of the probabilities against their
conservation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonsim.model import FrequencyGrid, LorentzianPulse, NetworkParams, TwoPhotonInput
from photonsim.observables import probabilities

WIDE = FrequencyGrid(-40.0, 40.0, 801)


def lorentzians(gamma_l, gamma_r, omega_o_l=0.0, omega_o_r=0.0):
    return TwoPhotonInput(LorentzianPulse(gamma_l, omega_o_l), LorentzianPulse(gamma_r, omega_o_r))


@pytest.mark.parametrize("n", [160, 800])
def test_est_error_covers_conservation_on_even_grids(n):
    # An even point count has no every-second-point sub-grid.  Lorentzian
    # probabilities use no grid at all, so they must not see it either.
    inp, params = lorentzians(1.0, 1.0), NetworkParams(2.0, 4.0)
    p = probabilities(inp, params, FrequencyGrid(-40.0, 40.0, n))
    assert abs(p.total - 1.0) <= 5.0 * p.est_error
    assert p == probabilities(inp, params, WIDE)


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
