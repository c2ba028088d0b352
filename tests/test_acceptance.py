"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with
its measured margin.  Thresholds are fixed here, not tuned at runtime.
"""

import time

import numpy as np

from photonsim.amplitudes import amplitudes_at, channel_matrices
from photonsim.cli import main as cli_main
from photonsim.kernels import theta_arrays
from photonsim.model import (
    FrequencyGrid,
    LorentzianPulse,
    NetworkParams,
    TwoPhotonInput,
    pulse_amplitude,
)
from photonsim.observables import (
    hom_scan,
    probabilities,
    single_photon_norm,
    single_photon_probabilities,
)
from photonsim.oracle import residue_conv_term, residue_t_lr
from photonsim.quadrature import trapezoid_weights
from photonsim.verify import run_verify

PULSE = LorentzianPulse(1.0, 0.0)
IDENTICAL = TwoPhotonInput(PULSE, PULSE)
WIDE = FrequencyGrid(-40.0, 40.0, 801)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")


def test_dual_method_oracle_equivalence():
    start = time.time()
    worst = 0.0
    grid = FrequencyGrid(-6.0, 6.0, 21)
    w1, w2 = grid.points[:, None], grid.points[None, :]
    for wc in (0.0, 3.0):
        # The grid fill's convolution term against the channel factor times
        # the residue closed form, relative to the larger magnitude; nodes
        # below 1e-12 of the grid-wide peak count as exact zeros.
        params = NetworkParams(1.5, wc)
        got = channel_matrices(grid, IDENTICAL, params).conv
        want = residue_conv_term(w1, w2, 1.0, 1.0, 0.0, params)
        scale = np.maximum(np.abs(got), np.abs(want))
        worst = max(worst, float((np.abs(got - want) / np.maximum(scale, 1e-12 * scale.max())).max()))
    elapsed = time.time() - start
    ok = worst <= 1e-6 and elapsed <= 30.0
    report("dual-method-oracle-equivalence", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed <= 30.0


def test_probability_conservation():
    for inp, tol, label in (
        (IDENTICAL, 2e-3, "identical, omega_c=0"),
        (IDENTICAL, 2e-3, "identical, omega_c=3"),
        (TwoPhotonInput(LorentzianPulse(1.0), LorentzianPulse(2.0)), 5e-3, "distinct"),
    ):
        wc = 3.0 if label.endswith("3") else 0.0
        start = time.time()
        p = probabilities(inp, NetworkParams(1.5, wc), WIDE)
        elapsed = time.time() - start
        dev = abs(p.total - 1.0)
        ok = dev <= tol and elapsed <= 300.0
        report("probability-conservation", ok, f"{label}: dev {dev:.2e}, {elapsed:.1f}s")
        assert dev <= tol, (label, dev)
        assert elapsed <= 300.0


def test_weak_coupling_limit():
    # Even node counts keep the (measure-zero) resonance line off the
    # grid, where the response dips over a width of only 2*kappa = 2e-4.
    params = NetworkParams(1e-4, 0.0)
    grid = FrequencyGrid(-6.0, 6.0, 120)
    wt = trapezoid_weights(grid)
    ga = channel_matrices(grid, IDENTICAL, params)
    xi = pulse_amplitude(PULSE, grid.points)
    dist = float(wt @ np.abs(ga.lr - np.outer(xi, xi)) ** 2 @ wt)
    p = probabilities(IDENTICAL, params, FrequencyGrid(-40.0, 40.0, 800))
    same = p.p_ll + p.p_rr
    ok = dist <= 1e-3 and same <= 1e-3
    report("weak-coupling-limit", ok, f"LR distance {dist:.2e}, same-channel mass {same:.2e}")
    assert dist <= 1e-3
    assert same <= 1e-3


def test_strong_coupling_limit():
    params = NetworkParams(100.0, 0.0)
    inp = TwoPhotonInput(LorentzianPulse(1.0), LorentzianPulse(2.0))
    grid = FrequencyGrid(-12.0, 12.0, 121)
    wt = trapezoid_weights(grid)
    ga = channel_matrices(grid, inp, params)
    xi_l = pulse_amplitude(inp.left, grid.points)
    xi_r = pulse_amplitude(inp.right, grid.points)
    dist = float(wt @ np.abs(ga.lr - np.outer(xi_r, xi_l)) ** 2 @ wt)
    ok = dist <= 1e-2
    report("strong-coupling-limit", ok, f"swap distance {dist:.2e}")
    assert dist <= 1e-2


def test_hom_reproduction():
    rows = hom_scan([0.5, 1.0, 2.0, 5.0, 10.0, 20.0], 2.0, PULSE, WIDE)
    decreasing = all(b.p_lr < a.p_lr for a, b in zip(rows, rows[1:]))
    tail = rows[-1].p_lr
    sym = max(abs(r.p_ll - r.p_rr) for r in rows)
    no_detuning = hom_scan([100.0], 0.0, PULSE, WIDE)[0].p_lr
    ok = decreasing and tail < 0.1 and sym <= 1e-6 and no_detuning >= 0.99
    report(
        "hom-reproduction",
        ok,
        f"decreasing={decreasing}, p_lr(20)={tail:.3f}, |p_ll-p_rr|<={sym:.1e}, "
        f"p_lr(kappa=100, no detuning)={no_detuning:.3f}",
    )
    assert decreasing
    assert tail < 0.1
    assert sym <= 1e-6
    assert no_detuning >= 0.99


def test_identical_pulse_identities():
    rng = np.random.default_rng(2718)
    params = NetworkParams(1.5, 0.0)
    w1, w2 = rng.uniform(-6, 6, (200, 2)).T
    at = amplitudes_at(w1, w2, IDENTICAL, params)
    worst_ll_rr = float(np.max(np.abs(at.ll - at.rr)))
    w1, w2 = rng.uniform(-6, 6, (100, 2)).T
    t12 = amplitudes_at(w1, w2, IDENTICAL, params).rr
    t21 = amplitudes_at(w2, w1, IDENTICAL, params).rr
    worst_swap = float(np.max(np.abs(np.conj(t12) * t21 - np.abs(t12) ** 2)))
    w1, w2 = rng.uniform(-6, 6, (100, 2)).T
    lr = amplitudes_at(w1, w2, IDENTICAL, params).lr
    worst_lr = max(abs(t - residue_t_lr(a, b, PULSE, params)) for t, a, b in zip(lr, w1, w2))
    ok = worst_ll_rr <= 1e-12 and worst_swap <= 1e-8 and worst_lr <= 1e-12
    report(
        "identical-pulse-identities",
        ok,
        f"|T_LL-T_RR|<={worst_ll_rr:.1e}, swap identity<={worst_swap:.1e}, "
        f"general-vs-specialized<={worst_lr:.1e}",
    )
    assert worst_ll_rr <= 1e-12
    assert worst_swap <= 1e-8
    assert worst_lr <= 1e-12


def test_single_photon_unitarity():
    worst = 0.0
    for gamma in (0.5, 1.0, 2.0):
        for kappa in (0.1, 1.0, 10.0):
            norm = single_photon_norm(LorentzianPulse(gamma), NetworkParams(kappa, 0.0))
            worst = max(worst, abs(norm - 1.0))
    # Strong-coupling reflection: the right-channel output approaches the
    # negated input over the analysis window.
    t1, t2 = theta_arrays(WIDE.points, NetworkParams(100.0, 0.0))
    xi = pulse_amplitude(PULSE, WIDE.points)
    wt = trapezoid_weights(WIDE)
    leak = float(wt @ np.abs(t2 * xi + xi) ** 2)
    # Pass-through is exact at kappa = 0.
    exact = theta_arrays(1.23, NetworkParams(0.0)) == (1.0 + 0.0j, 0.0j)
    p_left, p_right = single_photon_probabilities(PULSE, NetworkParams(0.0), WIDE)
    exact = exact and (p_left, p_right) == (1.0, 0.0)
    ok = worst <= 1e-6 and leak <= 1e-3 and exact
    report(
        "single-photon-unitarity",
        ok,
        f"worst |norm-1| {worst:.1e}, reflection leak {leak:.1e}, pass-through exact={exact}",
    )
    assert worst <= 1e-6
    assert leak <= 1e-3
    assert exact


def test_linear_response_unitarity():
    rng = np.random.default_rng(31415)
    worst = 0.0
    for _ in range(10000):
        omega = rng.uniform(-100, 100)
        params = NetworkParams(rng.uniform(1e-6, 50), rng.uniform(-20, 20))
        t1, t2 = theta_arrays(omega, params)
        worst = max(
            worst,
            abs(abs(t1) ** 2 + abs(t2) ** 2 - 1.0),
            abs(t1 * np.conj(t2) + t2 * np.conj(t1)),
        )
    ok = worst <= 1e-12
    report("linear-response-unitarity", ok, f"worst deviation {worst:.1e} over 10^4 draws")
    assert worst <= 1e-12


def test_dropping_convolution_shifts_p_lr_and_keeps_conservation():
    # Negative control for the shared convolution term, as verify's
    # convolution-effect check: dropping it must move P_LR by more than
    # 1e-2 (about 0.04 here).  The total cannot show it: the remaining
    # terms are the product of two unitary single-photon scatterings, so
    # they still conserve probability within the 2e-3 gate.
    params = NetworkParams(1.5, 0.0)
    full = probabilities(IDENTICAL, params, WIDE)
    linear = probabilities(IDENTICAL, params, WIDE, include_convolution=False)
    shift = abs(full.p_lr - linear.p_lr)
    dev = abs(linear.total - 1.0)
    ok = shift > 1e-2 and dev <= 2e-3
    report("dropping-convolution-shifts-p-lr", ok, f"P_LR shift {shift:.3f}, deviation {dev:.2e}")
    assert shift > 1e-2
    assert dev <= 2e-3


def test_cli_contract_and_verify(tmp_path, capsys):
    # Determinism: identical flags give byte-identical files.
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    flags = ["amplitudes", "--channel", "lr", "--gamma", "1", "--kappa", "1.5",
             "--grid", "-4:4:9"]
    assert cli_main(flags + ["--output", str(a)]) == 0
    assert cli_main(flags + ["--output", str(b)]) == 0
    deterministic = a.read_bytes() == b.read_bytes()

    # Exit codes: 0 success, 2 validation, 3 non-convergence.
    ok_codes = (
        cli_main(["probabilities", "--kappa", "0"]) == 0
        and cli_main(["probabilities", "--gamma", "-2"]) == 2
        and cli_main(["amplitudes", "--grid", "-2:2:5", "--tol", "1e-300"]) == 3
    )
    capsys.readouterr()

    start = time.time()
    rep = run_verify(quick=False)
    elapsed = time.time() - start
    verify_ok = rep["all_passed"] and elapsed <= 120.0
    ok = deterministic and ok_codes and verify_ok
    report(
        "cli-contract-and-verify",
        ok,
        f"deterministic={deterministic}, exit codes ok={ok_codes}, "
        f"verify pass={rep['all_passed']} in {elapsed:.0f}s",
    )
    assert deterministic
    assert ok_codes
    assert rep["all_passed"]
    assert elapsed <= 120.0
