"""Integration tests for the command-line interface: determinism, exit
codes, config round trips, and output schemas."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import photonsim.amplitudes
import photonsim.kernels
from photonsim.cli import main
from photonsim.model import (
    FrequencyGrid,
    LorentzianPulse,
    save_sampled_pulse,
    tabulate_pulse,
)
from photonsim.verify import run_verify

GOLDEN = Path(__file__).parent / "data" / "amplitudes_lr_13.csv"
TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def run_cli(*args):
    return main(list(args))


def test_amplitudes_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    flags = ["amplitudes", "--channel", "lr", "--gamma", "1", "--kappa", "1.5",
             "--omega-c", "0", "--grid", "-2:2:9"]
    assert run_cli(*flags, "--output", str(a)) == 0
    assert run_cli(*flags, "--output", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_amplitudes_zero_coupling_all_zero(tmp_path):
    out = tmp_path / "ll.csv"
    assert run_cli("amplitudes", "--channel", "ll", "--kappa", "0",
                   "--grid", "-2:2:5", "--output", str(out)) == 0
    rows = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")]
    header, data = rows[0], rows[1:]
    assert header == "omega1,omega2,re,im,abs2"
    assert len(data) == 25
    assert all(float(ln.split(",")[4]) == 0.0 for ln in data)


def test_amplitudes_golden_regression(tmp_path):
    out = tmp_path / "lr.csv"
    assert run_cli("amplitudes", "--channel", "lr", "--gamma", "1", "--kappa", "1.5",
                   "--omega-c", "0", "--grid", "-6:6:13", "--output", str(out)) == 0

    def parse(path):
        rows = [ln for ln in Path(path).read_text().splitlines()
                if ln and not ln.startswith("#") and not ln.startswith("omega1")]
        return np.array([[float(x) for x in ln.split(",")] for ln in rows])

    got = parse(out)
    want = parse(GOLDEN)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-12


def test_amplitudes_json_format(tmp_path):
    out = tmp_path / "lr.json"
    assert run_cli("amplitudes", "--channel", "lr", "--grid", "-2:2:5",
                   "--format", "json", "--output", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["channel"] == "lr"
    assert len(payload["re"]) == 5 and len(payload["re"][0]) == 5


def test_probabilities_pass_through(capsys):
    assert run_cli("probabilities", "--kappa", "0", "--gamma", "1") == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["p_ll"], payload["p_lr"], payload["p_rr"]) == (0.0, 1.0, 0.0)


def test_probabilities_conservation(capsys):
    assert run_cli("probabilities", "--gamma", "1", "--kappa", "1.5", "--omega-c", "0",
                   "--grid", "-40:40:401") == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["total"] - 1.0) <= 2e-3


def test_threads_flag_is_accepted_and_ignored(capsys):
    flags = ["probabilities", "--grid=-8:8:17"]
    assert run_cli(*flags) == 0
    plain = capsys.readouterr().out
    assert run_cli(*flags, "--threads", "3") == 0
    assert capsys.readouterr().out == plain


def test_tracer_sites_resolve(monkeypatch):
    # The benchmark tracer patches photonsim functions by name; a renamed
    # function would silently zero its counters instead of failing.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module.__name__}.{attr}" for module, attr, _ in tracing.SITES if not hasattr(module, attr)
    ]
    assert tracing.SITES
    assert missing == []


def test_probabilities_distinct_pulses(capsys):
    assert run_cli("probabilities", "--gamma-l", "1", "--gamma-r", "2", "--kappa", "1.5",
                   "--grid", "-40:40:401") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["identical_pulses"] is False
    assert abs(payload["total"] - 1.0) <= 5e-3


def test_grid_is_reported_unused_for_lorentzian_pulses(tmp_path, capsys):
    # --grid stays accepted; the outputs say whether the probabilities used it.
    assert run_cli("probabilities", "--kappa", "1.5", "--grid", "-8:8:17") == 0
    assert json.loads(capsys.readouterr().out)["grid_used"] is False
    pulse_path = tmp_path / "pulse.csv"
    save_sampled_pulse(tabulate_pulse(LorentzianPulse(1.0), FrequencyGrid(-10.0, 10.0, 81)), pulse_path)
    assert run_cli("probabilities", "--pulse-csv-l", str(pulse_path), "--pulse-csv-r", str(pulse_path),
                   "--grid", "-12:12:97") == 0
    assert json.loads(capsys.readouterr().out)["grid_used"] is True
    out = tmp_path / "hom.csv"
    assert run_cli("hom", "--kappas", "1", "--output", str(out)) == 0
    assert "# grid_used = False" in out.read_text().splitlines()


def test_single_strong_coupling_summary(tmp_path, capsys):
    out = tmp_path / "single.csv"
    assert run_cli("single", "--gamma", "1", "--omega-o", "0", "--kappa", "100",
                   "--omega-c", "0", "--output", str(out)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p_right"] >= 0.999
    assert payload["norm"] == pytest.approx(1.0, abs=1e-6)
    header = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][0]
    assert header == "nu,eta_l_re,eta_l_im,eta_r_re,eta_r_im,abs2_l,abs2_r"


def test_single_pass_through_summary(capsys):
    assert run_cli("single", "--kappa", "0", "--gamma", "1", "--output", "/dev/null") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p_left"] == 1.0


def test_single_pulse_csv(tmp_path, capsys):
    pulse_path = tmp_path / "pulse.csv"
    save_sampled_pulse(tabulate_pulse(LorentzianPulse(1.0), FrequencyGrid(-30.0, 30.0, 201)), pulse_path)
    out = tmp_path / "single.csv"
    assert run_cli("single", "--pulse-csv", str(pulse_path), "--kappa", "1",
                   "--output", str(out)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["norm"] == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_pulse_csv_exits_2(tmp_path, capsys, bad):
    # Such a file once gave `single` exit 0, NaN rows and a "norm": NaN that
    # is not JSON; probabilities failed late on "p_ll = nan".
    path = tmp_path / "pulse.csv"
    nu = np.linspace(-6.0, 6.0, 41)
    re = [str(v) for v in np.exp(-(nu**2))]
    re[20] = bad
    path.write_text("nu,re,im\n" + "".join(f"{a!r},{b},0\n" for a, b in zip(nu.tolist(), re)))
    for args in (["single", "--pulse-csv", str(path)],
                 ["probabilities", "--pulse-csv-l", str(path), "--pulse-csv-r", str(path)]):
        assert run_cli(*args, "--kappa", "1") == 2
        assert "pulse.csv:22:" in capsys.readouterr().err


def test_hom_scan_decreasing(tmp_path):
    out = tmp_path / "hom.csv"
    assert run_cli("hom", "--ratio", "2", "--kappas", "0.5,2,20", "--gamma", "1",
                   "--grid", "-40:40:401", "--output", str(out)) == 0
    rows = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")]
    assert rows[0] == "kappa,omega_c,p_lr,p_ll,p_rr"
    p_lr = [float(ln.split(",")[2]) for ln in rows[1:]]
    assert p_lr == sorted(p_lr, reverse=True)
    p_ll = [float(ln.split(",")[3]) for ln in rows[1:]]
    p_rr = [float(ln.split(",")[4]) for ln in rows[1:]]
    assert all(abs(a - b) <= 1e-6 for a, b in zip(p_ll, p_rr))


def test_schmidt_pass_through_entropy_zero(capsys):
    assert run_cli("schmidt", "--channel", "lr", "--kappa", "0", "--grid", "-6:6:61") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entropy"] <= 1e-9


def test_schmidt_zero_amplitude_exits_2(capsys):
    code = run_cli("schmidt", "--channel", "ll", "--kappa", "0", "--grid", "-6:6:61")
    assert code == 2
    assert "zero" in capsys.readouterr().err.lower()


def test_validation_error_exit_code(capsys):
    assert run_cli("probabilities", "--gamma", "-1") == 2
    assert run_cli("amplitudes", "--grid", "oops") == 2
    assert run_cli("probabilities", "--gamma-l", "1", "--kappa", "1") == 2


def test_no_convergence_exit_code(capsys):
    code = run_cli("amplitudes", "--channel", "lr", "--grid", "-2:2:5",
                   "--kappa", "1.5", "--tol", "1e-300")
    assert code == 3
    assert "converge" in capsys.readouterr().err


def test_separate_negative_exponent_value(tmp_path):
    # argparse alone reads "-1.5e-05" as an option and exits with
    # "expected one argument".
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli("single", "--omega-o", "-1.5e-05", "--kappa", "2", "--output", str(a)) == 0
    assert run_cli("single", "--omega-o=-1.5e-05", "--kappa", "2", "--output", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "# omega_o = -1.5e-05" in a.read_text()


def test_config_round_trip(tmp_path):
    cfg_path = tmp_path / "run.json"
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli("amplitudes", "--channel", "rr", "--gamma", "1.3", "--kappa", "0.8",
                   "--omega-c", "0.4", "--grid", "-3:3:7",
                   "--save-config", str(cfg_path), "--output", str(a)) == 0
    assert run_cli("amplitudes", "--config", str(cfg_path), "--output", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"command": "probabilities", "gamma": 1.0, "bogus": 2}))
    assert run_cli("probabilities", "--config", str(cfg_path)) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_verify_quick_passes(tmp_path):
    report = run_verify(quick=True)
    assert report["all_passed"]
    names = {c["name"] for c in report["checks"]}
    assert "oracle-vs-quadrature" in names
    assert "probability-conservation" in names


def test_verify_catches_injected_kernel_bug(monkeypatch):
    # Negative control: a sign flip in the nonlinear kernel must be caught
    # and attributed to the oracle comparison.
    real = photonsim.kernels.g_kernel

    def flipped(*args, **kwargs):
        return -real(*args, **kwargs)

    monkeypatch.setattr(photonsim.kernels, "g_kernel", flipped)
    report = run_verify(quick=True)
    assert not report["all_passed"]
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "oracle-vs-quadrature" in failed


def test_verify_catches_injected_grid_prefactor_bug(monkeypatch):
    # Negative control for the grid fill that ships: a sign flip in the
    # frequency-sum factor of the convolution prefactor must fail the
    # oracle comparison.
    real = photonsim.amplitudes.sum_factor

    def flipped(*args, **kwargs):
        return -real(*args, **kwargs)

    monkeypatch.setattr(photonsim.amplitudes, "sum_factor", flipped)
    report = run_verify(quick=True)
    assert not report["all_passed"]
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "oracle-vs-quadrature" in failed
