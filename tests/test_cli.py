"""Integration tests for the command-line interface: determinism, exit
codes, config round trips, and output schemas."""

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import re
import struct
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import photonsim.amplitudes
import photonsim.cli
import photonsim.kernels
from photonsim.cli import main
from photonsim.model import (
    FrequencyGrid,
    LorentzianPulse,
    load_sampled_pulse,
    save_sampled_pulse,
    tabulate_pulse,
)
from photonsim.verify import _CHECKS, run_verify

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


# Small-grid calls whose output bytes are pinned: every output file
# (written into an empty directory, the two pulse files aside) and stdout.
PAIR = ["--gamma-l", "0.8", "--gamma-r", "1.3", "--kappa", "1.2", "--omega-c", "0.5",
        "--omega-o", "0.3"]
TABULATED = ["--pulse-csv-l", "left.csv", "--pulse-csv-r", "right.csv"]
BYTE_CALLS = {
    "amplitudes-ll-csv": ["amplitudes", "--channel", "ll", *PAIR, "--grid", "-3:3:7"],
    "amplitudes-lr-csv": ["amplitudes", "--channel", "lr", *PAIR, "--grid", "-3:3:7"],
    "amplitudes-ll-json": ["amplitudes", "--channel", "ll", *PAIR, "--grid", "-3:3:7",
                           "--format", "json"],
    "amplitudes-lr-json": ["amplitudes", "--channel", "lr", *PAIR, "--grid", "-3:3:7",
                           "--format", "json"],
    # An identical-pulse map at the default grid's size, which repeats many values.
    "amplitudes-lr-121-csv": ["amplitudes", "--channel", "lr", "--gamma", "1", "--kappa", "1.5",
                              "--grid", "-6:6:121"],
    "amplitudes-lr-121-json": ["amplitudes", "--channel", "lr", "--gamma", "1", "--kappa", "1.5",
                               "--grid", "-6:6:121", "--format", "json"],
    # A distinct-pulse map at the default grid's size, with values in all
    # three %g layouts (d.ddde-05, 0.0ddd and ddd.ddd).
    "amplitudes-ll-121-pair-csv": ["amplitudes", "--channel", "ll", *PAIR, "--grid", "-6:6:121"],
    "single": ["single", "--gamma", "0.9", "--kappa", "1.2", "--omega-c", "0.4",
               "--grid", "-100:100:201"],
    # The pulse-scaled default grid: 801 points.
    "single-801": ["single", "--gamma", "0.9", "--kappa", "1.2", "--omega-c", "0.4"],
    "single-pulse-csv": ["single", "--pulse-csv", "left.csv", "--kappa", "0.7",
                         "--grid", "-12:12:49"],
    "hom": ["hom", "--kappas", "0.5,1,2", "--grid", "-10:10:41"],
    "probabilities": ["probabilities", *PAIR],
    "probabilities-identical": ["probabilities", "--gamma", "1", "--kappa", "1.5", "--omega-c", "3"],
    "probabilities-tabulated": ["probabilities", *TABULATED, "--kappa", "0.9",
                                "--omega-c", "-0.3", "--grid", "-6:6:25"],
    "schmidt": ["schmidt", "--channel", "lr", *PAIR, "--grid", "-3:3:9"],
    "save-config": ["probabilities", "--kappa", "0.7", "--tol", "1e-7",
                    "--save-config", "run.json"],
    "verify-quick": ["verify", "--quick"],
}
# The sha256 prefix of no bytes: the call printed nothing.
EMPTY = "e3b0c44298fc1c149afbf4c8996fb924"
# sha256 prefixes recorded when the CSV and JSON writers formatted one value
# per call, before they formatted one grid row or float list per call.
PINNED_BYTES = {
    "amplitudes-ll-csv": {
        "out": "16c284a176ce9a411c9f929d6975cbb6",
        "stdout": EMPTY,
    },
    "amplitudes-lr-csv": {
        "out": "8711f5492627c64ca1cecf15fb780a92",
        "stdout": EMPTY,
    },
    "amplitudes-ll-json": {
        "out": "cf1bf143976d45323e41423510def155",
        "stdout": EMPTY,
    },
    "amplitudes-lr-json": {
        "out": "0788723fe4861f9e8cb5791cb11b06ec",
        "stdout": EMPTY,
    },
    # Recorded before the writers formatted each distinct double once.
    "amplitudes-lr-121-csv": {
        "out": "6d2b58b1488855c63b811e573f349ceb",
        "stdout": EMPTY,
    },
    "amplitudes-lr-121-json": {
        "out": "2f66335922169c4da27e850d8c7b2d6c",
        "stdout": EMPTY,
    },
    # Recorded before the CSV writer formatted values in numpy.
    "amplitudes-ll-121-pair-csv": {
        "out": "91c7b069e1e41701ac09804eb80c1dec",
        "stdout": EMPTY,
    },
    "single-801": {
        "out": "7cf34ee8a7f3b0d9f1e58af592820ac2",
        "stdout": "69e7e695167fbc25b75dad7791ea7dc4",
    },
    "single": {
        "out": "77b255dd4136edc4cc78fd8d498aeca7",
        "stdout": "8ee5f294dc02aec8ff00bd4e186b6515",
    },
    "single-pulse-csv": {
        "out": "5b7428f0b4331141033ee4810dbcf2e0",
        "stdout": "711095ac76789ea6cfb8b94060cae2c6",
    },
    # hom, probabilities, probabilities-identical and save-config re-pinned
    # when the whole-plane inner integrand moved to real arithmetic and the
    # outer line's error-bound row stopped steering its refinement (P moved
    # by at most 1.7e-13).
    "hom": {
        "out": "9b2e3bb36044bf30068322c3a9bce503",
        "stdout": EMPTY,
    },
    "probabilities": {
        "out": "d01a54a11890d51ba6542aa3943cecad",
        "stdout": EMPTY,
    },
    "probabilities-identical": {
        "out": "292b3ed4be17dbea3ca963b50e8a3a9a",
        "stdout": EMPTY,
    },
    "probabilities-tabulated": {
        "out": "bfe2fa5af21023776e48e93c1ee9a04c",
        "stdout": EMPTY,
    },
    "schmidt": {
        "out": "79f3c36ee5f82c2e78727caa2c1e9443",
        "stdout": EMPTY,
    },
    "save-config": {
        "out": "f59f3fc1417f4fc82a3954e15f274546",
        "run.json": "49cb1bb64f860c2b1dc27a2c3712ce97",
        "stdout": EMPTY,
    },
    "verify-quick": {
        "out": "4c40f9a06d703c8afe787d23e99d594b",
        "stdout": "2f2ae4c6afaccc34d269cb959bb674c2",
    },
}


@pytest.mark.parametrize("name", BYTE_CALLS)
def test_output_bytes_are_pinned(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    save_sampled_pulse(tabulate_pulse(LorentzianPulse(1.0), FrequencyGrid(-10.0, 10.0, 81)),
                       tmp_path / "left.csv")
    save_sampled_pulse(tabulate_pulse(LorentzianPulse(1.4, 0.5), FrequencyGrid(-10.0, 10.0, 81)),
                       tmp_path / "right.csv")
    assert main([*BYTE_CALLS[name], "--output", "out"]) == 0
    written = sorted(p for p in tmp_path.iterdir() if p.name not in ("left.csv", "right.csv"))
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:32] for p in written}
    digests["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:32]
    assert digests == PINNED_BYTES[name]


# Doubles a 17-digit writer must keep: signed zero, infinities, NaN, the
# smallest subnormal, a larger subnormal, the largest finite double.
EDGE_FLOATS = [-0.0, 0.0, float("inf"), float("-inf"), float("nan"), 5e-324,
               2.2250738585072009e-308, 1.7976931348623157e308]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
ANY_FLOAT = st.one_of(FLOATS, FLOATS.map(np.float64))


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# NaNs of both signs and of three payloads, which the writers' search for
# distinct doubles keeps apart, next to both zeros and repeated values.
NANS = [_double(0x7FF8000000000000), _double(0xFFF8000000000000),
        _double(0x7FF8000000000001), _double(0xFFF80000DEADBEEF)]
REPEATS = [[0.0, -0.0, NANS[0], 1.5], [NANS[1], 1.5, -0.0, NANS[2]],
           [NANS[3], 0.0, 0.0, -0.0], [1.5, NANS[0], NANS[3], -0.0]]


def _csv_body(table) -> str:
    """The rows `cli._write_csv` writes for `table`, after its header line."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        photonsim.cli._write_csv({"output": None}, {}, "header", table)
    return out.getvalue().split("header\n", 1)[1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 8).flatmap(
    lambda width: st.lists(st.lists(ANY_FLOAT, min_size=width, max_size=width), max_size=6)
    .map(lambda rows: (width, rows))))
@example((len(EDGE_FLOATS), [EDGE_FLOATS, EDGE_FLOATS[::-1]]))
@example((4, REPEATS))
def test_csv_table_formats_each_value_as_format_17g(case):
    width, rows = case
    want = "".join(",".join(format(x, ".17g") for x in row) + "\n" for row in rows)
    assert _csv_body(np.array(rows, dtype=float).reshape(len(rows), width)) == want


def _record_texts(values) -> list:
    """The text of each record `cli._records` makes for the doubles `values`."""
    texts = []
    for i in range(0, len(values), photonsim.cli._BLOCK):
        rec = photonsim.cli._records(values[i:i + photonsim.cli._BLOCK])
        rec[:, -1] = ord("\n")
        texts += rec[rec != 0].tobytes().decode("ascii").split("\n")[:-1]
    return texts


def _with_neighbours(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


def test_csv_records_match_format_17g_on_a_seeded_sweep():
    rng = np.random.default_rng(20261020)
    patterns = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    subnormals = rng.integers(1, 2**52, 2_000) * 5e-324
    values = np.concatenate([
        patterns.view(np.float64), NANS,
        np.round(rng.normal(0.0, 100.0, 20_000), 3), np.arange(-3000.0, 3001.0),
        _with_neighbours([float(f"1e{k}") for k in range(-300, 301)]),
        _with_neighbours([1e-5, 1e-4, 1e16, 1e17]), [np.nextafter(1e17, 0.0)],
        subnormals, -subnormals, EDGE_FLOATS,
    ])
    assert np.isnan(values).sum() > 50
    want = [format(x, ".17g") for x in values.tolist()]
    bad = [(x, got, w) for x, got, w in zip(values.tolist(), _record_texts(values), want)
           if got != w]
    assert bad == []


def test_records_decide_nearly_every_value_of_a_default_map(tmp_path, monkeypatch):
    # Python's % is the per-value fallback; it must stay rare on real maps.
    counts = {"values": 0, "fallback": 0}

    def records(x, _real=photonsim.cli._records):
        counts["values"] += len(x)
        return _real(x)

    def percent_record(v, _real=photonsim.cli._percent_record):
        counts["fallback"] += 1
        return _real(v)

    monkeypatch.setattr(photonsim.cli, "_records", records)
    monkeypatch.setattr(photonsim.cli, "_percent_record", percent_record)
    for argv in (["amplitudes"], ["amplitudes", *PAIR]):
        assert main([*argv, "--output", str(tmp_path / "out")]) == 0
    assert counts["values"] > 50_000
    assert counts["fallback"] <= 0.01 * counts["values"]


# tracemalloc peak of `_write_csv` on the distinct-pulse default map below,
# with the values formatted by one Python % call (measured before the CSV
# writer formatted values in numpy).
PERCENT_WRITER_PEAK_BYTES = 5_622_116


def test_csv_writer_peaks_no_higher_than_the_percent_writer(tmp_path, monkeypatch):
    calls = []
    write_csv = photonsim.cli._write_csv
    monkeypatch.setattr(photonsim.cli, "_write_csv", lambda *args: calls.append(args))
    assert main(["amplitudes", *PAIR, "--grid", "-6:6:121", "--output", str(tmp_path / "out")]) == 0
    tracemalloc.start()
    try:
        write_csv(*calls[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PERCENT_WRITER_PEAK_BYTES


def test_single_without_output_writes_the_table_to_stdout_and_the_summary_to_stderr(capsys):
    assert run_cli("single", "--grid=-400:400:5") == 0
    out, err = capsys.readouterr()
    rows = list(csv.reader(ln for ln in out.splitlines() if not ln.startswith("#")))
    assert rows[0] == "nu,eta_l_re,eta_l_im,eta_r_re,eta_r_im,abs2_l,abs2_r".split(",")
    assert [len(row) for row in rows[1:]] == [7] * 5
    assert np.isfinite(np.array(rows[1:], dtype=float)).all()
    summary = json.loads(err)
    assert summary["p_left"] + summary["p_right"] == pytest.approx(1.0, abs=1e-6)


FLOAT_ARRAYS = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5),
    elements=st.one_of(st.sampled_from(EDGE_FLOATS + NANS), st.floats()))
JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), ANY_FLOAT, st.text(max_size=12),
                        FLOAT_ARRAYS)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=6),
                            st.dictionaries(st.text(max_size=8), inner, max_size=6)),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(JSON_VALUES)
@example({"": {}, "e": [], "q\"\\/\n\t\x00\u00e9\u4e2d\U0001f600": ["a, b", "\u2028", -0.0],
          "n": [None, True, False, 3, -7, 2**70, [1.5, [float("nan")], []], {"z": [], "a": {}}],
          "f": EDGE_FLOATS, "nested": [[1.0, 2.0], [float("inf"), -5e-324]]})
@example({"a": np.array(EDGE_FLOATS), "m": np.array(REPEATS), "e": np.zeros(0),
          "rows": np.zeros((2, 0)), "cols": np.zeros((0, 3)),
          "l": [np.array([[float("-inf"), -0.0], [1e300, 1e-7]]), np.array([2.5])]})
def test_json_dumps_matches_indented_sorted_json(obj):
    def plain(x):
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        if isinstance(x, list):
            return [plain(v) for v in x]
        return x.tolist() if isinstance(x, np.ndarray) else x

    want = json.dumps(plain(obj), indent=2, sort_keys=True) + "\n"
    assert photonsim.cli._json_dumps(obj) == want


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


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_sites_resolve(monkeypatch):
    # The benchmark tracer patches photonsim functions by name; a renamed
    # function would silently zero its counters instead of failing.
    tracing = load_tracing(monkeypatch)
    missing = [
        f"{module.__name__}.{attr}" for module, attr, _ in tracing.SITES if not hasattr(module, attr)
    ]
    assert tracing.SITES
    assert missing == []


def test_cli_calls_traced_names_through_its_attributes(monkeypatch, tmp_path):
    # The tracer replaces these names on photonsim.cli while a run lasts; a
    # command that bound one at import time would bypass the replacement.
    tracing = load_tracing(monkeypatch)
    sites = [attr for module, attr, _ in tracing.SITES if module is photonsim.cli and attr != "main"]
    calls = dict.fromkeys(sites, 0)
    for attr in sites:
        def counted(*args, _real=getattr(photonsim.cli, attr), _attr=attr, **kwargs):
            calls[_attr] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(photonsim.cli, attr, counted)
    pulse_path = tmp_path / "pulse.csv"
    save_sampled_pulse(tabulate_pulse(LorentzianPulse(1.0), FrequencyGrid(-30.0, 30.0, 201)), pulse_path)
    out = str(tmp_path / "out")
    assert run_cli("single", "--pulse-csv", str(pulse_path), "--output", out) == 0
    assert run_cli("probabilities", "--kappa", "0.5", "--output", out) == 0
    assert run_cli("amplitudes", "--grid", "-2:2:5", "--output", out) == 0
    assert run_cli("schmidt", "--grid", "-3:3:13", "--output", out) == 0
    assert len(sites) == 7
    assert [attr for attr, n in calls.items() if n == 0] == []


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


@pytest.mark.parametrize("command", ["single", "probabilities"])
def test_empty_grid_exits_2(tmp_path, capsys, command):
    # Only an absent grid picks single's pulse-scaled window; an empty one,
    # from the flag or from a config, once ran on that window and exited 0.
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"grid": ""}))
    for args in (["--grid="], ["--config", str(cfg_path)]):
        assert run_cli(command, *args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: grid must be 'min:max:n', got ''\n"


def test_single_grid_missing_tabulated_tail_exits_2(tmp_path, capsys):
    # The grid leaves 1.09e-2 of the interpolated pulse outside, above the
    # 1e-2 that single accepts; the tail was once under-reported as 9.45e-3.
    path = tmp_path / "pulse.csv"
    save_sampled_pulse(tabulate_pulse(LorentzianPulse(1.0), FrequencyGrid(-10.0, 10.0, 41)), path)
    args = ["single", "--pulse-csv", str(path), "--kappa", "1", "--output", str(tmp_path / "s.csv")]
    assert run_cli(*args, "--grid", "-7.5:7.5:61") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "1.090e-02" in err
    assert run_cli(*args, "--grid", "-10:10:81") == 0


def test_tabulated_window_too_narrow_exits_2(tmp_path, capsys):
    path = tmp_path / "pulse.csv"
    save_sampled_pulse(tabulate_pulse(LorentzianPulse(1.0), FrequencyGrid(-10.0, 10.0, 81)), path)
    assert run_cli("probabilities", "--pulse-csv-l", str(path), "--pulse-csv-r", str(path),
                   "--kappa", "0.3", "--omega-c", "0", "--grid", "-1:1:9") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "1.134e-02" in captured.err


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


def _three_sample_csv(tmp_path, peak):
    path = tmp_path / "pulse.csv"
    path.write_text(f"nu,re,im\n-1.0,0,0\n0.0,{peak!r},0\n1.0,0,0\n")
    return path


@pytest.mark.parametrize("peak", [1.3407807929942597e154, 1e-170])
def test_pulse_csv_with_extreme_samples(tmp_path, capsys, peak):
    # Squaring these samples once overflowed (exit 2 on "overflow encountered
    # in square") or underflowed to "pulse samples are identically zero".
    path = _three_sample_csv(tmp_path, peak)
    assert run_cli("single", "--pulse-csv", str(path), "--kappa", "1") == 0
    pulse = load_sampled_pulse(path)
    assert np.trapezoid(np.abs(pulse.values) ** 2, pulse.grid.points) == pytest.approx(1.0, abs=1e-15)


def test_pulse_csv_without_a_finite_normalising_factor_exits_2(tmp_path, capsys):
    # A lone 5e-324 would need a factor of about 4e323, beyond the largest double.
    assert run_cli("single", "--pulse-csv", str(_three_sample_csv(tmp_path, 5e-324)), "--kappa", "1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "5e-324 to 1.8e308" in err


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


def test_empty_kappa_list_exits_2(capsys):
    assert run_cli("hom", "--kappas", ",") == 2
    assert capsys.readouterr().err == "error: kappas is empty: give at least one coupling strength\n"


def test_no_convergence_exit_code(capsys):
    code = run_cli("amplitudes", "--channel", "lr", "--grid", "-2:2:5",
                   "--kappa", "1.5", "--tol", "1e-300")
    assert code == 3
    assert "converge" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_exits_2(capsys, tol):
    # --tol nan once ran past 60 s without converging; --tol inf exited 0
    # with every panel accepted on its first pass.
    start = time.process_time()
    assert run_cli("probabilities", "--tol", tol) == 2
    assert time.process_time() - start < 5.0
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("args", [("probabilities", "--kappa"), ("amplitudes", "--kappa"),
                                  ("schmidt", "--kappa"), ("hom", "--kappas")])
def test_overflowing_kappa_exits_2(capsys, args):
    # kappa**2 once raised an OverflowError traceback and exit code 1.
    assert run_cli(*args, "1e300") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_separate_negative_exponent_value(tmp_path):
    # argparse alone reads "-1.5e-05" as an option and exits with
    # "expected one argument".
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli("single", "--omega-o", "-1.5e-05", "--kappa", "2", "--output", str(a)) == 0
    assert run_cli("single", "--omega-o=-1.5e-05", "--kappa", "2", "--output", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "# omega_o = -1.5e-05" in a.read_text()


ROUND_TRIPS = {
    "amplitudes": ["--channel", "rr", "--gamma", "1.3", "--kappa", "0.8", "--omega-c", "0.4",
                   "--grid", "-3:3:7"],
    "single": ["--gamma", "1.3", "--kappa", "0.8", "--omega-c", "0.4", "--grid", "-100:100:401"],
    "probabilities": ["--gamma-l", "1", "--gamma-r", "2", "--kappa", "0.8", "--tol", "1e-7"],
    "hom": ["--kappas", "0.5,2", "--ratio", "1.5", "--gamma", "1.2", "--grid", "-8:8:17"],
    "schmidt": ["--channel", "ll", "--kappa", "0.8", "--omega-o", "0.2", "--grid", "-3:3:13"],
    "verify": ["--quick", "--threads", "2"],
}


@pytest.mark.parametrize("command", ROUND_TRIPS)
def test_config_round_trip(tmp_path, capsys, command):
    cfg_path = tmp_path / "run.json"
    a = tmp_path / "a.out"
    b = tmp_path / "b.out"
    assert run_cli(command, *ROUND_TRIPS[command],
                   "--save-config", str(cfg_path), "--output", str(a)) == 0
    first = capsys.readouterr()
    assert json.loads(cfg_path.read_text())["command"] == command
    assert run_cli(command, "--config", str(cfg_path), "--output", str(b)) == 0
    assert capsys.readouterr() == first
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command, config, named", [
    ("probabilities", {"command": "probabilities", "gamma": 1.0, "bogus": 2}, "unknown config keys"),
    ("probabilities", [1], "JSON object"),
    ("probabilities", {"grid": 5}, "'grid'"),
    ("probabilities", {"gamma": None}, "'gamma'"),
    ("probabilities", {"kappa": [1]}, "'kappa'"),
    ("probabilities", {"omega_c": True}, "'omega_c'"),
    ("probabilities", {"tol": "1e-6x"}, "'tol'"),
    ("hom", {"kappas": 2}, "'kappas'"),
    ("amplitudes", {"channel": {"lr": 1}}, "'channel'"),
    ("single", {"threads": "3.5"}, "'threads'"),
    ("verify", {"quick": "no"}, "'quick'"),
    ("verify", {"quick": None}, "'quick'"),
], ids=["unknown-keys", "list", "grid-int", "gamma-null", "kappa-list", "omega_c-bool",
        "tol-text", "kappas-int", "channel-object", "threads-float-text", "quick-text", "quick-null"])
def test_config_rejects_unknown_keys(tmp_path, capsys, command, config, named):
    # Malformed values once crashed with a traceback, ran with a bool as a
    # number ("omega_c": true) or ran the quick suite for "quick": "no".
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli(command, "--config", str(cfg_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err


def test_config_numbers_may_be_strings(tmp_path, capsys):
    # As on the command line, a config value may be a string that the
    # flag's type parses; "kappa": "0.8" once crashed with a TypeError.
    flags = ["--kappa", "0.8", "--omega-c", "0.4", "--tol", "1e-7", "--grid=-8:8:17"]
    assert run_cli("probabilities", *flags) == 0
    want = capsys.readouterr().out
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"kappa": "0.8", "omega_c": "0.4", "tol": "1e-7",
                                    "grid": "-8:8:17"}))
    assert run_cli("probabilities", "--config", str(cfg_path)) == 0
    assert capsys.readouterr().out == want
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg_path.write_text(json.dumps({"kappas": "1", "ratio": "2", "gamma": "1", "omega_o": "0"}))
    assert run_cli("hom", "--config", str(cfg_path), "--output", str(a)) == 0
    assert run_cli("hom", "--kappas", "1", "--ratio", "2", "--gamma", "1", "--omega-o", "0",
                   "--output", str(b)) == 0
    rows = [[ln for ln in f.read_text().splitlines() if not ln.startswith("#")] for f in (a, b)]
    assert rows[0] == rows[1] and len(rows[0]) == 2


# Each subcommand's flags, as the parser accepted them before it was built
# from one table; --config, --save-config, --output and --format go with
# every command.
HELP_FLAGS = {
    "single": "--gamma --omega-o --kappa --omega-c --pulse-csv --grid",
    "amplitudes": "--channel --gamma --gamma-l --gamma-r --omega-o --kappa --omega-c "
                  "--pulse-csv-l --pulse-csv-r --grid",
    "schmidt": "--channel --gamma --gamma-l --gamma-r --omega-o --kappa --omega-c "
               "--pulse-csv-l --pulse-csv-r --grid",
    "probabilities": "--gamma --gamma-l --gamma-r --omega-o --kappa --omega-c "
                     "--pulse-csv-l --pulse-csv-r --grid",
    "hom": "--kappas --ratio --gamma --omega-o --grid",
    "verify": "--quick",
}


@pytest.mark.parametrize("command", HELP_FLAGS)
def test_help_lists_each_commands_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--help")
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    want = ["-h", *HELP_FLAGS[command].split(),
            "--config", "--save-config", "--output", "--format", "--threads", "--tol"]
    assert re.findall(r"\[(-[-a-z]+)", usage) == want


@pytest.mark.parametrize("argv", [["hom", "--format", "json"], ["probabilities", "--format", "csv"],
                                  ["schmidt", "--format", "csv"], ["single", "--format", "json"],
                                  ["verify", "--quick", "--format", "csv"]])
def test_format_the_command_does_not_write_exits_2(tmp_path, capsys, argv):
    # Rejected before anything runs or is written, the saved config included.
    flags = ["--output", str(tmp_path / "out"), "--save-config", str(tmp_path / "run.json")]
    code, out, err = _outcome(capsys, [*argv, *flags])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {argv[0]} writes ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["hom", "--kappas", "1", "--format", "csv"],
                                  ["probabilities", "--format", "json"],
                                  ["schmidt", "--grid", "-3:3:9", "--format", "json"],
                                  ["single", "--format", "csv"]])
def test_format_the_command_writes_is_its_default(capsys, argv):
    assert _outcome(capsys, argv) == _outcome(capsys, argv[:-2])


def test_verify_quick_passes(tmp_path):
    report = run_verify(quick=True)
    assert report["all_passed"]
    names = {c["name"] for c in report["checks"]}
    assert "kernel-factorisation" in names
    assert "oracle-vs-quadrature" in names
    assert "probability-conservation" in names


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_identical_pulse_identities_batch_their_nodes(monkeypatch, quick):
    # The check evaluates its nodes in one amplitudes_at call and the
    # swapped nodes in a second, not one convolution call per node.
    real, calls = photonsim.amplitudes.j_lines, []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(photonsim.amplitudes, "j_lines", counted)
    value, threshold, _ = dict(_CHECKS)["identical-pulse-identities"](quick)
    assert value <= threshold
    assert len(calls) <= 2


def test_verify_quick_report_names_the_path_each_check_ran(tmp_path, capsys):
    # Lorentzian probabilities never read a grid, so the checks built on
    # them must not name one.
    out = tmp_path / "report.json"
    assert run_cli("verify", "--quick", "--output", str(out)) == 0
    details = {c["name"]: c["detail"] for c in json.loads(out.read_text())["checks"]}
    for name in ("probability-conservation", "hom-monotonicity", "convolution-effect"):
        assert details[name].endswith(" over the whole plane")
        assert "n=" not in details[name]


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one CLI call, SystemExit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # main parses every call with one parser per process; each call must
    # print what the same call prints on a freshly built parser.
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"kappa": 0.8, "grid": "-8:8:17"}))
    calls = [
        ["probabilities", "--config", str(cfg_path)],
        ["probabilities"],
        ["probabilities", "--kappa", "abc"],
        ["schmidt", "--help"],
        ["single"],
        ["probabilities", "--config", str(cfg_path)],
    ]
    photonsim.cli.build_parser.cache_clear()
    reused = [_outcome(capsys, argv) for argv in calls]
    assert photonsim.cli.build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        photonsim.cli.build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert reused == fresh
    assert json.loads(reused[0][1])["kappa"] == 0.8
    assert json.loads(reused[1][1])["kappa"] == 1.5
    assert reused[2][0] == 2 and "invalid float value: 'abc'" in reused[2][2]
    assert reused[3][0] == 0 and reused[3][1].startswith("usage: photonsim schmidt")
    assert reused[4][0] == 0 and reused[5] == reused[0]


def test_verify_catches_injected_kernel_bug(monkeypatch):
    # Negative control: a sign flip in the nonlinear kernel must be caught
    # by the factorisation check.  The conjugation check cannot see it:
    # -g(-w, -omega_c) = conj(-g(w, omega_c)) holds whenever the true
    # kernel's identity does, so the flipped kernel still passes it.
    real = photonsim.kernels.g_kernel

    def flipped(*args, **kwargs):
        return -real(*args, **kwargs)

    monkeypatch.setattr(photonsim.kernels, "g_kernel", flipped)
    report = run_verify(quick=True)
    assert not report["all_passed"]
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "kernel-factorisation" in failed
    assert "kernel-conjugation-identity" not in failed


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
