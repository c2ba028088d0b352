"""Command-line front end.

Subcommands: single | amplitudes | probabilities | hom | schmidt | verify.
Outputs are deterministic: identical flags produce byte-identical files
(no timestamps, fixed float formatting with 17 significant digits).  Both
writers format each distinct double once: the CSV writer makes format(x,
".17g") in numpy (`_records`), with Python's % for values it cannot decide,
and the JSON writer writes json.dumps(obj, indent=2, sort_keys=True), floats
by repr (`_doubles`).  `single` with no --output writes its summary to stderr.
Exit codes: 0 success, 2 validation error (also a --config file that is
not a JSON object or holds a value its flag could not take, and a
--format the command does not write), 3 quadrature non-convergence
(verify exits 1 when a check fails).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .amplitudes import Channel, amplitude_grid
from .errors import NoConvergence, PhotonSimError, ValidationError
from .model import (
    FrequencyGrid,
    LorentzianPulse,
    NetworkParams,
    TwoPhotonInput,
    load_sampled_pulse,
    pulse_support,
    pulse_width,
)
from .observables import (
    hom_scan,
    probabilities,
    schmidt_report,
    single_photon_norm,
    single_photon_probabilities,
    uses_grid,
)
from .kernels import single_photon_output
from .quadrature import QuadConfig
from .verify import run_verify


def _distinct(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct 64-bit patterns of the float array `a` (-0.0 and 0.0
    apart, NaN payloads apart) as doubles, and each entry's index among them
    in `a`'s shape: the writers format a value once, however often it recurs."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    bits, index = np.unique(a.view(np.int64), return_inverse=True)
    return bits.view(np.float64), index.reshape(a.shape)


def _doubles(a: np.ndarray) -> np.ndarray:
    """repr(x) for each entry x of the float array `a`, as an object array."""
    values, index = _distinct(a)
    texts = ("%r\n" * len(values) % tuple(values.tolist())).split("\n")
    return np.array(texts, dtype=object)[index]


# A CSV value's record: its format(x, ".17g") text, NUL-padded, in slots of 1,
# 5, 18, 5 and 1 bytes: sign, '0.000', digits and point, 'e-123', delimiter.
_WIDTH = 30
_BLOCK = 8192


@functools.cache
def _decimal_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Built on the first CSV write, for k in -300..300 at index k + 300:
    10**k as correctly rounded doubles hi + lo, and the record at decimal
    exponent k that holds only what %g writes before and after the digits."""
    hi, lo, affixes = [], [], []
    for k in range(-300, 301):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi.append(num / den)
        hi_num, hi_den = hi[-1].as_integer_ratio()
        lo.append((num * hi_den - hi_num * den) / (den * hi_den))
        before = "0." + "0" * (-k - 1) if -4 <= k < 0 else ""
        after = "" if -4 <= k < 17 else "e%+03d" % k
        affixes.append(b"\0" + before.encode().ljust(23, b"\0") + after.encode().ljust(6, b"\0"))
    affixes = np.frombuffer(b"".join(affixes), np.uint8).reshape(601, _WIDTH)
    return np.array(hi), np.array(lo), affixes


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of each double into two of 26 significant bits."""
    c = 134217729.0 * a
    high = c - (c - a)
    return high, a - high


def _percent_record(v: float) -> bytes:
    """The record of a value the vectorised path leaves undecided."""
    return (b"%.17g" % v).ljust(_WIDTH, b"\0")


def _records(x: np.ndarray) -> np.ndarray:
    """The (len(x), _WIDTH) uint8 records of the doubles `x`.

    With X = floor(log10|x|), D = |x| * 10**(16 - X) rounded to an integer
    holds the 17 digits %g writes; it is formed in double-double (Dekker's
    exact product), to an error far below 1e-13.  Python's % decides what
    this cannot: non-finite values, zeros, |x| outside [1e-280, 1e290], a
    fraction within 1e-7 of one half, and an X that log10 put off by one."""
    hi, lo, affixes = _decimal_tables()
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e290)
    a[~fast] = 1.0
    X = np.floor(np.log10(a)).astype(np.int64)
    h, h_lo = hi[316 - X], lo[316 - X]
    p = a * h
    (ah, al), (hh, hl) = _halves(a), _halves(h)
    rest = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * h_lo
    whole, frac = np.divmod(rest, 1.0)
    D = p.astype(np.int64) + whole.astype(np.int64)
    # The last test also sends a carry to 10**17 to Python's %.
    fast &= (np.abs(frac - 0.5) > 1e-7) & (D >= 10**16) & (D < 10**17 - 1)
    D += frac > 0.5
    lead, R = np.divmod(D, 10**16)
    # The other 16 digits, 8 to a word, one a byte, most significant first:
    # each lane is split into halves of 4, 2 and 1 digits (q = lane // div).
    w = np.stack(np.divmod(R, 10**8), axis=1).astype(np.uint64)
    for mul, shift, mask, div, lane in ((109951163, 40, 0x3FFF, 10000, 32),
                                        (10486, 20, 0x7F0000007F, 100, 16),
                                        (103, 10, 0x000F000F000F000F, 10, 8)):
        q = ((w * mul) >> shift) & mask
        w = q | ((w - q * div) << lane)
    # Mark each digit up to the last nonzero one, which %g keeps.
    ones = np.uint64(0x0101010101010101)
    kept = (w | (w >> 1) | (w >> 2) | (w >> 3)) & ones
    kept[:, 0] |= (w[:, 1] != 0) * ones
    for lane in (8, 16, 32):
        kept |= kept >> lane
    digits = w + ones * 48
    kept = (digits & (kept * 255)).view(np.uint8)
    # 'd.ddde-05' for X < -4 and X > 16, '0.00dddd' for -4 <= X < 0.
    rec = affixes[X + 300]
    rec[:, 0] = np.signbit(x) * ord("-")
    rec[:, 6] = lead + ord("0")
    rec[:, 7] = ((R != 0) & ((X < -4) | (X >= 0))) * ord(".")
    rec[:, 8:24] = kept
    # 'ddd.ddd' for 0 <= X < 17: integer digits, the point, kept digits.
    f = np.flatnonzero((X >= 0) & (X < 17))
    j, Xf, core = np.arange(18), X[f, None], rec[f, 6:24]
    full = np.concatenate([core[:, :1], digits[f].view(np.uint8), core[:, :1]], axis=1)
    point = (D[f, None] % 10 ** (16 - Xf) != 0) * ord(".")
    rec[f, 6:24] = np.where(j <= Xf, full, np.where(j == Xf + 1, point, core))
    texts = b"".join(map(_percent_record, x[~fast].tolist()))
    rec[~fast] = np.frombuffer(texts, np.uint8).reshape(-1, _WIDTH)
    return rec


# Types whose JSON text never holds ', '.
_JSON_NUMBERS = {float, int, bool, type(None)}


def _json_dumps(obj) -> str:
    """What json.dumps(obj, indent=2, sort_keys=True) writes, plus a newline,
    where a float ndarray stands for its tolist().

    That call runs json's pure-Python encoder value by value.  Here a list
    of numbers goes through json's C encoder in one call, and the newline
    and indent are spliced in after each ', ', which no number contains;
    a float array's entries are formatted by `_doubles`.  Floats take
    float.__repr__ on all paths.  Dict keys are strings.
    """
    return _json_text(obj, "\n") + "\n"


def _json_text(obj, pad: str) -> str:
    """`obj` as indented JSON; `pad` is the newline and indent of its level."""
    inner = pad + "  "
    if isinstance(obj, np.ndarray):
        if obj.dtype != object:
            # No finite repr holds an "n": name the non-finite values as json does.
            text = _json_text(_doubles(obj), pad)
            return text.replace("nan", "NaN").replace("inf", "Infinity")
        if not len(obj):
            return "[]"
        items = obj.tolist() if obj.ndim == 1 else [_json_text(row, inner) for row in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, dict) and obj:
        items = (json.dumps(k) + ": " + _json_text(v, inner) for k, v in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) <= _JSON_NUMBERS:
            return "[" + inner + json.dumps(obj)[1:-1].replace(", ", "," + inner) + pad + "]"
        return "[" + inner + ("," + inner).join(_json_text(v, inner) for v in obj) + pad + "]"
    return json.dumps(obj)


def _parse_grid(spec: str) -> FrequencyGrid:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError(f"grid must be 'min:max:n', got {spec!r}")
    try:
        return FrequencyGrid(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise ValidationError(f"bad grid spec {spec!r}: {exc}") from exc


def _parse_kappas(spec: str) -> list[float]:
    try:
        return [float(x) for x in spec.split(",") if x.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad kappa list {spec!r}: {exc}") from exc


def _pulse_pair(ns) -> TwoPhotonInput:
    """Resolve the two input pulses from the flag combination."""
    csv_l, csv_r = ns.get("pulse_csv_l"), ns.get("pulse_csv_r")
    gamma_l, gamma_r = ns.get("gamma_l"), ns.get("gamma_r")
    if csv_l or csv_r:
        if not (csv_l and csv_r):
            raise ValidationError("--pulse-csv-l and --pulse-csv-r must be given together")
        return TwoPhotonInput(load_sampled_pulse(csv_l), load_sampled_pulse(csv_r))
    omega_o = ns["omega_o"]
    if gamma_l is not None or gamma_r is not None:
        if gamma_l is None or gamma_r is None:
            raise ValidationError("--gamma-l and --gamma-r must be given together")
        return TwoPhotonInput(
            LorentzianPulse(gamma_l, omega_o), LorentzianPulse(gamma_r, omega_o)
        )
    pulse = LorentzianPulse(ns["gamma"], omega_o)
    return TwoPhotonInput(pulse, pulse)


def _param_fields(params: NetworkParams) -> dict:
    return {"kappa": params.kappa, "omega_c": params.omega_c, "omega_o": params.omega_o}


def _auto_single_grid(pulse) -> FrequencyGrid:
    """Pulse-scaled analysis window (about 40 linewidths half-width).

    The reported channel split is conditional on this window, which acts
    as the detection band; scaling it with the pulse rather than with
    kappa keeps the strong-coupling reflection visible in the summary.
    """
    support = pulse_support(pulse)
    if support is not None:
        return FrequencyGrid(support[0], support[1], 20001)
    half = 40.0 * pulse_width(pulse)
    center = -pulse.omega_o
    return FrequencyGrid(center - half, center + half, 801)


def _setup(ns):
    """A run's pulses, network parameters (None for hom, which sets them per
    scan point), grid and quadrature settings, validated in that order.
    `single` (the command with --pulse-csv) reads one pulse and picks a
    pulse-scaled grid when none is given (an empty one is an error); the
    others read a pulse pair."""
    # A config file may give a number as a string that the flag's type parses.
    ns = {
        k: float(v) if isinstance(v, str) and _FLAGS[k].get("type") is float else v
        for k, v in ns.items()
    }
    single = "pulse_csv" in ns
    if not single:
        pulses = _pulse_pair(ns)
    elif ns["pulse_csv"]:
        pulses = load_sampled_pulse(ns["pulse_csv"])
    else:
        pulses = LorentzianPulse(ns["gamma"], ns["omega_o"])
    params = NetworkParams(ns["kappa"], ns["omega_c"], ns["omega_o"]) if "kappa" in ns else None
    grid = _auto_single_grid(pulses) if single and ns["grid"] is None else _parse_grid(ns["grid"])
    tol = None if ns["tol"] is None else float(ns["tol"])
    cfg = QuadConfig() if tol is None else QuadConfig(rel_tol=tol, abs_tol=min(1e-12, tol))
    return pulses, params, grid, cfg


def _write_output(parts: list[str], output: str | None) -> None:
    with open(output, "w", encoding="utf-8") if output else contextlib.nullcontext(sys.stdout) as f:
        f.writelines(parts)


def _text(v: float) -> str:
    """format(v, ".17g"), through the CSV records."""
    rec = _records(np.array([v]))
    return rec[rec != 0].tobytes().decode("ascii")


def _write_csv(ns, extra: dict, header: str, table: np.ndarray) -> None:
    """Write a CSV result: '# key = value' lines for the package version,
    the run's flags and `extra`, the column header, then one line per row
    of the float `table`; floats as format(x, ".17g") writes them.  The rows
    are gathered from the values' records a block at a time."""
    lines = [f"# photonsim {__version__}"]
    lines += [f"# {k} = {ns[k]}" for k in sorted(ns) if k not in _RUN_FLAGS]
    lines += [f"# {k} = {_text(v) if isinstance(v, float) else v}" for k, v in extra.items()]
    lines.append(header)
    values, index = _distinct(table)
    records = np.concatenate([_records(values[i:i + _BLOCK])
                              for i in range(0, max(1, len(values)), _BLOCK)])
    parts = ["\n".join(lines) + "\n"]
    step = max(1, _BLOCK // table.shape[1])
    for i in range(0, len(index), step):
        block = records[index[i:i + step]]
        block[:, :, -1] = ord(",")
        block[:, -1, -1] = ord("\n")
        parts.append(block[block != 0].tobytes().decode("ascii"))
    _write_output(parts, ns["output"])


def _abs2(z: np.ndarray) -> list:
    """|v|² for each entry of `z`, as abs() of a Python complex squared; the
    vectorised np.abs differs from it in the last bit."""
    return [abs(v) ** 2 for v in z.ravel().tolist()]


def _write_json(ns, payload: dict) -> None:
    """Write a JSON result: the payload and the package version, keys sorted."""
    _write_output([_json_dumps({**payload, "version": __version__})], ns["output"])


def cmd_single(ns) -> int:
    pulse, params, grid, cfg = _setup(ns)
    out = single_photon_output(pulse, grid, params)
    p_left, p_right = single_photon_probabilities(pulse, params, grid, cfg)
    norm = single_photon_norm(pulse, params, cfg)
    el, er = out.eta_l, out.eta_r
    columns = [grid.points, el.real, el.imag, er.real, er.imag, _abs2(el), _abs2(er)]
    header = "nu,eta_l_re,eta_l_im,eta_r_re,eta_r_im,abs2_l,abs2_r"
    _write_csv(ns, {"norm": norm}, header, np.column_stack(columns))
    summary = {"p_left": p_left, "p_right": p_right, "norm": norm, **_param_fields(params)}
    # With the table on stdout, the summary goes to stderr: each stream parses.
    (sys.stdout if ns["output"] else sys.stderr).write(_json_dumps(summary))
    return 0


def cmd_amplitudes(ns) -> int:
    inp, params, grid, cfg = _setup(ns)
    amp = amplitude_grid(Channel(ns["channel"]), grid, inp, params, cfg)
    if ns["format"] == "json":
        payload = {
            "channel": ns["channel"],
            "grid": {"min": grid.min, "max": grid.max, "n": grid.n},
            "params": _param_fields(params),
            "max_point_error": amp.max_point_error,
            "re": amp.values.real,
            "im": amp.values.imag,
        }
        _write_json(ns, payload)
        return 0
    # Row-major: omega1 is the row's grid point, omega2 the column's.
    values, points = amp.values.ravel(), grid.points
    table = np.column_stack([np.repeat(points, grid.n), np.tile(points, grid.n),
                             values.real, values.imag, _abs2(values)])
    _write_csv(ns, {"max_point_error": amp.max_point_error}, "omega1,omega2,re,im,abs2", table)
    return 0


def cmd_probabilities(ns) -> int:
    inp, params, grid, cfg = _setup(ns)
    p = probabilities(inp, params, grid, cfg)
    payload = {
        "p_ll": p.p_ll,
        "p_lr": p.p_lr,
        "p_rr": p.p_rr,
        "total": p.total,
        "est_error": p.est_error,
        **_param_fields(params),
        "identical_pulses": inp.identical,
        "grid": ns["grid"],
        "grid_used": uses_grid(inp),
    }
    _write_json(ns, payload)
    return 0


def cmd_hom(ns) -> int:
    kappas = _parse_kappas(ns["kappas"])
    inp, _, grid, cfg = _setup(ns)
    rows = hom_scan(kappas, float(ns["ratio"]), inp.left, grid, cfg)
    table = np.array([(r.kappa, r.omega_c, r.p_lr, r.p_ll, r.p_rr) for r in rows])
    _write_csv(ns, {"grid_used": uses_grid(inp)}, "kappa,omega_c,p_lr,p_ll,p_rr", table)
    return 0


def cmd_schmidt(ns) -> int:
    inp, params, grid, cfg = _setup(ns)
    amp = amplitude_grid(Channel(ns["channel"]), grid, inp, params, cfg)
    report = schmidt_report(amp)
    payload = {
        "channel": ns["channel"],
        "entropy": report.entropy,
        "schmidt_number": report.schmidt_number,
        "singular_values": report.singular_values.tolist(),
        **_param_fields(params),
        "grid": ns["grid"],
    }
    _write_json(ns, payload)
    return 0


def cmd_verify(ns) -> int:
    report = run_verify(quick=ns["quick"])
    width = max(len(c["name"]) for c in report["checks"])
    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{c['name']:<{width}}  {status}  value={c['value']:.3e}  threshold={c['threshold']:.3e}")
    print("overall:", "PASS" if report["all_passed"] else "FAIL")
    if ns.get("output"):
        Path(ns["output"]).write_text(_json_dumps(report), encoding="utf-8")
    return 0 if report["all_passed"] else 1


# Every flag, as the keywords of its add_argument call.  The option is the
# key with '-' for '_'; flags with a `type` or an `action` take numbers or
# true/false, the others strings, and --config values are checked alike.
_FLAGS = {
    "gamma": {"type": float, "help": "Lorentzian pulse linewidth (both photons)"},
    "gamma_l": {"type": float, "help": "left pulse linewidth (with --gamma-r)"},
    "gamma_r": {"type": float, "help": "right pulse linewidth (with --gamma-l)"},
    "omega_o": {"type": float, "help": "pulse central frequency"},
    "kappa": {"type": float, "help": "qubit-field coupling rate"},
    "omega_c": {"type": float, "help": "qubit detuning"},
    "pulse_csv": {"help": "tabulated pulse (nu,re,im)"},
    "pulse_csv_l": {"help": "tabulated left pulse (with --pulse-csv-r)"},
    "pulse_csv_r": {"help": "tabulated right pulse (with --pulse-csv-l)"},
    "channel": {"choices": ["ll", "lr", "rr"]},
    "grid": {"help": "min:max:n (single: pulse-scaled if absent; see grid_used in probabilities)"},
    "kappas": {"help": "comma-separated, strictly increasing"},
    "ratio": {"type": float, "help": "omega_c = ratio * kappa"},
    "quick": {"action": "store_true", "default": None},
    "config": {"help": "JSON config file supplying flag values"},
    "save_config": {"help": "write the resolved configuration to this path"},
    "output": {"help": "output file (default: stdout)"},
    "format": {"choices": ["csv", "json"]},
    "threads": {"type": int, "help": "accepted and ignored (the grid fill is vectorised)"},
    "tol": {"type": float, "help": "relative quadrature tolerance"},
}

# Flags every command takes after its own: where the run reads and writes
# its files, which never enter its configuration, then two that do.
_RUN_FLAGS = ("config", "save_config", "output", "format")
_SHARED = {"threads": None, "tol": None}

# Flag defaults shared by several commands: a Lorentzian pulse, the pulse
# pair of the two-photon commands and the joint spectral maps.
_PULSE = {"gamma": 1.0, "omega_o": 0.0}
_PAIR = {
    "gamma": 1.0,
    "gamma_l": None,
    "gamma_r": None,
    "omega_o": 0.0,
    "kappa": 1.5,
    "omega_c": 0.0,
    "pulse_csv_l": None,
    "pulse_csv_r": None,
}
_MAP = {"channel": "lr", **_PAIR, "grid": "-6:6:121"}


class _Command(NamedTuple):
    help: str
    run: Callable[[dict], int]
    # The command's own flags, in --help order, with their values when
    # neither a flag nor the --config file sets them.
    defaults: dict
    # The --format values it writes, its default first.
    formats: tuple = ("csv",)


_COMMANDS = {
    "single": _Command(
        "single-photon output spectra and channel split",
        cmd_single,
        {**_PULSE, "kappa": 1.0, "omega_c": 0.0, "pulse_csv": None, "grid": None},
    ),
    "amplitudes": _Command("joint spectral amplitude grid", cmd_amplitudes, _MAP, ("csv", "json")),
    "schmidt": _Command("spectral entanglement report", cmd_schmidt, _MAP, ("json",)),
    "probabilities": _Command(
        "output-channel probabilities",
        cmd_probabilities,
        {**_PAIR, "grid": "-40:40:801"},
        ("json",),
    ),
    "hom": _Command(
        "coincidence scan over coupling strengths",
        cmd_hom,
        {"kappas": "0.5,1,2,5,10,20", "ratio": 2.0, **_PULSE, "grid": "-40:40:801"},
    ),
    "verify": _Command(
        "run the oracle and invariant check suite", cmd_verify, {"quick": False}, ("json",)
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="photonsim",
        description="Steady-state output photon states of a two-qubit coherent feedback network",
    )
    parser.add_argument("--version", action="version", version=f"photonsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for key in (*command.defaults, *_RUN_FLAGS, *_SHARED):
            p.add_argument("--" + key.replace("_", "-"), dest=key, **_FLAGS[key])
    return parser


def _check_config_value(key: str, value, default) -> None:
    """Reject a --config value that its flag could not have given; null
    stands only where the default is null.

    A value that passes is used as it is, so a config keeps the output
    bytes it had before this check; `_setup` parses numeric strings.
    """
    flag = _FLAGS[key]
    kind = flag.get("type", bool if "action" in flag else str)
    if value is None:
        ok = default is None
    elif kind is bool or isinstance(value, bool):
        ok = kind is bool and isinstance(value, bool)
    elif isinstance(value, str):
        ok = _parses(kind, value)
    else:
        ok = kind is not str and isinstance(value, (int, float))
    if not ok:
        want = {bool: "true or false", str: "a string", int: "an integer"}.get(kind, "a number")
        raise ValidationError(f"config key {key!r} must be {want}, got {json.dumps(value)}")


def _resolve(args: argparse.Namespace) -> dict:
    """Merge explicit flags over config-file values over defaults."""
    command = args.command
    defaults = {**_COMMANDS[command].defaults, **_SHARED}
    merged = dict(defaults)
    if args.config:
        loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(loaded, dict):
            raise ValidationError("config must be a JSON object")
        if loaded.get("command", command) != command:
            raise ValidationError(
                f"config is for command {loaded.get('command')!r}, not {command!r}"
            )
        unknown = set(loaded) - set(defaults) - {"command"}
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            if key != "command":
                _check_config_value(key, value, defaults[key])
                merged[key] = value
    for key in defaults:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    return merged


def _parses(kind, tok: str) -> bool:
    try:
        kind(tok)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list[str]) -> list[str]:
    """Let `--grid -6:6:121` and `--omega-o -1.5e-05` style values survive
    argparse, which reads a leading '-' as an option prefix unless the
    token is a plain decimal (exponent notation is not)."""
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if (
            tok.startswith("--")
            and "=" not in tok
            and nxt.startswith("-")
            and (tok in ("--grid", "--kappas") or _parses(float, nxt))
        ):
            out.append(f"{tok}={nxt}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = parser.parse_args(_join_negative_values(argv))
    command = _COMMANDS[args.command]
    try:
        fmt = args.format or command.formats[0]
        if fmt not in command.formats:
            raise ValidationError(f"{args.command} writes {'/'.join(command.formats)}, not {fmt}")
        ns = _resolve(args)
        if args.save_config:
            saved = _json_dumps({**ns, "command": args.command})
            Path(args.save_config).write_text(saved, encoding="utf-8")
        ns.update(output=args.output, format=fmt)
        # An overflow means the parameters exceed double precision: stop at
        # once, rather than let inf and NaN run through the quadrature.
        with np.errstate(over="raise"):
            return command.run(ns)
    except NoConvergence as exc:
        node = f" at node {exc.node}" if getattr(exc, "node", None) is not None else ""
        print(f"error: quadrature did not converge{node}: {exc}", file=sys.stderr)
        return 3
    except (OverflowError, FloatingPointError) as exc:
        print(f"error: the parameters overflow double precision: {exc}", file=sys.stderr)
        return 2
    except (PhotonSimError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
