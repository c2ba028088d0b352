"""Command-line front end.

Subcommands: single | amplitudes | probabilities | hom | schmidt | verify.
Outputs are deterministic: identical flags produce byte-identical files
(no timestamps, fixed float formatting with 17 significant digits).
Exit codes: 0 success, 2 validation error, 3 quadrature non-convergence
(verify exits 1 when a check fails).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .amplitudes import Channel, amplitude_grid
from .errors import NoConvergence, PhotonSimError, ValidationError, WindowTooNarrow
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


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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


def _single_pulse(ns):
    if ns.get("pulse_csv"):
        return load_sampled_pulse(ns["pulse_csv"])
    return LorentzianPulse(ns["gamma"], ns["omega_o"])


def _params(ns) -> NetworkParams:
    return NetworkParams(kappa=ns["kappa"], omega_c=ns["omega_c"], omega_o=ns["omega_o"])


def _quad_config(ns) -> QuadConfig:
    if ns.get("tol") is not None:
        tol = float(ns["tol"])
        return QuadConfig(rel_tol=tol, abs_tol=min(1e-12, tol))
    return QuadConfig()


def _metadata_lines(ns, extra=None) -> list[str]:
    keys = sorted(k for k in ns if k not in ("output", "save_config", "config", "format"))
    lines = [f"# photonsim {__version__}"]
    for k in keys:
        lines.append(f"# {k} = {ns[k]}")
    for k, v in (extra or {}).items():
        lines.append(f"# {k} = {v}")
    return lines


def _write_output(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# Per-command defaults; also the schema used to validate --config files.
_DEFAULTS = {
    "single": {
        "gamma": 1.0,
        "omega_o": 0.0,
        "kappa": 1.0,
        "omega_c": 0.0,
        "pulse_csv": None,
        "grid": None,
        "tol": None,
        "threads": None,
    },
    "amplitudes": {
        "channel": "lr",
        "gamma": 1.0,
        "gamma_l": None,
        "gamma_r": None,
        "omega_o": 0.0,
        "kappa": 1.5,
        "omega_c": 0.0,
        "pulse_csv_l": None,
        "pulse_csv_r": None,
        "grid": "-6:6:121",
        "tol": None,
        "threads": None,
    },
    "probabilities": {
        "gamma": 1.0,
        "gamma_l": None,
        "gamma_r": None,
        "omega_o": 0.0,
        "kappa": 1.5,
        "omega_c": 0.0,
        "pulse_csv_l": None,
        "pulse_csv_r": None,
        "grid": "-40:40:801",
        "tol": None,
        "threads": None,
    },
    "hom": {
        "kappas": "0.5,1,2,5,10,20",
        "ratio": 2.0,
        "gamma": 1.0,
        "omega_o": 0.0,
        "grid": "-40:40:801",
        "tol": None,
        "threads": None,
    },
    "schmidt": {
        "channel": "lr",
        "gamma": 1.0,
        "gamma_l": None,
        "gamma_r": None,
        "omega_o": 0.0,
        "kappa": 1.5,
        "omega_c": 0.0,
        "pulse_csv_l": None,
        "pulse_csv_r": None,
        "grid": "-6:6:121",
        "tol": None,
        "threads": None,
    },
    "verify": {"quick": False, "tol": None, "threads": None},
}


def _resolve(ns_args: argparse.Namespace) -> dict:
    """Merge explicit flags over config-file values over defaults."""
    command = ns_args.command
    defaults = dict(_DEFAULTS[command])
    merged = dict(defaults)
    if ns_args.config:
        loaded = json.loads(Path(ns_args.config).read_text(encoding="utf-8"))
        if loaded.get("command", command) != command:
            raise ValidationError(
                f"config is for command {loaded.get('command')!r}, not {command!r}"
            )
        unknown = set(loaded) - set(defaults) - {"command"}
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        merged.update({k: v for k, v in loaded.items() if k != "command"})
    for key in defaults:
        value = getattr(ns_args, key, None)
        if value is not None and value is not False:
            merged[key] = value
    return merged


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


def cmd_single(ns) -> int:
    pulse = _single_pulse(ns)
    params = _params(ns)
    cfg = _quad_config(ns)
    grid = _parse_grid(ns["grid"]) if ns["grid"] else _auto_single_grid(pulse)
    out = single_photon_output(pulse, grid, params)
    p_left, p_right = single_photon_probabilities(pulse, params, grid, cfg)
    norm = single_photon_norm(pulse, params, cfg)
    lines = _metadata_lines(ns, {"norm": _fmt(norm)})
    lines.append("nu,eta_l_re,eta_l_im,eta_r_re,eta_r_im,abs2_l,abs2_r")
    for nu, el, er in zip(grid.points, out.eta_l, out.eta_r):
        lines.append(
            ",".join(
                _fmt(v)
                for v in (nu, el.real, el.imag, er.real, er.imag, abs(el) ** 2, abs(er) ** 2)
            )
        )
    _write_output("\n".join(lines) + "\n", ns.get("output"))
    summary = {
        "p_left": p_left,
        "p_right": p_right,
        "norm": norm,
        "kappa": params.kappa,
        "omega_c": params.omega_c,
        "omega_o": params.omega_o,
    }
    sys.stdout.write(_json_dumps(summary))
    return 0


def cmd_amplitudes(ns) -> int:
    inp = _pulse_pair(ns)
    params = _params(ns)
    grid = _parse_grid(ns["grid"])
    cfg = _quad_config(ns)
    amp = amplitude_grid(Channel(ns["channel"]), grid, inp, params, cfg)
    if ns.get("format") == "json":
        payload = {
            "channel": ns["channel"],
            "grid": {"min": grid.min, "max": grid.max, "n": grid.n},
            "params": {"kappa": params.kappa, "omega_c": params.omega_c, "omega_o": params.omega_o},
            "max_point_error": amp.max_point_error,
            "re": amp.values.real.tolist(),
            "im": amp.values.imag.tolist(),
            "version": __version__,
        }
        _write_output(_json_dumps(payload), ns.get("output"))
        return 0
    lines = _metadata_lines(ns, {"max_point_error": _fmt(amp.max_point_error)})
    lines.append("omega1,omega2,re,im,abs2")
    pts = grid.points
    for i in range(grid.n):
        for j in range(grid.n):
            v = amp.values[i, j]
            lines.append(
                ",".join(_fmt(x) for x in (pts[i], pts[j], v.real, v.imag, abs(v) ** 2))
            )
    _write_output("\n".join(lines) + "\n", ns.get("output"))
    return 0


def cmd_probabilities(ns) -> int:
    inp = _pulse_pair(ns)
    params = _params(ns)
    grid = _parse_grid(ns["grid"])
    cfg = _quad_config(ns)
    p = probabilities(inp, params, grid, cfg)
    payload = {
        "p_ll": p.p_ll,
        "p_lr": p.p_lr,
        "p_rr": p.p_rr,
        "total": p.total,
        "est_error": p.est_error,
        "kappa": params.kappa,
        "omega_c": params.omega_c,
        "omega_o": params.omega_o,
        "identical_pulses": inp.identical,
        "grid": ns["grid"],
        "grid_used": uses_grid(inp),
        "version": __version__,
    }
    _write_output(_json_dumps(payload), ns.get("output"))
    return 0


def cmd_hom(ns) -> int:
    kappas = _parse_kappas(ns["kappas"])
    pulse = LorentzianPulse(ns["gamma"], ns["omega_o"])
    grid = _parse_grid(ns["grid"])
    cfg = _quad_config(ns)
    rows = hom_scan(kappas, ns["ratio"], pulse, grid, cfg)
    lines = _metadata_lines(ns, {"grid_used": uses_grid(TwoPhotonInput(pulse, pulse))})
    lines.append("kappa,omega_c,p_lr,p_ll,p_rr")
    for r in rows:
        lines.append(",".join(_fmt(v) for v in (r.kappa, r.omega_c, r.p_lr, r.p_ll, r.p_rr)))
    _write_output("\n".join(lines) + "\n", ns.get("output"))
    return 0


def cmd_schmidt(ns) -> int:
    inp = _pulse_pair(ns)
    params = _params(ns)
    grid = _parse_grid(ns["grid"])
    cfg = _quad_config(ns)
    amp = amplitude_grid(Channel(ns["channel"]), grid, inp, params, cfg)
    report = schmidt_report(amp)
    payload = {
        "channel": ns["channel"],
        "entropy": report.entropy,
        "schmidt_number": report.schmidt_number,
        "singular_values": report.singular_values.tolist(),
        "kappa": params.kappa,
        "omega_c": params.omega_c,
        "omega_o": params.omega_o,
        "grid": ns["grid"],
        "version": __version__,
    }
    _write_output(_json_dumps(payload), ns.get("output"))
    return 0


def cmd_verify(ns) -> int:
    report = run_verify(quick=bool(ns.get("quick")))
    width = max(len(c["name"]) for c in report["checks"])
    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{c['name']:<{width}}  {status}  value={c['value']:.3e}  threshold={c['threshold']:.3e}")
    print("overall:", "PASS" if report["all_passed"] else "FAIL")
    if ns.get("output"):
        Path(ns["output"]).write_text(_json_dumps(report), encoding="utf-8")
    return 0 if report["all_passed"] else 1


_COMMANDS = {
    "single": cmd_single,
    "amplitudes": cmd_amplitudes,
    "probabilities": cmd_probabilities,
    "hom": cmd_hom,
    "schmidt": cmd_schmidt,
    "verify": cmd_verify,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file supplying flag values")
    p.add_argument("--save-config", help="write the resolved configuration to this path")
    p.add_argument("--output", help="output file (default: stdout)")
    p.add_argument("--format", choices=["csv", "json"], default=None)
    p.add_argument(
        "--threads", type=int, default=None, help="accepted and ignored (the grid fill is vectorised)"
    )
    p.add_argument("--tol", type=float, default=None, help="relative quadrature tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonsim",
        description="Steady-state output photon states of a two-qubit coherent feedback network",
    )
    parser.add_argument("--version", action="version", version=f"photonsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("single", help="single-photon output spectra and channel split")
    p.add_argument("--gamma", type=float)
    p.add_argument("--omega-o", dest="omega_o", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--omega-c", dest="omega_c", type=float)
    p.add_argument("--pulse-csv", dest="pulse_csv")
    p.add_argument("--grid", help="min:max:n (default: automatic wide window)")
    _add_common(p)

    for name in ("amplitudes", "schmidt"):
        p = sub.add_parser(
            name,
            help="joint spectral amplitude grid" if name == "amplitudes" else "spectral entanglement report",
        )
        p.add_argument("--channel", choices=["ll", "lr", "rr"])
        _add_two_photon_flags(p)
        p.add_argument("--grid", help="min:max:n")
        _add_common(p)

    p = sub.add_parser("probabilities", help="output-channel probabilities")
    _add_two_photon_flags(p)
    p.add_argument("--grid", help="min:max:n; unused for Lorentzian pulses (see grid_used)")
    _add_common(p)

    p = sub.add_parser("hom", help="coincidence scan over coupling strengths")
    p.add_argument("--kappas", help="comma-separated, strictly increasing")
    p.add_argument("--ratio", type=float, help="omega_c = ratio * kappa")
    p.add_argument("--gamma", type=float)
    p.add_argument("--omega-o", dest="omega_o", type=float)
    p.add_argument("--grid", help="min:max:n; unused for Lorentzian pulses (see grid_used)")
    _add_common(p)

    p = sub.add_parser("verify", help="run the oracle and invariant check suite")
    p.add_argument("--quick", action="store_true", default=None)
    _add_common(p)
    return parser


def _add_two_photon_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", type=float, help="identical Lorentzian pulses")
    p.add_argument("--gamma-l", dest="gamma_l", type=float)
    p.add_argument("--gamma-r", dest="gamma_r", type=float)
    p.add_argument("--omega-o", dest="omega_o", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--omega-c", dest="omega_c", type=float)
    p.add_argument("--pulse-csv-l", dest="pulse_csv_l")
    p.add_argument("--pulse-csv-r", dest="pulse_csv_r")


def _is_number(tok: str) -> bool:
    try:
        float(tok)
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
            and (tok in ("--grid", "--kappas") or _is_number(nxt))
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
    try:
        ns = _resolve(args)
        ns["output"] = args.output
        ns["format"] = args.format or "csv"
        if args.save_config:
            payload = {k: v for k, v in ns.items() if k in _DEFAULTS[args.command]}
            payload["command"] = args.command
            Path(args.save_config).write_text(_json_dumps(payload), encoding="utf-8")
        return _COMMANDS[args.command](ns)
    except NoConvergence as exc:
        node = f" at node {exc.node}" if getattr(exc, "node", None) is not None else ""
        print(f"error: quadrature did not converge{node}: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, WindowTooNarrow, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PhotonSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
