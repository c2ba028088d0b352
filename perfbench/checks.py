"""Correctness checks run on the output of every op.

An op fails when it exits non-zero, prints a non-finite number, or
breaks the check of its kind: conservation on lorentzian-sweep, the
closed-form residue oracle on LR maps, Schmidt normalisation, and the
single-photon channel split and norm.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from photonsim.model import NetworkParams
from photonsim.oracle import residue_convolution

# The residue oracle is trusted to this relative level (ROADMAP).
AMP_REL_TOL = 1e-6
# Nodes of each LR map compared against the oracle.
CHECK_NODES = 64
SUM_TOL = 1e-9
SINGLE_NORM_TOL = 1e-6


@dataclass(frozen=True)
class Outcome:
    ok: bool
    reason: str = ""
    norm_dev: float | None = None
    amp_err: float | None = None


def _lorentzian(gamma: float, omega_o: float, nu):
    return math.sqrt(gamma / (2.0 * math.pi)) / (1j * (nu + omega_o) - 0.5 * gamma)


def lr_reference(w1, w2, info) -> np.ndarray:
    """T_LR at the nodes (w1[i], w2[i]) from the closed-form residue
    convolution and the rational linear term, for Lorentzian pulses."""
    k, wc, wo = info["kappa"], info["omega_c"], info["omega_o"]
    gl, gr = info["gamma_l"], info["gamma_r"]
    params = NetworkParams(kappa=k, omega_c=wc, omega_o=wo)
    conv = np.array([residue_convolution(a, b, gl, gr, wo, params) for a, b in zip(w1, w2)])
    conv *= 2.0 * math.sqrt(k) * (w1 + wc + 2j * k) / (w1 + wc - 2j * k)
    d = (w1 + wc - 2j * k) * (w2 + wc - 2j * k)
    lin = (
        _lorentzian(gl, wo, w1) * _lorentzian(gr, wo, w2) * (w1 + wc) * (w2 + wc) / d
        - _lorentzian(gl, wo, w2) * _lorentzian(gr, wo, w1) * (2.0 * k) ** 2 / d
    )
    return lin + conv


def lr_map_error(w1, w2, values, info, reference=lr_reference) -> float:
    """max |T_LR - reference| / max |T_LR| over a seeded subset of nodes."""
    rng = np.random.default_rng(info["check_seed"])
    idx = rng.choice(values.size, size=min(CHECK_NODES, values.size), replace=False)
    err = np.abs(values[idx] - reference(w1[idx], w2[idx], info))
    return float(err.max() / np.abs(values).max())


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


def _csv_table(text: str) -> np.ndarray:
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return np.array([ln.split(",") for ln in rows[1:]], dtype=float)


def _map_outcome(w1, w2, values, op, reference) -> Outcome:
    if not _finite(values.real, values.imag):
        return Outcome(False, "non-finite amplitude")
    if op.info["channel"] != "lr":
        return Outcome(True)
    err = lr_map_error(w1, w2, values, op.info, reference)
    if not err <= AMP_REL_TOL:
        return Outcome(False, f"LR map differs from the residue oracle by {err:.3e}", amp_err=err)
    return Outcome(True, amp_err=err)


def _probabilities(op, output, stdout, reference) -> Outcome:
    p = json.loads(output)
    if not _finite(p["p_ll"], p["p_lr"], p["p_rr"], p["total"], p["est_error"]):
        return Outcome(False, "non-finite probability")
    dev = abs(p["total"] - 1.0)
    if op.info["gate_norm"] and dev > max(5.0 * p["est_error"], 2e-3):
        return Outcome(False, f"|total - 1| = {dev:.3e} exceeds its bound", norm_dev=dev)
    return Outcome(True, norm_dev=dev)


def _amp_csv(op, output, stdout, reference) -> Outcome:
    t = _csv_table(output.decode())
    return _map_outcome(t[:, 0], t[:, 1], t[:, 2] + 1j * t[:, 3], op, reference)


def _amp_json(op, output, stdout, reference) -> Outcome:
    p = json.loads(output)
    g = p["grid"]
    pts = np.linspace(g["min"], g["max"], g["n"])
    w1, w2 = np.meshgrid(pts, pts, indexing="ij")
    values = np.array(p["re"]) + 1j * np.array(p["im"])
    if not _finite(p["max_point_error"]):
        return Outcome(False, "non-finite max_point_error")
    return _map_outcome(w1.ravel(), w2.ravel(), values.ravel(), op, reference)


def _schmidt(op, output, stdout, reference) -> Outcome:
    p = json.loads(output)
    s = np.array(p["singular_values"])
    if not _finite(s, p["entropy"], p["schmidt_number"]):
        return Outcome(False, "non-finite Schmidt report")
    if abs(float(np.sum(s**2)) - 1.0) > SUM_TOL:
        return Outcome(False, "Schmidt weights do not sum to one")
    return Outcome(True)


def _single(op, output, stdout, reference) -> Outcome:
    s = json.loads(stdout)
    if not _finite(_csv_table(output.decode()), s["p_left"], s["p_right"], s["norm"]):
        return Outcome(False, "non-finite single-photon output")
    if abs(s["p_left"] + s["p_right"] - 1.0) > SUM_TOL:
        return Outcome(False, "channel split does not sum to one")
    if abs(s["norm"] - 1.0) > SINGLE_NORM_TOL:
        return Outcome(False, f"output norm {s['norm']!r} is not one")
    return Outcome(True)


_CHECKS = {
    "probabilities": _probabilities,
    "amp_csv": _amp_csv,
    "amp_json": _amp_json,
    "schmidt": _schmidt,
    "single": _single,
}


def check(op, rc, output: bytes, stdout: str, reference=lr_reference) -> Outcome:
    """Outcome of one op from its exit code, output file and stdout."""
    if rc != 0:
        return Outcome(False, f"exit code {rc}")
    try:
        return _CHECKS[op.kind](op, output, stdout, reference)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Outcome(False, f"unreadable output: {exc!r}")
