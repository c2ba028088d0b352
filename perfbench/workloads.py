"""Seeded inputs for the three benchmark workloads.

Every op is one ``photonsim`` command line.  This module imports only
the standard library, so that numpy is first imported by photonsim
inside the timed set-up.  See README.md for why each workload exists.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("lorentzian-sweep", "tabulated-pulse", "spectral-maps")

# Ops generated at set-up; a run that gets through them all starts again
# at the first one.
POOL_SIZE = {"lorentzian-sweep": 24, "tabulated-pulse": 96, "spectral-maps": 420}

# probabilities grid of tabulated-pulse; it holds every pulse support.
TAB_GRID = "-12:12:97"
# Pulses are tabulated on this fixed window, as a spectrometer would.
TAB_WINDOW = (-10.0, 10.0)

# One block of spectral-maps op kinds; `single` stays under a quarter of
# the mix so that the median op is a map op.
MAP_BLOCK = ["amp_csv"] * 6 + ["amp_json"] * 4 + ["schmidt"] * 6 + ["single"] * 5


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``argv`` lacks ``--output``; ``info`` holds what the
    correctness checks need to know about the inputs."""

    kind: str
    argv: tuple
    suffix: str
    info: dict = field(default_factory=dict)


class Strata:
    """Latin-hypercube draws on [0, 1): every block of ``bins`` draws takes
    one value from each of ``bins`` equal slices, in seeded order.  Used
    for the parameters that set an op's cost, so that every run sees the
    same spread of costs and its median moves little from seed to seed."""

    def __init__(self, rng: random.Random, bins: int):
        self._rng = rng
        self._bins = bins
        self._queue: list[int] = []

    def draw(self) -> float:
        if not self._queue:
            self._queue = list(range(self._bins))
            self._rng.shuffle(self._queue)
        return (self._queue.pop() + self._rng.random()) / self._bins


def _num(x: float) -> str:
    return repr(float(x))


def _flag(name: str, x: float) -> str:
    # One token: argparse takes a separate negative value in exponent
    # notation, such as -1.5e-05, for an option (see README.md).
    return f"--{name}={_num(x)}"


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _lorentzian_sweep(rng: random.Random, count: int) -> list[Op]:
    kappas = Strata(rng, 6)
    ops = []
    for i in range(count):
        kappa = _log_uniform(kappas.draw(), 0.5, 20.0)
        if i % 4 == 3:
            # Free detuning and distinct pulses: the non-shortcut swap path.
            omega_c = kappa * rng.uniform(-3.0, 3.0)
            gamma_l, gamma_r = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
            pulses = [_flag("gamma-l", gamma_l), _flag("gamma-r", gamma_r)]
        else:
            omega_c = 2.0 * kappa
            pulses = [_flag("gamma", 1.0)]
        argv = ("probabilities", _flag("kappa", kappa), _flag("omega-c", omega_c), *pulses)
        ops.append(Op("probabilities", argv, ".json", {"gate_norm": True}))
    return ops


def _pulse_rows(shape: str, width: float, centre: float, spacing: float) -> list[str]:
    lo, hi = TAB_WINDOW
    n = int(round((hi - lo) / spacing)) + 1
    rows = ["nu,re,im"]
    for k in range(n):
        nu = lo + (hi - lo) * k / (n - 1)
        if shape == "gaussian":
            a = complex(math.exp(-0.5 * ((nu - centre) / width) ** 2))
        else:
            a = 1.0 / complex(-0.5 * width, nu - centre)
        rows.append(f"{_num(nu)},{_num(a.real)},{_num(a.imag)}")
    return rows


def _tabulated_pulse(rng: random.Random, count: int, workdir: Path) -> list[Op]:
    spacings = Strata(rng, 8)
    ops = []
    for i in range(count):
        # Both channels come from one instrument, so they share a spacing;
        # the spacing sets the kink count and with it the op's cost.
        spacing = 0.1 + 0.2 * spacings.draw()
        paths = []
        for side in ("l", "r"):
            shape = rng.choice(("lorentzian", "gaussian"))
            rows = _pulse_rows(shape, rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0), spacing)
            path = workdir / f"pulse-{i}-{side}.csv"
            path.write_text("\n".join(rows) + "\n", encoding="utf-8")
            paths.append(str(path))
        kappa = _log_uniform(rng.random(), 0.5, 4.0)
        argv = (
            "probabilities", "--pulse-csv-l", paths[0], "--pulse-csv-r", paths[1],
            _flag("kappa", kappa), _flag("omega-c", rng.uniform(-2.0, 2.0)),
            f"--grid={TAB_GRID}",
        )
        ops.append(Op("probabilities", argv, ".json", {"gate_norm": False}))
    return ops


def _spectral_maps(rng: random.Random, count: int) -> list[Op]:
    kappas = Strata(rng, 7)
    ops: list[Op] = []
    while len(ops) < count:
        block = list(MAP_BLOCK)
        rng.shuffle(block)
        for kind in block:
            kappa = _log_uniform(kappas.draw(), 0.5, 4.0)
            omega_c, omega_o = rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0)
            gamma_l = rng.uniform(0.5, 2.0)
            gamma_r = gamma_l if rng.random() < 0.5 else rng.uniform(0.5, 2.0)
            common = (_flag("kappa", kappa), _flag("omega-c", omega_c), _flag("omega-o", omega_o))
            info = {"kappa": kappa, "omega_c": omega_c, "omega_o": omega_o,
                    "gamma_l": gamma_l, "gamma_r": gamma_r, "check_seed": rng.getrandbits(32)}
            if kind == "single":
                ops.append(Op(kind, ("single", _flag("gamma", gamma_l), *common), ".csv", info))
                continue
            if gamma_l == gamma_r:
                pulses = (_flag("gamma", gamma_l),)
            else:
                pulses = (_flag("gamma-l", gamma_l), _flag("gamma-r", gamma_r))
            info["channel"] = rng.choice(("lr", "lr", "ll", "rr"))
            command = "schmidt" if kind == "schmidt" else "amplitudes"
            argv = (command, "--channel", info["channel"], *pulses, *common)
            if kind == "amp_json":
                argv += ("--format", "json")
            ops.append(Op(kind, argv, ".csv" if kind == "amp_csv" else ".json", info))
    return ops[:count]


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The seeded op pool of one workload; writes its pulse files into
    ``workdir``.  Op 1 repeats op 0, so that every run checks that equal
    flags give byte-identical output."""
    rng = random.Random(f"{workload}/{seed}")
    count = POOL_SIZE[workload] - 1
    if workload == "lorentzian-sweep":
        ops = _lorentzian_sweep(rng, count)
    elif workload == "tabulated-pulse":
        ops = _tabulated_pulse(rng, count, workdir)
    elif workload == "spectral-maps":
        ops = _spectral_maps(rng, count)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [ops[0], *ops]
