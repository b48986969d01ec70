"""Seeded inputs of the benchmark: sweep specs and CLI request points.

Everything here is a pure function of the workload seed, so the same seed
gives the same sweeps and the same requests on every commit.  The program
under test only ever sees the generated command lines.

Parameter ranges are chosen so that no operation fails on a correct
program: photon bookkeeping requests stay where the tuned protocols are
valid, and every ``g`` sweep crosses all regime landmarks, including the
window 1 < g' < S/N_C where the deterministic closed form sits below the
classical threshold.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import reference

AXES = ("g", "lambda", "mu", "n", "m")


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _flag(value: float | int) -> str:
    return repr(value)


@dataclass(frozen=True)
class Sweep:
    """One ``ampurify sweep`` call: ``axis`` over [start, stop] in ``steps``.

    ``fixed`` maps the CLI flag names (lambda, mu, g, n, m) of every
    non-swept field to its value; ``output`` is ``"csv"`` or ``"json"``.
    """

    axis: str
    start: float
    stop: float
    steps: int
    fixed: dict
    output: str

    def argv(self, csv_path: str) -> list[str]:
        argv = ["sweep", "--axis", self.axis, "--start", _flag(self.start),
                "--stop", _flag(self.stop), "--steps", str(self.steps)]
        for name, value in self.fixed.items():
            argv += [f"--{name}", _flag(value)]
        argv += ["--out", csv_path] if self.output == "csv" else ["--json"]
        return argv

    def task_at(self, value: float) -> dict:
        """Flag values (lambda, mu, g, n, m) of the row at ``value``."""
        task = {"n": 1, "m": 1, **self.fixed}
        task[self.axis] = int(value) if self.axis in ("n", "m") else value
        return task


def _g_sweep(rng: random.Random) -> dict:
    # lambda, mu in [0.5, 2] and n, m <= 2 keep the window width lambda'/mu
    # >= 1/8 while the grid spacing stays below 0.04 in g'
    lam, mu = _loguniform(rng, 0.5, 2.0), _loguniform(rng, 0.5, 2.0)
    n, m = rng.randint(1, 2), rng.randint(1, 2)
    scale = math.sqrt(m / n)
    lam_p = lam / n
    det_thr = 1.0 + lam_p / mu + lam_p
    start = rng.uniform(0.3, 0.9) / scale
    stop = det_thr * rng.uniform(1.3, 2.5) / scale
    return dict(start=start, stop=stop, steps=rng.randint(400, 1600),
                fixed={"lambda": lam, "mu": mu, "n": n, "m": m})


def _continuous_sweep(rng: random.Random, axis: str) -> dict:
    fixed = {"lambda": _loguniform(rng, 0.25, 4.0), "mu": _loguniform(rng, 0.25, 4.0),
             "g": rng.uniform(0.5, 4.0), "n": rng.randint(1, 4), "m": rng.randint(1, 4)}
    del fixed[axis]
    return dict(start=rng.uniform(0.1, 0.5), stop=rng.uniform(2.0, 6.0),
                steps=rng.randint(200, 1000), fixed=fixed)


def _copies_sweep(rng: random.Random, axis: str) -> dict:
    fixed = {"lambda": _loguniform(rng, 0.25, 4.0), "mu": _loguniform(rng, 0.25, 4.0),
             "g": rng.uniform(0.5, 4.0), "n": rng.randint(1, 4), "m": rng.randint(1, 4)}
    del fixed[axis]
    top = rng.randint(4, 40)
    return dict(start=1.0, stop=float(top), steps=top, fixed=fixed)


def sweeps(seed: int):
    """Endless seeded sweep schedule.

    Axes cycle g, lambda, mu, n, m; whole cycles alternate between CSV
    (``--out``) and JSON (``--json``) output, so both renderers are timed.
    """
    rng = random.Random(f"sweep-grid:{seed}")
    index = 0
    while True:
        axis = AXES[index % len(AXES)]
        if axis == "g":
            spec = _g_sweep(rng)
        elif axis in ("lambda", "mu"):
            spec = _continuous_sweep(rng, axis)
        else:
            spec = _copies_sweep(rng, axis)
        output = "csv" if (index // len(AXES)) % 2 == 0 else "json"
        yield Sweep(axis=axis, output=output, **spec)
        index += 1


@dataclass(frozen=True)
class Request:
    """One ``python -m ampurify`` request: a subcommand with a task."""

    command: str      # eval | regimes | photons
    mode: str | None  # photons --mode (det | prob)
    json: bool
    task: dict        # lambda, mu, g, n, m

    def argv(self) -> list[str]:
        argv = [self.command]
        if self.mode is not None:
            argv += ["--mode", self.mode]
        for name in ("lambda", "mu", "g", "n", "m"):
            argv += [f"--{name}", _flag(self.task[name])]
        if self.json:
            argv.append("--json")
        return argv


#: request kinds, cycled in this order: (command, photons mode, --json)
_KINDS = (
    ("eval", None, False),
    ("eval", None, True),
    ("regimes", None, False),
    ("photons", "det", True),
    ("photons", "prob", False),
    ("regimes", None, True),
    ("photons", "det", False),
    ("photons", "prob", True),
)


def _request_task(rng: random.Random, command: str, mode: str | None) -> dict:
    while True:
        lam, mu = _loguniform(rng, 0.25, 4.0), _loguniform(rng, 0.25, 4.0)
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        lam_p = lam / n
        det_thr = 1.0 + lam_p / mu + lam_p
        if command == "photons":
            g_p = rng.uniform(1.01, 1.5 * det_thr)
        else:
            g_p = rng.uniform(0.3, 2.0 * det_thr)
        task = {"lambda": lam, "mu": mu, "g": g_p * math.sqrt(n / m), "n": n, "m": m}
        if mode == "prob" and not reference.prob_protocol_valid(task):
            continue
        return task


def requests(seed: int):
    """Endless seeded request schedule over the kinds in ``_KINDS``."""
    rng = random.Random(f"cli-points:{seed}")
    index = 0
    while True:
        command, mode, as_json = _KINDS[index % len(_KINDS)]
        yield Request(command, mode, as_json, _request_task(rng, command, mode))
        index += 1
