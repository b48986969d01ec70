"""Correctness checks of the benchmark.

Each check returns a list of problems; an empty list means the output is
correct.  Two kinds of expectation are used:

* the paper's closed forms for ``F_prob`` and ``F_cft``, re-derived here in
  the reduced variables (lambda', mu, g') independently of the package;
* the package's own scalar library (``fidelity_report``, ``tune``,
  ``thresholds``, the photon bookkeeping), passed in as ``lib``, for values
  the benchmark must not freeze -- ``F_det`` in particular, whose closed
  form has a known defect below the passive-filter gain.

CSV and text outputs are rounded by the CLI, so they are compared with a
relative tolerance matching their printed precision.
"""

from __future__ import annotations

import importlib
import json
import math
import re
import sys
from pathlib import Path
from types import SimpleNamespace

#: relative tolerances by output precision
TOL_EXACT = 1e-12  # JSON floats (full precision)
TOL_CSV = 1e-9     # 10 significant digits
TOL_TEXT = 1e-4    # 5 significant digits


# ---------------------------------------------------------------------------
# independent closed forms
# ---------------------------------------------------------------------------


def reduced(task: dict) -> tuple[float, float, float]:
    """(lambda', mu, g') of a task given by its CLI flag values."""
    n, m = task["n"], task["m"]
    return task["lambda"] / n, task["mu"], task["g"] * math.sqrt(m / n)


def f_cft(lam: float, mu: float, g: float) -> float:
    """Classical threshold c1 / (c1 + g'^2), c1 = (lambda' + mu + lambda' mu) / (1 + mu)."""
    c1 = (lam + mu + lam * mu) / (1.0 + mu)
    return c1 / (c1 + g * g)


def f_prob(lam: float, mu: float, g: float) -> float:
    """Heralded optimum; equals the purification optimum for g' <= 1.

    Below the filter plateau sqrt((lambda'+mu)(lambda'+mu+lambda' mu))/mu it
    is (lambda'+mu) / (lambda'+mu+g'^2); on the plateau, c1 / g'^2.
    """
    a = lam + mu
    b = lam + mu + lam * mu
    if g >= math.sqrt(a * b) / mu:
        return b / ((1.0 + mu) * g * g)
    return a / (a + g * g)


def prob_protocol_valid(task: dict) -> bool:
    """True when ``photons --mode prob`` is defined at the tuned filter.

    The tuned filter ratio must stay below the pole sqrt(1 + mu), and the
    output occupation's denominator (1 + mu) S^2 - (g' N_C)^2 must be
    positive; both are kept away from zero by a relative margin.
    """
    lam, mu, g = reduced(task)
    n_c, s = 1.0 / lam, 1.0 / lam + 1.0 / mu
    if g >= (s + 1.0) / n_c:
        y = 1.0
    elif g >= math.sqrt(s * (s + 1.0)) / n_c:
        y = (s + 1.0) / (g * n_c)
    else:
        y = g * n_c / s
    margin = 1e-6
    return (y * y < (1.0 + mu) * (1.0 - margin)
            and (g * n_c) ** 2 < (1.0 + mu) * s * s * (1.0 - margin))


def _close(observed, expected, rel: float) -> bool:
    if observed is None or expected is None:
        return observed is None and expected is None
    return abs(observed - expected) <= rel * abs(expected) + 1e-300


def _compare(problems: list[str], where: str, pairs: dict, rel: float) -> None:
    for name, (observed, expected) in pairs.items():
        if not _close(observed, expected, rel):
            problems.append(f"{where}: {name} = {observed!r}, expected {expected!r}")


# ---------------------------------------------------------------------------
# the package's scalar library at one task
# ---------------------------------------------------------------------------


def load_library(src: Path) -> SimpleNamespace:
    """The ``cli``, ``formulas`` and ``params`` modules of the tree at ``src``."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("ampurify")
    if Path(package.__file__).resolve().parent != src.resolve() / "ampurify":
        raise RuntimeError(f"imported ampurify from {package.__file__}, not from {src}")
    return SimpleNamespace(**{name: importlib.import_module(f"ampurify.{name}")
                              for name in ("cli", "formulas", "params")})


def library_point(lib, task: dict) -> dict:
    """Values the CLI prints for ``task``, evaluated through the library."""
    mt = lib.params.MultimodeTask(lam=task["lambda"], mu=task["mu"], g=task["g"],
                                  n_in=task["n"], m_out=task["m"])
    ens = lib.params.reduce(mt)
    report = lib.formulas.fidelity_report(ens)
    tuning = lib.formulas.tune(ens)
    book = lib.params.photon_book(ens)
    det_thr, prob_thr = lib.params.thresholds(ens)
    return {
        "task": mt, "g_prime": ens.g_prime,
        "det": report.det, "prob": report.prob, "cft": report.cft,
        "cosh_r": tuning.cosh_r, "y": tuning.y, "cos_theta": tuning.cos_theta,
        "z": tuning.z, "det_threshold": det_thr, "prob_threshold": prob_thr,
        "passive_filter_gain": book.total / book.n_c,
    }


# ---------------------------------------------------------------------------
# sweep outputs
# ---------------------------------------------------------------------------

_SWEEP_FIELDS = ("axis_value", "g_prime", "f_det", "f_prob", "f_cft", "regime",
                 "cosh_r", "y", "cos_theta", "z")


def parse_sweep_csv(text: str, header: str) -> tuple[list[dict], list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        got = lines[0] if lines else ""
        return [], [f"csv header {got!r} does not match {header!r}"]
    rows, problems = [], []
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(_SWEEP_FIELDS):
            problems.append(f"csv line {i}: {len(cells)} cells")
            continue
        row = {}
        for name, cell in zip(_SWEEP_FIELDS, cells):
            row[name] = cell if name == "regime" else (float(cell) if cell else None)
        rows.append(row)
    return rows, problems


def parse_sweep_json(text: str) -> tuple[list[dict], list[str]]:
    payload = json.loads(text)
    if payload.get("command") != "sweep":
        return [], [f"json envelope command {payload.get('command')!r}"]
    return payload["result"]["rows"], []


def check_sweep_rows(sweep, rows: list[dict], axis_values: list[float],
                     sample: list[int], lib, rel: float) -> list[str]:
    """Structural checks on every row, value checks on the sampled rows."""
    problems = []
    if len(rows) != sweep.steps:
        return [f"{len(rows)} rows for {sweep.steps} steps"]
    for i, row in enumerate(rows):
        values = [row["f_det"], row["f_prob"], row["f_cft"]]
        if not all(v is not None and math.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
            problems.append(f"row {i}: fidelity outside [0, 1]: {values!r}")
        elif row["f_prob"] < row["f_det"] * (1.0 - rel):
            problems.append(f"row {i}: prob {row['f_prob']!r} < det {row['f_det']!r}")
        if not row["regime"]:
            problems.append(f"row {i}: empty regime")
    if problems:
        return problems
    for i in sample:
        row, value = rows[i], axis_values[i]
        where = f"row {i} ({sweep.axis}={value!r})"
        task = sweep.task_at(value)
        lam, mu, g = reduced(task)
        point = library_point(lib, task)
        _compare(problems, where, {
            "axis_value": (row["axis_value"], value),
            "f_prob (closed form)": (row["f_prob"], f_prob(lam, mu, g)),
            "f_cft (closed form)": (row["f_cft"], f_cft(lam, mu, g)),
            "g_prime": (row["g_prime"], point["g_prime"]),
            "f_det": (row["f_det"], point["det"]),
            "cosh_r": (row["cosh_r"], point["cosh_r"]),
            "y": (row["y"], point["y"]),
            "cos_theta": (row["cos_theta"], point["cos_theta"]),
            "z": (row["z"], point["z"]),
        }, rel)
    return problems


def det_below_cft(rows: list[dict]) -> int:
    """Rows where the printed deterministic optimum is below the classical one."""
    return sum(1 for row in rows if row["f_det"] < row["f_cft"])


# ---------------------------------------------------------------------------
# single-point CLI requests
# ---------------------------------------------------------------------------

_NUMBER = r"([-+0-9.eE]+|inf|nan)"


def _text_number(stdout: str, pattern: str) -> float | None:
    match = re.search(pattern, stdout, flags=re.MULTILINE)
    return float(match.group(1)) if match else None


def check_request(request, returncode: int, stdout: str, lib) -> list[str]:
    """Exit code, parseable output, and printed numbers against the library."""
    where = " ".join(request.argv())
    if returncode != 0:
        return [f"{where}: exit code {returncode}"]
    point = library_point(lib, request.task)
    expected = {}
    if request.command == "eval":
        lam, mu, g = reduced(request.task)
        expected = {
            "det": point["det"], "prob": point["prob"], "cft": point["cft"],
            "prob (closed form)": f_prob(lam, mu, g), "cft (closed form)": f_cft(lam, mu, g),
        }
    elif request.command == "regimes":
        expected = {k: point[k] for k in ("passive_filter_gain", "prob_threshold", "det_threshold")}
    elif request.mode == "det":
        total, single = lib.formulas.photon_output_det(point["task"])
        expected = {"n_total_out": total, "n_single_out": single}
    else:
        _, total, single = lib.formulas.photon_output_prob(point["task"], point["y"])
        expected = {"n_total_out": total, "n_single_out": single}

    problems: list[str] = []
    if request.json:
        try:
            result = json.loads(stdout)["result"]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"{where}: unparseable JSON ({exc})"]
        observed = {
            "det": result.get("fidelities", {}).get("det"),
            "prob": result.get("fidelities", {}).get("prob"),
            "cft": result.get("fidelities", {}).get("cft"),
            "prob (closed form)": result.get("fidelities", {}).get("prob"),
            "cft (closed form)": result.get("fidelities", {}).get("cft"),
            "passive_filter_gain": result.get("passive_filter_gain"),
            "prob_threshold": result.get("prob_threshold"),
            "det_threshold": result.get("det_threshold"),
            "n_total_out": result.get("n_total_out"),
            "n_single_out": result.get("n_single_out"),
        }
        rel = TOL_EXACT
    else:
        observed = {
            "det": _text_number(stdout, rf"^fidelities: det={_NUMBER}"),
            "prob": _text_number(stdout, rf"^fidelities: .*prob={_NUMBER}"),
            "cft": _text_number(stdout, rf"^fidelities: .*cft={_NUMBER}"),
            "passive_filter_gain": _text_number(stdout, rf"^\s+{_NUMBER}\s+passive-filter gain"),
            "prob_threshold": _text_number(stdout, rf"^\s+{_NUMBER}\s+filter plateau threshold"),
            "det_threshold": _text_number(stdout, rf"^\s+{_NUMBER}\s+amplify threshold"),
            "n_total_out": _text_number(stdout, rf"^N'_total\s+=\s+{_NUMBER}"),
            "n_single_out": _text_number(stdout, rf"^N'_single\s+=\s+{_NUMBER}"),
        }
        observed["prob (closed form)"] = observed["prob"]
        observed["cft (closed form)"] = observed["cft"]
        rel = TOL_TEXT
    _compare(problems, where, {k: (observed[k], v) for k, v in expected.items()}, rel)
    return problems


# ---------------------------------------------------------------------------
# verification runs
# ---------------------------------------------------------------------------


def check_verify(level: str, returncode: int, result: dict | None) -> list[str]:
    """A verify run passes when it exits cleanly and every check passed."""
    if returncode != 0 or result is None:
        return [f"verify {level}: exit code {returncode}"]
    if result["n_checks"] == 0:
        return [f"verify {level}: ran no checks"]
    if not result["all_passed"]:
        return [f"verify {level}: failed checks {result['failed_checks']!r}"]
    return []
