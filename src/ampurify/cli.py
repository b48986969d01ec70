"""Command-line front end.

Subcommands:

* ``eval``    -- point evaluation: reduced parameters, regime, the three
                 fidelities, tuning parameters and photon bookkeeping
* ``sweep``   -- one-axis parameter sweep written as CSV (or JSON)
* ``verify``  -- the self-verification suite (``fast`` or ``full``)
* ``photons`` -- photon bookkeeping table for one protocol
* ``regimes`` -- the gain thresholds and regime map of the reduced task

Exit codes: 0 success, 2 usage, 3 domain error (including a result that
overflows or is not finite), 4 I/O failure, 5 verification failure.

Each subcommand builds its result once, and ``_emit`` prints it as the JSON
envelope (``--json``) or as text lines; ``sweep`` writes CSV and/or JSON.
All output is deterministic given the flags (and the verify seed); the
only non-reproducible bytes -- per-check wall times -- go to stderr.
Tables round to 5 significant digits, CSV to 10.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__, formulas, verify
from .errors import AmpurifyError, DomainError
from .params import (
    MultimodeTask,
    NoisyEnsemble,
    RegimeTag,
    classify,
    is_pure_input,
    passive_filter_gain,
    photon_book,
    reduce,
    thresholds,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4
EXIT_VERIFY = 5

#: CSV column order; the header line is part of the CLI contract
CSV_HEADER = "axis_value,g_prime,f_det,f_prob,f_cft,regime,cosh_r,y,cos_theta,z"

#: sweep axis name -> the MultimodeTask field it runs over
_AXIS_FIELD = {"g": "g", "lambda": "lam", "mu": "mu", "n": "n_in", "m": "m_out"}
_INT_AXES = ("n", "m")


class _UsageError(Exception):
    """Flag combinations argparse cannot catch on its own."""


# ---------------------------------------------------------------------------
# rendering helpers
# ---------------------------------------------------------------------------


def _f5(v: float) -> str:
    return format(float(v), ".5g")


def _opt5(v: float | None) -> str:
    return "-" if v is None else _f5(v)


def _opt10(v: float | None) -> str:
    return "" if v is None else format(float(v), ".10g")


def _regime_label(ens: NoisyEnsemble) -> str:
    reg = classify(ens)
    return f"{reg.tag.value}+{reg.prob_tag.value}"


def _reduced_line(ens: NoisyEnsemble) -> str:
    return f"reduced: lambda'={_f5(ens.lambda_prime)} mu={_f5(ens.mu)} g'={_f5(ens.g_prime)}"


def _pure_note(ens: NoisyEnsemble) -> list[str]:
    """The pure-input note line, or no line."""
    note = "note: mu at or above the pure-input sentinel; input treated as pure"
    return [note] if is_pure_input(ens) else []


def _print_json(command: str, params: dict, result: dict) -> None:
    """Print the JSON envelope of one result."""
    payload = {
        "tool": "ampurify",
        "version": __version__,
        "command": command,
        "params": params,
        "result": result,
    }
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"result is not finite ({exc})") from exc
    print(text)


def _emit(args: argparse.Namespace, command: str, params: dict, result: dict,
          text: list[str]) -> int:
    """Print one result: its JSON envelope under ``--json``, else its text lines."""
    if args.json:
        _print_json(command, params, result)
    else:
        print("\n".join(text))
    return EXIT_OK


def _task_params(task: MultimodeTask, ens: NoisyEnsemble) -> dict:
    """The task flags and their reduction ``ens``."""
    return {
        "lambda": task.lam,
        "mu": task.mu,
        "g": task.g,
        "n": task.n_in,
        "m": task.m_out,
        "lambda_prime": ens.lambda_prime,
        "g_prime": ens.g_prime,
    }


def _task_from_args(args: argparse.Namespace) -> tuple[MultimodeTask, NoisyEnsemble]:
    """The task the flags name, and its reduction."""
    task = MultimodeTask(lam=args.lam, mu=args.mu, g=args.g, n_in=args.n, m_out=args.m)
    return task, reduce(task)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    task, ens = _task_from_args(args)
    book = photon_book(ens)
    report = formulas.fidelity_report(ens)
    tuning = formulas.tune(ens)
    det_thr, prob_thr = thresholds(ens)
    regime = _regime_label(ens)

    result = {
        "regime": regime,
        "thresholds": {"det": det_thr, "prob": prob_thr},
        "fidelities": dataclasses.asdict(report),
        "tuning": dataclasses.asdict(tuning),
        "photons": {
            "n_c": book.n_c,
            "n_t": book.n_t,
            "s": book.total,
            "pure_input": is_pure_input(ens),
        },
    }
    plateau = " (plateau)" if tuning.plateau else ""
    text = [
        f"task: lambda={_f5(task.lam)} mu={_f5(task.mu)} g={_f5(task.g)} "
        f"n={task.n_in} m={task.m_out}",
        _reduced_line(ens),
        f"regime: {regime} "
        f"(amplify threshold {_f5(det_thr)}, filter plateau {_f5(prob_thr)})",
        *_pure_note(ens),
        f"fidelities: det={_f5(report.det)} prob={_f5(report.prob)} cft={_f5(report.cft)}",
        f"tuning: cosh_r={_opt5(tuning.cosh_r)} y={_opt5(tuning.y)}{plateau} "
        f"cos_theta={_opt5(tuning.cos_theta)} z={_f5(tuning.z)}",
        f"photons: N_C={_f5(book.n_c)} N_T={_f5(book.n_t)} S={_f5(book.total)}",
    ]
    return _emit(args, "eval", _task_params(task, ens), result, text)


def _sweep_row(value: float, task: MultimodeTask) -> dict:
    """One sweep row, keyed by the CSV header (None where a knob is unset)."""
    ens = reduce(task)
    report = formulas.fidelity_report(ens)
    tuning = formulas.tune(ens)
    return {
        "axis_value": value,
        "g_prime": ens.g_prime,
        "f_det": report.det,
        "f_prob": report.prob,
        "f_cft": report.cft,
        "regime": _regime_label(ens),
        "cosh_r": tuning.cosh_r,
        "y": tuning.y,
        "cos_theta": tuning.cos_theta,
        "z": tuning.z,
    }


def cmd_sweep(args: argparse.Namespace) -> int:
    fields = {"lam": args.lam, "mu": args.mu, "g": args.g, "n_in": args.n, "m_out": args.m}
    swept = _AXIS_FIELD[args.axis]
    if fields[swept] is not None:
        raise _UsageError(
            f"--{args.axis} cannot be fixed while sweeping --axis {args.axis}"
        )
    # placeholder on the swept axis; rows overwrite it
    fields[swept] = 1 if args.axis in _INT_AXES else 1.0
    for name in ("lam", "mu", "g"):
        if fields[name] is None:
            flag = "lambda" if name == "lam" else name
            raise _UsageError(f"--{flag} is required when sweeping --axis {args.axis}")
    for name in ("n_in", "m_out"):
        if fields[name] is None:
            fields[name] = 1
    fixed = MultimodeTask(**fields)
    # Bad start/stop/steps come straight from the flags, so they are usage
    # errors (exit 2), not domain errors.
    if not args.start < args.stop:
        raise _UsageError(
            f"sweep needs start < stop, got [{args.start!r}, {args.stop!r}]"
        )
    if args.steps < 2:
        raise _UsageError(f"sweep needs steps >= 2, got {args.steps!r}")
    values = [float(v) for v in np.linspace(args.start, args.stop, args.steps)]
    if args.axis in _INT_AXES:
        for v in values:
            if abs(v - round(v)) > 1e-9 * max(1.0, abs(v)):
                raise _UsageError(
                    f"axis {args.axis!r} is integer-valued but the grid hits "
                    f"{v!r}; choose start/stop/steps on integers"
                )
        values = [float(round(v)) for v in values]
    if args.out is None and not args.json:
        raise _UsageError("sweep needs --out PATH and/or --json")

    rows = []
    for value in values:
        cell = int(value) if args.axis in _INT_AXES else value
        rows.append(_sweep_row(value, MultimodeTask(**{**vars(fixed), swept: cell})))

    if args.out is not None:
        keys = CSV_HEADER.split(",")
        lines = [CSV_HEADER]
        for row in rows:
            lines.append(
                ",".join(row[k] if k == "regime" else _opt10(row[k]) for k in keys)
            )
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    if args.json:
        result = {"axis": args.axis, "rows": rows}
        params = _task_params(fixed, reduce(fixed))
        params.update(
            {"axis": args.axis, "start": args.start, "stop": args.stop, "steps": args.steps}
        )
        _print_json("sweep", params, result)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify.run_suite(level=args.level, seed=args.seed, dim=args.dim)
    params = {"level": args.level, "seed": args.seed, "dim": args.dim}
    _emit(args, "verify", params, report.to_json_dict(), [report.render()])
    print(report.render_timings(), file=sys.stderr)
    return EXIT_OK if report.all_passed else EXIT_VERIFY


def cmd_photons(args: argparse.Namespace) -> int:
    task, ens = _task_from_args(args)
    n_single_in = photon_book(ens).n_t
    n_total_in = task.n_in * n_single_in

    result = {"mode": args.mode, "n_single": n_single_in, "n_total": n_total_in}
    rows = []  # (label, value) lines of the table
    notes = []
    if args.mode == "det":
        n_total_out, n_single_out = formulas.photon_output_det(task)
        if classify(ens).tag is RegimeTag.DET_IDENTITY:
            notes.append("identity channel (g' below the amplify threshold)")
    else:
        tuning = formulas.tune(ens)
        n_t_out, n_total_out, n_single_out = formulas.photon_output_prob(task, tuning.y)
        result.update({"y": tuning.y, "n_t_out": n_t_out})
        rows = [("filter ratio y", tuning.y), ("N_T", n_single_in), ("N'_T", n_t_out)]
        if tuning.y == 1.0:
            notes.append("no change (passive filter, y = 1)")
    if n_single_out < n_single_in:
        notes.append("net purification (N'_single < N_single)")

    result.update({"n_single_out": n_single_out, "n_total_out": n_total_out, "notes": notes})
    rows += [("N_single", n_single_in), ("N_total", n_total_in),
             ("N'_single", n_single_out), ("N'_total", n_total_out)]
    text = [f"photon bookkeeping ({'deterministic' if args.mode == 'det' else 'probabilistic'} protocol)"]
    text += [f"{label:<10} = {_f5(value)}" for label, value in rows]
    text += [f"note: {note}" for note in notes]
    return _emit(args, "photons", _task_params(task, ens), result, text)


def cmd_regimes(args: argparse.Namespace) -> int:
    task, ens = _task_from_args(args)
    det_thr, prob_thr = thresholds(ens)
    tangency = passive_filter_gain(ens)
    regime = _regime_label(ens)

    result = {
        "regime": regime,
        "unit_gain": 1.0,
        "passive_filter_gain": tangency,
        "prob_threshold": prob_thr,
        "det_threshold": det_thr,
        "pure_input": is_pure_input(ens),
    }
    text = [
        _reduced_line(ens),
        "gain landmarks:",
        "  1          purification ends; amplification begins",
        f"  {_f5(tangency):<10} passive-filter gain S/N_C "
        "(probabilistic advantage vanishes here)",
        f"  {_f5(prob_thr):<10} filter plateau threshold sqrt(S(S+1))/N_C",
        f"  {_f5(det_thr):<10} amplify threshold (S+1)/N_C",
        f"current regime: {regime}",
        *_pure_note(ens),
    ]
    return _emit(args, "regimes", _task_params(task, ens), result, text)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _add_task_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    default_int = 1 if required else None
    p.add_argument("--lambda", dest="lam", type=float, required=required,
                   default=None, help="prior concentration lambda > 0")
    p.add_argument("--mu", type=float, required=required, default=None,
                   help="thermal-noise parameter mu > 0 (N_T = 1/mu)")
    p.add_argument("--g", type=float, required=required, default=None,
                   help="target amplitude gain g > 0")
    p.add_argument("--n", type=_positive_int, default=default_int,
                   help="input copies N (default 1)")
    p.add_argument("--m", type=_positive_int, default=default_int,
                   help="output copies M (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ampurify",
        description="Optimal fidelities for amplifying and purifying "
        "Gaussian-modulated noisy coherent states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one task")
    _add_task_flags(p_eval)
    p_eval.set_defaults(run=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="sweep one axis to CSV/JSON")
    p_sweep.add_argument("--axis", choices=sorted(_AXIS_FIELD), required=True)
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=_positive_int, required=True)
    p_sweep.add_argument("--out", default=None, help="CSV output path")
    _add_task_flags(p_sweep, required=False)
    p_sweep.set_defaults(run=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the self-verification suite")
    p_verify.add_argument("--level", choices=("fast", "full"), default="fast")
    p_verify.add_argument("--seed", type=_nonneg_int, default=7)
    p_verify.add_argument("--dim", type=_positive_int, default=64,
                          help="Fock cutoff for the compact numeric checks")
    p_verify.set_defaults(run=cmd_verify)

    p_photons = sub.add_parser("photons", help="photon bookkeeping for one protocol")
    p_photons.add_argument("--mode", choices=("det", "prob"), required=True)
    _add_task_flags(p_photons)
    p_photons.set_defaults(run=cmd_photons)

    p_regimes = sub.add_parser("regimes", help="gain thresholds of the reduced task")
    _add_task_flags(p_regimes)
    p_regimes.set_defaults(run=cmd_regimes)

    # last on every subcommand, so that it closes each usage line
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="emit a JSON envelope")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AmpurifyError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ArithmeticError as exc:
        print(f"domain error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
