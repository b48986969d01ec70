"""Command-line front end.

Subcommands:

* ``eval``    -- point evaluation: reduced parameters, regime, the three
                 fidelities, tuning parameters and photon bookkeeping
* ``sweep``   -- one-axis parameter sweep written as CSV (or JSON)
* ``verify``  -- the self-verification suite (``fast`` or ``full``)
* ``photons`` -- photon bookkeeping table for one protocol
* ``regimes`` -- the gain thresholds and regime map of the reduced task

Exit codes: 0 success, 2 usage, 3 domain error (including a result that
overflows or is not finite, in every output format), 4 I/O failure,
5 verification failure.

Each subcommand builds its result once, and ``_emit`` prints it as the JSON
envelope (``--json``) or as text lines; ``sweep`` writes CSV and/or JSON.
All output is deterministic given the flags (and the verify seed); the
only non-reproducible bytes -- per-check wall times -- go to stderr.
Tables round to 5 significant digits, CSV to 10.

The point commands (``eval``, ``photons``, ``regimes``) never load numpy.
``sweep`` computes numpy columns, re-runs rows they cannot clear through the
scalar path (to raise its error), gates them with np.isfinite, then renders.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__, formulas
from .errors import AmpurifyError, DomainError
from .params import (
    REGIMES,
    MultimodeTask,
    NoisyEnsemble,
    Regime,
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

_MAX_STEPS = 1_000_000  # the most rows one sweep computes
_CHUNK = 16384  # the rows rendered per write


class _UsageError(Exception):
    """Flag combinations argparse cannot catch on its own."""


# ---------------------------------------------------------------------------
# rendering helpers
# ---------------------------------------------------------------------------


def _f5(v: float) -> str:
    return format(float(v), ".5g")


def _regime_label(regime: Regime) -> str:
    return f"{regime.tag.value}+{regime.prob_tag.value}"


def _reduced_line(ens: NoisyEnsemble) -> str:
    return f"reduced: lambda'={_f5(ens.lambda_prime)} mu={_f5(ens.mu)} g'={_f5(ens.g_prime)}"


def _pure_note(ens: NoisyEnsemble) -> list[str]:
    """The pure-input note line, or no line."""
    note = "note: mu at or above the pure-input sentinel; input treated as pure"
    return [note] if is_pure_input(ens) else []


def _leaves(value: object, path: str) -> list[tuple[str, object]]:
    """(key path, value) of every scalar in value, in sorted-key order."""
    if isinstance(value, dict):
        return [leaf for key in sorted(value)
                for leaf in _leaves(value[key], f"{path}.{key}" if path else key)]
    if isinstance(value, (list, tuple)):
        return [leaf for i, item in enumerate(value) for leaf in _leaves(item, f"{path}[{i}]")]
    return [(path, value)]


def _non_finite(path: str, value: float) -> DomainError:
    return DomainError(f"result is not finite: {path} = {value!r}")


def _envelope(args: argparse.Namespace, command: str, params: dict, result: dict) -> str:
    """The JSON envelope of one result.  Text and CSV views pass through it too
    (unindented, which is cheaper), so a non-finite result exits 3 in every
    format with the same message, naming its field, and nothing printed."""
    payload = {
        "tool": "ampurify",
        "version": __version__,
        "command": command,
        "params": params,
        "result": result,
    }
    try:
        return json.dumps(payload, indent=2 if args.json else None, sort_keys=True,
                          allow_nan=False)
    except ValueError:
        path, value = next((p, v) for p, v in _leaves(payload, "")
                           if isinstance(v, float) and not math.isfinite(v))
        raise _non_finite(path, value) from None


def _emit(args: argparse.Namespace, command: str, params: dict, result: dict,
          text: list[str]) -> int:
    """Print one result: its JSON envelope under ``--json``, else its text lines."""
    envelope = _envelope(args, command, params, result)
    print(envelope if args.json else "\n".join(text))
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
    regime = _regime_label(classify(ens))

    result = {
        "regime": regime,
        "thresholds": {"det": det_thr, "prob": prob_thr},
        "fidelities": report._asdict(),
        "tuning": tuning._asdict(),
        "photons": {
            "n_c": book.n_c,
            "n_t": book.n_t,
            "s": book.total,
            "pure_input": is_pure_input(ens),
        },
    }
    text = [
        f"task: lambda={_f5(task.lam)} mu={_f5(task.mu)} g={_f5(task.g)} "
        f"n={task.n_in} m={task.m_out}",
        _reduced_line(ens),
        f"regime: {regime} "
        f"(amplify threshold {_f5(det_thr)}, filter plateau {_f5(prob_thr)})",
        *_pure_note(ens),
        f"fidelities: det={_f5(report.det)} prob={_f5(report.prob)} cft={_f5(report.cft)}",
        f"tuning: cosh_r={_f5(tuning.cosh_r)} y={_f5(tuning.y)} "
        f"cos_theta={_f5(tuning.cos_theta)} z={_f5(tuning.z)}",
        f"photons: N_C={_f5(book.n_c)} N_T={_f5(book.n_t)} S={_f5(book.total)}",
    ]
    return _emit(args, "eval", _task_params(task, ens), result, text)


def _write_rows(write, table: dict, keys: list[str], cell: str, label: str,
                line, sep: str) -> None:
    """Write ``table``'s rows ``_CHUNK`` at a time, each by its regime's template:
    ``cell`` formats a float, ``label`` the regime; ``line`` joins (key, cell)
    pairs.  Rows carry only the float cells that vary: a column of one bit
    pattern is formatted once, from a Python float, into the templates."""
    fixed = {key: float(col[0]) for key in keys if key != "regime"
             and ((col := table[key]).view("u8") == col[:1].view("u8")).all()}
    templates = [line([(key, label % _regime_label(regime) if key == "regime" else
                        cell % fixed[key] if key in fixed else cell) for key in keys])
                 for regime in REGIMES]
    floats = [key for key in keys if key != "regime" and key not in fixed]
    for lo in range(0, len(table["regime"]), _CHUNK):
        rows = zip(*[table[key][lo:lo + _CHUNK].tolist() for key in ["regime", *floats]])
        write(sep * (lo > 0) + sep.join([templates[row[0]] % row[1:] for row in rows]))


def cmd_sweep(args: argparse.Namespace) -> int:
    import numpy as np
    fields = {"lam": args.lam, "mu": args.mu, "g": args.g, "n_in": args.n, "m_out": args.m}
    swept = _AXIS_FIELD[args.axis]
    if fields[swept] is not None:
        raise _UsageError(f"--{args.axis} cannot be fixed while sweeping --axis {args.axis}")
    # a placeholder on the swept axis, so that MultimodeTask checks the fixed
    # flags; rows overwrite it
    fields[swept] = 1 if args.axis in _INT_AXES else 1.0
    for name in ("lam", "mu", "g"):
        if fields[name] is None:
            flag = "lambda" if name == "lam" else name
            raise _UsageError(f"--{flag} is required when sweeping --axis {args.axis}")
    for name in ("n_in", "m_out"):
        fields[name] = fields[name] or 1
    MultimodeTask(**fields)
    # Bad start/stop/steps come straight from the flags, so they are usage
    # errors (exit 2), not domain errors.
    if not (math.isfinite(args.start) and math.isfinite(args.stop)):
        raise _UsageError(f"sweep needs finite start and stop, got [{args.start!r}, {args.stop!r}]")
    # linspace steps by (stop - start) / (steps - 1), which must not overflow
    if not math.isfinite(args.stop - args.start):
        raise _UsageError(f"sweep needs a finite span --stop - --start, got "
                          f"{args.stop!r} - {args.start!r} = {args.stop - args.start!r}")
    if not args.start < args.stop:
        raise _UsageError(f"sweep needs start < stop, got [{args.start!r}, {args.stop!r}]")
    if args.steps < 2:
        raise _UsageError(f"sweep needs steps >= 2, got {args.steps!r}")
    if args.steps > _MAX_STEPS:
        raise _UsageError(f"sweep takes at most {_MAX_STEPS} steps, got {args.steps!r}")
    # every branch runs on every row, so rows that do not pick one may overflow
    with np.errstate(all="ignore"):
        values = np.linspace(args.start, args.stop, args.steps)
        if args.axis in _INT_AXES:
            on_grid = np.abs(values - np.round(values)) <= 1e-9 * np.maximum(1.0, np.abs(values))
            if not on_grid.all():
                raise _UsageError(
                    f"axis {args.axis!r} is integer-valued but the grid hits "
                    f"{float(values[on_grid.argmin()])!r}; choose start/stop/steps on integers"
                )
            values = np.round(values)
        if args.out is None and not args.json:
            raise _UsageError("sweep needs --out PATH and/or --json")
        table = {"axis_value": values, **formulas.columns(**{**fields, swept: values})}

    # the scalar path raises on the first row it rejects, as if every row were built
    for i in np.flatnonzero(~table["valid"]):
        cell = int(values[i]) if args.axis in _INT_AXES else float(values[i])
        ens = reduce(MultimodeTask(**{**fields, swept: cell}))
        formulas.fidelity_report(ens)
        formulas.tune(ens)

    params = {flag: None if flag == args.axis else fields[name]
              for flag, name in _AXIS_FIELD.items()}
    params.update(axis=args.axis, start=args.start, stop=args.stop, steps=args.steps)
    envelope = _envelope(args, "sweep", params, {"axis": args.axis, "rows": []})
    keys = CSV_HEADER.split(",")
    bad = [(int(finite.argmin()), key) for key in sorted(keys)
           if not (finite := np.isfinite(table[key])).all()]
    if bad:
        i, key = min(bad)
        raise _non_finite(f"result.rows[{i}].{key}", float(table[key][i]))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            _write_rows(fh.write, table, keys, "%.10g", "%s",
                        lambda pairs: ",".join(c for _, c in pairs) + "\n", "")
    if args.json:
        head, tail = envelope.split('"rows": []')
        sys.stdout.write(head + '"rows": [')
        _write_rows(sys.stdout.write, table, sorted(keys), "%r", '"%s"',
                    lambda pairs: "\n      {\n" + ",\n".join(
                        f'        "{k}": {c}' for k, c in pairs) + "\n      }", ",")
        sys.stdout.write("\n    ]" + tail + "\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify
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
        if tuning.y == 1.0 and tuning.cosh_r == 1.0:
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
    regime = _regime_label(classify(ens))

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


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call: each
    subcommand's ``set_defaults(run=cmd_...)`` binds the function that its
    module name refers to at that moment."""
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
