"""Measured processes of the benchmark, one fresh interpreter each.

    child.py sweep   --seed N --out-dir DIR [--count K [--trace-file F]]
    child.py verify  --level fast|full --seed N [--trace-file F]
    child.py request --trace-file F -- <ampurify arguments>

``sweep`` and ``verify`` import ``ampurify.cli`` first, as the command line
does, and time only the calls after it.  They print one JSON line of
results on stdout.  Without ``--count``, ``sweep`` serves: each line on
stdin is a time budget in seconds, answered by one JSON line for the sweeps
run in it, so the parent can interleave sweeps with other processes
without paying the import again.  ``request`` is the traced form of a single
``python -m ampurify`` request.  With ``--trace-file`` the process installs
the span tracer after the import and writes its spans to that file.

The parent runs this with ``PYTHONPATH`` pointing at the tree's ``src``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import inputs
import reference
import spans


SRC = Path(__file__).resolve().parent.parent / "src"


def _axis_values(sweep: inputs.Sweep) -> list[float]:
    raw = np.linspace(sweep.start, sweep.stop, sweep.steps)
    if sweep.axis in ("n", "m"):
        return [float(round(v)) for v in raw]
    return [float(v) for v in raw]


def _speed_probe() -> float:
    """Seconds of a fixed pure-Python loop, the kind of work a sweep does.
    Run after every sweep, it tracks the machine's speed through a sweep
    budget (see ``SWEEP_PROBE_REF_S`` in run.py)."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i
    return time.perf_counter() - t0


def _run_sweep(lib: SimpleNamespace, sweep: inputs.Sweep, csv_path: str) -> tuple[int, str, float]:
    """One in-process ``sweep`` call: (exit code, captured stdout, wall time)."""
    captured = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = lib.cli.main(sweep.argv(csv_path))
    except SystemExit as exc:  # argparse rejected the flags
        code = exc.code if isinstance(exc.code, int) else 2
    return code, captured.getvalue(), time.perf_counter() - t0


def _check_sweep(lib: SimpleNamespace, sweep: inputs.Sweep, index: int, seed: int, code: int,
                 stdout: str, csv_path: str) -> tuple[list[str], list[dict]]:
    if code != 0:
        return [f"exit code {code}"], []
    if sweep.output == "csv":
        with open(csv_path, encoding="utf-8") as fh:
            rows, problems = reference.parse_sweep_csv(fh.read(), lib.cli.CSV_HEADER)
        rel = reference.TOL_CSV
    else:
        rows, problems = reference.parse_sweep_json(stdout)
        rel = reference.TOL_EXACT
    if problems:
        return problems, rows
    rng = random.Random(f"sample:{seed}:{index}")
    sample = rng.sample(range(sweep.steps), min(8, sweep.steps))
    return reference.check_sweep_rows(sweep, rows, _axis_values(sweep), sample, lib, rel), rows


def _sweep_pass(lib: SimpleNamespace, schedule, seed: int, csv_path: str,
                deadline: float | None = None, tracer: spans.Tracer | None = None) -> dict:
    """Run (index, sweep) pairs from ``schedule`` until it ends or, if given,
    until ``deadline``; check each output outside the timed call."""
    rows = wall = probe = failed = det_below = 0
    problems: list[str] = []
    done = 0
    while deadline is None or done == 0 or time.perf_counter() < deadline:
        item = next(schedule, None)
        if item is None:
            break
        index, sweep = item
        code, stdout, seconds = _run_sweep(lib, sweep, csv_path)
        wall += seconds
        probe += _speed_probe()
        done += 1
        try:
            with tracer.paused() if tracer else contextlib.nullcontext():
                issues, parsed = _check_sweep(lib, sweep, index, seed, code, stdout, csv_path)
        except Exception as exc:  # a malformed output is a failed request
            issues, parsed = [f"check raised {exc!r}"], []
        if issues:
            failed += 1
            problems += [f"sweep {index} ({sweep.axis}, {sweep.output}): {p}" for p in issues[:3]]
        else:
            rows += sweep.steps
            det_below += reference.det_below_cft(parsed)
    return {"sweeps": done, "rows": rows, "wall_s": wall, "probe_s": probe, "failed": failed,
            "problems": problems[:20], "det_below_cft_rows": det_below}


def cmd_sweep(args: argparse.Namespace) -> dict | None:
    lib = reference.load_library(SRC)
    csv_path = os.path.join(args.out_dir, f"sweep-{os.getpid()}.csv")
    schedule = enumerate(inputs.sweeps(args.seed))
    try:
        if args.count is None:
            # serve: each stdin line is a time budget; answer one JSON line
            for line in sys.stdin:
                deadline = time.perf_counter() + float(line)
                result = _sweep_pass(lib, schedule, args.seed, csv_path, deadline)
                print(json.dumps(result), flush=True)
            return None
        fixed = [next(schedule) for _ in range(args.count)]
        result = _sweep_pass(lib, iter(fixed), args.seed, csv_path)
        if args.trace_file:
            tracer = spans.Tracer()
            tracer.install()
            traced = _sweep_pass(lib, iter(fixed), args.seed, csv_path, tracer=tracer)
            tracer.dump(args.trace_file)
            result["untraced_wall_s"] = result["wall_s"]
            result["traced_wall_s"] = traced["wall_s"]
            result["sweeps"] += traced["sweeps"]
            result["failed"] += traced["failed"]
            result["problems"] += traced["problems"]
        return result
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(csv_path)


def cmd_verify(args: argparse.Namespace) -> dict:
    import ampurify.cli  # noqa: F401  (the import a verify command pays)
    import ampurify.verify

    tracer = None
    if args.trace_file:
        tracer = spans.Tracer()
        tracer.install()
    t0 = time.perf_counter()
    report = ampurify.verify.run_suite(level=args.level, seed=args.seed)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.dump(args.trace_file)
    return {
        "wall_s": wall,
        "all_passed": report.all_passed,
        "n_checks": len(report.checks),
        "failed_checks": [c.name for c in report.checks if not c.passed],
    }


def cmd_request(args: argparse.Namespace) -> int:
    import ampurify.cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        return ampurify.cli.main(args.argv)
    finally:
        tracer.dump(args.trace_file)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_sweep = sub.add_parser("sweep")
    p_sweep.add_argument("--seed", type=int, required=True)
    p_sweep.add_argument("--out-dir", required=True)
    p_sweep.add_argument("--count", type=int,
                         help="run this many sweeps; without it, serve budgets from stdin")
    p_sweep.add_argument("--trace-file")
    p_verify = sub.add_parser("verify")
    p_verify.add_argument("--level", choices=("fast", "full"), required=True)
    p_verify.add_argument("--seed", type=int, required=True)
    p_verify.add_argument("--trace-file")
    p_request = sub.add_parser("request")
    p_request.add_argument("--trace-file", required=True)
    p_request.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    if args.mode == "request":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return cmd_request(args)
    result = cmd_sweep(args) if args.mode == "sweep" else cmd_verify(args)
    if result is not None:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
