"""Quick self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that every run emits exactly the metrics named in BENCHMARK.json,
in both modes and on every workload, and that a corrupted sweep row, a
failing verification check and a wrong or failed CLI request each count
as a failed request.  The tiny runs take the "full" verification at the
fast level, so the whole test takes about two minutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import child
import reference
import run

#: seconds of each run; the requests and the one "full" verification (run
#: at the fast level here) have fixed counts, so the runs take longer
TINY_SECONDS = 0.5


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_metrics_emitted() -> None:
    for trace in (False, True):
        units = run.metric_units(trace)
        for workload in run.WORKLOADS:
            with contextlib.redirect_stdout(io.StringIO()):
                result = run.run(workload, seed=1, seconds=TINY_SECONDS, trace=trace,
                                 full_level="fast")
            json.dumps(result)  # the result line must serialise
            where = f"{workload} trace={int(trace)}"
            expect(set(result["metrics"]) == set(units), f"{where}: metric names differ")
            for name, metric in result["metrics"].items():
                expect(metric["unit"] == units[name], f"{where}: unit of {name}")
                expect(isinstance(metric["value"], (int, float)), f"{where}: value of {name}")
            expect(result["attempted"] >= 1, f"{where}: nothing attempted")
            expect(result["failed"] == 0 and result["correct"],
                   f"{where}: failures on a correct tree")


def check_corrupted_sweep_row_fails() -> None:
    lib = reference.load_library(run.SRC)
    schedule = [sweep for sweep, _ in zip(child.inputs.sweeps(5), range(2))]
    run_sweep = child._run_sweep

    def corrupting(lib, sweep, csv_path):
        code, stdout, wall = run_sweep(lib, sweep, csv_path)
        if sweep is schedule[1]:  # the second sweep is a lambda sweep to CSV
            with open(csv_path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            cells = lines[3].split(",")
            cells[3] = repr(float(cells[2]) * 0.5)  # f_prob at half of f_det
            lines[3] = ",".join(cells)
            with open(csv_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        return code, stdout, wall

    csv_path = str(run.OUT_DIR / "selftest.csv")
    child._run_sweep = corrupting
    try:
        result = child._sweep_pass(lib, enumerate(schedule), 5, csv_path)
    finally:
        child._run_sweep = run_sweep
        (run.OUT_DIR / "selftest.csv").unlink(missing_ok=True)
    expect(result["sweeps"] == 2 and result["failed"] == 1,
           f"corrupted row not counted: {result}")
    tally = run.Tally()
    tally.record(result["problems"], count=result["sweeps"], failed=result["failed"])
    expect((tally.failed, tally.attempted) == (1, 2), "sweep failure not tallied")


def _runner_with(finished: run.Finished) -> run.Runner:
    runner = run.Runner("certify", seed=1, seconds=TINY_SECONDS)
    runner.spawn = lambda argv, native: finished
    return runner


def check_failing_verify_fails() -> None:
    report = {"wall_s": 0.1, "all_passed": False, "n_checks": 31,
              "failed_checks": ["quantum_beats_classical_shortfall"]}
    runner = _runner_with(run.Finished(0, 0.2, json.dumps(report) + "\n", ""))
    runner.verify("fast", native=True)
    expect((runner.tally.failed, runner.tally.attempted) == (1, 1), "failed check not counted")
    runner = _runner_with(run.Finished(5, 0.2, "", "boom"))
    runner.verify("full", native=True)
    expect(runner.tally.failed == 1, "crashed verification not counted")
    expect(run.median(runner.walls["full"], "cold runs")[0] == 0.0,
           "a metric without samples must still be reported")


def check_bad_requests_fail() -> None:
    request = next(child.inputs.requests(1))  # eval, text output
    lib = reference.load_library(run.SRC)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        lib.cli.main(request.argv())
    good = out.getvalue()
    bad = good.replace("fidelities: det=", "fidelities: det=9")
    cases = [(0, good, 0), (0, bad, 1), (3, good, 1)]
    for code, stdout, failures in cases:
        runner = _runner_with(run.Finished(code, 0.5, stdout, ""))
        runner.request(native=True, request=request)
        runner.check_requests()
        expect(runner.tally.failed == failures, f"request exit {code}: {runner.tally}")


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    check_corrupted_sweep_row_fails()
    check_failing_verify_fails()
    check_bad_requests_fail()
    check_metrics_emitted()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
