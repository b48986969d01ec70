"""Per-check wall times of ``verify.run_suite`` in two trees, from cold processes.

    python3 tools/check_times.py TREE_A TREE_B --level fast|full --pairs N

Each pair runs one fresh interpreter per tree, TREE_A first in even pairs
and TREE_B first in odd ones, with ``PYTHONPATH=TREE/src`` and single-threaded
BLAS as ``bench/run.py`` runs its children.  A process imports
``ampurify.cli`` and ``ampurify.verify``, the imports a ``verify`` command
pays, then runs the suite once at seed 7 and dim 64 and reports each
check's ``wall_time_ms`` (a grouped check's time is its first result's).

It prints, for each check and for the suite total, the median ms and the
interquartile range in either tree and the ratio of the medians, then in how
many pairs TREE_B's total was the lower and whether that is a gain: lower in
at least 9 of 10 pairs, ties counting for neither tree, with the medians
apart by more than TREE_A's interquartile range.  A difference of the medians
within TREE_A's interquartile range is host noise; such rows are marked ``~``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

CHILD = """
import json, sys
import ampurify.cli, ampurify.verify
report = ampurify.verify.run_suite(level=sys.argv[1], seed=7, dim=64)
print(json.dumps([[c.name, c.wall_time_ms] for c in report.checks]))
"""


def run_once(tree: str, level: str) -> dict[str, float]:
    """{check name: ms} of one cold ``run_suite`` in ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
               **SINGLE_THREADED)
    done = subprocess.run([sys.executable, "-c", CHILD, level], env=env, capture_output=True,
                          text=True, check=True)
    return dict(json.loads(done.stdout))


def iqr(values: list[float]) -> float:
    """Distance between the quartiles of ``values``; 0 for a single value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def table(runs_a: list[dict[str, float]], runs_b: list[dict[str, float]]) -> list[str]:
    """Lines comparing two trees' runs: one row per check, then the suite total.

    A row gives each tree's median ms and interquartile range, the ratio of
    the medians, and ``~`` where the medians differ by no more than tree A's
    interquartile range.  A check missing from a run counts as 0 ms there.
    """
    runs = (runs_a, runs_b)
    names = list(dict.fromkeys(name for side in runs for run in side for name in run))
    rows = [(name, [[run.get(name, 0.0) for run in side] for side in runs]) for name in names]
    rows.append(("total", [[sum(run.values()) for run in side] for side in runs]))
    width = max(len(name) for name, _ in rows)
    lines = [f"{'check':<{width}} {'A ms':>9} {'A IQR':>8} {'B ms':>9} {'B IQR':>8} {'B/A':>6}"]
    for name, (ms_a, ms_b) in rows:
        a, b, noise = statistics.median(ms_a), statistics.median(ms_b), iqr(ms_a)
        ratio = f"{b / a:6.2f}" if a > 0.0 else f"{'-':>6}"
        mark = " ~" if abs(b - a) <= noise else ""
        lines.append(f"{name:<{width}} {a:9.2f} {noise:8.2f} {b:9.2f} {iqr(ms_b):8.2f} "
                     f"{ratio}{mark}")
    lines.append("~ : the medians differ by no more than A's interquartile range (host noise)")
    return lines


def gain_verdict(totals_a: list[float], totals_b: list[float]) -> tuple[bool, str]:
    """Whether B's paired totals are a gain over A's, and the line saying so.

    The rule for claiming a gain: B is lower in at least nine tenths of all
    pairs, a tie counting for neither tree, and A's median exceeds B's by
    more than A's interquartile range.
    """
    pairs = len(totals_a)
    wins = sum(tb < ta for ta, tb in zip(totals_a, totals_b))
    a, b, noise = statistics.median(totals_a), statistics.median(totals_b), iqr(totals_a)
    holds = 10 * wins >= 9 * pairs and a - b > noise
    return holds, (f"B's total was lower in {wins} of {pairs} pairs, median {a:.2f} -> {b:.2f} ms "
                   f"(A's IQR {noise:.2f}): {'a gain' if holds else 'no gain'} by the 9/10-and-IQR "
                   "rule")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--level", choices=("fast", "full"), required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = (args.tree_a, args.tree_b)
    runs: tuple[list[dict], list[dict]] = ([], [])
    for pair in range(args.pairs):
        for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
            runs[side].append(run_once(trees[side], args.level))
    print("\n".join(table(*runs)))
    totals = [[sum(run.values()) for run in side] for side in runs]
    print(f"level {args.level} (A = {args.tree_a}, B = {args.tree_b}): {gain_verdict(*totals)[1]}")


if __name__ == "__main__":
    main()
