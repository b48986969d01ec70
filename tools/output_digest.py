"""Print one sha256 per CLI command over its stdout, stderr and exit code.

    python3 tools/output_digest.py TREE
    python3 tools/output_digest.py --verify-values TREE_A TREE_B

The first form runs ``python -m ampurify`` from TREE/src on a fixed
command list; diff the output of two trees to prove a refactor
byte-identical.  A sweep's CSV file counts as stdout.  For a ``verify`` run
only stdout and the exit code count, since its stderr holds wall times; a
rejected ``verify`` command line counts whole.  ``COLUMNS`` is pinned so
that ``--help`` wraps the same way on every terminal.

The second form runs ``verify --seed 7 --json`` at both levels and at every
cutoff of ``VERIFY_DIMS`` in each tree, and prints each check's expected
value, observed value, tolerance or verdict that differs between them, old
(TREE_A) then new (TREE_B), so that a loosened tolerance shows as well as a
moved value, and then one line with the number of checks compared and of
values that differ.  A run whose stdout is not JSON is reported by
its level, cutoff, exit code and first stderr line, and compares nothing.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

POINTS = ["--lambda 1 --mu 1 --g 2", "--lambda 1 --mu 1 --g 1.5", "--lambda 0.5 --mu 2 --g 2",
          "--lambda 1 --mu 1 --g 1.2", "--lambda 1 --mu 1 --g 0.5", "--lambda 1 --mu 1 --g 4",
          "--lambda 1 --mu 1e15 --g 1", "--lambda 2 --mu 1 --g 1 --n 2 --m 1"]
SWEEPS = ["--axis g --start 1 --stop 4 --steps 31 --lambda 1 --mu 1",
          "--axis lambda --start 0.2 --stop 3 --steps 15 --mu 1 --g 2",
          "--axis mu --start 0.2 --stop 3 --steps 15 --lambda 1 --g 2",
          "--axis n --start 1 --stop 4 --steps 4 --lambda 2 --mu 1 --g 2",
          "--axis m --start 1 --stop 4 --steps 4 --lambda 2 --mu 1 --g 1",
          # past the 16,384 rows that the CLI renders per write
          "--axis lambda --start 0.2 --stop 3 --steps 20000 --mu 1 --g 2"]
#: extreme inputs whose results are representable (exit 0)
EXTREMES = ["eval --lambda 1 --mu 1 --g 1e200",
            "sweep --axis g --start 1 --stop 1e200 --steps 3 --lambda 1 --mu 1 --json",
            "eval --lambda 1e-300 --mu 1 --g 2 --json",
            "regimes --lambda 1e-300 --mu 1 --g 2 --json",
            "eval --lambda 1e-200 --mu 1e-200 --g 1e-200 --json"]
#: results that are not finite or overflow (a domain error, exit 3), in the
#: text view too, and sweeps whose rows fail a task or tuning check (the
#: first failing row names the error, in both sinks)
BOUNDARY = ["regimes --lambda 1e300 --mu 1e-300 --g 1",
            "regimes --lambda 1e300 --mu 1e-300 --g 1 --json",
            "photons --mode det --lambda 1 --mu 1 --g 1e200",
            "photons --mode prob --lambda 1 --mu 1 --g 1e200"]
BOUNDARY += [f"sweep {s} {sink}" for s in
             ("--axis g --start -1 --stop 2 --steps 4 --lambda 1 --mu 1",
              "--axis lambda --start 1e-300 --stop 1e300 --steps 50 --mu 1e-300 --g 1")
             for sink in ("--json", "--out CSV")]
#: the usage errors of tests/test_cli.py::test_sweep_usage_errors_exit_two
USAGE = ["sweep --axis g --start 1 --stop 2 --steps 3 --lambda 1 --mu 1 --g 2 --json",
         "sweep --axis g --start 1 --stop 2 --steps 3 --lambda 1 --json",
         "sweep --axis g --start 2 --stop 1 --steps 3 --lambda 1 --mu 1 --json",
         "sweep --axis g --start 1 --stop 2 --steps 1 --lambda 1 --mu 1 --json",
         "sweep --axis n --start 1 --stop 4 --steps 5 --lambda 1 --mu 1 --g 2 --json",
         "sweep --axis g --start 1 --stop 2 --steps 3 --lambda 1 --mu 1",
         "sweep --axis g --start 1 --stop 2 --steps 1000001 --lambda 1 --mu 1 --json",
         "sweep --axis n --start 1 --stop inf --steps 3 --lambda 1 --mu 1 --g 2 --json",
         "sweep --axis g --start 1 --stop inf --steps 3 --lambda 1 --mu 1 --json",
         "sweep --axis g --start=nan --stop 2 --steps 3 --lambda 1 --mu 1 --json",
         "sweep --axis g --start=-1e308 --stop 1e308 --steps 3 --lambda 1 --mu 1 --json",
         "sweep --axis n --start=-1e308 --stop 1e308 --steps 3 --lambda 1 --mu 1 --g 2 --json"]
#: the other exit paths of main: an I/O failure (exit 4), argparse rejections
#: and help (SystemExit 2 and 0), and a tune underflow (exit 3)
EXITS = ["sweep --axis g --start 1 --stop 2 --steps 3 --lambda 1 --mu 1 --out missing/x.csv",
         "verify --dim abc", "eval --lambda 1 --mu 1", "--help"]
EXITS += [f"{sub} --help" for sub in ("eval", "sweep", "verify", "photons", "regimes")]
EXITS += ["photons --mode det --lambda 1e300 --mu 1e-100 --g 1.5"]


#: the cutoffs of ``--verify-values``, spanning the accepted [32, 128]
VERIFY_DIMS = (32, 48, 64, 96, 128)


def commands() -> list[str]:
    cmds = [f"verify --level {lv} --seed 7 --dim 64{js}" for lv in ("fast", "full")
            for js in ("", " --json")]
    # more cutoffs: several checks read dim or max(dim, 64)
    cmds += [f"verify --level {lv} --seed 7 --dim 32 --json" for lv in ("fast", "full")]
    cmds += [f"verify --level full --seed 7 --dim {dim} --json" for dim in (48, 128)]
    cmds += [f"{sub} {p}{js}" for p in POINTS
             for sub in ("eval", "regimes", "photons --mode det", "photons --mode prob")
             for js in ("", " --json")]
    cmds += [f"sweep {s} {sink}" for s in SWEEPS for sink in ("--out CSV", "--json")]
    return cmds + EXTREMES + BOUNDARY + USAGE + EXITS


def _env(tree: str) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"), COLUMNS="80")


def _verify_checks(tree: str, level: str, dim: int) -> list[dict] | None:
    """The checks of one ``verify --json`` run, or None (reported) if its
    stdout is not JSON."""
    p = subprocess.run([sys.executable, "-m", "ampurify", "verify", "--level", level,
                        "--seed", "7", "--dim", str(dim), "--json"],
                       env=_env(tree), capture_output=True, check=False)
    try:
        return json.loads(p.stdout)["result"]["checks"]
    except json.JSONDecodeError:
        first = (p.stderr.decode(errors="replace").splitlines() or [""])[0]
        print(f"verify --level {level} --dim {dim} in {tree}: exit {p.returncode}, "
              f"stdout is not JSON; stderr: {first}")
        return None


#: the fields of each check that ``--verify-values`` compares
VALUE_KEYS = ("expected", "observed", "tolerance", "passed")


def value_changes(old: list[dict], new: list[dict]) -> list[tuple[str, str, object, object]]:
    """(name, key, old value, new value) of each ``VALUE_KEYS`` field that differs
    between two check lists of one roster, in check order."""
    return [(a["name"], key, a[key], b[key]) for a, b in zip(old, new, strict=True)
            for key in VALUE_KEYS if a[key] != b[key]]


def verify_values(tree_a: str, tree_b: str) -> None:
    compared = differ = 0
    for level in ("fast", "full"):
        for dim in VERIFY_DIMS:
            old, new = _verify_checks(tree_a, level, dim), _verify_checks(tree_b, level, dim)
            if old is None or new is None:
                continue
            if [c["name"] for c in old] != [c["name"] for c in new]:
                print(f"verify --level {level} --dim {dim}: the check rosters differ")
                continue
            compared += len(old)
            for name, key, a, b in value_changes(old, new):
                differ += 1
                print(f"verify --level {level} --dim {dim} {name} {key}: {a!r} -> {b!r}")
    print(f"{compared} checks compared, {differ} values differ")


def main(tree: str) -> None:
    env = _env(tree)
    with tempfile.TemporaryDirectory() as tmp:
        csv = os.path.join(tmp, "sweep.csv")
        for cmd in commands():
            argv = [csv if a == "CSV" else a for a in cmd.split()]
            p = subprocess.run([sys.executable, "-m", "ampurify"] + argv, env=env, cwd=tmp,
                               capture_output=True)
            out = p.stdout
            if os.path.exists(csv):
                with open(csv, "rb") as fh:
                    out += fh.read()
                os.remove(csv)
            timed = argv[0] == "verify" and p.returncode != 2
            err = b"" if timed else p.stderr.replace(csv.encode(), b"CSV")
            print(hashlib.sha256(out + b"\0" + err + b"\0" + b"%d" % p.returncode).hexdigest(), cmd)


if __name__ == "__main__":
    if sys.argv[1] == "--verify-values":
        verify_values(sys.argv[2], sys.argv[3])
    else:
        main(sys.argv[1])
