"""Benchmark of the ampurify working tree: one command, three workloads.

    python3 bench/run.py --workload sweep-grid|certify|cli-points \\
        --seed N --seconds S --trace 0|1

Run it from anywhere; it measures the tree it lives in (``../src``), never
an installed copy.  Every measured unit of work runs in a fresh
interpreter started by this process, one at a time (closed loop, one
client).

With ``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it replays a fixed slice of the workload untraced and
traced and prints the per-layer metrics.  Human-readable lines come first;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every output is checked (see ``reference.py``)
and each failed check counts one failed request.

Workloads (the seed generates every sweep and request, and is passed to
``verify --seed``):

* ``sweep-grid``: in-process ``ampurify.cli.main(["sweep", ...])`` over
  seeded one-axis sweeps on all five axes, CSV and JSON output;
* ``certify``: ``verify.run_suite`` at level ``fast`` and ``full``, each in
  a fresh interpreter so every run starts with empty caches;
* ``cli-points``: one fresh ``python -m ampurify`` process per request over
  a seeded mix of ``eval``, ``regimes`` and ``photons``.

Every run reports every end-to-end metric, so each workload also samples
the other two workloads' operations, interleaved with its own through the
whole of ``--seconds`` (see ``CYCLES``).  A speed probe runs between the
operations, and every timing is reported at the probe's reference speed
(see ``SPEED_PROBE``); the summary lines also give it as measured.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import reference
import spans

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"
OUT_DIR = BENCH_DIR / "out"
SRC = ROOT / "src"
WORKLOADS = ("sweep-grid", "certify", "cli-points")

#: every measured process runs its BLAS single-threaded: on two shared cores
#: a second BLAS thread made verification slower and its times bimodal
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: seconds after which a measured process is killed and counted as failed
#: (the long-lived sweep process gets the run's seconds on top)
CHILD_TIMEOUT_S = 150.0

#: sweep budget per sweep operation
SWEEP_CHUNK_S = 1.5

#: the machine-speed probe: a fresh interpreter that imports numpy and runs
#: a fixed pure-Python loop and a fixed eigenvalue loop.  It is benchmark
#: code, so no change to the program can move it.  The host's speed drifts
#: by 25-30% over minutes, in CPU time as much as in wall time, and flips
#: between a fast and a slow state from one second to the next.  A probe
#: runs before every timed operation and after the last one; a timing divided
#: by the probes around it keeps the program's share and drops most of the
#: machine's (see ``Runner.scaled``).
SPEED_PROBE = """\
import numpy as np
a = np.arange(14400, dtype=float).reshape(120, 120) / 1e4
a = a + a.T
s = 0
for i in range(200000):
    s += i * i
for _ in range(30):
    np.linalg.eigvalsh(a)
"""

#: the probe's spawn-to-exit median on the reference host (2 cores, Python
#: 3.11.7, numpy 2.4.6): timings are reported in seconds at that speed
SPEED_REF_S = 0.23

#: the median of child.py's in-process probe, run after every sweep, on the
#: reference host: a sweep budget lasts 1.5 s in one warm process, which the
#: probes of fresh interpreters before and after it track less closely, so
#: its time is scaled by the mean of its own in-process probes instead
SWEEP_PROBE_REF_S = 0.0017

#: imports timed, and ``-X importtime`` imports read, by the traced run
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3

#: modules whose cumulative ``-X importtime`` is reported, by metric name
IMPORT_METRICS = {
    "import.ampurify.cli_s": "ampurify.cli",
    "import.ampurify.bounds_s": "ampurify.bounds",
    "import.ampurify.fock_s": "ampurify.fock",
    "import.ampurify.verify_s": "ampurify.verify",
    "import.scipy.special_s": "scipy.special",
    "import.scipy.linalg_s": "scipy.linalg",
    "import.numpy_s": "numpy",
}


@dataclass
class Finished:
    """A measured process after it exited."""

    returncode: int
    wall_s: float
    stdout: str
    stderr: str

    def last_json(self) -> dict | None:
        lines = self.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1]) if lines else None
        except ValueError:
            return None


@dataclass
class Tally:
    """Requests attempted and failed; a request fails on any problem."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str], count: int = 1, failed: int | None = None) -> None:
        self.attempted += count
        self.failed += (1 if problems else 0) if failed is None else failed
        self.problems += problems[: max(0, 20 - len(self.problems))]


def median(samples: list[float], what: str) -> tuple[float, str]:
    """(median, note); 0 when every sample failed, which the failed
    requests already report."""
    if not samples:
        return 0.0, f"no {what}: every one failed"
    return statistics.median(samples), f"median of {len(samples)} {what}"


def percentile_tail(samples: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond) of the highest whole percentile
    that leaves at least ten samples above it (nearest-rank); the maximum
    when there are too few samples for that."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0, 100, 0
    if n <= 10:
        return ordered[-1], 100, 0
    pct = (100 * (n - 10)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct, n - rank


class SweepProcess:
    """The long-lived ``child.py sweep`` process: one import, many budgets."""

    def __init__(self, argv: list[str], env: dict, timeout_s: float) -> None:
        self._err = open(OUT_DIR / f"sweep-stderr-{os.getpid()}.txt", "w+b")
        self.proc = subprocess.Popen([sys.executable, *argv], env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self._err, text=True)
        self._watchdog = threading.Timer(timeout_s, self.proc.kill)
        self._watchdog.start()

    def run(self, budget: float) -> dict | None:
        """Sweep for ``budget`` seconds; None if the process died."""
        try:
            self.proc.stdin.write(f"{budget!r}\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        line = self.proc.stdout.readline()
        return json.loads(line) if line else None

    def stderr(self) -> str:
        self._err.seek(0)
        return self._err.read().decode("utf-8", errors="replace")

    def close(self) -> tuple[int, int]:
        """(exit code, peak RSS in KiB) after the process ends."""
        with contextlib.suppress(BrokenPipeError):
            self.proc.stdin.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._watchdog.cancel()
        self.proc.stdout.close()
        self._err.close()
        Path(self._err.name).unlink(missing_ok=True)
        return self.proc.returncode, usage.ru_maxrss


class Runner:
    """Spawns, times and checks the measured processes of one run."""

    def __init__(self, workload: str, seed: int, seconds: float, full_level: str = "full") -> None:
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.full_level = full_level
        self.env = {**os.environ, "PYTHONPATH": str(SRC), **SINGLE_THREADED}
        self.tally = Tally()
        self.request_source = inputs.requests(seed)
        self.walls: dict[str, list[float]] = {"setup": [], "fast": [], "full": [], "request": []}
        # probes run before each sample of walls[kind]; marks[kind][i] is
        # len(self.probes) when walls[kind][i] was taken
        self.marks: dict[str, list[int]] = {kind: [] for kind in self.walls}
        self.probes: list[float] = []
        self.sweep_chunks: list[tuple[float, float]] = []  # (wall, mean probe) per budget
        self.rows = 0
        self.sweep_wall = 0.0
        self.peak_rss_kb = 0
        self.det_below_cft_rows = 0
        self.pending: list[tuple[inputs.Request, Finished]] = []
        self.trace_files: list[Path] = []
        self.sweeper: SweepProcess | None = None

    # -- processes -------------------------------------------------------

    def spawn(self, argv: list[str], native: bool) -> Finished:
        """Run one process to exit; time it from spawn to exit."""
        out_path = OUT_DIR / f"stdout-{os.getpid()}.txt"
        err_path = OUT_DIR / f"stderr-{os.getpid()}.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                                 file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                                               (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
            watchdog = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
            watchdog.start()
            try:
                _, status, usage = os.wait4(pid, 0)
            except BaseException:  # interrupted: leave no process behind
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        if native:
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return Finished(os.waitstatus_to_exitcode(status), wall,
                        out_path.read_text(encoding="utf-8", errors="replace"),
                        err_path.read_text(encoding="utf-8", errors="replace"))

    def child(self, *args: str) -> list[str]:
        return [str(BENCH_DIR / "child.py"), *args]

    def trace_file(self, label: str) -> Path:
        path = OUT_DIR / f"spans-{os.getpid()}-{len(self.trace_files)}-{label}.json"
        self.trace_files.append(path)
        return path

    def sample(self, kind: str, wall_s: float) -> None:
        self.walls[kind].append(wall_s)
        self.marks[kind].append(len(self.probes))

    def speed(self, mark: int) -> float:
        """How much faster than the reference host the machine ran around a
        sample taken at ``mark``: SPEED_REF_S over the mean of the probes
        just before and just after it (1 with no probes)."""
        around = self.probes[max(mark - 1, 0):mark + 1]
        return SPEED_REF_S / statistics.fmean(around) if around else 1.0

    def scaled(self, kind: str) -> list[float]:
        """The samples of ``kind`` in seconds at the reference host's speed."""
        return [wall * self.speed(mark) for wall, mark in zip(self.walls[kind], self.marks[kind])]

    # -- operations ------------------------------------------------------

    def speed_probe(self) -> None:
        """Time one run of SPEED_PROBE from spawn to exit."""
        done = self.spawn(["-c", SPEED_PROBE], native=False)
        if done.returncode != 0:
            raise RuntimeError(f"speed probe failed:\n{done.stderr}")
        self.probes.append(done.wall_s)

    def warm_up(self) -> None:
        """One untimed import writes the bytecode caches, as an installed
        package would already have them."""
        done = self.spawn(["-c", "import ampurify.cli"], native=False)
        if done.returncode != 0:
            raise RuntimeError(f"import ampurify.cli failed:\n{done.stderr}")

    def setup(self) -> None:
        """Time ``import ampurify.cli`` in a fresh interpreter."""
        done = self.spawn(["-c", "import ampurify.cli"], native=False)
        self.tally.record([] if done.returncode == 0 else [f"import: {done.stderr[-300:]}"])
        self.sample("setup", done.wall_s)

    def verify(self, role: str, native: bool = False, trace_file: Path | None = None) -> Finished:
        """One cold ``run_suite``; ``role`` is "fast" or "full" (the latter at
        ``full_level``)."""
        level = self.full_level if role == "full" else "fast"
        argv = ["verify", "--level", level, "--seed", str(self.seed)]
        if trace_file is not None:
            argv += ["--trace-file", str(trace_file)]
        done = self.spawn(self.child(*argv), native)
        result = done.last_json()
        self.tally.record(reference.check_verify(level, done.returncode, result))
        if result is not None and trace_file is None:
            self.sample(role, result["wall_s"])
        return done

    def _count_sweeps(self, result: dict) -> None:
        self.tally.record(result["problems"], count=result["sweeps"], failed=result["failed"])
        self.rows += result["rows"]
        self.sweep_wall += result["wall_s"]
        self.sweep_chunks.append((result["wall_s"], result["probe_s"] / max(result["sweeps"], 1)))
        self.det_below_cft_rows += result["det_below_cft_rows"]

    def sweep(self, budget: float) -> None:
        """Sweeps for ``budget`` seconds in the long-lived sweep process."""
        if self.sweeper is None:
            self.sweeper = SweepProcess(self.child("sweep", "--seed", str(self.seed),
                                                   "--out-dir", str(OUT_DIR)), self.env,
                                        timeout_s=CHILD_TIMEOUT_S + self.seconds)
        result = self.sweeper.run(budget)
        if result is None:
            self.tally.record([f"sweep process died: {self.sweeper.stderr()[-300:]}"])
        else:
            self._count_sweeps(result)

    def close(self) -> None:
        """End the sweep process; its peak RSS counts for ``sweep-grid``."""
        if self.sweeper is not None:
            returncode, maxrss_kb = self.sweeper.close()
            if returncode != 0:
                self.tally.record([f"sweep process: exit code {returncode}"])
            if self.workload == "sweep-grid":
                self.peak_rss_kb = max(self.peak_rss_kb, maxrss_kb)
            self.sweeper = None

    def traced_sweeps(self, count: int, trace_file: Path) -> dict | None:
        """``count`` sweeps, untraced then traced, in one fresh process."""
        done = self.spawn(self.child("sweep", "--seed", str(self.seed), "--out-dir", str(OUT_DIR),
                                     "--count", str(count),
                                     "--trace-file", str(trace_file)), native=False)
        result = done.last_json()
        if done.returncode != 0 or result is None:
            self.tally.record([f"sweep process: exit code {done.returncode}: "
                               f"{done.stderr.strip()[-300:]}"])
            return None
        self._count_sweeps(result)
        return result

    def request(self, native: bool = False, request: inputs.Request | None = None,
                trace_file: Path | None = None) -> Finished:
        request = request or next(self.request_source)
        if trace_file is None:
            argv = ["-m", "ampurify", *request.argv()]
        else:
            argv = self.child("request", "--trace-file", str(trace_file), "--", *request.argv())
        done = self.spawn(argv, native)
        if trace_file is None:
            self.sample("request", done.wall_s)
        self.pending.append((request, done))
        return done

    def check_requests(self) -> None:
        """Check every request's output against the library (after timing)."""
        if not self.pending:
            return
        lib = reference.load_library(SRC)
        for request, done in self.pending:
            try:
                problems = reference.check_request(request, done.returncode, done.stdout, lib)
            except Exception as exc:  # an unexpected output shape is a failure
                problems = [f"{' '.join(request.argv())}: check raised {exc!r}"]
            self.tally.record(problems)
        self.pending.clear()


# ---------------------------------------------------------------------------
# end-to-end run (--trace 0)
# ---------------------------------------------------------------------------


#: operations of each workload, repeated in this order until the time is
#: up.  A workload's own operation gets the largest share of the run; the
#: others are interleaved so that every metric samples the whole run.  An
#: operation without a fixed count is only started again while its last
#: duration still fits before the deadline.  At --seconds 60 a cycle takes
#: about 30 s.
CYCLES = {
    "sweep-grid": ("full", "sweep", "setup", "sweep", "request", "sweep", "fast"),
    "certify": ("full", "fast", "request", "request", "setup", "fast", "request", "request",
                "sweep", "fast", "request", "request", "setup", "fast", "request", "request",
                "sweep", "fast", "request", "request", "fast"),
    "cli-points": ("full", "request", "request", "setup", "request", "request", "fast",
                   "request", "request", "sweep", "request", "request", "fast", "request",
                   "request", "setup", "request", "request", "fast", "request", "request",
                   "sweep", "request"),
}

#: the operations whose processes are a workload's own (for ``peak_rss_mb``)
NATIVE = {"sweep-grid": ("sweep",), "certify": ("fast", "full"), "cli-points": ("request",)}

#: operations run exactly this many times in every run, past the deadline if
#: need be (at seed they fit in 60 s).  A fixed request count keeps the tail
#: at the same percentile on every commit: p66 (ten of thirty beyond it) on
#: cli-points, p50 (ten of twenty) on certify, the maximum of ten on
#: sweep-grid.  Two full verifications, about 10 s each, keep verify_full_s
#: a median of more than one sample.
COUNTS = {
    "sweep-grid": {"full": 1, "request": 10},
    "certify": {"full": 2, "request": 20},
    "cli-points": {"full": 2, "request": 30},
}


def measure(runner: Runner) -> dict:
    """Measure for ``seconds``: the workload's cycle of operations, repeated
    until the time is up and every fixed count is met, each at least once."""
    workload = runner.workload
    native, counts = NATIVE[workload], COUNTS[workload]
    runner.warm_up()
    deadline = time.perf_counter() + runner.seconds
    cycle = CYCLES[workload]
    last: dict[str, float] = {}  # duration of each operation's latest run
    runs = dict.fromkeys(cycle, 0)

    def owed() -> bool:
        return any(runs[op] < count for op, count in counts.items())

    i = skipped = 0
    while ((i < len(cycle) or time.perf_counter() < deadline or owed())
           and skipped < len(cycle)):
        op = cycle[i % len(cycle)]
        i += 1
        now = time.perf_counter()
        if op in counts:
            skip = runs[op] >= counts[op]
        else:
            skip = op in last and now + last[op] > deadline
        if skip:
            skipped += 1
            continue
        skipped = 0
        runner.speed_probe()
        now = time.perf_counter()
        runs[op] += 1
        if op == "setup":
            runner.setup()
        elif op == "request":
            runner.request(native=op in native)
        elif op == "sweep":
            runner.sweep(SWEEP_CHUNK_S)
        else:
            runner.verify(op, native=op in native)
        last[op] = time.perf_counter() - now
    runner.speed_probe()  # every sample now has a probe on either side
    runner.close()
    runner.check_requests()

    walls = runner.walls

    def timing(kind: str, what: str) -> tuple[float, str]:
        value, note = median(runner.scaled(kind), what)
        raw = f"; {statistics.median(walls[kind]):.4g} s as measured" if walls[kind] else ""
        return value, note + raw

    tail, pct, beyond = percentile_tail(runner.scaled("request"))
    n_req = len(walls["request"])
    sweep_wall = sum(wall * SWEEP_PROBE_REF_S / probe for wall, probe in runner.sweep_chunks if probe)
    print(f"  speed probe: median {statistics.median(runner.probes):.4g} s of "
          f"{len(runner.probes)}; timings below are at its reference {SPEED_REF_S} s")
    return {
        "setup_s": timing("setup", "imports"),
        "sweep_rows_per_s": (runner.rows / sweep_wall if sweep_wall else 0.0,
                             f"{runner.rows} rows in {sweep_wall:.3f} s of sweep calls; "
                             f"{runner.sweep_wall:.3f} s as measured"),
        "verify_fast_s": timing("fast", "cold runs"),
        "verify_full_s": timing("full", "cold runs"),
        "cold_latency_p50_s": timing("request", "requests"),
        "cold_latency_tail_s": (tail, f"p{pct} of {n_req} requests, {beyond} beyond"
                                if beyond else f"maximum of {n_req} requests, too few for a tail"),
        "peak_rss_mb": (runner.peak_rss_kb / 1024.0, f"peak of the {workload} processes"),
    }


# ---------------------------------------------------------------------------
# traced run (--trace 1)
# ---------------------------------------------------------------------------


def importtime(runner: Runner) -> dict[str, float]:
    """Cumulative import seconds per module of ``import ampurify.cli``,
    median over fresh interpreters; 0 for a module not imported."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_METRICS}
    for _ in range(IMPORTTIME_SAMPLES):
        done = runner.spawn(["-X", "importtime", "-c", "import ampurify.cli"], native=False)
        cumulative = {}
        for line in done.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, module = line[len("import time:"):].split("|")
                if cum.strip().isdigit():
                    cumulative.setdefault(module.strip(), int(cum) * 1e-6)
        for metric, module in IMPORT_METRICS.items():
            samples[metric].append(cumulative.get(module, 0.0))
    return {metric: statistics.median(values) for metric, values in samples.items()}


#: (sweeps, fast verifications, requests) replayed by each workload's
#: traced run, on top of one full verification; every run touches every
#: layer, so every per-layer metric is measured on every workload
TRACE_SLICES = {"sweep-grid": (10, 1, 4), "certify": (2, 3, 4), "cli-points": (2, 1, 16)}


def traced(runner: Runner) -> dict:
    """Replay a fixed slice of the workload untraced and traced, each item
    back to back, and derive the per-layer metrics from the traced spans."""
    n_sweeps, n_fast, n_requests = TRACE_SLICES[runner.workload]
    runner.warm_up()
    for _ in range(SETUP_SAMPLES):
        runner.setup()
    values: dict[str, tuple[float, str]] = {
        metric: (value, "cumulative, -X importtime")
        for metric, value in importtime(runner).items()
    }
    untraced_wall = traced_wall = 0.0
    result = runner.traced_sweeps(n_sweeps, runner.trace_file("sweep"))
    if result is not None:
        untraced_wall += result["untraced_wall_s"]
        traced_wall += result["traced_wall_s"]
    for role in ("full",) + ("fast",) * n_fast:
        untraced_wall += runner.verify(role).wall_s
        traced_wall += runner.verify(role, trace_file=runner.trace_file(role)).wall_s
    for _ in range(n_requests):
        request = next(runner.request_source)
        untraced_wall += runner.request(request=request).wall_s
        traced_wall += runner.request(request=request, trace_file=runner.trace_file("request")).wall_s
    after_import = statistics.median(runner.walls["request"]) - statistics.median(runner.walls["setup"])
    runner.check_requests()

    processes = [spans.load(path) for path in runner.trace_files if path.exists()]
    write_trace(runner, processes)
    summary = spans.aggregate(processes)
    for name, entry in summary["functions"].items():
        values[f"{name}.calls"] = (entry["calls"], "spans")
        values[f"{name}.self_s"] = (entry["self_s"], "span time minus child spans")
        if name in spans.CHANNELS:
            values[f"{name}.bytes_out"] = (entry["bytes_out"], "computed from returned matrices")
    values["trace.coverage"] = (summary["coverage"], "of verify.run_suite wall time")
    values["trace.overhead_s"] = (traced_wall - untraced_wall,
                                  f"traced {traced_wall:.3f} s - untraced {untraced_wall:.3f} s")
    values["cli.after_import_s"] = (after_import, "median request - median import")
    values["sweep.det_below_cft_rows"] = (runner.det_below_cft_rows, "rows with det < cft")
    return values


def write_trace(runner: Runner, processes: list[list[tuple]]) -> None:
    """Write every span of the traced run to one file and drop the parts."""
    path = OUT_DIR / f"trace-{runner.workload}-seed{runner.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": runner.workload, "seed": runner.seed,
                   "fields": ["name", "start", "end", "parent", "bytes_out"],
                   "processes": [{"id": i, "spans": p} for i, p in enumerate(processes)]}, fh)
    for part in runner.trace_files:
        part.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def metric_units(trace: bool) -> dict[str, str]:
    """Names and units of the metrics a run must report, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        config = json.load(fh)
    return {m["name"]: m["unit"] for m in config["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: bool, full_level: str = "full") -> dict:
    """One benchmark run; prints the summary lines and returns the result.
    Only the self-test sets ``full_level``, to "fast", to keep it short."""
    units = metric_units(trace)
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(workload, seed, seconds, full_level)
    try:
        values = (traced if trace else measure)(runner)
    finally:
        runner.close()
        for stream in ("stdout", "stderr"):
            (OUT_DIR / f"{stream}-{os.getpid()}.txt").unlink(missing_ok=True)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")

    tally = runner.tally
    print(f"workload {workload}, seed {seed}, {'traced' if trace else 'untraced'} run")
    for name, unit in units.items():
        value, note = values[name]
        print(f"  {name} = {value:.6g} {unit} ({note})")
    print(f"  error_rate = {tally.failed}/{tally.attempted} failed/attempted")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name][0], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the ampurify working tree.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still ends its measured processes (see Runner.close)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "ampurify" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'ampurify'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
