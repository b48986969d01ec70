"""Span tracing of the package's public functions, from outside the package.

``Tracer.install`` wraps each function named in ``TRACED`` and rebinds the
wrapper under every name that refers to the original in a loaded
``ampurify`` module: ``cli``, ``formulas``, ``bounds`` and ``verify`` bind
some of these functions with from-imports, so patching the defining module
alone would miss those calls.

A span is (name, start, end, parent, bytes_out).  Spans are kept in memory
and written out once, by ``dump``; ``aggregate`` turns spans into calls,
self time (span time minus the time covered by child spans) and computed
output bytes per function.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

#: (module, function) pairs wrapped by the tracer
TRACED = (
    ("cli", "main"),
    ("params", "reduce"),
    ("params", "classify"),
    ("params", "thresholds"),
    ("params", "photon_book"),
    ("formulas", "fidelity_report"),
    ("formulas", "tune"),
    ("gaussian", "avg_fidelity_gaussian"),
    ("scalaropt", "golden_section_min"),
    ("fock", "avg_fidelity_numeric"),
    ("fock", "apply_two_mode_squeezer"),
    ("fock", "apply_heterodyne_mp"),
    ("fock", "apply_attenuator"),
    ("fock", "apply_filter"),
    ("bounds", "cft_norm_check"),
    ("bounds", "minimize_det_bound"),
    ("bounds", "det_upper_bound"),
    ("verify", "run_suite"),
)

#: channels whose returned density matrix is sized into ``bytes_out``
CHANNELS = ("fock.apply_two_mode_squeezer", "fock.apply_heterodyne_mp",
            "fock.apply_attenuator", "fock.apply_filter")

#: the span whose wall time ``coverage`` splits into named and unnamed parts
ROOT = "verify.run_suite"


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent, bytes_out]
        self._stack: list[int] = []
        self._paused = [False]

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block record no spans."""
        self._paused[0] = True
        try:
            yield
        finally:
            self._paused[0] = False

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        sized = name in CHANNELS
        spans, stack, paused = self.spans, self._stack, self._paused

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if sized:
                span[4] = int(result.mat.nbytes)
            return result

        return traced

    def install(self) -> None:
        """Wrap every ``TRACED`` function in every loaded ampurify module."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "ampurify" or key.startswith("ampurify."))]
        for module_name, fn_name in TRACED:
            original = getattr(sys.modules[f"ampurify.{module_name}"], fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def load(path: str) -> list[tuple[str, float, float, int, int]]:
    """Spans of one dumped process as (name, start, end, parent, bytes_out)."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    names = data["names"]
    return [(names[i], start, end, parent, nbytes)
            for i, start, end, parent, nbytes in data["spans"]]


def aggregate(processes: list[list[tuple]]) -> dict:
    """Per-function calls, self_s and bytes_out, plus the share of
    ``verify.run_suite`` wall time that child spans cover.

    ``processes`` holds the span list of each traced process; parent
    indices refer to positions within the same list.
    """
    stats: dict[str, dict] = {
        f"{m}.{f}": {"calls": 0, "self_s": 0.0, "bytes_out": 0} for m, f in TRACED
    }
    root_wall = root_covered = 0.0
    for spans in processes:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _, nbytes) in enumerate(spans):
            entry = stats[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
            entry["bytes_out"] += nbytes
        for i in (i for i, s in enumerate(spans) if s[0] == ROOT):
            root_wall += spans[i][2] - spans[i][1]
            root_covered += child_time[i]
    coverage = root_covered / root_wall if root_wall > 0 else 0.0
    return {"functions": stats, "coverage": coverage}
