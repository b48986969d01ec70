"""The columnar sweep against the scalar API.

Every sweep row is computed by ``formulas.columns`` over numpy columns; the
rows must equal what ``fidelity_report``, ``tune`` and ``classify`` return
for the same task, bit for bit, and a row the scalar path rejects must stop
the sweep with the scalar path's own error.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ampurify import cli, formulas
from ampurify.cli import CSV_HEADER, main
from ampurify.errors import DomainError
from ampurify.params import (
    REGIMES,
    MultimodeTask,
    NoisyEnsemble,
    RegimeTag,
    classify,
    passive_filter_gain,
    reduce,
    thresholds,
)

#: sweep axis -> the MultimodeTask field it runs over
AXES = {"g": "g", "lambda": "lam", "mu": "mu", "n": "n_in", "m": "m_out"}

_LOG_RANGE = math.log(1e300)
_LOG_UNIFORM = st.floats(min_value=-_LOG_RANGE, max_value=_LOG_RANGE).map(math.exp)
_COPIES = st.integers(min_value=1, max_value=40)


def _sweep(argv):
    """(exit code, stdout, stderr, CSV text or None) of one in-process sweep."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--out", path, "--json"])
        csv = None
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                csv = fh.read()
    return code, out.getvalue(), err.getvalue(), csv


def _scalar_row(fields, axis, value):
    """The scalar path's row at ``value`` on ``axis``, keyed like the CSV."""
    cell = int(value) if axis in ("n", "m") else value
    ens = reduce(MultimodeTask(**{**fields, AXES[axis]: cell}))
    report = formulas.fidelity_report(ens)
    tuning = formulas.tune(ens)
    regime = classify(ens)
    return {
        "axis_value": float(value), "g_prime": ens.g_prime,
        "f_det": report.det, "f_prob": report.prob, "f_cft": report.cft,
        "regime": f"{regime.tag.value}+{regime.prob_tag.value}",
        "cosh_r": tuning.cosh_r, "y": tuning.y, "cos_theta": tuning.cos_theta, "z": tuning.z,
    }


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(axis=st.sampled_from(sorted(AXES)), lam=_LOG_UNIFORM, mu=_LOG_UNIFORM, g=_LOG_UNIFORM,
       n=_COPIES, m=_COPIES, ends=st.tuples(_LOG_UNIFORM, _LOG_UNIFORM),
       copies=st.tuples(_COPIES, _COPIES))
@example(axis="lambda", lam=1.0, mu=1e-300, g=1.0, n=1, m=1, ends=(1e-300, 1e300),
         copies=(1, 2))  # y underflows to 0 on the second row
@example(axis="g", lam=1e-300, mu=1e-300, g=1.0, n=40, m=1, ends=(1e-300, 1e300),
         copies=(1, 2))  # g' = 1e-300/sqrt(40) and the attenuator's cos_theta
def test_sweep_rows_are_the_scalar_values_bit_for_bit(axis, lam, mu, g, n, m, ends, copies):
    lo, hi = sorted(copies if axis in ("n", "m") else ends)
    if lo == hi:
        hi = lo + 1 if axis in ("n", "m") else math.nextafter(lo, math.inf)
    fields = {"lam": lam, "mu": mu, "g": g, "n_in": n, "m_out": m}
    flags = {"lambda": lam, "mu": mu, "g": g, "n": n, "m": m}
    del flags[axis]
    argv = ["sweep", "--axis", axis, "--start", repr(float(lo)), "--stop", repr(float(hi)),
            "--steps", "2"]
    for flag, value in flags.items():
        argv += [f"--{flag}", repr(value)]
    code, out, err, csv = _sweep(argv)

    # the columns' valid mask clears exactly the rows the scalar path accepts
    accepted = []
    for value in (float(lo), float(hi)):
        try:
            _scalar_row(fields, axis, value)
        except DomainError:
            accepted.append(False)
        else:
            accepted.append(True)
    with np.errstate(all="ignore"):
        grid = np.array([float(lo), float(hi)])
        assert formulas.columns(**{**fields, AXES[axis]: grid})["valid"].tolist() == accepted

    expected = []
    try:
        for value in (float(lo), float(hi)):
            expected.append(_scalar_row(fields, axis, value))
    except DomainError as exc:
        assert (code, out, err, csv) == (3, "", f"domain error: {exc}\n", None)
        return
    assert code == 0 and err == ""
    rows = json.loads(out)["result"]["rows"]
    assert [{k: repr(v) for k, v in row.items()} for row in rows] == \
        [{k: repr(v) for k, v in row.items()} for row in expected]
    cells = [line.split(",") for line in csv.splitlines()[1:]]
    assert cells == [_csv_cells(row) for row in expected]


@pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (0.5, 2.0), (3.0, 0.3), (1e-3, 7.0)])
def test_tie_rules_one_float_either_side_of_each_landmark(lam, mu):
    det_thr, prob_thr = thresholds(NoisyEnsemble(lambda_prime=lam, mu=mu, g_prime=1.0))
    passive = passive_filter_gain(NoisyEnsemble(lambda_prime=lam, mu=mu, g_prime=1.0))
    att, ident, amp = RegimeTag.DET_ATTENUATE, RegimeTag.DET_IDENTITY, RegimeTag.DET_AMPLIFY
    filt, plateau = RegimeTag.PROB_AMPLIFY, RegimeTag.PROB_PLATEAU
    # (landmark, regime just below, at and just above it): S/N_C attenuates
    # with <=, the plateau and the amplify threshold take theirs with >=
    cases = [
        (passive, (att, filt), (att, filt), (ident, filt)),
        (prob_thr, (ident, filt), (ident, plateau), (ident, plateau)),
        (det_thr, (ident, plateau), (amp, plateau), (amp, plateau)),
    ]
    gains, tags = [], []
    for landmark, *regimes in cases:
        gains += [math.nextafter(landmark, 0.0), landmark, math.nextafter(landmark, math.inf)]
        tags += regimes
    columns = formulas.columns(lam, mu, np.array(gains), 1, 1)
    for i, (g, tag) in enumerate(zip(gains, tags)):
        ens = NoisyEnsemble(lambda_prime=lam, mu=mu, g_prime=g)
        assert tuple(classify(ens)) == tag
        assert tuple(REGIMES[columns["regime"][i]]) == tag
        report = formulas.fidelity_report(ens)
        assert (columns["f_det"][i], columns["f_prob"][i]) == (report.det, report.prob)


@pytest.mark.parametrize("axis, bounds", [
    ("g", ["--start", "0.5", "--stop", "4", "--lambda", "1", "--mu", "1"]),
    ("lambda", ["--start", "0.2", "--stop", "3", "--mu", "1", "--g", "2"]),
    ("mu", ["--start", "0.2", "--stop", "3", "--lambda", "1", "--g", "2"]),
    ("n", ["--start", "1", "--stop", "3", "--lambda", "2", "--mu", "1", "--g", "2"]),
    ("m", ["--start", "1", "--stop", "3", "--lambda", "2", "--mu", "1", "--g", "1"]),
])
def test_json_rows_are_the_bytes_json_dumps_writes(axis, bounds):
    code, out, _, _ = _sweep(["sweep", "--axis", axis, "--steps", "3", *bounds])
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def _csv_cells(row):
    """The CSV cells of a row keyed like ``_scalar_row``."""
    return [row[k] if k == "regime" else format(row[k], ".10g") for k in CSV_HEADER.split(",")]


def test_a_sweep_past_one_chunk_reads_the_scalar_path_on_both_sides_of_the_seam():
    assert 20000 > cli._CHUNK
    code, out, err, csv = _sweep(["sweep", "--axis", "lambda", "--start", "0.2", "--stop", "3",
                                  "--steps", "20000", "--mu", "1", "--g", "2"])
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    rows, lines = json.loads(out)["result"]["rows"], csv.splitlines()[1:]
    assert len(rows) == len(lines) == 20000
    values = np.linspace(0.2, 3.0, 20000)
    fields = {"lam": 1.0, "mu": 1.0, "g": 2.0, "n_in": 1, "m_out": 1}
    for i in (0, cli._CHUNK - 1, cli._CHUNK, 19999):
        expected = _scalar_row(fields, "lambda", float(values[i]))
        assert {k: repr(v) for k, v in rows[i].items()} == {k: repr(v) for k, v in expected.items()}
        assert lines[i].split(",") == _csv_cells(expected)
    # both sides of the seam hold attenuating rows, and the first chunk holds
    # rows whose beamsplitter reads its passive setting
    assert [rows[i]["cos_theta"] == 1.0 for i in (0, cli._CHUNK - 1, cli._CHUNK)] == \
        [True, False, False]


def _render(table, keys, *sink):
    parts = []
    cli._write_rows(parts.append, table, keys, *sink)
    return "".join(parts)


def test_write_rows_keeps_the_sign_of_zero_in_constant_and_varying_columns():
    keys = CSV_HEADER.split(",")
    attenuate = next(i for i, r in enumerate(REGIMES) if r.tag is RegimeTag.DET_ATTENUATE)
    amplify = next(i for i, r in enumerate(REGIMES) if r.tag is RegimeTag.DET_AMPLIFY)
    # every float column mixes 0.0 and -0.0, which == calls equal, except
    # g_prime (all -0.0) and z (all 0.0), whose bits are constant
    cells = [[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [-0.0, -0.0, 0.0]]
    table = {key: np.array(cells[i % 3]) for i, key in enumerate(keys)}
    table.update(g_prime=np.full(3, -0.0), z=np.zeros(3),
                 regime=np.array([attenuate, amplify, attenuate]))
    labels = [f"{r.tag.value}+{r.prob_tag.value}" for r in REGIMES]
    rows = [{key: labels[table[key][i]] if key == "regime" else float(table[key][i])
             for key in keys} for i in range(3)]
    csv = _render(table, keys, "%.10g", "%s",
                  lambda pairs: ",".join(c for _, c in pairs) + "\n", "")
    assert [line.split(",") for line in csv.splitlines()] == [_csv_cells(row) for row in rows]
    text = _render(table, sorted(keys), "%r", '"%s"',
                   lambda pairs: "{" + ", ".join(f'"{k}": {c}' for k, c in pairs) + "}", ",")
    printed = json.loads("[" + text + "]")
    assert [{k: repr(v) for k, v in row.items()} for row in printed] == \
        [{k: repr(v) for k, v in row.items()} for row in rows]


def test_a_constant_column_prints_a_plain_float():
    code, out, _, csv = _sweep(["sweep", "--axis", "lambda", "--start", "0.5", "--stop", "2",
                                "--steps", "4", "--mu", "1", "--g", "2"])
    assert code == 0 and "np.float64(" not in out + csv
    assert '"g_prime": 2.0,' in out
    assert [line.split(",")[1] for line in csv.splitlines()[1:]] == ["2"] * 4
