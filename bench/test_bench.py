"""Tests of the benchmark itself: inputs, gate, tracer and entry point."""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("mpmath")
pytest.importorskip("scipy")

import dipolepair
import gate
import reference as ref
import run
import tracing
import workloads
from dipolepair import entanglement, linalg

HERE = Path(__file__).resolve().parent


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name in workloads.WORKLOADS:
        a = workloads.make_inputs(name, 3, 64)
        b = workloads.make_inputs(name, 3, 64)
        c = workloads.make_inputs(name, 4, 64)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
        # a longer run starts with the same requests
        assert workloads.make_inputs(name, 3, 128).request(5) == a.request(5)


def test_inputs_stay_in_the_stated_ranges():
    rows = workloads.make_inputs("point_stream", 1, 2048).rows
    k0r, drive, delta, mu = rows.T
    assert k0r.min() >= 0.003 and k0r.max() <= 2.0
    assert delta.min() >= -1.0 and delta.max() <= 1.0
    assert mu.min() >= 0.0 and mu.max() <= 1.0
    tau = np.abs(workloads.dipole_omega(k0r, mu)) / drive**2
    assert tau.min() >= 1.0 - 1e-9 and tau.max() <= 100.0 + 1e-9
    k_lo, k_hi, e_lo, e_hi = workloads.make_inputs("fig2_grid", 1, 256).rows.T
    assert k_lo.min() >= 0.05 and k_hi.max() <= 2.0 and (k_lo < k_hi).all()
    assert e_lo.min() >= 0.0 and e_hi.max() <= 10.0 and (e_lo < e_hi).all()


def test_reference_limits():
    # no drive: everything decays to |gg>
    rho = ref.to_numpy(ref.steady_state(0.3, 0.0, 0.4, 0.2))
    assert np.abs(rho - np.diag([0, 0, 0, 1])).max() < 1e-30
    # a Bell state has concurrence one
    bell = ref.mp.matrix([[0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.5]])
    assert ref.concurrence(bell) == pytest.approx(1.0, abs=1e-12)


def test_gate_passes_the_package_where_it_is_accurate():
    req = (0.7, 1.3, -0.2, 0.4)
    failed, conc = workloads.stream_request(req)
    res = gate.check_stream([req], [(failed, conc)], seed=0)
    assert (res.checked, res.wrong, res.correct) == (1, 0, True)


def test_gate_flags_an_injected_wrong_concurrence():
    req = (0.7, 1.3, -0.2, 0.4)
    _, conc = workloads.stream_request(req)
    res = gate.check_stream([req], [(0, conc + 0.01)], seed=0)
    assert (res.wrong, res.gross, res.correct) == (1, 1, False)
    assert res.wrong_frac == 1.0


def test_gate_flags_an_injected_wrong_state():
    req = (1.2, 1.0, 0.2)
    failed, (steps, picked) = workloads.onset_request(req)
    assert failed == 0
    assert gate.check_onset([req], [(0, (steps, picked))], seed=0).correct
    t, rho = picked[-1]
    bad = rho.copy()
    bad[0, 0] += 0.05
    bad[3, 3] -= 0.05
    res = gate.check_onset([req], [(0, (steps, picked[:-1] + [(t, bad)]))], seed=0)
    assert (res.wrong, res.gross, res.correct) == (1, 1, False)


def test_gate_explains_the_triplet_state_only_at_short_distance():
    # a short-distance point where the package takes the triplet fallback
    short = workloads.make_inputs("point_stream", 3, 2048).request(402)
    k0r, drive, delta, mu = short
    assert k0r < 0.005
    triplet = float(ref.concurrence(ref.triplet_state(delta, drive, k0r, mu)))
    res = gate.check_stream([short], [(0, triplet)], seed=0)
    assert (res.wrong, res.explained, res.gross, res.correct) == (1, 1, 0, True)
    # the same branch at k0r = 0.7 is a wrong answer, not the documented one
    req = (0.7, 0.447, 0.0, 0.0)
    k0r, drive, delta, mu = req
    triplet = float(ref.concurrence(ref.triplet_state(delta, drive, k0r, mu)))
    res = gate.check_stream([req], [(0, triplet)], seed=0)
    assert (res.wrong, res.explained, res.gross, res.correct) == (1, 0, 1, False)


def test_propagate_counts_come_from_results_not_spans():
    outputs = [(0, ([50, 100], [])), (0, ([50], [])), (1, ([50, 100], None)), (1, None)]
    attempts, useful = run.propagate_counts(outputs)
    assert attempts == 5 / 2
    assert useful == (100 + 50) / (150 + 50 + 150)
    assert run.propagate_counts([(1, None)]) == (0.0, 0.0)


def test_nan_row_counts_toward_fail_frac(tmp_path, monkeypatch):
    out = tmp_path / "fig2.csv"
    rc = workloads.fig2_request((0.1, 1.5, 0.5, 8.0), str(out))
    lines = out.read_text().splitlines()
    cells = lines[7].split(",")
    lines[7] = ",".join(cells[:-1] + ["NaN"])
    out.write_text("\n".join(lines) + "\n")
    failed, rows = workloads.read_fig2(rc, str(out))
    assert failed == 1 and math.isnan(rows[6][-1])
    monkeypatch.setattr(gate, "FIG2_CHECKS", 3)
    res = gate.check_fig2([(failed, rows)], seed=0)
    assert res.fail_frac == 1 / workloads.GRID_POINTS**2
    assert res.correct


def test_failed_fig2_call_counts_every_point(tmp_path):
    failed, rows = workloads.read_fig2(2, str(tmp_path / "missing.csv"))
    assert (failed, rows) == (workloads.GRID_POINTS**2, [])


def test_tracer_wraps_every_binding_and_restores_them():
    original = linalg.psd_sqrt
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert entanglement.psd_sqrt is not original
        assert linalg.psd_sqrt is entanglement.psd_sqrt
        tracer.request = 0
        workloads.stream_request((0.7, 1.3, -0.2, 0.4))
    finally:
        tracer.remove()
    assert entanglement.psd_sqrt is original and linalg.psd_sqrt is original
    spans = tracer.take()
    names = [tracer.names[s[tracing.NAME]] for s in spans]
    assert names.count("linalg.psd_sqrt") == 1
    assert names.count("linalg.kron") == 18
    assert set(names) <= set(tracing.SPAN_NAMES)
    # self times partition the top-level spans
    top = sum(s[tracing.END] - s[tracing.START] for s in spans if s[tracing.PARENT] < 0)
    assert tracing.self_times(spans).sum() == pytest.approx(top, rel=1e-9)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "point_stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tracer_reports_a_deleted_public_name_as_absent(monkeypatch):
    monkeypatch.delattr(linalg, "null_vector")
    monkeypatch.delattr(dipolepair, "null_vector")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.remove()
    assert "linalg.null_vector" in tracing.SPAN_NAMES
    assert "linalg.null_vector" not in tracer.names
    assert "linalg.psd_sqrt" in tracer.names
