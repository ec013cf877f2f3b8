"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line with the measured value.

Criteria 1-7, 9 and 10 are defined once, in ``dipolepair.checks``, which
``dipolepair check`` prints too; each test here runs one of them under its
time gate. Criterion 8 is the distance trend at fixed drive, as the
strong-drive law C(tau), tau = Omega(k0r)/E^2, predicts it: along the
E = 5 cut the concurrence rises to an interior peak, bracketed by the
distance where Omega = tau* E^2, and is exactly zero wherever tau <= 2
(8a); with no drive every distance is unentangled (8b). See the README,
Tests.
"""

import math
import time

from dipolepair import (
    AtomPairConfig,
    Couplings,
    cross_decay,
    dipole_coupling,
    solve_steady_state,
    wootters_concurrence,
)
from dipolepair import checks
from dipolepair.checks import CRITERIA, peak_numbers
from dipolepair.entanglement import TAU_PEAK


def report(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def run_criterion(num):
    criterion = CRITERIA[num]
    t0 = time.perf_counter()
    lines = criterion.run()
    elapsed = time.perf_counter() - t0
    ok = all(line.ok for line in lines) and elapsed < criterion.gate_s
    report(num, criterion.title, ok,
           "; ".join(map(str, lines)) + f"; {elapsed:.2f}s (gate {criterion.gate_s}s)")


def test_criterion_01_exact_steady_state_reproduction():
    run_criterion(1)


def test_criterion_02_closed_form_concurrence():
    run_criterion(2)


def test_criterion_03_headline_numbers():
    run_criterion(3)


def test_criterion_03_fails_a_law_whose_maximum_moved(monkeypatch):
    # the lines dipolepair check prints, then the same law with its peak
    # moved by 1e-3 in tau either way: tau_at_max fails, the height still passes
    assert list(map(str, peak_numbers())) == [
        "tau_at_max: computed 9.211 expected 9.211 tol 1e-06 PASS",
        "C_max: computed 0.4343 expected 0.4343 tol 1e-06 PASS",
        "E_max: computed 0.2847 expected 0.2846 tol 1e-03 PASS"]
    law = checks.closed_form_concurrence
    for shift in (1e-3, -1e-3):
        monkeypatch.setattr(checks, "closed_form_concurrence", lambda t, s=shift: law(t - s))
        tau_at_max, c_max, e_max = peak_numbers()
        assert not tau_at_max.ok and c_max.ok and e_max.ok
        assert abs(tau_at_max.computed - (TAU_PEAK + shift)) < 1e-6


def test_criterion_04_strong_drive_convergence():
    run_criterion(4)


def test_criterion_05_undriven_limit():
    run_criterion(5)


def test_criterion_06_singlet_conservation():
    run_criterion(6)


def test_criterion_07_spectral_checks():
    run_criterion(7)


CUT_K0R = (0.01, 0.1, 0.5, 1.0)


def _fixed_drive_cut(drive):
    values = []
    for k0r in CUT_K0R:
        cfg = AtomPairConfig(delta=0.0, drive=drive, k0r=k0r)
        c = Couplings(dipole_coupling(k0r), cross_decay(k0r))
        state = solve_steady_state(cfg, c)
        values.append(wootters_concurrence(state).concurrence)
    return values


def _distance_at_omega(target):
    # Omega(k0r) falls monotonically across the cut at mu.r = 0, so bisect
    # in log k0r between its ends
    lo, hi = CUT_K0R[0], CUT_K0R[-1]
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if dipole_coupling(mid) > target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def _distance_trend_holds(values, drive):
    peak = values.index(max(values))
    unimodal = all(
        a <= b + 1e-12 for a, b in zip(values[:peak], values[1:peak + 1])
    ) and all(a >= b - 1e-12 for a, b in zip(values[peak:], values[peak + 1:]))
    k_star = _distance_at_omega(TAU_PEAK * drive**2)
    upper = CUT_K0R[peak + 1] if peak + 1 < len(CUT_K0R) else math.inf
    bracketed = peak > 0 and CUT_K0R[peak - 1] < k_star < upper
    zero_below_law = all(
        v == 0.0
        for k0r, v in zip(CUT_K0R, values)
        if dipole_coupling(k0r) / drive**2 <= 2.0
    )
    return unimodal and bracketed and zero_below_law, k_star


def test_criterion_08a_distance_trend_at_fixed_drive():
    # At fixed drive the distance enters the strong-drive law
    # C(tau) = (8 tau - 16)/(tau^2 + 48) through tau = Omega(k0r)/E^2 with
    # Omega ~ (k0r)^-3 at short distance: C is zero for tau <= 2, peaks at
    # TAU_PEAK and falls off as ~8/tau beyond it. So the cut rises to an
    # interior peak and then falls; the neighbours of the peak sample
    # bracket k* where Omega(k*) = TAU_PEAK E^2 (k* ~ 0.148 at E = 5),
    # and C is exactly 0 wherever tau <= 2. Measured C ~ (2.7e-4,
    # 0.22, 0, 0), matching a 50-digit 16x16 solve to 6e-9; see the README.
    drive = 5.0
    t0 = time.perf_counter()
    values = _fixed_drive_cut(drive)
    elapsed = time.perf_counter() - t0
    holds, k_star = _distance_trend_holds(values, drive)
    ok = holds and elapsed < 5.0
    report(8, "fixed-drive cut at E=5 peaks near Omega = tau* E^2, "
              "zero where tau <= 2", ok,
           "C = " + ", ".join(f"{v:.4g}" for v in values)
           + f", k* = {k_star:.4g}, {elapsed:.2f}s")


def test_criterion_08a_rejects_other_shapes():
    # a cut that never rises (maximum at the shortest distance) fails 8a,
    # and so does a peaked cut that is entangled where tau <= 2
    for values in ([0.3, 0.2, 0.0, 0.0], [2.7e-4, 2.7e-4, 0.0, 0.0],
                   [0.0, 0.0, 0.0, 0.0], [2.7e-4, 0.22, 1e-3, 0.0]):
        assert not _distance_trend_holds(values, 5.0)[0], values


def test_criterion_08b_zero_drive_column():
    values = _fixed_drive_cut(0.0)
    ok = all(v == 0.0 for v in values)
    report(8, "zero-drive column unentangled", ok,
           "C = " + ", ".join(str(v) for v in values))


def test_criterion_09_admixture_rule():
    run_criterion(9)


def test_criterion_10_pure_state_cross_oracle():
    run_criterion(10)
