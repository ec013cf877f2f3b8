"""The closed-form steady-state concurrence and the grid path built on it.

``steady_state_concurrences`` is checked against Wootters' concurrence of
the 50-digit 16x16 steady state in ``mp_oracle``, against its strong-drive
limits, and, with sympy, against the master equation it is derived from.
``steady_state_entanglement`` must keep every check of the numeric path it
replaced, once per state.
"""

import math
import warnings
from collections import Counter

import numpy as np
import pytest

pytest.importorskip("mpmath")
pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from mp_oracle import concurrence as oracle_concurrence
from test_block_solver import corner_grid

from dipolepair import (
    AtomPairConfig,
    BasisTag,
    Couplings,
    DensityMatrix,
    analytic_steady_state,
    build_liouvillian,
    closed_form_concurrence,
    cross_decay,
    dipole_coupling,
    eof_from_concurrence,
    solve_steady_state,
    solve_steady_states,
    steady_state_concurrences,
    steady_state_entanglement,
    wootters_concurrence,
)
from dipolepair import cli, dynamics, entanglement
from dipolepair import tolerances as tol
from dipolepair.errors import DipolePairError, InvalidRegime, InvalidState, OutOfRange
from dipolepair.model import SIGMA_Y, TO_COUPLED


def assert_matches_oracle(delta, drive, omega, gamma12):
    (law,) = steady_state_concurrences(delta, drive, omega, gamma12)
    exact = oracle_concurrence(delta, drive, omega, gamma12, singlet_free=gamma12 == 1.0)
    # the absolute floor covers the cancellation in T - 2 A near threshold
    assert abs(law - exact) <= max(1e-12 * exact, 1e-15), (law, exact)


def test_law_matches_oracle_on_log_grid():
    for point in zip(*corner_grid()):
        assert_matches_oracle(*map(float, point))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    k0r=st.floats(-3.0, 0.5).map(lambda e: 10.0**e),
    drive=st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)),
    delta=st.floats(-10.0, 10.0),
    resonance=st.one_of(st.none(), st.floats(-0.2, 0.2)),
    mu=st.floats(0.0, 1.0),
    branch=st.booleans(),
)
def test_law_matches_oracle_on_the_domain(k0r, drive, delta, resonance, mu, branch):
    omega = float(dipole_coupling(k0r, mu))
    if resonance is not None:  # the detuned two-atom resonance delta = -omega
        delta = -omega * (1.0 + resonance)
    gamma12 = 1.0 if branch else float(cross_decay(k0r))
    assert_matches_oracle(delta, drive, omega, gamma12)


def test_undriven_pair_has_exactly_zero_concurrence():
    conc = steady_state_concurrences([0.0, -3.0, 2.0], 0.0, [5.0, 3.0, -40.0], [0.3, 1.0, 0.9])
    assert np.array_equal(conc, np.zeros(3))


@pytest.mark.parametrize("tau", [1.5, 3.0, 4.0 + 4.0 * 5**0.5, 9.21, 50.0])
def test_strong_drive_limits(tau):
    drive = 1e8
    omega = tau * drive**2
    branch, coupled = steady_state_concurrences(0.0, drive, omega, [1.0, cross_decay(0.01)])
    assert branch == pytest.approx(closed_form_concurrence(tau), abs=1e-12)
    assert coupled == pytest.approx(max(0.0, (8 * tau - 32) / (tau**2 + 64)), abs=1e-12)


def test_extreme_drive_is_unentangled_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        conc = steady_state_concurrences(0.0, [1e150, 1e160], dipole_coupling(0.5),
                                         cross_decay(0.5))
        _, grid_conc, eof, errors = steady_state_entanglement(
            0.0, [1e150, 1e160], dipole_coupling(0.5), cross_decay(0.5))
    assert np.array_equal(conc, [0.0, 0.0]) and np.array_equal(grid_conc, [0.0, 0.0])
    assert np.array_equal(eof, [0.0, 0.0]) and errors == [None, None]


def test_non_finite_input_gives_nan_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        conc = steady_state_concurrences([0.0, math.nan, 0.0], [1.0, 1.0, math.inf],
                                         [20.0, 20.0, 20.0], 0.2)
    assert conc[0] > 0.0 and np.isnan(conc[1:]).all()


def test_law_rederived_from_the_master_equation():
    sp = pytest.importorskip("sympy")
    DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix
    d, e, w, g = sp.symbols("delta E Omega gamma12", real=True)
    # the 16x16 generator, built here from the master equation alone:
    # H = sum_i [(delta/2) sz_i + E (sp_i + sm_i)] + Omega (sp_1 sm_2 + sm_1 sp_2) and
    # decay channels (i, j) at rate 1/2 (i == j) or gamma12/2 (i != j),
    # basis |ee>, |eg>, |ge>, |gg>, column-stacked
    lower = sp.Matrix([[0, 0], [1, 0]])  # |g><e| on (|e>, |g>)
    sm = [sp.kronecker_product(lower, sp.eye(2)), sp.kronecker_product(sp.eye(2), lower)]
    spl = [m.T for m in sm]
    ham = sum((d / 2 * (spl[i] * sm[i] * 2 - sp.eye(4)) + e * (spl[i] + sm[i])
               for i in range(2)), sp.zeros(4, 4)) + w * (spl[0] * sm[1] + sm[0] * spl[1])
    rates = [[sp.Rational(1, 2), g / 2], [g / 2, sp.Rational(1, 2)]]

    def generator(rho):
        out = -sp.I * (ham * rho - rho * ham)
        for i in range(2):
            for j in range(2):
                a = spl[i] * sm[j]
                out += rates[i][j] / 2 * (2 * sm[i] * rho * spl[j] - a * rho - rho * a)
        return out

    def vec(m):
        return [m[i, j] for j in range(4) for i in range(4)]

    gen = sp.zeros(16, 16)
    for col in range(16):
        unit = sp.zeros(4, 4)
        unit[col % 4, col // 4] = 1
        gen[:, col] = sp.Matrix(vec(generator(unit)))
    # D rho in the coupled basis (|+1>, |0>, |-1>, |A>), then in the computational one
    a = 256 * e**4
    u = sp.Matrix([16 * e**2, -8 * e * (4 * d - sp.I) / sp.sqrt(2),
                   (4 * d - sp.I) * (4 * w + 4 * d - sp.I * (1 + g)), 0])
    v = sp.Matrix([0, 16 * e**2, -4 * sp.sqrt(2) * e * (4 * d - sp.I), 0])
    rho = u * u.H + v * v.H + sp.diag(0, 0, a, a)
    r = 1 / sp.sqrt(2)  # rows: the coupled states in the computational basis
    to_coupled = sp.Matrix([[1, 0, 0, 0], [0, r, r, 0], [0, 0, 0, 1], [0, r, -r, 0]])
    rho = to_coupled.T * rho * to_coupled
    # the candidate is stationary, its trace is D, and the state is unique
    assert all(sp.expand(r) == 0 for r in gen * sp.Matrix(vec(rho)))
    big_d = 1024 * e**4 + (1 + 16 * d**2) * (64 * e**2 + 16 * (w + d)**2 + (1 + g)**2)
    assert sp.expand(rho.trace() - big_d) == 0
    point = {d: sp.Rational(1, 3), e: sp.Rational(2, 7), w: sp.Rational(5, 3),
             g: sp.Rational(1, 5)}
    # exact rank over the Gaussian rationals; Matrix.rank takes seconds here
    assert DomainMatrix.from_Matrix(gen.subs(point)).rank() == 15
    # Wootters' matrix psi_i^T (Y x Y) psi_j of u, v, sqrt(A) |-1>, sqrt(A) |A>
    flip = TO_COUPLED @ np.kron(SIGMA_Y, SIGMA_Y) @ TO_COUPLED.T
    assert np.abs(flip - np.round(flip.real)).max() < 1e-15
    psi = sp.zeros(4, 4)
    psi[:, 0], psi[:, 1] = u, v
    psi[2, 2] = psi[3, 3] = 16 * e**2
    m = (psi.T * sp.Matrix(np.round(flip.real).astype(int)) * psi).applyfunc(sp.expand)
    tau = m[0, 0]
    expected = sp.Matrix([[tau, 0, -a, 0], [0, a, 0, 0], [-a, 0, 0, 0], [0, 0, 0, -a]])
    assert (m - expected).applyfunc(sp.expand) == sp.zeros(4, 4)
    big_t2 = (32 * e**2)**2 * (1 + 16 * d**2) * (16 * w**2 + g**2)
    assert sp.expand(tau * sp.conjugate(tau) - big_t2) == 0
    # its singular values: A, A and (sqrt(T^2 + 4 A^2) +- T) / 2
    s = sp.Symbol("s")
    charpoly = (m * m.H).charpoly(s).as_expr()
    assert sp.expand(charpoly - (s - a**2)**2 * (s**2 - (big_t2 + 2 * a**2) * s + a**4)) == 0


# ------------------------------------------------------- grid path checks


def corrupt(monkeypatch, diagonals):
    """Replace the built states at given points by unit-trace diagonal states."""
    build = dynamics._closed_form_states

    def corrupted(*args):
        states = build(*args)
        for k, diagonal in diagonals.items():
            states[k] = np.diag(diagonal)
        return states

    monkeypatch.setattr(dynamics, "_closed_form_states", corrupted)


def test_grid_checks_fail_only_their_own_point(monkeypatch):
    drive = np.array([0.5, 1.0, 1.5, math.nan, 2.0])
    clean_states, _ = solve_steady_states(0.0, drive, 20.0, 0.3)
    # diag(0.25, 0.5 - low, low) and p_A = 0.25: trace 1; both lowest
    # eigenvalues lie below the floor (-1e-10)
    corrupt(monkeypatch, {k: (0.25, 0.5 - low, low, 0.25)
                          for k, low in ((1, -5e-10), (2, -2e-9))})
    states, conc, eof, errors = steady_state_entanglement(0.0, drive, 20.0, 0.3)
    for k in (1, 2):
        assert type(errors[k]) is InvalidState
        assert str(errors[k]) == "negative eigenvalue beyond tolerance"
    assert type(errors[3]) is OutOfRange and str(errors[3]) == "inputs must be finite"
    assert errors[0] is None and errors[4] is None
    assert np.isnan(conc[1:4]).all() and np.isnan(eof[1:4]).all()
    assert np.isnan(states[1:4]).all()
    assert np.array_equal(states[[0, 4]], clean_states[[0, 4]])
    law = steady_state_concurrences(0.0, drive[[0, 4]], 20.0, 0.3)
    assert np.array_equal(conc[[0, 4]], law) and (law > 0).all()
    assert list(eof[[0, 4]]) == pytest.approx([eof_from_concurrence(c) for c in law],
                                              abs=1e-15)


def test_grid_concurrence_outside_the_unit_interval_fails_its_point(monkeypatch):
    # a valid state has C <= 1, so only a faulty law could reach this check
    law = entanglement._concurrence_law
    monkeypatch.setattr(entanglement, "_concurrence_law",
                        lambda terms: law(terms) + [0.0, 1.0, 0.0])
    _, conc, eof, errors = steady_state_entanglement(0.0, [0.5, 1.0, 1.5], 20.0, 0.3)
    assert type(errors[1]) is OutOfRange and "outside [0, 1]" in str(errors[1])
    assert errors[0] is None and errors[2] is None
    assert np.isnan(conc[1]) and np.isnan(eof[1]) and not np.isnan(conc[[0, 2]]).any()


def test_cli_report_and_error_list_agree_with_the_one_point_raise_sites(monkeypatch, capsys):
    # one batch with every kind of failure: the CLI warning counts the kinds
    # of the public error list, in order of first failure, and each error
    # is the one its one-point call raises
    delta = np.zeros(9)
    drive = np.array([0.5, 1.0, -1.0, 0.0, 1.0, 1.0, 1.5, 2.0, 2.5])
    omega = np.array([20.0, math.nan, 20.0, 2.0, 1e308, 20.0, 20.0, 20.0, 20.0])
    gamma12 = np.array([0.3, 0.3, 0.3, -1.0, 1.0, 0.3, 0.3, 0.3, 0.3])
    # InvalidState (the higher codes) before InvalidRegime: a sort by code would swap them
    below, invalid = ((0.25, 0.5 - low, low, 0.25) for low in (-5e-10, -2e-9))
    corrupt(monkeypatch, {5: below, 6: invalid})
    above_one = np.zeros(9)
    above_one[7] = 1.0
    law = entanglement._concurrence_law
    monkeypatch.setattr(entanglement, "_concurrence_law", lambda terms: law(terms) + above_one)
    one_point = {
        1: lambda: solve_steady_state(AtomPairConfig(drive=1.0), Couplings(math.nan, 0.3)),
        2: lambda: AtomPairConfig(drive=-1.0),
        3: lambda: solve_steady_state(AtomPairConfig(drive=0.0), Couplings(2.0, -1.0)),
        4: lambda: analytic_steady_state(1e308, 1.0),
        5: lambda: wootters_concurrence(DensityMatrix(np.diag(below), BasisTag.COUPLED)),
        6: lambda: DensityMatrix(np.diag(invalid), BasisTag.COUPLED),
        7: lambda: eof_from_concurrence(
            float(steady_state_concurrences(0.0, 2.0, 20.0, 0.3)[0]) + 1.0),
    }
    _, _, _, errors = steady_state_entanglement(delta, drive, omega, gamma12)
    assert [k for k, e in enumerate(errors) if e is not None] == list(one_point)
    for k, call in one_point.items():
        with pytest.raises(DipolePairError) as raised:
            call()
        assert type(errors[k]) is type(raised.value) and str(errors[k]) == str(raised.value)
    assert not cli._report_failures(cli._solve_grid(delta, drive, omega, gamma12)[2])
    kinds = Counter(type(e).__name__ for e in errors if e is not None).most_common()
    assert kinds == [("OutOfRange", 4), ("InvalidState", 2), ("InvalidRegime", 1)]
    assert capsys.readouterr().err == (
        "warning: 7 grid point(s) failed, recorded as NaN ("
        + ", ".join(f"{name}: {count}" for name, count in kinds) + ")\n")


def inject_once(monkeypatch, stack, k, state):
    """Replace the built state at point k of the given stack (call) only."""
    build = dynamics._closed_form_states
    calls = []

    def corrupted(*args):
        states = build(*args)
        if len(calls) == stack:
            states[k] = state
        calls.append(len(states))
        return states

    monkeypatch.setattr(dynamics, "_closed_form_states", corrupted)


def coupled_state(lowest, herm_dev=0.0):
    """diag(0.25, 0.5 - lowest, lowest, 0.25) on (|+1>, |0>, |-1>, |A>): unit
    trace, lowest eigenvalue ``lowest``; herm_dev in the upper triangle only."""
    m = np.diag([0.25, 0.5 - lowest, lowest, 0.25]).astype(complex)
    m[0, 2] = herm_dev
    return m


# a 36-point distance x drive grid, clean, and the point that fails in each case below
ONE_K0R = np.linspace(0.1, 1.5, 6).repeat(6)
ONE_GRID = (np.zeros(36), np.tile(np.linspace(0.5, 8.0, 6), 6),
            dipole_coupling(ONE_K0R), cross_decay(ONE_K0R))
ONE_POINT = 4


@pytest.mark.parametrize("inputs, injected, excess, code, quoted, error", [
    ({0: math.nan}, None, 0.0, dynamics._NON_FINITE_INPUT, math.nan,
     (OutOfRange, "inputs must be finite")),
    ({1: -1.0}, None, 0.0, dynamics._NEGATIVE_DRIVE, math.nan,
     (OutOfRange, "drive must be >= 0")),
    ({1: 0.0, 3: -1.0}, None, 0.0, dynamics._DARK_LINE, math.nan,
     (InvalidRegime, "steady state not unique: |0> is dark at drive 0, gamma12 = -1")),
    ({2: 1e308}, None, 0.0, dynamics._OVERFLOW, math.nan,
     (OutOfRange, "non-finite steady state")),
    # a non-finite state is the engine's overflow before it reaches the density checks
    ({}, np.full((4, 4), math.nan), 0.0, dynamics._OVERFLOW, math.nan,
     (OutOfRange, "non-finite steady state")),
    ({}, coupled_state(0.0, 2e-10), 0.0, dynamics._NOT_HERMITIAN, math.nan,
     (InvalidState, "not Hermitian within tolerance")),
    ({}, np.diag([0.5, 0.5, 0.5, 0.5]), 0.0, dynamics._BAD_TRACE, 2.0,
     (InvalidState, "trace 2.0 is not 1")),
    ({}, coupled_state(-2e-9), 0.0, dynamics._NEGATIVE_EIGENVALUE, math.nan,
     (InvalidState, "negative eigenvalue beyond tolerance")),
    ({}, None, 1.0, dynamics._CONCURRENCE, None,
     (OutOfRange, "concurrence {!r} outside [0, 1]")),
], ids=["non_finite_input", "negative_drive", "dark_line", "overflow", "non_finite_state",
        "not_hermitian", "bad_trace", "negative_eigenvalue", "concurrence_above_1"])
def test_one_failure_leaves_the_rest_of_a_clean_grid_as_it_was(
        monkeypatch, inputs, injected, excess, code, quoted, error):
    # one kind at a time: a mark that runs only when another kind is present
    # passes test_cli_report_and_error_list_agree_with_the_one_point_raise_sites,
    # whose batch holds every kind, and fails here
    clean = entanglement._steady_concurrence(*ONE_GRID)
    assert not clean[2].any() and clean[1][ONE_POINT] > 0
    columns = [np.array(column) for column in ONE_GRID]
    for which, value in inputs.items():
        columns[which][ONE_POINT] = value
    if injected is not None:
        inject_once(monkeypatch, 0, ONE_POINT, injected)
    law = entanglement._concurrence_law
    bump = np.zeros(36)
    bump[ONE_POINT] = excess
    monkeypatch.setattr(entanglement, "_concurrence_law", lambda terms: law(terms) + bump)
    states, conc, codes, quoted_values = entanglement._steady_concurrence(*columns)
    others = np.arange(36) != ONE_POINT
    for got, want in zip((states, conc, codes), clean[:3]):
        assert got[others].tobytes() == want[others].tobytes()
    assert np.isnan(quoted_values[others]).all()
    assert codes[ONE_POINT] == code and np.isnan(conc[ONE_POINT])
    if quoted is None:  # the concurrence that failed, quoted; its state is kept
        quoted = clean[1][ONE_POINT] + excess
        assert states[ONE_POINT].tobytes() == clean[0][ONE_POINT].tobytes()
    else:
        assert np.isnan(states[ONE_POINT]).all()
    assert np.float64(quoted_values[ONE_POINT]).tobytes() == np.float64(quoted).tobytes()
    kind, message = error
    (failure,) = (e for e in dynamics._errors(codes, quoted_values) if e is not None)
    assert type(failure) is kind and str(failure) == message.format(float(quoted))


def count_decompositions(monkeypatch):
    """Count matrices through eigvalsh, eigh and svd, and calls of cholesky."""
    counts = {"cholesky": 0, "eigvalsh": 0, "eigh": 0, "svd": 0}

    def counting(name):
        original = getattr(np.linalg, name)

        def counted(m, *args, **kwargs):
            counts[name] += 1 if name == "cholesky" else math.prod(np.shape(m)[:-2])
            return original(m, *args, **kwargs)
        return counted

    for name in counts:
        monkeypatch.setattr(np.linalg, name, counting(name))
    return counts


@pytest.mark.parametrize("argv, stacks", [
    (("fig2", "--points", "7"), [20, 20, 9]),
    (("sweep", "--axis", "efield=0:5:30", "--k0r", "0.3", "--delta", "-26"), [20, 10]),
], ids=["fig2", "sweep"])
def test_grid_commands_screen_each_stack_with_one_cholesky(monkeypatch, capsys, argv, stacks):
    # a clean grid: one Cholesky screen per stack and no eigendecomposition
    monkeypatch.setattr(cli, "GRID_CHUNK", 20)
    counts = count_decompositions(monkeypatch)
    assert cli.main(list(argv)) == 0
    clean = capsys.readouterr().out.splitlines()
    assert len(clean) == sum(stacks) + 1
    assert counts == {"cholesky": len(stacks), "eigvalsh": 0, "eigh": 0, "svd": 0}
    # one state below the floor in the second stack: eigvalsh for that stack alone
    counts.update(dict.fromkeys(counts, 0))
    inject_once(monkeypatch, 1, 3, coupled_state(-5e-10))
    assert cli.main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: 1 grid point(s) failed, recorded as NaN (InvalidState: 1)\n"
    assert counts == {"cholesky": len(stacks), "eigvalsh": stacks[1], "eigh": 0, "svd": 0}
    failed = captured.out.splitlines()
    assert failed[1 + 23].endswith(",NaN") and "NaN" not in clean[1 + 23]
    assert failed[:24] + failed[25:] == clean[:24] + clean[25:]


# one floor, PSD_EVAL_FLOOR = -1e-10; the "density_floor" cases sit at -1e-9,
# ten times further down, and fail as every state below the floor does
FLOOR_CASES = [
    (-5e-10, 0.0, (InvalidState, "negative eigenvalue beyond tolerance")),
    (-2e-9, 0.0, (InvalidState, "negative eigenvalue beyond tolerance")),
    (0.0, 2e-10, (InvalidState, "not Hermitian within tolerance")),
    (-2e-9, 2e-10, (InvalidState, "not Hermitian within tolerance")),
    (tol.PSD_EVAL_FLOOR * (1.0 - 1e-6), 0.0, None),
    (tol.PSD_EVAL_FLOOR * (1.0 + 1e-6), 0.0,
     (InvalidState, "negative eigenvalue beyond tolerance")),
    (-1e-9 * (1.0 - 1e-6), 0.0, (InvalidState, "negative eigenvalue beyond tolerance")),
    (-1e-9 * (1.0 + 1e-6), 0.0, (InvalidState, "negative eigenvalue beyond tolerance")),
]


@pytest.mark.parametrize("lowest, herm_dev, expected", FLOOR_CASES, ids=[
    "psd_floor_only", "density_floor_first", "hermiticity", "hermiticity_first",
    "psd_floor_passes", "psd_floor_fails", "density_floor_passes", "density_floor_fails"])
def test_grid_checks_floors_and_error_precedence(monkeypatch, lowest, herm_dev, expected):
    # the grid counterpart of test_wootters_concurrences_error_precedence_at_the_floors:
    # one injected state per stack of clean ones, decided as wootters_concurrence
    # decides it; a stack that clears the Cholesky screen takes no eigvalsh
    drive = np.linspace(0.5, 3.0, 6)
    clean = steady_state_entanglement(0.0, drive, 20.0, 0.3)
    counts = count_decompositions(monkeypatch)
    for stack, k in enumerate((0, 2, 5)):
        inject_once(monkeypatch, stack, k, coupled_state(lowest, herm_dev))
    for k in (0, 2, 5):
        counts.update(dict.fromkeys(counts, 0))
        states, conc, eof, errors = steady_state_entanglement(0.0, drive, 20.0, 0.3)
        # the screen reads the lower triangle, where herm_dev is not
        assert counts["cholesky"] == 1
        assert counts["eigvalsh"] == (0 if lowest >= tol.PSD_EVAL_FLOOR else 6)
        others = [i for i in range(6) if i != k]
        assert all(errors[i] is None for i in others)
        for got, want in zip((states, conc, eof), clean[:3]):
            assert np.array_equal(got[others], want[others])
        if expected is None:
            assert errors[k] is None
            assert np.array_equal(states[k], coupled_state(lowest, herm_dev))
            assert conc[k] == clean[1][k] and eof[k] == clean[2][k]
            continue
        kind, message = expected
        assert type(errors[k]) is kind and str(errors[k]) == message
        assert np.isnan(states[k]).all() and np.isnan(conc[k]) and np.isnan(eof[k])


@pytest.mark.parametrize("lowest", [tol.PSD_EVAL_FLOOR * (1.0 - 1e-6), -1e-9 * (1.0 - 1e-6)],
                         ids=["psd_floor", "density_floor"])
def test_grid_fallback_decides_a_state_just_above_the_floor(monkeypatch, lowest):
    # a stack that fails the screen on one state (lowest -2e-9) decides the
    # others by eigvalsh, with the outcome the screen gives them on their own:
    # just above the floor passes, -1e-9 (the "density_floor" case) fails
    drive = np.linspace(0.5, 3.0, 6)
    clean = steady_state_entanglement(0.0, drive, 20.0, 0.3)
    build = dynamics._closed_form_states

    def corrupted(*args):
        states = build(*args)
        states[1], states[4] = coupled_state(lowest), coupled_state(-2e-9)
        return states

    monkeypatch.setattr(dynamics, "_closed_form_states", corrupted)
    counts = count_decompositions(monkeypatch)
    states, conc, eof, errors = steady_state_entanglement(0.0, drive, 20.0, 0.3)
    assert counts["cholesky"] == 1 and counts["eigvalsh"] == 6
    assert type(errors[4]) is InvalidState
    if lowest > tol.PSD_EVAL_FLOOR:
        assert errors[1] is None and conc[1] == clean[1][1]
        assert np.array_equal(states[1], coupled_state(lowest))
    else:
        assert str(errors[1]) == "negative eigenvalue beyond tolerance"
        assert type(errors[1]) is InvalidState
        assert np.isnan(states[1]).all() and np.isnan(conc[1])
    others = [0, 2, 3, 5]
    assert all(errors[i] is None for i in others)
    for got, want in zip((states, conc, eof), clean[:3]):
        assert np.array_equal(got[others], want[others])
