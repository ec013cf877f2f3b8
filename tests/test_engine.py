"""The batched steady-state engine against per-point references.

The references below are test-local: Wootters' concurrence through a
per-point PSD square root, and the 50-digit solve of the full 16x16
generator in ``mp_oracle``. The engine must agree with them point for
point.
"""

import math
import warnings

import numpy as np
import pytest

from dipolepair import (
    AtomPairConfig,
    BasisTag,
    Couplings,
    DensityMatrix,
    build_liouvillian,
    couplings_from_geometry,
    cross_decay,
    dipole_coupling,
    propagate,
    psd_sqrt,
    solve_steady_state,
    solve_steady_states,
    steady_state_concurrences,
    steady_state_entanglement,
    wootters_concurrence,
)
from dipolepair import cli
from dipolepair import tolerances as tol
from dipolepair.dynamics import _FAILURES, _clears, _density_codes, _errors
from dipolepair.entanglement import _eofs
from dipolepair.errors import (
    DipolePairError,
    InvalidRegime,
    InvalidState,
    NotHermitian,
    NotPSD,
    OutOfRange,
)
from dipolepair.model import SIGMA_Y, TO_COUPLED

RNG = np.random.default_rng(31)

YY = np.kron(SIGMA_Y, SIGMA_Y)


# ------------------------------------------------------- per-point reference


def reference_concurrence(m):
    """Wootters' concurrence of a computational-basis 4x4 matrix."""
    if np.abs(m - m.conj().T).max() > tol.HERMITICITY_ATOL:
        raise NotHermitian("not Hermitian")
    w, v = np.linalg.eigh(m)
    if w.min() < tol.PSD_EVAL_FLOOR:
        raise NotPSD("below the PSD floor")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    root = (root + root.conj().T) / 2.0
    lam = np.linalg.svd(root @ YY @ root.conj(), compute_uv=False)
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def fig2_mesh(k0r_lo, k0r_hi, e_lo, e_hi, points):
    k0rs = np.linspace(k0r_lo, k0r_hi, points)
    efields = np.linspace(e_lo, e_hi, points)
    omega = np.repeat([dipole_coupling(float(x)) for x in k0rs], points)
    gamma12 = np.repeat([cross_decay(float(x)) for x in k0rs], points)
    return 0.0, np.tile(efields, points), omega, gamma12


# ------------------------------------------------------- engine


@pytest.mark.parametrize(
    "mesh",
    [
        (0.05, 2.0, 0.0, 10.0, 12),      # default fig2 region
        (0.001, 0.002, 4.0, 5.0, 6),     # where an SVD kernel is degenerate in doubles
        (0.0095, 0.0125, 1.0, 5.0, 12),  # where SVD kernel thresholds misfire
    ],
    ids=["fig2_default", "triplet_branch", "failure_band"],
)
def test_engine_matches_per_point_algorithm(mesh):
    from mp_oracle import steady_state as oracle_state

    delta, drive, omega, gamma12 = fig2_mesh(*mesh)
    states, errors = solve_steady_states(delta, drive, omega, gamma12)
    assert errors == [None] * len(drive)
    reports = [wootters_concurrence(DensityMatrix(m, BasisTag.COUPLED)) for m in states]
    conc = np.array([r.concurrence for r in reports])
    eof = np.array([r.eof for r in reports])
    assert not np.isnan(conc).any() and not np.isnan(eof).any()
    for k in np.random.default_rng(len(drive)).choice(len(drive), 6, replace=False):
        expected = oracle_state(delta, drive[k], omega[k], gamma12[k])
        got = TO_COUPLED.conj().T @ states[k] @ TO_COUPLED
        assert np.abs(got - expected).max() <= 1e-10
        assert abs(conc[k] - reference_concurrence(expected)) <= 1e-10


def test_triplet_branch_states_have_no_singlet_weight():
    states, errors = solve_steady_states(0.0, [1.0, 4.0], 50.0, 1.0)
    assert errors == [None, None]
    assert np.all(states[:, 3, 3] == 0.0)
    assert np.allclose(states.trace(axis1=1, axis2=2), 1.0)


def test_result_does_not_depend_on_batch_position_or_chunks():
    # more points than one chunk, so one chunk boundary falls inside
    n = cli.GRID_CHUNK + 77
    delta = RNG.uniform(-1.0, 1.0, n)
    drive = RNG.uniform(0.0, 8.0, n)
    k0r = 10.0 ** RNG.uniform(-2.05, 0.3, n)
    omega = dipole_coupling(k0r)
    gamma12 = cross_decay(k0r)
    delta[RNG.choice(n, 9, replace=False)] = math.nan  # failures mixed in
    pops, conc, codes = cli._solve_grid(delta, drive, omega, gamma12)
    eof = _eofs(conc)
    assert sum(_FAILURES[c][0] is OutOfRange for c in codes if c) == 9
    perm = RNG.permutation(n)
    pops_p, conc_p, codes_p = cli._solve_grid(
        delta[perm], drive[perm], omega[perm], gamma12[perm]
    )
    assert np.array_equal(pops_p, pops[perm], equal_nan=True)
    assert np.array_equal(conc_p, conc[perm], equal_nan=True)
    assert np.array_equal(_eofs(conc_p), eof[perm], equal_nan=True)
    assert np.array_equal(codes_p, codes[perm])
    for k in RNG.choice(n, 40, replace=False):
        _, c, e, errs = steady_state_entanglement(delta[k], drive[k], omega[k], gamma12[k])
        assert type(errs[0]) is (_FAILURES[codes[k]][0] if codes[k] else type(None))
        assert np.array_equal(c[0], conc[k], equal_nan=True)
        assert np.array_equal(e[0], eof[k], equal_nan=True)


def test_engine_keeps_going_past_a_non_finite_point():
    states, errors = solve_steady_states(0.0, [1.0, math.nan, 2.0], 3.0, 0.2)
    assert type(errors[1]) is OutOfRange and str(errors[1]) == "inputs must be finite"
    assert errors[0] is None and errors[2] is None
    assert np.isnan(states[1]).all() and not np.isnan(states[[0, 2]]).any()


@pytest.mark.parametrize("which", range(4), ids=["delta", "drive", "omega", "gamma12"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_input_fails_its_point_with_out_of_range(which, bad):
    args = [np.array([0.3, 0.3, 0.3]), np.array([1.0, 1.0, 2.0]),
            np.array([2.0, 2.0, 2.0]), np.array([0.4, 0.4, 0.4])]
    args[which][1] = bad
    clean_states, clean_errors = solve_steady_states(*(np.delete(a, 1) for a in args))
    assert clean_errors == [None, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states, errors = solve_steady_states(*args)
        _, conc, eof, grid_errors = steady_state_entanglement(*args)
        law = steady_state_concurrences(*args)
    for errs in (errors, grid_errors):
        assert errs[0] is None and errs[2] is None
        assert type(errs[1]) is OutOfRange and str(errs[1]) == "inputs must be finite"
    assert np.isnan(states[1]).all() and np.isnan([conc[1], eof[1], law[1]]).all()
    assert np.array_equal(states[[0, 2]], clean_states)


@pytest.mark.parametrize("drive", [-1.0, -1e-300, -1e300])
def test_a_negative_drive_fails_its_point_with_out_of_range(drive):
    # the message of AtomPairConfig; -0.0 is no negative drive
    args = (0.0, [-0.0, drive, 1.0], 2.0, 0.4)
    clean_states, clean_errors = solve_steady_states(0.0, [0.0, 1.0], 2.0, 0.4)
    assert clean_errors == [None, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states, errors = solve_steady_states(*args)
        _, conc, eof, grid_errors = steady_state_entanglement(*args)
        law = steady_state_concurrences(*args)
    with pytest.raises(OutOfRange) as config_error:
        AtomPairConfig(drive=drive)
    for errs in (errors, grid_errors):
        assert errs[0] is None and errs[2] is None
        assert type(errs[1]) is OutOfRange and str(errs[1]) == str(config_error.value)
    assert np.isnan(states[1]).all() and np.isnan([conc[1], eof[1], law[1]]).all()
    assert np.array_equal(states[[0, 2]], clean_states)
    assert not np.isnan(law[[0, 2]]).any()


def test_a_non_unique_steady_state_fails_its_point_with_invalid_regime():
    # the dark line, no drive and gamma12 = -1 exactly, at delta = -omega
    # (D = 0) and one ulp off it; one ulp off the drive or gamma12 leaves
    # a unique state
    below = np.nextafter(-1.0, 0.0)
    args = ([-2.0, -2.0, -2.0, np.nextafter(-2.0, 0.0)], [0.0, 1e-100, 0.0, 0.0],
            2.0, [-1.0, -1.0, below, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states, errors = solve_steady_states(*args)
        _, conc, eof, grid_errors = steady_state_entanglement(*args)
        law = steady_state_concurrences(*args)
    for errs in (errors, grid_errors):
        for i in (0, 3):
            assert type(errs[i]) is InvalidRegime and "not unique" in str(errs[i])
        assert errs[1:3] == [None, None]
    for i in (0, 3):
        assert np.isnan(states[i]).all() and np.isnan([conc[i], eof[i], law[i]]).all()
    assert not np.isnan(states[1:3]).any() and not np.isnan(law[1:3]).any()


def test_the_dark_line_fails_at_every_delta_and_its_neighbours_do_not():
    # drive 0, gamma12 = -1: |0> does not decay, so |0><0| and |-1><-1| are
    # both steady at every delta, not only at D = 0 (delta = -omega = -2)
    deltas = [-3.0, -2.0, -1.0, np.nextafter(-2.0, 0.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, errors = solve_steady_states(deltas, 0.0, 2.0, -1.0)
        _, conc, _, grid_errors = steady_state_entanglement(deltas, 0.0, 2.0, -1.0)
        law = steady_state_concurrences(deltas, 0.0, 2.0, -1.0)
    messages = {str(e) for e in errors + grid_errors}
    assert all(type(e) is InvalidRegime for e in errors + grid_errors)
    assert messages == {"steady state not unique: |0> is dark at drive 0, gamma12 = -1"}
    assert np.isnan(law).all() and np.isnan(conc).all()
    for delta in deltas:
        with pytest.raises(InvalidRegime) as failure:
            solve_steady_state(AtomPairConfig(delta=delta), Couplings(2.0, -1.0))
        assert str(failure.value) in messages
    # one ulp off gamma12, either side: a unique, validated state everywhere
    for g in (np.nextafter(-1.0, 0.0), np.nextafter(-1.0, -2.0)):
        states, errors = solve_steady_states(deltas, 0.0, 2.0, g)
        assert errors == [None] * 4 and np.isfinite(states).all()
        for delta in deltas:
            state = solve_steady_state(AtomPairConfig(delta=delta), Couplings(2.0, g))
            assert abs(state.matrix[2, 2] - 1.0) <= 1e-12
    # one ulp off the drive: a unique state, at D = 0 too (see the next test)
    states, errors = solve_steady_states([-3.0, -1.0, -2.0, deltas[3]], 5e-324, 2.0, -1.0)
    assert errors == [None] * 4 and np.isfinite(states).all()


def test_the_scalar_solve_names_a_system_singular_in_double_precision():
    # next to the dark line a tiny drive leaves E^2 below the other rates
    # of the 9x9 system; the batch writes the state in closed form. That the
    # scalar solve should return that state too is an open ROADMAP item
    # (item 2), blocked while the benchmark pins the scalar path's spans
    for delta in (-3.0, -1.0, np.nextafter(-2.0, 0.0)):
        for drive in (5e-324, 1e-300, 1e-200, 1e-160):
            with pytest.raises(DipolePairError, match="singular in double precision"):
                solve_steady_state(AtomPairConfig(delta=delta, drive=drive),
                                   Couplings(2.0, -1.0))
            (state,), (error,) = solve_steady_states(delta, drive, 2.0, -1.0)
            assert error is None
            assert abs(state[2, 2].real - 1.0) <= 1e-12  # the ground state |-1> = |gg>


@pytest.mark.parametrize("drive", [1e-155, 1e-160, 1e-200, 1e-300, 5e-324])
def test_a_tiny_drive_at_d_zero_keeps_its_state(drive):
    # at delta = -omega, gamma12 = -1 the state tends to diag(0, 1/2, 1/2, 0)
    # with C = 1/2 as the drive falls to 0; D ~ 64 s E^2 there, so the
    # scale of the terms must follow E and not q, or D / k^4 underflows.
    # At omega = 1e300, sqrt s / k alone overflows (k ~ sqrt(sqrt s E))
    for omega in (2.0, 1e300):
        args = (-omega, drive, omega, -1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (state,), errors = solve_steady_states(*args)
            _, conc, _, grid_errors = steady_state_entanglement(*args)
            law = steady_state_concurrences(*args)
            report = wootters_concurrence(DensityMatrix(state, BasisTag.COUPLED))
        assert errors == grid_errors == [None]
        assert np.abs(state - np.diag([0.0, 0.5, 0.5, 0.0])).max() <= 1e-12
        for c in (law[0], conc[0], report.concurrence):
            assert abs(c - 0.5) <= 1e-12


def test_an_overflow_from_finite_input_fails_its_point_with_out_of_range():
    # 4 delta overflows: every input is finite, the state is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states, errors = solve_steady_states([0.3, 1e308], 1.0, 2.0, 0.4)
        _, _, _, grid_errors = steady_state_entanglement([0.3, 1e308], 1.0, 2.0, 0.4)
    for errs in (errors, grid_errors):
        assert errs[0] is None
        assert type(errs[1]) is OutOfRange
        assert str(errs[1]) == "non-finite steady state"
    assert np.isnan(states[1]).all()


def test_density_errors_agree_with_density_matrix_checks():
    good = np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)
    not_herm = good.copy()
    not_herm[0, 1] = 1e-3
    indefinite = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    one_nan = np.diag([math.nan, 0.0, 0.0, 1.0]).astype(complex)
    all_nan = np.full((4, 4), math.nan, dtype=complex)
    stack = np.array([good, not_herm, 2.0 * good, indefinite, one_nan, all_nan])
    for m, err in zip(stack, _errors(*_density_codes(stack))):
        try:
            DensityMatrix(m, BasisTag.COMPUTATIONAL)
        except Exception as exc:
            assert type(err) is type(exc) and str(err) == str(exc)
        else:
            assert err is None


def test_density_checks_reject_non_finite_entries_first():
    # every comparison with NaN is false, so finiteness is checked first;
    # eigvalsh of an all-NaN matrix would raise numpy's LinAlgError, and
    # no check may warn (the CLI runs under -W error in CI)
    one_nan = np.diag([math.nan, 0.0, 0.0, 1.0]).astype(complex)
    all_nan = np.full((4, 4), math.nan, dtype=complex)
    not_herm_inf = np.diag([math.inf, 0.0, 0.0, 1.0]).astype(complex)
    not_herm_inf[0, 1] = 1.0
    infinite_trace = np.diag([math.inf, -math.inf, 0.0, 1.0]).astype(complex)
    good = np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)
    bad = [one_nan, all_nan, not_herm_inf, infinite_trace]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in bad:
            with pytest.raises(InvalidState, match="^entries are not finite$"):
                DensityMatrix(m, BasisTag.COMPUTATIONAL)
        stack = np.array([good] + bad)
        errors = _errors(*_density_codes(stack))
    assert errors[0] is None
    assert [str(e) for e in errors[1:]] == ["entries are not finite"] * 4


@pytest.mark.parametrize("size", [1e154, 1e300, 1e308, float(np.finfo(float).max)])
def test_density_checks_reject_a_huge_indefinite_matrix(size):
    # Hermitian with trace one, but with an off-diagonal pair near the largest
    # double: LAPACK's Cholesky can return a NaN factor, and eigvalsh NaN
    # eigenvalues, without an error; neither may clear the matrix
    m = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    m[0, 1], m[1, 0] = size * (1 + 1j), size * (1 - 1j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for basis in BasisTag:
            with pytest.raises(InvalidState, match="^negative eigenvalue beyond tolerance$"):
                DensityMatrix(m, basis)
        errors = _errors(*_density_codes(np.array([m, np.eye(4) / 4.0])))
    assert [str(e) if e else None for e in errors] == [
        "negative eigenvalue beyond tolerance", None]


def one_matrix_cases(rng):
    """About 3800 single 4x4 matrices around every bound of the density checks."""

    def unitary():
        q, r = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    def state(eigs):
        u = unitary()
        m = (u * eigs) @ u.conj().T
        return (m + m.conj().T) / 2.0  # exactly Hermitian

    def both_bases(ms):
        return ms + [TO_COUPLED @ m @ TO_COUPLED.conj().T for m in ms]

    floor, atol = tol.PSD_EVAL_FLOOR, tol.HERMITICITY_ATOL
    cases = []
    # random states of every rank
    for rank in (1, 2, 3, 4):
        for _ in range(150):
            eigs = np.zeros(4)
            eigs[:rank] = rng.random(rank)
            cases += both_bases([state(eigs / eigs.sum())])
    # lowest eigenvalue just inside, just outside and exactly at the floor
    for lowest in floor * np.array([1.0 - 1e-6, 1.0 + 1e-6, 1.0]):
        for _ in range(100):
            rest = rng.random(3)
            eigs = np.append((1.0 - lowest) * rest / rest.sum(), lowest)
            cases += both_bases([state(eigs), np.diag(eigs).astype(complex)])
    # Hermiticity deviation and trace error at their tolerances (1 -+ 1e-6)
    for scale in (1.0 - 1e-6, 1.0 + 1e-6):
        for _ in range(150):
            m = state(rng.random(4) / 4.0)
            m /= np.trace(m).real
            i, j = rng.choice(4, 2, replace=False)
            off = m.copy()
            off[i, j] += scale * atol * np.exp(2j * math.pi * rng.random())
            diag = m.copy()
            diag[i, i] += 0.5j * scale * atol
            trace = m.copy()
            trace[i, i] += rng.choice([-1.0, 1.0]) * scale * tol.DENSITY_TRACE_ATOL
            cases += both_bases([off, diag, trace])
    # NaN and infinite entries, and finite parts near the largest double
    for value in (math.nan, math.inf, -math.inf, 1.7e308, -1.7e308):
        for _ in range(60):
            m = state(rng.random(4) / 4.0)
            for _ in range(rng.integers(1, 4)):
                i, j = rng.integers(0, 4, 2)
                (m.real, m.imag)[rng.integers(2)][i, j] = value
            cases.append(m)
    # a first diagonal entry below the floor: the screen's first pivot fails
    for _ in range(20):
        rest = rng.random(3)
        cases.append(np.diag(np.append(2.0 * floor, (1.0 - 2.0 * floor) * rest / rest.sum()))
                     .astype(complex))
    return cases


def test_one_matrix_takes_the_python_screen_with_the_stack_decisions():
    # the Python screen of a one-matrix stack clears only what the stack path
    # clears, and anything else gets the stack path's code and quoted trace
    cases = one_matrix_cases(np.random.default_rng(29))
    assert len(cases) >= 3000
    quarter = np.eye(4, dtype=complex) / 4.0
    cleared = codes = 0
    screened = sum(map(_clears, cases))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in cases:
            one = _density_codes(m[None])
            two = _density_codes(np.array([m, quarter]))
            if two is None:
                assert one is None
                cleared += 1
                continue
            (code,), (quoted,) = one
            assert code == two[0][0] != 0 and two[0][1] == 0
            assert (math.isnan(quoted) and math.isnan(two[1][0])
                    or np.float64(quoted).tobytes() == two[1][:1].tobytes())
            codes += 1
    # every outcome is exercised: the screen clears, falls back, and each code is made
    assert cleared - screened > 1000 and screened > 800 and codes > 1000


def test_wootters_concurrences_records_each_failure_and_keeps_the_rest():
    # one point at a time: each failing state raises its own error, and a
    # good state after them still gets its concurrence
    good = np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)
    not_herm = good.copy()
    not_herm[0, 1] = 1e-3
    # -5e-10 lies below the one floor (-1e-10) of DensityMatrix and psd_sqrt
    slightly_negative = np.diag([0.5 + 5e-10, 0.25, 0.25, -5e-10]).astype(complex)
    for m, kind in ((not_herm, InvalidState), (2.0 * good, InvalidState),
                    (slightly_negative, InvalidState)):
        with pytest.raises(DipolePairError) as failure:
            wootters_concurrence(TO_COUPLED.conj().T @ m @ TO_COUPLED)
        assert type(failure.value) is kind
    report = wootters_concurrence(TO_COUPLED.conj().T @ good @ TO_COUPLED)
    expected = reference_concurrence(TO_COUPLED.conj().T @ good @ TO_COUPLED)
    assert abs(report.concurrence - expected) <= 1e-15 and not math.isnan(report.eof)


@pytest.mark.parametrize("lowest, herm_dev, expected", [
    (-5e-10, 0.0, (InvalidState, "negative eigenvalue beyond tolerance")),
    (-2e-9, 0.0, (InvalidState, "negative eigenvalue beyond tolerance")),
    (0.0, 2e-10, (InvalidState, "not Hermitian within tolerance")),
    (-2e-9, 2e-10, (InvalidState, "not Hermitian within tolerance")),
], ids=["psd_floor_only", "density_floor_first", "hermiticity", "hermiticity_first"])
def test_wootters_concurrences_error_precedence_at_the_floors(lowest, herm_dev, expected):
    # one point: the DensityMatrix checks, Hermiticity before the floor; a
    # state that passes them passes psd_sqrt's, which are the same.
    # Coupled basis; (|+1>, |-1>) is (|ee>, |gg>), so the deviation is not spread
    m = np.diag([0.5 - lowest, 0.25, 0.25, lowest]).astype(complex)
    m[0, 2] = herm_dev
    kind, message = expected
    with pytest.raises(DipolePairError) as failure:
        wootters_concurrence(TO_COUPLED.conj().T @ m @ TO_COUPLED)
    assert type(failure.value) is kind and message in str(failure.value)
    assert wootters_concurrence(np.diag([1.0, 0, 0, 0])).concurrence == 0.0


def test_psd_sqrt_checks_hermiticity_before_the_floor():
    # on a raw matrix, psd_sqrt raises NotHermitian before NotPSD
    m = np.diag([0.5 + 5e-10, 0.25, 0.25, -5e-10]).astype(complex)
    m[0, 3] = 2e-10
    with pytest.raises(NotHermitian, match="deviation from Hermiticity"):
        psd_sqrt(m)
    m[0, 3] = 0.0
    with pytest.raises(NotPSD, match="below PSD floor"):
        psd_sqrt(m)


def test_states_of_every_path_keep_the_floor_with_headroom():
    # every path builds exact states (closed form, a 9x9 solve, exact
    # propagation), so each lowest eigenvalue sits at rounding level, far
    # above the one floor PSD_EVAL_FLOOR = -1e-10: 1000 times inside it here
    rng = np.random.default_rng(28)
    headroom = 1e-3 * tol.PSD_EVAL_FLOOR

    def geometry(n):
        k0r = np.exp(rng.uniform(math.log(1e-3), math.log(10.0), n))
        mu = rng.random(n)
        return k0r, mu, dipole_coupling(k0r, mu), cross_decay(k0r)

    # the grid: a third of the points on the resonance delta = -omega
    _, _, omega, gamma12 = geometry(2400)
    delta = 5.0 * rng.standard_normal(2400)
    delta[::3] = -omega[::3]
    drive = 10.0 * rng.random(2400)
    states, errors = solve_steady_states(delta, drive, omega, gamma12)
    assert errors == [None] * 2400
    assert np.linalg.eigvalsh(states)[:, 0].min() >= headroom
    # the scalar solve
    lowest = []
    for k, (k0r, mu, omega, _) in enumerate(zip(*geometry(240))):
        delta = -omega if k % 3 == 0 else 5.0 * rng.standard_normal()
        cfg = AtomPairConfig(delta=delta, drive=10.0 * rng.random(), k0r=k0r, mu_dot_rhat=mu)
        state = solve_steady_state(cfg, couplings_from_geometry(cfg))
        lowest.append(np.linalg.eigvalsh(state.matrix)[0])
    assert min(lowest) >= headroom
    # propagation from |gg>
    ground = DensityMatrix(np.diag([0.0, 0.0, 0.0, 1.0]), BasisTag.COMPUTATIONAL)
    for k0r, mu, _, _ in zip(*geometry(12)):
        cfg = AtomPairConfig(delta=rng.standard_normal(), drive=5.0 * rng.random(), k0r=k0r,
                             mu_dot_rhat=mu)
        _, out = propagate(build_liouvillian(cfg, couplings_from_geometry(cfg)), ground,
                           20.0, 0.05)
        stack = np.array([state.matrix for state in out])
        assert np.linalg.eigvalsh(stack)[:, 0].min() >= headroom
