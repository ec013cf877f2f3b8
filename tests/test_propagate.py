"""Exact propagation: the Pade exponential and the checks on every state."""

import math
import warnings

import numpy as np
import pytest
from svd_reference import to_coupled

from dipolepair import (
    AtomPairConfig,
    BasisTag,
    Couplings,
    DensityMatrix,
    Liouvillian,
    build_liouvillian,
    couplings_from_geometry,
    cross_decay,
    dipole_coupling,
    propagate,
    vec,
)
from dipolepair import dynamics
from dipolepair import tolerances as tol
from dipolepair.dynamics import (
    _FROM_REAL,
    _THETA13,
    _TO_REAL,
    _TO_STACK,
    _below_floor,
    _density_codes,
    _errors,
    _expm,
)
from dipolepair.errors import InvalidState, OutOfRange
from dipolepair.model import TO_COUPLED

GROUND = np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)
EXCITED = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)


def unvec(v, n):
    """Inverse of vec() for an n x n matrix (column stacking)."""
    return np.asarray(v, dtype=complex).reshape((n, n), order="F")


def _real(lm):
    """R = T L T^-1 of propagate, in real coordinates."""
    return _TO_REAL @ lm @ _FROM_REAL


def _rel_gap(a):
    # scipy's path for real input is off a 40-digit mpmath value by up to
    # 4e-11 on the real generators below, its complex path by 2.4e-13
    expm = pytest.importorskip("scipy.linalg").expm
    ref = expm(a.astype(complex))
    return np.abs(_expm(a) - ref).max() / np.abs(ref).max()


# ------------------------------------------------------- the exponential


def test_expm_matches_scipy_on_liouvillians():
    rng = np.random.default_rng(4)
    n = 400
    k0r = np.exp(rng.uniform(math.log(0.05), math.log(2.0), n))
    drive = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 1e3, n),
                     np.exp(rng.uniform(math.log(1e-2), math.log(1e3), n)))
    drive[:4] = 0.0
    delta = rng.uniform(-2.0, 2.0, n)
    dt = rng.choice([1e-3, 1e-2, 0.5], n)
    stack = [build_liouvillian(AtomPairConfig(delta=d, drive=e), Couplings(w, g)).matrix
             for d, e, w, g in zip(delta, drive, dipole_coupling(k0r), cross_decay(k0r))]
    worst = max(_rel_gap(lm * h) for lm, h in zip(stack, dt))
    assert worst <= 1e-11
    # the real generators that propagate exponentiates
    worst = max(_rel_gap(_real(lm).real * h) for lm, h in zip(stack, dt))
    assert worst <= 1e-11


def test_expm_zero_generator_is_identity():
    # exactly, for real and complex input
    for dtype in (float, complex):
        assert np.array_equal(_expm(np.zeros((16, 16), dtype=dtype)), np.eye(16))


# theta_m of the unscaled Pade degrees m = 3, 5, 7, 9 (Higham, Table 2.3),
# where a degree ladder would switch
_LADDER = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
           2.097847961257068)


@pytest.mark.parametrize("norm", [f * _THETA13 for f in (0.5, 0.999, 1.001, 3.0, 1e3)]
                         + [f * theta for theta in _LADDER for f in (0.999, 1.001)])
def test_expm_on_both_sides_of_the_scaling_threshold(norm):
    # up to theta13 Pade(13) is used unscaled, above it scaled by 2^-s and
    # squared s times; an anti-Hermitian matrix keeps exp(a) unitary at
    # any norm
    rng = np.random.default_rng(int(norm * 1000))
    g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    a = g - g.conj().T
    a *= norm / np.abs(a).sum(axis=0).max()
    assert _rel_gap(a) <= 1e-12
    cfg = AtomPairConfig(delta=0.3, drive=2.0, k0r=0.5)
    lm = build_liouvillian(cfg, couplings_from_geometry(cfg)).matrix
    lm = lm * (norm / np.abs(lm).sum(axis=0).max())
    assert _rel_gap(lm) <= 1e-12
    # the same generator in real coordinates, as propagate passes it
    r = _real(build_liouvillian(cfg, couplings_from_geometry(cfg)).matrix).real
    assert _rel_gap(r * (norm / np.abs(r).sum(axis=0).max())) <= 1e-12


def test_expm_rejects_non_finite_matrix():
    a = np.zeros((16, 16), dtype=complex)
    a[3, 5] = np.nan
    with pytest.raises(OutOfRange, match="^exponential of a non-finite matrix$"):
        _expm(a)


# ------------------------------------------------------- real coordinates


def test_real_coordinates_round_trip_exactly():
    # matrix -> (diagonal, Re and Im of the upper triangle) -> matrix, exact
    # on exactly Hermitian stacks
    assert np.array_equal(_TO_REAL @ _FROM_REAL, np.eye(16))
    rng = np.random.default_rng(8)
    a = rng.normal(size=(300, 4, 4)) + 1j * rng.normal(size=(300, 4, 4))
    m = a + a.conj().swapaxes(1, 2)
    m[:100] *= 10.0 ** rng.uniform(-300, 300, (100, 1, 1))
    x = m.swapaxes(1, 2).reshape(300, 16) @ _TO_REAL.T  # vec of each matrix, mapped
    assert not x.imag.any()
    rows, cols = np.triu_indices(4, 1)
    diag = m.real[:, range(4), range(4)]
    assert np.array_equal(x.real, np.c_[diag, m.real[:, rows, cols], m.imag[:, rows, cols]])
    back = (x.real @ _TO_STACK).view(complex).reshape(300, 4, 4)
    assert np.array_equal(back, m)


def test_every_build_liouvillian_generator_is_exactly_real_in_real_coordinates():
    # Im R is exactly 0, not just within rounding: at couplings up to 1e150,
    # and on gamma12 = -1 and gamma12 = 1
    rng = np.random.default_rng(31)
    for n in range(2000):
        delta, omega = rng.normal(size=2) * 10.0 ** rng.uniform(-3, 150, 2)
        drive = 10.0 ** rng.uniform(-3, 150)
        gamma12 = (-1.0, 1.0)[n % 2] if n % 5 == 0 else rng.uniform(-1.0, 1.0)
        lm = build_liouvillian(AtomPairConfig(delta=delta, drive=drive),
                               Couplings(omega, gamma12)).matrix
        assert not _real(lm).imag.any(), (delta, drive, omega, gamma12)


def test_a_generator_that_does_not_preserve_hermiticity_raises_invalid_state():
    rho0 = DensityMatrix(GROUND, BasisTag.COMPUTATIONAL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidState, match="^generator does not preserve Hermiticity$"):
            propagate(Liouvillian(1j * np.eye(16), BasisTag.COMPUTATIONAL), rho0, 1.0, 0.1)
        # a generator that is not finite, or whose conversion overflows, is
        # out of range first
        for bad in (np.nan, np.inf, complex(0.0, np.inf)):
            lm = 1j * np.eye(16)
            lm[3, 5] = bad
            with pytest.raises(OutOfRange, match="^exponential of a non-finite matrix$"):
                propagate(Liouvillian(lm, BasisTag.COMPUTATIONAL), rho0, 1.0, 0.1)
        with pytest.raises(OutOfRange, match="^exponential of a non-finite matrix$"):
            huge = np.full((16, 16), 1e308) + 1j * np.eye(16)
            propagate(Liouvillian(huge, BasisTag.COMPUTATIONAL), rho0, 1.0, 0.1)


# ------------------------------------------------------- propagation


@pytest.mark.parametrize("t_final, dt", [(1.0, 0.0), (1.0, math.nan), (math.nan, 0.1),
                                         (math.inf, 0.1), (0.05, 0.1)])
def test_a_step_or_length_out_of_range_is_out_of_range(t_final, dt):
    cfg = AtomPairConfig(drive=1.0, k0r=0.5)
    liouv = build_liouvillian(cfg, couplings_from_geometry(cfg))
    with pytest.raises(OutOfRange):
        propagate(liouv, DensityMatrix(GROUND, BasisTag.COMPUTATIONAL), t_final, dt)


@pytest.mark.parametrize("t_final, dt", [(1.0, 1e-300), (1.0, 1e-20), (1e300, 1e-10),
                                         (1.0, 1.0 / (tol.MAX_STEPS + 1))])
def test_more_steps_than_the_cap_is_out_of_range_before_any_work(monkeypatch, t_final, dt):
    # unbounded, these asked numpy for an array too large (ValueError) or
    # converted an infinite step count to int (OverflowError)
    cfg = AtomPairConfig(drive=1.0, k0r=0.5)
    liouv = build_liouvillian(cfg, couplings_from_geometry(cfg))
    monkeypatch.setattr(dynamics, "_expm", None)  # reached only after the cap
    with pytest.raises(OutOfRange, match=f"exceeds {tol.MAX_STEPS} steps$"):
        propagate(liouv, DensityMatrix(GROUND, BasisTag.COMPUTATIONAL), t_final, dt)


@pytest.mark.parametrize("k0r", [0.15, 0.5, 1.0])
def test_drive_2_from_ground_at_coarse_step_succeeds(k0r):
    # RK4 broke the PSD floor here at dt = 0.01 and needed dt <= 1e-3
    expm = pytest.importorskip("scipy.linalg").expm
    cfg = AtomPairConfig(delta=0.0, drive=2.0, k0r=k0r)
    liouv = build_liouvillian(cfg, couplings_from_geometry(cfg))
    rho0 = DensityMatrix(GROUND, BasisTag.COMPUTATIONAL)
    times, states = propagate(liouv, rho0, 2.0, 0.01)
    assert len(times) == len(states) == 201
    lowest = min(np.linalg.eigvalsh(st.matrix)[0] for st in states)
    assert lowest >= tol.PSD_EVAL_FLOOR
    for k in (1, 50, 200):
        exact = unvec(expm(liouv.matrix * times[k]) @ vec(GROUND), 4)
        assert np.abs(states[k].matrix - exact).max() < 1e-10


def test_states_are_hermitian_unit_trace_and_tagged():
    cfg = AtomPairConfig(delta=0.4, drive=1.5, k0r=0.3)
    liouv = to_coupled(build_liouvillian(cfg, couplings_from_geometry(cfg)))
    # the rotation rounds, so in real coordinates this generator keeps an
    # imaginary part, far inside the tolerance
    r = _real(liouv.matrix)
    assert 0.0 < np.abs(r.imag).max() <= tol.HERMITICITY_RTOL * np.abs(r).max()
    rho0 = DensityMatrix(GROUND, BasisTag.COMPUTATIONAL).to_basis(BasisTag.COUPLED)
    times, states = propagate(liouv, rho0, 1.0, 0.05)
    assert len(times) == len(states) == 21 and states[0] is rho0
    assert np.allclose(times, 0.05 * np.arange(21), rtol=0, atol=1e-15)
    for st in states[1:]:
        assert st.basis is BasisTag.COUPLED
        assert np.array_equal(st.matrix, st.matrix.conj().T)
        assert abs(np.trace(st.matrix).real - 1.0) < 1e-15


def test_generator_losing_trace_raises_at_its_step():
    # trace decays as exp(-1e-5 t): the drift first exceeds 1e-6 at step 11
    liouv = Liouvillian(-1e-5 * np.eye(16, dtype=complex), BasisTag.COMPUTATIONAL)
    rho0 = DensityMatrix(GROUND, BasisTag.COMPUTATIONAL)
    with pytest.raises(InvalidState, match=r"^step 11: trace drift"):
        propagate(liouv, rho0, 1.0, 0.01)
    # a shorter run that stops before the bound is crossed succeeds
    _, states = propagate(liouv, rho0, 0.1, 0.01)
    assert len(states) == 11


def _stepwise(liouv, rho0, nsteps, dt):
    """Hermitized, normalized states 1 ... nsteps, one step product at a time."""
    step = _expm(liouv.matrix * dt)
    v = [vec(rho0.matrix)]
    for _ in range(nsteps):
        v.append(step @ v[-1])
    out = []
    for x in v[1:]:
        m = unvec(x, 4)
        m = (m + m.conj().T) / 2
        out.append(m / np.trace(m).real)
    return np.array(out)


def test_doubled_trajectory_matches_step_by_step_products():
    # the inputs of the onset benchmark: |gg>, delta = 0, 50 steps of 0.01
    rng = np.random.default_rng(12)
    k0r = np.exp(rng.uniform(math.log(0.05), math.log(2.0), 64))
    drive = 5.0 * (1.0 - rng.random(64))
    rho0 = DensityMatrix(GROUND, BasisTag.COMPUTATIONAL)
    worst = 0.0
    for k, e in zip(k0r, drive):
        cfg = AtomPairConfig(delta=0.0, drive=e, k0r=k)
        liouv = build_liouvillian(cfg, couplings_from_geometry(cfg))
        _, states = propagate(liouv, rho0, 0.5, 0.01)
        got = np.array([st.matrix for st in states[1:]])
        worst = max(worst, np.abs(got - _stepwise(liouv, rho0, 50, 0.01)).max())
    assert worst <= 1e-13


def test_long_trajectory_matches_scipy_at_every_doubling():
    # 5000 steps, as in criterion 6: the block products square P twelve times
    expm = pytest.importorskip("scipy.linalg").expm
    cfg = AtomPairConfig(delta=0.2, drive=2.0, k0r=0.3)
    liouv = build_liouvillian(cfg, couplings_from_geometry(cfg))
    rho0 = DensityMatrix(GROUND, BasisTag.COMPUTATIONAL)
    times, states = propagate(liouv, rho0, 50.0, 0.01)
    assert len(states) == 5001
    for k in [1] + [2**j for j in range(1, 13)] + [5000]:
        exact = unvec(expm(liouv.matrix * times[k]) @ vec(GROUND), 4)
        assert np.abs(states[k].matrix - exact).max() <= 1e-10, k


@pytest.mark.parametrize("k0r, t_final", [(1e-3, 0.5), (1e-4, 0.5), (1e-5, 0.5), (1e-3, 50.0)])
def test_stiff_short_distance_trajectory_matches_scipy(k0r, t_final):
    # Omega ~ 1/k0r^3 makes the step stiff: r = (v - u)^-1 (v + u) lost the
    # trace in rounding here (InvalidState "step 2: trace drift 1.907e-06"
    # at k0r = 1e-4), r = I + 2 (v - u)^-1 u keeps it
    expm = pytest.importorskip("scipy.linalg").expm
    cfg = AtomPairConfig(drive=1.0, k0r=k0r)
    liouv = build_liouvillian(cfg, couplings_from_geometry(cfg))
    times, states = propagate(liouv, DensityMatrix(GROUND, BasisTag.COMPUTATIONAL), t_final, 0.01)
    assert len(times) == len(states) == round(t_final / 0.01) + 1
    exact = unvec(expm(liouv.matrix * times[-1]) @ vec(GROUND), 4)
    assert np.abs(states[-1].matrix - exact).max() <= 1e-12


@pytest.mark.parametrize("cfg, couplings, rho0, t_final, dt", [
    (AtomPairConfig(drive=1.0, k0r=1e-6), None, GROUND, 50.0, 0.01),
    (AtomPairConfig(delta=1.0), Couplings(1e20, -1.0), np.diag([0.0, 1.0, 0.0, 0.0]), 0.5, 0.1),
], ids=["k0r_1e-6", "omega_1e20"])
def test_a_trajectory_whose_products_overflow_fails_typed_without_a_warning(
        cfg, couplings, rho0, t_final, dt):
    # the doubling products overflowed with a numpy RuntimeWarning before the
    # InvalidState, which under warnings-as-errors the caller got instead
    liouv = build_liouvillian(cfg, couplings or couplings_from_geometry(cfg))
    rho0 = DensityMatrix(rho0.astype(complex), BasisTag.COMPUTATIONAL)
    with pytest.raises(InvalidState, match=r"^step \d+: "):
        propagate(liouv, rho0, t_final, dt)


@pytest.mark.parametrize("basis", [BasisTag.COMPUTATIONAL, BasisTag.COUPLED])
def test_density_checks_at_the_eigenvalue_floor(basis):
    # lowest eigenvalue floor (1 - 1e-6) passes and floor (1 + 1e-6) fails,
    # whether the Cholesky screen decides or falls back to eigvalsh
    zero = Liouvillian(np.zeros((16, 16), dtype=complex), basis)
    rotate = TO_COUPLED if basis is BasisTag.COUPLED else np.eye(4)
    passing, failing = (
        rotate @ np.diag([0.5 - lowest, 0.3, 0.2, lowest]).astype(complex) @ rotate.conj().T
        for lowest in tol.PSD_EVAL_FLOOR * np.array([1.0 - 1e-6, 1.0 + 1e-6]))
    rho0 = DensityMatrix(passing, basis)
    _, out = propagate(zero, rho0, 0.02, 0.01)
    assert len(out) == 3
    with pytest.raises(InvalidState, match="^negative eigenvalue beyond tolerance$"):
        DensityMatrix(failing, basis)
    (bad,) = DensityMatrix._checked(failing[None], basis)
    with pytest.raises(InvalidState, match="^step 1: negative eigenvalue beyond tolerance$"):
        propagate(zero, bad, 0.02, 0.01)
    # one failing matrix in a stack fails alone
    stack = np.array([passing, failing, passing])
    errors = _errors(*_density_codes(stack))
    assert [str(e) if e else None for e in errors] == [
        None, "negative eigenvalue beyond tolerance", None]
    # exactly at the floor the Cholesky screen fails, and eigvalsh clears every matrix
    at_floor = np.diag([1.0 - tol.PSD_EVAL_FLOOR, 0.0, 0.0, tol.PSD_EVAL_FLOOR])
    assert _below_floor(at_floor[None]) is not None
    assert _density_codes(np.array([passing, at_floor])) is None
    _, out = propagate(zero, DensityMatrix(at_floor, basis), 0.02, 0.01)
    assert len(out) == 3


def test_generator_breaking_positivity_raises():
    # decay run backwards keeps the trace but drives populations negative
    decay = build_liouvillian(AtomPairConfig(), Couplings(0.0, 0.0))
    liouv = Liouvillian(-decay.matrix, BasisTag.COMPUTATIONAL)
    rho0 = DensityMatrix(EXCITED, BasisTag.COMPUTATIONAL)
    with pytest.raises(InvalidState, match=r"^step 1: negative eigenvalue"):
        propagate(liouv, rho0, 1.0, 0.01)
