"""The exchange-symmetric steady states against the 50-digit 16x16 oracle.

solve_steady_state solves one 9x9 system: the triplet block with the
singlet population p_A = rho_{+1,+1} substituted and a trace row;
solve_steady_states writes the same state in closed form. The oracle in
``mp_oracle`` solves the full 16x16 generator of the master equation.
"""

import json

import numpy as np
import pytest

pytest.importorskip("mpmath")
pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from mp_oracle import steady_state as oracle_state

from dipolepair import (
    AtomPairConfig,
    BasisTag,
    Couplings,
    DensityMatrix,
    analytic_steady_state,
    couplings_from_geometry,
    cross_decay,
    dipole_coupling,
    solve_steady_state,
    solve_steady_states,
    wootters_concurrence,
)
from dipolepair import dynamics
from dipolepair import tolerances as tol
from dipolepair.cli import main
from dipolepair.errors import InvalidRegime, InvalidState, OutOfRange
from dipolepair.model import TO_COUPLED

TAU_STAR = 9.21


def computational(m):
    return TO_COUPLED.conj().T @ m @ TO_COUPLED


def coupled(m):
    return DensityMatrix(m, BasisTag.COUPLED)


def corner_grid():
    """4 distances x 4 drives x 3 dipole projections, detuning cycling over 5 values."""
    k0r, efield, mu = (a.ravel() for a in np.meshgrid(
        np.geomspace(1e-3, 2.0, 4), [0.0, 0.1, 10.0, 1e3], [0.0, 0.5, 1.0],
        indexing="ij"))
    delta = np.resize([-2.0, -0.5, 0.0, 0.5, 2.0], len(k0r))
    return delta, efield, dipole_coupling(k0r, mu), cross_decay(k0r)


def test_block_solve_matches_oracle_on_log_grid():
    delta, efield, omega, gamma12 = corner_grid()
    states, errors = solve_steady_states(delta, efield, omega, gamma12)
    assert len(errors) == 48 and errors == [None] * 48
    conc = [wootters_concurrence(coupled(m)).concurrence for m in states]
    assert np.array_equal(states[:, 3, 3], states[:, 0, 0].real)
    assert not states[:, 3, :3].any() and not states[:, :3, 3].any()
    for k in range(48):
        expected = oracle_state(delta[k], efield[k], omega[k], gamma12[k])
        assert np.abs(computational(states[k]) - expected).max() <= 1e-10, k
        assert abs(conc[k] - wootters_concurrence(expected).concurrence) <= 1e-10, k


def test_decoupled_singlet_branch_is_the_triplet_sector_state():
    omega = np.array([0.5, 3.0, 50.0, 2e4, 3.0])
    efield = np.array([1.0, 0.2, 4.0, 40.0, 0.0])
    states, errors = solve_steady_states(0.0, efield, omega, 1.0)
    assert errors == [None] * 5
    assert not states[:, 3].any() and not states[:, :, 3].any()
    for k in range(4):
        exact = analytic_steady_state(omega[k], efield[k]).to_basis(BasisTag.COUPLED)
        assert np.abs(states[k] - exact.matrix).max() <= 1e-10
    assert np.abs(states[4] - np.diag([0, 0, 1, 0])).max() <= 1e-15
    # detuned, against the oracle with the singlet population set to zero
    (state,), _ = solve_steady_states(1.5, 2.0, 3.0, 1.0)
    expected = oracle_state(1.5, 2.0, 3.0, 1.0, singlet_free=True)
    assert np.abs(computational(state) - expected).max() <= 1e-10


def test_branch_is_exact_equality_not_a_tolerance():
    # one ulp below gamma the singlet is coupled: p_A = rho_{+1,+1}, and the
    # triplet block is the decoupled one renormalised by 1 / (1 + p)
    (near, branch), errors = solve_steady_states(0.0, 2.0, 10.0, [1.0 - 2.0**-53, 1.0])
    assert errors == [None, None]
    p = branch[0, 0].real
    assert near[3, 3] == near[0, 0].real > 0.1
    assert np.abs(near[:3, :3] - branch[:3, :3] / (1.0 + p)).max() <= 1e-12


def test_scalar_and_batched_solves_agree():
    rng = np.random.default_rng(11)
    n = 24
    k0r = 10.0 ** rng.uniform(-3.0, 0.3, n)
    drive = rng.uniform(0.0, 20.0, n)
    delta = rng.uniform(-2.0, 2.0, n)
    mu = rng.uniform(0.0, 1.0, n)
    omega, gamma12 = dipole_coupling(k0r, mu), cross_decay(k0r)
    states, errors = solve_steady_states(delta, drive, omega, gamma12)
    assert errors == [None] * n
    for k in range(n):
        cfg = AtomPairConfig(delta=delta[k], drive=drive[k], k0r=k0r[k], mu_dot_rhat=mu[k])
        one = solve_steady_state(cfg, Couplings(float(omega[k]), float(gamma12[k])))
        assert one.basis is BasisTag.COUPLED
        assert np.abs(one.matrix - states[k]).max() <= 1e-12


@pytest.mark.parametrize("k0r", [0.05, 0.01, 0.003])
@pytest.mark.parametrize("tau", [TAU_STAR, 4.0 + 4.0 * 5**0.5], ids=["tau_star", "tau_max"])
def test_short_distance_limit_keeps_its_singlet_weight(k0r, tau):
    # the triplet-sector state has C = (8 tau - 16) / (tau^2 + 48), 0.434 at
    # tau*; with p_A = rho_{+1,+1} the admixture rule gives p_A = 16 /
    # (tau^2 + 64) and C = (8 tau - 32) / (tau^2 + 64): 0.280 at tau*, at
    # most (sqrt 5 - 1) / 4 = 0.309 at tau = 4 + 4 sqrt 5
    omega, gamma12 = dipole_coupling(k0r), cross_decay(k0r)
    drive = (omega / tau) ** 0.5
    state = solve_steady_state(AtomPairConfig(drive=drive, k0r=k0r),
                               Couplings(omega, gamma12))
    conc = wootters_concurrence(state).concurrence
    assert state.singlet_weight() == pytest.approx(16.0 / (tau**2 + 64.0), abs=1e-4)
    assert conc == pytest.approx((8.0 * tau - 32.0) / (tau**2 + 64.0), abs=1e-4)
    expected = oracle_state(0.0, drive, omega, gamma12)
    assert abs(conc - wootters_concurrence(expected).concurrence) <= 1e-10


@pytest.mark.parametrize("k0r", [1e-8, 2e-8, 3e-8])
def test_geometry_never_selects_the_decoupled_singlet_branch(k0r):
    # cross_decay rounded to exactly 1 below k0r ~ 2e-8 before its cap, and
    # the solver took the triplet-sector branch there (C = 0.434, p_A = 0)
    cfg = AtomPairConfig(drive=(dipole_coupling(k0r) / TAU_STAR) ** 0.5, k0r=k0r)
    one = solve_steady_state(cfg, couplings_from_geometry(cfg))
    x = np.array([k0r])
    states, errors = solve_steady_states(0.0, cfg.drive, dipole_coupling(x), cross_decay(x))
    assert errors == [None]
    conc = wootters_concurrence(coupled(states[0])).concurrence
    for weight, c in ((one.singlet_weight(), wootters_concurrence(one).concurrence),
                      (states[0, 3, 3].real, conc)):
        assert weight == pytest.approx(16.0 / (TAU_STAR**2 + 64.0), abs=1e-4)
        assert c == pytest.approx((8.0 * TAU_STAR - 32.0) / (TAU_STAR**2 + 64.0), abs=1e-4)


def test_short_distance_steady_command_exits_0(capsys):
    rc = main(["steady", "--efield", "2", "--k0r", "0.01", "--format", "json"])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    pops = json.loads(captured.out)["populations"]
    assert pops[3] == pops[0] > 0.0


def test_singular_or_non_finite_generator_raises_a_typed_error(monkeypatch):
    # a non-finite block is rejected before the solve; numpy's error for a
    # singular one becomes the package's
    cfg = AtomPairConfig(drive=1.0, k0r=0.5)
    for generator, error, message in (
            (np.zeros((16, 16)), InvalidRegime,
             "9x9 steady-state system singular in double precision"),
            (np.full((16, 16), np.nan), OutOfRange, "non-finite generator")):
        monkeypatch.setattr(dynamics, "build_liouvillian", lambda cfg, c: dynamics.Liouvillian(
            generator.astype(complex), BasisTag.COMPUTATIONAL))
        with pytest.raises(error, match=f"^{message}$") as failure:
            solve_steady_state(cfg, couplings_from_geometry(cfg))
        assert type(failure.value) is error


def test_scalar_solve_fails_d_zero_with_the_batch_error(monkeypatch):
    # D = 0 (no drive, gamma12 = -1, delta = -omega): the steady state is
    # not unique, and the scalar solve raises the batch's typed error for
    # it before the system is assembled, instead of numpy's "Singular matrix"
    cfg = AtomPairConfig(delta=-2.0, drive=0.0, k0r=1.0)
    _, (batch_error,) = solve_steady_states(-2.0, 0.0, 2.0, -1.0)
    monkeypatch.setattr(dynamics, "build_liouvillian", None)
    with pytest.raises(InvalidRegime) as failure:
        solve_steady_state(cfg, Couplings(2.0, -1.0))
    assert type(batch_error) is InvalidRegime and str(failure.value) == str(batch_error)
    monkeypatch.undo()
    # at gamma12 > -1, drive 0 leaves the pair in its ground state |-1> = |gg>
    for c in (Couplings(2.0, -0.5), Couplings(1.0, 0.3)):
        state = solve_steady_state(cfg, c).matrix
        assert np.abs(state - np.diag([0, 0, 1, 0])).max() <= 1e-15


def test_a_solution_failing_the_density_checks_fails_its_point(monkeypatch):
    build = dynamics._closed_form_states

    def corrupted(*args):
        states = build(*args)
        states[1] = np.diag([0.6, 0, -0.2, 0.6])  # unit trace with p_A, not PSD
        return states

    monkeypatch.setattr(dynamics, "_closed_form_states", corrupted)
    states, errors = solve_steady_states(0.0, [1.0, 2.0, 3.0], 5.0, 0.3)
    assert errors[0] is None and errors[2] is None
    assert isinstance(errors[1], InvalidState) and "negative eigenvalue" in str(errors[1])
    assert np.isnan(states[1]).all() and not np.isnan(states[[0, 2]]).any()


# points of the documented domain: k0r > 0, E >= 0, finite delta, |mu.r| in [0, 1]
DOMAIN = dict(
    k0r=st.floats(-3.0, 1.5).map(lambda e: 10.0**e),
    drive=st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)),
    delta=st.floats(-10.0, 10.0),
    mu=st.floats(0.0, 1.0),
)


def solve_point(k0r, drive, delta, mu):
    cfg = AtomPairConfig(delta=delta, drive=drive, k0r=k0r, mu_dot_rhat=mu)
    c = couplings_from_geometry(cfg)
    return c, solve_steady_state(cfg, c)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(**DOMAIN)
def test_every_domain_point_gives_a_valid_state(k0r, drive, delta, mu):
    _, state = solve_point(k0r, drive, delta, mu)
    m = state.matrix
    assert np.abs(m - m.conj().T).max() <= 1e-10
    assert abs(np.trace(m).real - 1.0) <= 1e-10
    assert np.linalg.eigvalsh(m).min() >= tol.PSD_EVAL_FLOOR
    assert m[3, 3] == m[0, 0].real and not m[3, :3].any()
    assert 0.0 <= wootters_concurrence(state).concurrence <= 1.0


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(**DOMAIN)
def test_domain_points_agree_with_the_oracle(k0r, drive, delta, mu):
    c, state = solve_point(k0r, drive, delta, mu)
    expected = oracle_state(delta, drive, c.omega, c.gamma12)
    assert np.abs(computational(state.matrix) - expected).max() <= 1e-10
