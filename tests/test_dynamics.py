import math
import warnings

import numpy as np
import pytest

from dipolepair import (
    AtomPairConfig,
    BasisTag,
    Couplings,
    DensityMatrix,
    Liouvillian,
    analytic_steady_state,
    build_hamiltonian,
    build_liouvillian,
    cross_decay,
    dipole_coupling,
    lamb_dicke_limit_state,
    propagate,
    solve_steady_state,
    solve_steady_states,
    vec,
    wootters_concurrence,
)
from dipolepair.errors import InvalidState, OutOfRange
from dipolepair.model import SM1, SM2, SP1, SP2, TO_COUPLED
from svd_reference import (
    DegenerateKernel,
    kron_loop_liouvillian,
    restrict_triplet,
    steady_state_numeric,
    triplet_steady_state,
)

RNG = np.random.default_rng(23)

KET_A = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
GROUND = np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)


def unvec(v, n):
    """Inverse of vec() for an n x n matrix (column stacking)."""
    return np.asarray(v, dtype=complex).reshape((n, n), order="F")


def random_density(n=4):
    a = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def lindblad_rhs(h, gamma, gamma12, rho):
    """Direct matrix evaluation of the master equation right-hand side.

    Same amplitude-rate convention as the superoperator builder: each
    decay channel carries half its nominal constant.
    """
    out = -1j * (h @ rho - rho @ h)
    rates = 0.5 * np.array([[gamma, gamma12], [gamma12, gamma]])
    sms = (SM1, SM2)
    sps = (SP1, SP2)
    for i in range(2):
        for j in range(2):
            r = rates[i, j]
            out = out + 0.5 * r * (
                2.0 * sms[i] @ rho @ sps[j]
                - sps[i] @ sms[j] @ rho
                - rho @ sps[i] @ sms[j]
            )
    return out


# ------------------------------------------------------- superoperator


def test_liouvillian_matches_direct_evaluation():
    cfg = AtomPairConfig(delta=0.7, drive=1.1, k0r=1.5)
    c = Couplings(omega=0.9, gamma12=cross_decay(1.5))
    liouv = build_liouvillian(cfg, c)
    h = build_hamiltonian(cfg, c.omega)
    for _ in range(20):
        rho = random_density()
        direct = lindblad_rhs(h, 1.0, c.gamma12, rho)
        assert np.abs(unvec(liouv.matrix @ vec(rho), 4) - direct).max() < 1e-12


def test_liouvillian_is_bitwise_the_kron_loop_assembly():
    # 2000 points over many decades, every tenth on the gamma12 == 1 branch;
    # numpy-float couplings give the same generator and steady state. The
    # reference forms its Kronecker products with np.kron, so linalg.kron
    # must give its products bit for bit too
    rng = np.random.default_rng(41)
    for n in range(2000):
        delta, omega = rng.normal(size=2) * 10.0 ** rng.uniform(-3, 3, 2)
        drive = 10.0 ** rng.uniform(-3, 3)
        gamma12 = 1.0 if n % 10 == 0 else rng.uniform(-1.0, 1.0)
        cfg = AtomPairConfig(delta=delta, drive=drive)
        c = Couplings(omega=omega, gamma12=gamma12)
        got = build_liouvillian(cfg, c).matrix
        assert got.tobytes() == kron_loop_liouvillian(cfg, c).tobytes()
        if n % 100 == 0:
            c64 = Couplings(omega=np.float64(omega), gamma12=np.float64(gamma12))
            assert build_liouvillian(cfg, c64).matrix.tobytes() == got.tobytes()
            assert (solve_steady_state(cfg, c64).matrix.tobytes()
                    == solve_steady_state(cfg, c).matrix.tobytes())


def test_singlet_projector_is_stationary_at_full_cross_decay():
    cfg = AtomPairConfig(delta=0.3, drive=2.0)
    liouv = build_liouvillian(cfg, Couplings(omega=1.0, gamma12=1.0))
    proj = np.outer(KET_A, KET_A.conj())
    assert np.abs(liouv.matrix @ vec(proj)).max() < 1e-12


def test_liouvillian_preserves_trace():
    cfg = AtomPairConfig(delta=-0.4, drive=0.8, k0r=0.7)
    liouv = build_liouvillian(cfg, Couplings(omega=2.0, gamma12=cross_decay(0.7)))
    trace_row = vec(np.eye(4, dtype=complex))
    assert np.abs(trace_row @ liouv.matrix).max() < 1e-10
    for _ in range(5):
        rho = random_density()
        assert abs(np.trace(unvec(liouv.matrix @ vec(rho), 4))) < 1e-12


# ------------------------------------------------------- numeric steady state


def test_undriven_steady_state_is_ground_state():
    for omega in (0.5, 5.0):
        cfg = AtomPairConfig(delta=0.0, drive=0.0)
        state = steady_state_numeric(build_liouvillian(cfg, Couplings(omega, 0.4)))
        assert np.abs(state.matrix - GROUND).max() < 1e-10


def test_steady_state_degenerate_kernel_raises():
    cfg = AtomPairConfig(delta=0.0, drive=1.0)
    liouv = build_liouvillian(cfg, Couplings(omega=2.0, gamma12=1.0))
    with pytest.raises(DegenerateKernel):
        steady_state_numeric(liouv)


def test_steady_state_eigenvalues_physical():
    for _ in range(5):
        cfg = AtomPairConfig(
            delta=float(RNG.normal()), drive=float(RNG.uniform(0.1, 4.0))
        )
        c = Couplings(float(RNG.normal() * 3), float(RNG.uniform(-0.9, 0.9)))
        state = steady_state_numeric(build_liouvillian(cfg, c))
        ev = np.linalg.eigvalsh(state.matrix)
        assert ev.min() >= -1e-9 and ev.max() <= 1.0 + 1e-12
        assert abs(np.trace(state.matrix).real - 1.0) < 1e-10


def test_steady_state_singlet_weight_equals_top_population():
    # population balance: inflow (gamma - gamma12)/2 * rho_11 against the
    # same outflow factor forces equal weights whenever gamma12 != gamma
    cfg = AtomPairConfig(delta=0.0, drive=1.5)
    state = solve_steady_state(cfg, Couplings(omega=2.0, gamma12=0.6))
    pops = state.matrix.diagonal().real
    assert abs(pops[3] - pops[0]) < 1e-10


def test_singlet_weight_matches_the_rotated_state():
    rng = np.random.default_rng(5)

    def random_state(dim):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = a @ a.conj().T
        return m / np.trace(m).real

    for _ in range(200):
        comp = random_state(4)
        rotated = (TO_COUPLED @ comp @ TO_COUPLED.conj().T)[3, 3].real
        assert abs(DensityMatrix(comp, BasisTag.COMPUTATIONAL).singlet_weight()
                   - rotated) <= 1e-15
        coupled = random_state(4)
        assert DensityMatrix(coupled, BasisTag.COUPLED).singlet_weight() == coupled[3, 3].real
        triplet = np.zeros((4, 4), dtype=complex)
        triplet[:3, :3] = random_state(3)
        assert DensityMatrix(triplet, BasisTag.COUPLED).singlet_weight() == 0.0


# ------------------------------------------------------- triplet restriction


def test_restriction_consistent_with_full_solution_when_singlet_empty():
    # undriven: the full steady state has no singlet weight, so the
    # triplet kernel must reproduce its triplet block
    cfg = AtomPairConfig(delta=0.0, drive=0.0)
    liouv = build_liouvillian(cfg, Couplings(omega=1.0, gamma12=0.3))
    full = steady_state_numeric(liouv).to_basis(BasisTag.COUPLED)
    restricted = triplet_steady_state(liouv)
    assert np.abs(full.matrix - restricted.matrix).max() < 1e-9
    assert np.abs(restricted.matrix - np.diag([0.0, 0.0, 1.0, 0.0])).max() < 1e-10


def test_restriction_preserves_triplet_trace_at_full_cross_decay():
    cfg = AtomPairConfig(delta=0.2, drive=1.3)
    liouv = build_liouvillian(cfg, Couplings(omega=0.7, gamma12=1.0))
    l9 = restrict_triplet(liouv)
    trace_row = vec(np.eye(3, dtype=complex))
    assert np.abs(trace_row @ l9).max() < 1e-12


def test_triplet_steady_state_matches_analytic():
    for omega, drive in ((0.5, 0.3), (9.21, 1.0), (20.0, 10.0)):
        cfg = AtomPairConfig(delta=0.0, drive=drive)
        liouv = build_liouvillian(cfg, Couplings(omega, 1.0))
        numeric = triplet_steady_state(liouv)
        exact = analytic_steady_state(omega, drive)
        assert np.linalg.norm(numeric.matrix - exact.matrix) < 1e-9


# ------------------------------------------------------- analytic states


def test_analytic_state_weak_drive_limit():
    # off-diagonals vanish linearly in the drive
    state = analytic_steady_state(1.0, 1e-6)
    assert np.abs(state.matrix - np.diag([0.0, 0.0, 1.0, 0.0])).max() < 1e-5


def test_analytic_state_zero_drive_returns_ground_without_warning():
    # the paper's formula itself: every entry but [-1, -1] is 0 at drive 0, and
    # that one is (4 W^2 + 1) over itself, which the division rounds by an ulp
    ground = np.diag([0.0, 0.0, 1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for omega in (0.0, 1.0, -3.0, 1e150):
            state = analytic_steady_state(omega, 0.0)
            assert state.basis is BasisTag.COUPLED
            m = state.matrix
            assert not m.imag.any() and np.array_equal(m.real != 0.0, ground != 0.0)
            if omega in (0.0, 1.0):
                assert np.array_equal(m, ground)
            assert m[2, 2].real in (np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)), omega


def test_analytic_state_rejects_inputs_outside_the_steady_state_domain():
    # the error and message of AtomPairConfig and solve_steady_states
    with pytest.raises(OutOfRange) as failure:
        analytic_steady_state(1.0, -1.0)
    with pytest.raises(OutOfRange) as config_error:
        AtomPairConfig(drive=-1.0)
    _, (batch_error,) = solve_steady_states(0.0, -1.0, 1.0, 1.0)
    assert type(batch_error) is OutOfRange
    assert (str(failure.value) == str(config_error.value) == str(batch_error)
            == "drive must be >= 0")
    for omega, drive in ((math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(OutOfRange, match="^inputs must be finite$"):
            analytic_steady_state(omega, drive)


def test_analytic_state_in_triplet_kernel():
    for _ in range(10):
        omega = float(RNG.uniform(0.1, 20.0))
        drive = float(RNG.uniform(0.1, 10.0))
        cfg = AtomPairConfig(delta=0.0, drive=drive)
        l9 = restrict_triplet(build_liouvillian(cfg, Couplings(omega, 1.0)))
        resid = np.abs(l9 @ vec(analytic_steady_state(omega, drive).matrix[:3, :3])).max()
        assert resid < 1e-9


def test_analytic_state_approaches_strong_drive_form():
    # measured distances: 1.63e-3 at E = 100, falling off as 1/E
    tau = 9.21
    d100 = np.linalg.norm(
        analytic_steady_state(tau * 100.0**2, 100.0).matrix
        - lamb_dicke_limit_state(tau).matrix
    )
    d1000 = np.linalg.norm(
        analytic_steady_state(tau * 1000.0**2, 1000.0).matrix
        - lamb_dicke_limit_state(tau).matrix
    )
    assert d100 < 2e-3
    assert d1000 < 2e-4
    assert d1000 < 0.15 * d100


def test_closed_forms_are_coupled_states_with_an_empty_singlet():
    tau = 9.21
    limit = np.array([[16.0, 0.0, 4j * tau], [0.0, 16.0, 0.0], [-4j * tau, 0.0, 16.0 + tau**2]])
    ground = analytic_steady_state(1.0, 0.0)
    for state in (analytic_steady_state(2.0, 1.0), lamb_dicke_limit_state(tau), ground):
        assert state.basis is BasisTag.COUPLED and state.matrix.shape == (4, 4)
        assert not state.matrix[3].any() and not state.matrix[:, 3].any()
        assert state.singlet_weight() == 0.0
    assert np.array_equal(lamb_dicke_limit_state(tau).matrix[:3, :3], limit / (tau**2 + 48.0))


def test_limit_state_trace_exact():
    for tau in (0.5, 2.0, 9.21, 100.0):
        m = lamb_dicke_limit_state(tau).matrix
        assert abs(np.trace(m).real - 1.0) < 1e-15


def test_limit_state_strong_tau_is_ground():
    m = lamb_dicke_limit_state(1e8).matrix
    assert np.abs(m - np.diag([0.0, 0.0, 1.0, 0.0])).max() < 1e-7


def test_limit_state_peak_concurrence():
    tau = 2.0 + 2.0 * math.sqrt(13.0)
    c = wootters_concurrence(lamb_dicke_limit_state(tau)).concurrence
    assert abs(c - 2.0 / (math.sqrt(13.0) + 1.0)) < 1e-12


# ------------------------------------------------------- detuning influence


def test_detuning_is_weak_near_resonance():
    # |delta| <= 0.25 moves the concurrence by well under 0.05 at the
    # operating point omega = 9.21 E^2, E = 5 (larger detunings do not
    # qualify: delta = 1 moves it by 0.24)
    drive = 5.0
    omega = 9.21 * drive**2
    reference = None
    for delta in (0.0, 0.1, -0.1, 0.25, -0.25):
        cfg = AtomPairConfig(delta=delta, drive=drive)
        state = triplet_steady_state(build_liouvillian(cfg, Couplings(omega, 1.0)))
        c = wootters_concurrence(state).concurrence
        if reference is None:
            reference = c
        assert abs(c - reference) < 0.05


# ------------------------------------------------------- propagation


def test_propagate_zero_generator_is_constant():
    liouv = Liouvillian(np.zeros((16, 16), dtype=complex), BasisTag.COMPUTATIONAL)
    rho0 = DensityMatrix(GROUND, BasisTag.COMPUTATIONAL)
    times, states = propagate(liouv, rho0, 1.0, 0.1)
    assert len(states) == len(times)
    for st in states:
        assert np.abs(st.matrix - GROUND).max() < 1e-15


def test_propagate_undriven_decay_reaches_ground():
    cfg = AtomPairConfig(delta=0.0, drive=0.0, k0r=3.0)
    c = Couplings(dipole_coupling(3.0), cross_decay(3.0))
    liouv = build_liouvillian(cfg, c)
    rho0 = DensityMatrix(np.diag([1.0, 0, 0, 0]).astype(complex),
                         BasisTag.COMPUTATIONAL)
    _, states = propagate(liouv, rho0, 50.0, 0.01)
    excited = [s.matrix[0, 0].real for s in states]
    assert excited[0] == 1.0 and excited[-1] < excited[len(excited) // 10]
    assert np.abs(states[-1].matrix - GROUND).max() < 1e-4


def test_propagate_long_time_matches_steady_state():
    cfg = AtomPairConfig(delta=0.3, drive=1.0, k0r=2.0)
    c = Couplings(dipole_coupling(2.0), cross_decay(2.0))
    liouv = build_liouvillian(cfg, c)
    target = steady_state_numeric(liouv)
    rho0 = DensityMatrix(GROUND, BasisTag.COMPUTATIONAL)
    _, states = propagate(liouv, rho0, 200.0, 0.01)
    assert np.linalg.norm(states[-1].matrix - target.matrix) < 1e-5


def test_propagate_conserves_singlet_weight_at_full_cross_decay():
    cfg = AtomPairConfig(delta=0.2, drive=1.0)
    liouv = build_liouvillian(cfg, Couplings(omega=2.0, gamma12=1.0))
    proj = np.outer(KET_A, KET_A.conj())
    rho0 = DensityMatrix(0.4 * proj + 0.6 * GROUND, BasisTag.COMPUTATIONAL)
    _, states = propagate(liouv, rho0, 50.0, 0.01)
    weights = np.array([s.singlet_weight() for s in states])
    assert np.abs(weights - weights[0]).max() < 1e-8


def test_propagate_oversized_step_is_exact():
    expm = pytest.importorskip("scipy.linalg").expm
    cfg = AtomPairConfig(delta=0.0, drive=5.0)
    liouv = build_liouvillian(cfg, Couplings(omega=50.0, gamma12=1.0))
    rho0 = DensityMatrix(GROUND, BasisTag.COMPUTATIONAL)
    times, states = propagate(liouv, rho0, 10.0, 0.5)
    assert len(states) == len(times) == 21
    for t, st in zip(times, states):
        exact = unvec(expm(liouv.matrix * t) @ vec(GROUND), 4)
        assert np.abs(st.matrix - exact).max() < 1e-10


def test_propagate_rejects_cross_basis():
    cfg = AtomPairConfig(delta=0.0, drive=1.0)
    liouv = build_liouvillian(cfg, Couplings(omega=1.0, gamma12=0.5))
    rho0 = lamb_dicke_limit_state(5.0).to_basis(BasisTag.COUPLED)
    with pytest.raises(InvalidState):
        propagate(liouv, rho0, 1.0, 0.01)


# ------------------------------------------------------- density matrices


def test_density_matrix_validation():
    with pytest.raises(InvalidState):
        DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]), BasisTag.COMPUTATIONAL)
    bad_trace = np.eye(4, dtype=complex)
    with pytest.raises(InvalidState):
        DensityMatrix(bad_trace, BasisTag.COMPUTATIONAL)
    not_herm = GROUND.copy()
    not_herm[0, 1] = 1e-3
    with pytest.raises(InvalidState):
        DensityMatrix(not_herm, BasisTag.COMPUTATIONAL)
    indefinite = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(InvalidState):
        DensityMatrix(indefinite, BasisTag.COMPUTATIONAL)


def test_density_matrix_basis_round_trip():
    state = analytic_steady_state(2.0, 1.0)
    coupled = state.to_basis(BasisTag.COUPLED)
    comp = state.to_basis(BasisTag.COMPUTATIONAL)
    back = comp.to_basis(BasisTag.COUPLED)
    assert np.abs(coupled.matrix - back.matrix).max() < 1e-12
    assert coupled.matrix[3, 3] == 0.0
    assert state.singlet_weight() == 0.0


def test_solve_steady_state_falls_back_near_degenerate_geometry():
    # at k0r = 1e-3 the 16x16 kernel is degenerate in double precision
    # (1 - gamma12 ~ 2e-7 against |omega| ~ 7e8); the block solve needs no
    # fallback and keeps the physical singlet weight p_A = rho_{+1,+1}
    from mp_oracle import steady_state as oracle_state

    x = 1e-3
    cfg = AtomPairConfig(delta=0.0, drive=5.0, k0r=x)
    c = Couplings(dipole_coupling(x), cross_decay(x))
    state = solve_steady_state(cfg, c)
    assert state.singlet_weight() == state.matrix[0, 0].real > 0.0
    expected = oracle_state(0.0, 5.0, c.omega, c.gamma12)
    got = state.to_basis(BasisTag.COMPUTATIONAL).matrix
    assert np.abs(got - expected).max() <= 1e-10


def test_warning_filter_hygiene():
    # plain calls should not emit warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        analytic_steady_state(1.0, 0.5)
        lamb_dicke_limit_state(3.0)
