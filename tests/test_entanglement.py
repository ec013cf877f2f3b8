import math

import numpy as np
import pytest

from dipolepair import (
    AtomPairConfig,
    BasisTag,
    DensityMatrix,
    admixture_concurrence,
    binary_entropy,
    closed_form_concurrence,
    couplings_from_geometry,
    eof_from_concurrence,
    lamb_dicke_limit_state,
    pure_concurrence,
    singlet_projector,
    solve_steady_state,
    spin_flip_spectrum,
    steady_state_concurrences,
    wootters_concurrence,
)
from dipolepair import dynamics, entanglement
from dipolepair.checks import admixture_rise_count
from dipolepair.entanglement import C_PEAK, TAU_PEAK
from dipolepair.errors import InvalidState, OutOfRange
from dipolepair.model import SIGMA_Y, TO_COUPLED

RNG = np.random.default_rng(99)


def random_pure():
    psi = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    return psi / np.linalg.norm(psi)


def random_unitary(n=2):
    a = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ------------------------------------------------------- spin flip


def random_state(dim, rank):
    """A random dim x dim density matrix of the given rank, with unequal weights."""
    psi = RNG.normal(size=(dim, rank)) + 1j * RNG.normal(size=(dim, rank))
    psi *= RNG.uniform(0.01, 1.0, size=rank) ** 2
    m = psi @ psi.conj().T
    return m / np.trace(m).real


def spin_flip(rho):
    """(Y x Y) rho* (Y x Y) in the computational basis, formed in the basis
    the state carries, as spin_flip_spectrum forms it."""
    if not isinstance(rho, DensityMatrix):
        return entanglement._YY @ np.conj(rho) @ entanglement._YY
    if rho.basis is BasisTag.COMPUTATIONAL:
        return spin_flip(rho.matrix)
    yy = entanglement._YY_COUPLED
    # back from the coupled basis; TO_COUPLED is real, so rho* rotates as rho
    return TO_COUPLED.T @ (yy @ rho.matrix.conj() @ yy) @ TO_COUPLED


def coupled_random(dim, rank):
    """random_state(dim, rank) on the first dim coupled states, as a coupled 4x4 matrix
    (dim = 3: a triplet-sector state)."""
    m = np.zeros((4, 4), dtype=complex)
    m[:dim, :dim] = random_state(dim, rank)
    return m


def test_coupled_yy_is_the_rotated_yy():
    # exact in integers with the unnormalised coupled basis |eg> +- |ge>,
    # whose rows have squared norms (1, 2, 1, 2)
    yy = np.kron(SIGMA_Y, SIGMA_Y).real
    basis = np.array([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1], [0, 1, -1, 0]])
    norms = np.array([1, 2, 1, 2])
    assert np.array_equal((basis @ yy @ basis.T) / np.sqrt(np.outer(norms, norms)),
                          entanglement._YY_COUPLED.real)
    assert not entanglement._YY_COUPLED.imag.any()
    # in floating point (1/sqrt 2)^2 rounds up: one ulp at (|0>, |0>)
    rotated = TO_COUPLED @ entanglement._YY @ TO_COUPLED.T
    assert np.abs(rotated - entanglement._YY_COUPLED).max() <= np.finfo(float).eps


def test_spin_flip_spectrum_is_the_same_in_every_basis():
    # full-rank and rank-deficient states; the 4x4 ones carry
    # triplet-singlet coherences, the 3x3 ones have an empty singlet
    worst = 0.0
    for trial in range(1200):
        dim = 3 if trial % 4 == 0 else 4
        state = DensityMatrix(coupled_random(dim, 1 + trial % dim), BasisTag.COUPLED)
        comp = state.to_basis(BasisTag.COMPUTATIONAL)
        lam = spin_flip_spectrum(state)
        for form in (comp, comp.matrix):
            worst = max(worst, np.abs(spin_flip_spectrum(form) - lam).max())
    assert worst <= 1e-13


def test_spin_flip_is_computational_in_every_basis():
    for dim in (3, 4):
        state = DensityMatrix(coupled_random(dim, dim), BasisTag.COUPLED)
        comp = state.to_basis(BasisTag.COMPUTATIONAL).matrix
        expected = spin_flip(comp)
        assert np.abs(spin_flip(state) - expected).max() <= 1e-15
    # a raw array is a computational 4x4 state, nothing else
    with pytest.raises(InvalidState, match="^expected 4x4, got \\(3, 3\\)$"):
        spin_flip_spectrum(random_state(3, 3))


def test_a_scalar_point_is_checked_once_and_never_rotated(monkeypatch):
    counts = {"checks": 0, "rotations": 0}
    density_codes = dynamics._density_codes
    to_basis = DensityMatrix.to_basis

    def counted_checks(*args, **kwargs):
        counts["checks"] += 1
        return density_codes(*args, **kwargs)

    def counted_rotation(*args, **kwargs):
        counts["rotations"] += 1
        return to_basis(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_density_codes", counted_checks)
    monkeypatch.setattr(DensityMatrix, "to_basis", counted_rotation)
    cfg = AtomPairConfig(delta=-0.2, drive=1.3, k0r=0.7, mu_dot_rhat=0.4)
    c = couplings_from_geometry(cfg)
    report = wootters_concurrence(solve_steady_state(cfg, c))
    assert counts == {"checks": 1, "rotations": 0}
    law = steady_state_concurrences(cfg.delta, cfg.drive, c.omega, c.gamma12)
    assert report.concurrence == pytest.approx(law[0], abs=1e-14)


def test_spin_flip_fixes_singlet():
    proj = singlet_projector()
    assert np.abs(spin_flip(proj) - proj).max() < 1e-15


def test_spin_flip_swaps_ground_and_excited():
    gg = np.diag([0.0, 0, 0, 1]).astype(complex)
    ee = np.diag([1.0, 0, 0, 0]).astype(complex)
    assert np.abs(spin_flip(gg) - ee).max() < 1e-15


def test_spin_flip_preserves_triplet_support():
    rho4 = lamb_dicke_limit_state(7.0).to_basis(BasisTag.COMPUTATIONAL)
    flipped = spin_flip(rho4)
    ket_a = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
    assert np.abs(flipped @ ket_a).max() < 1e-14
    assert np.abs(ket_a.conj() @ flipped).max() < 1e-14


# ------------------------------------------------------- Wootters concurrence


def test_wootters_matches_pure_concurrence():
    for _ in range(100):
        psi = random_pure()
        report = wootters_concurrence(np.outer(psi, psi.conj()))
        assert abs(report.concurrence - pure_concurrence(psi)) < 1e-9
    with pytest.raises(ValueError, match="^expected a 4-component state vector$"):
        pure_concurrence(np.array([1.0, 0.0, 0.0]))


def test_wootters_separable_mixture():
    rho = 0.5 * np.diag([1.0, 0, 0, 1]).astype(complex)
    assert wootters_concurrence(rho).concurrence == 0.0


def test_wootters_peak_state():
    report = wootters_concurrence(lamb_dicke_limit_state(TAU_PEAK))
    assert abs(report.concurrence - C_PEAK) < 1e-9
    assert abs(report.eof - 0.2847203258589625) < 1e-12  # frozen
    assert abs(report.eof - 0.285) < 1e-3


def test_wootters_threshold_state_unentangled():
    assert wootters_concurrence(lamb_dicke_limit_state(2.0)).concurrence < 1e-12


def test_wootters_report_invariants():
    for tau in (3.0, 9.21, 30.0):
        rep = wootters_concurrence(lamb_dicke_limit_state(tau))
        lam = rep.lambdas
        assert np.all(np.diff(lam) <= 0) and lam.min() >= 0.0
        recomputed = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
        assert abs(rep.concurrence - recomputed) < 1e-12
        assert abs(rep.eof - eof_from_concurrence(rep.concurrence)) < 1e-15


def test_wootters_triplet_support_has_zero_fourth_lambda():
    for tau in (2.5, 9.21, 40.0):
        lam = spin_flip_spectrum(lamb_dicke_limit_state(tau))
        assert lam[3] < 1e-10


def test_wootters_local_unitary_invariance():
    rho = lamb_dicke_limit_state(9.21).to_basis(BasisTag.COMPUTATIONAL).matrix
    base = wootters_concurrence(rho).concurrence
    for _ in range(10):
        u = np.kron(random_unitary(), random_unitary())
        rotated = u @ rho @ u.conj().T
        assert abs(wootters_concurrence(rotated).concurrence - base) < 1e-9


def test_wootters_rejects_invalid_state():
    with pytest.raises(InvalidState):
        wootters_concurrence(np.eye(4, dtype=complex))  # trace 4


# ------------------------------------------------------- closed form


def test_closed_form_threshold_and_peak():
    assert closed_form_concurrence(2.0) == 0.0
    assert closed_form_concurrence(1.0) == 0.0
    assert abs(closed_form_concurrence(TAU_PEAK) - C_PEAK) < 1e-15


def test_closed_form_reference_value():
    assert abs(closed_form_concurrence(100.0) - 784.0 / 10048.0) < 1e-15


def test_closed_form_decays_at_large_tau():
    assert closed_form_concurrence(1e6) < 1e-5


@pytest.mark.filterwarnings("error")
def test_closed_form_is_within_two_ulp_of_60_digits_for_every_finite_tau():
    mp = pytest.importorskip("mpmath").mp
    rng = np.random.default_rng(5)
    taus = [2.0 * (1.0 + 2.0**-k) for k in range(1, 53)]  # next to the threshold
    taus += list(np.exp(rng.uniform(math.log(2.0), math.log(1.7e308), 2000)))
    taus += [9.21, 1e154, 1e200, 1.7e308]  # tau^2 overflows from about 1.3e154
    with mp.workdps(60):
        for tau in map(float, taus):
            exact = (8 * mp.mpf(tau) - 16) / (mp.mpf(tau) ** 2 + 48)
            for arg in (tau, np.float64(tau)):
                got = closed_form_concurrence(arg)
                assert abs(mp.mpf(float(got)) - exact) <= 2 * math.ulp(float(exact)), tau


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf,
                                 np.float64("nan"), np.float64("inf")])
def test_closed_form_rejects_a_non_finite_tau(tau):
    with pytest.raises(OutOfRange, match="tau must be finite"):
        closed_form_concurrence(tau)


def test_closed_form_matches_wootters_on_limit_states():
    for tau in (2.0, 3.0, 5.0, 9.21, 20.0, 50.0):
        got = wootters_concurrence(lamb_dicke_limit_state(tau)).concurrence
        assert abs(got - closed_form_concurrence(tau)) < 1e-9


# ------------------------------------------------------- formation entropy


def test_eof_endpoints():
    assert eof_from_concurrence(0.0) == 0.0
    assert eof_from_concurrence(1.0) == 1.0


def test_eof_reference_value():
    got = eof_from_concurrence(0.4343)
    assert abs(got - 0.2847628932291394) < 1e-12  # frozen
    assert abs(got - 0.2846) < 1e-3


def test_eof_argument_convention_is_symmetric():
    # h((1 - s)/2) == h((1 + s)/2), so either printed convention matches
    for c in (0.1, 0.4343, 0.9):
        s = math.sqrt(1.0 - c * c)
        assert abs(binary_entropy((1 - s) / 2) - binary_entropy((1 + s) / 2)) < 1e-15


def test_eof_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        eof_from_concurrence(1.5)
    with pytest.raises(OutOfRange):
        eof_from_concurrence(-0.2)
    # a numpy scalar is quoted as a float, without numpy's repr
    with pytest.raises(OutOfRange, match=r"^concurrence 1\.5 outside \[0, 1\]$"):
        eof_from_concurrence(np.float64(1.5))


# ------------------------------------------------------- singlet admixture


def test_admixture_endpoints():
    rho_s = lamb_dicke_limit_state(TAU_PEAK)
    assert abs(
        admixture_concurrence(0.0, rho_s)
        - wootters_concurrence(rho_s).concurrence
    ) < 1e-12
    assert abs(admixture_concurrence(1.0, rho_s) - 1.0) < 1e-12


def test_admixture_matches_direct_wootters():
    rho_s = lamb_dicke_limit_state(TAU_PEAK)
    rho4 = rho_s.to_basis(BasisTag.COMPUTATIONAL).matrix
    proj = singlet_projector()
    for p in (0.0, 0.05, 0.2, 0.35, 0.5, 0.8, 1.0):
        direct = wootters_concurrence(p * proj + (1 - p) * rho4).concurrence
        assert abs(direct - admixture_concurrence(p, rho_s)) < 1e-9


def test_admixture_decreases_concurrence_below_threshold():
    # the mixing weight always lowers the concurrence while
    # p < lam1/(1 + lam1); strict decrease holds wherever it is positive
    # and the unclamped difference decreases strictly on the whole window
    rho_s = lamb_dicke_limit_state(TAU_PEAK)
    assert admixture_rise_count(rho_s, points=40) == 0


def test_admixture_rejects_bad_weight():
    with pytest.raises(OutOfRange):
        admixture_concurrence(1.2, lamb_dicke_limit_state(5.0))
    with pytest.raises(OutOfRange, match=r"^weight p = 1\.2 outside \[0, 1\]$"):
        admixture_concurrence(np.float64(1.2), lamb_dicke_limit_state(5.0))


def test_admixture_requires_triplet_basis():
    # triplet-sector means singlet weight exactly 0, whatever the tag
    state = lamb_dicke_limit_state(5.0)
    assert state.basis is BasisTag.COUPLED
    admixture_concurrence(0.1, state)
    mixed = DensityMatrix(0.9 * state.matrix + 0.1 * np.diag([0.0, 0.0, 0.0, 1.0]),
                          BasisTag.COUPLED)
    with pytest.raises(InvalidState, match="triplet-sector"):
        admixture_concurrence(0.1, mixed)
    with pytest.raises(InvalidState, match="triplet-sector"):
        admixture_concurrence(0.1, mixed.to_basis(BasisTag.COMPUTATIONAL))
    cfg = AtomPairConfig(delta=0.0, drive=2.0, k0r=0.5)
    with pytest.raises(InvalidState, match="triplet-sector"):  # p_A = rho_{+1,+1} > 0
        admixture_concurrence(0.1, solve_steady_state(cfg, couplings_from_geometry(cfg)))
