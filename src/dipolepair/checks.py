"""The numeric acceptance criteria, each defined once.

Each criterion returns its check lines (computed, expected, tolerance).
``dipolepair check`` prints the lines of every criterion in CRITERIA and
``tests/test_acceptance.py`` runs each one under its time gate. Steady
states come from the batch engine that users run. Criterion 8, the
distance trend at fixed drive, is a test only.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .dynamics import (
    DensityMatrix,
    analytic_steady_state,
    build_liouvillian,
    lamb_dicke_limit_state,
    propagate,
    solve_steady_states,
    vec,
)
from .entanglement import (
    C_PEAK,
    TAU_PEAK,
    admixture_concurrence,
    argmax_concurrence,
    closed_form_concurrence,
    eof_from_concurrence,
    pure_concurrence,
    singlet_projector,
    spin_flip_spectrum,
    steady_state_concurrences,
    steady_state_entanglement,
    wootters_concurrence,
)
from .linalg import BasisTag, hermitian_eig
from .model import (
    SINGLET_KET,
    AtomPairConfig,
    Couplings,
    cross_decay,
    dipole_coupling,
    triplet_block,
)

_GROUND = np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)  # |gg>, computational basis


class Line(NamedTuple):
    """One check: it passes when |computed - expected| <= tol (NaN fails)."""

    name: str
    computed: float
    expected: float
    tol: float

    @property
    def ok(self) -> bool:
        return abs(self.computed - self.expected) <= self.tol

    def __str__(self) -> str:
        return (f"{self.name}: computed {self.computed:.4g} "
                f"expected {self.expected:.4g} tol {self.tol:.0e} "
                f"{'PASS' if self.ok else 'FAIL'}")


def _worst(errors) -> float:
    """Largest of the errors; NaN when any is NaN, so that its line fails."""
    return float(np.abs(np.concatenate([np.ravel(e) for e in errors])).max())


def exact_steady_state() -> list[Line]:
    """1. The batch engine gives the paper's closed form, which the 16x16
    generator annihilates, on a 20x20 (omega, drive) grid at gamma12 = 1,
    delta = 0."""
    omega, drive = (g.ravel() for g in np.meshgrid(
        np.linspace(0.1, 20.0, 20), np.linspace(0.1, 10.0, 20), indexing="ij"))
    solved, _ = solve_steady_states(0.0, drive, omega, 1.0)
    residual, match = [], []
    for w, e, state in zip(map(float, omega), map(float, drive), solved):
        exact = analytic_steady_state(w, e)
        liouv = build_liouvillian(AtomPairConfig(delta=0.0, drive=e), Couplings(w, 1.0))
        residual.append(liouv.matrix @ vec(exact.to_basis(liouv.basis).matrix))
        match.append(np.linalg.norm(state - exact.matrix))
    return [Line("kernel_residual_max", _worst(residual), 0.0, 1e-9),
            Line("steady_numeric_match", _worst(match), 0.0, 1e-9)]


def concurrence_law() -> list[Line]:
    """2. Wootters on the strong-drive state follows C(tau), zero for tau <= 2.
    The steady-state law equals Wootters on the batch states on a grid
    through the detuned resonance delta = -omega, both branches, and tends
    to C(tau) on the decoupled-singlet branch and to (8 tau - 32) /
    (tau^2 + 64) off it as the drive grows at omega = tau E^2."""
    err = _worst(wootters_concurrence(lamb_dicke_limit_state(t)).concurrence
                 - closed_form_concurrence(t) for t in (2.0, 3.0, 5.0, 9.21, 20.0, 50.0))
    below = wootters_concurrence(lamb_dicke_limit_state(1.4)).concurrence
    k0r, drive, detuning = (g.ravel() for g in np.meshgrid(
        [0.1, 0.3, 0.6, 1.0], [0.1, 0.76, 2.54, 13.65], [0.0, 0.5, -0.98, -1.0],
        indexing="ij"))
    omega = dipole_coupling(k0r)
    delta = np.where(detuning < 0, detuning * omega, detuning)  # -0.98, -1: resonance
    gamma12 = np.where(np.arange(len(k0r)) % 5 == 0, 1.0, cross_decay(k0r))
    states, _ = solve_steady_states(delta, drive, omega, gamma12)
    numeric = [wootters_concurrence(DensityMatrix(m, BasisTag.COUPLED)).concurrence
               for m in states]
    law = steady_state_concurrences(delta, drive, omega, gamma12)
    tau = np.array([3.0, 9.21, TAU_PEAK, 20.0])
    strong = 1e8  # the drive; corrections fall as 1 / strong^2
    branch = steady_state_concurrences(0.0, strong, tau * strong**2, 1.0)
    coupled = steady_state_concurrences(0.0, strong, tau * strong**2, cross_decay(0.01))
    short_distance = np.maximum(0.0, (8.0 * tau - 32.0) / (tau**2 + 64.0))
    # Wootters takes the states in their coupled basis, where p_A stays
    # apart from the triplet block in the square root; a rotation to the
    # computational basis mixes p_A into |eg>, |ge> and costs ~2e-10 here
    return [Line("concurrence_law_max_err", err, 0.0, 1e-9),
            Line("concurrence_below_threshold", below, 0.0, 0.0),
            Line("law_at_threshold", closed_form_concurrence(2.0), 0.0, 0.0),
            Line("steady_law_vs_wootters", _worst(law - numeric), 0.0, 1e-12),
            Line("steady_law_strong_drive_branch",
                 _worst(branch - [closed_form_concurrence(t) for t in tau]), 0.0, 1e-12),
            Line("steady_law_strong_drive_coupled", _worst(coupled - short_distance),
                 0.0, 1e-12)]


def peak_numbers() -> list[Line]:
    """3. The maximum of C(tau): tau* = 9.21, C_max = 0.434, EoF 0.285 ebit."""
    tau_star, c_star = argmax_concurrence(2.0, 50.0, tol=1e-8)
    return [Line("tau_at_max", tau_star, TAU_PEAK, 1e-6),
            Line("C_max", c_star, C_PEAK, 1e-6),
            Line("E_max", eof_from_concurrence(c_star), 0.2846, 1e-3)]


def strong_drive_convergence() -> list[Line]:
    """4. At drive 100 and gamma12 = gamma the steady state approaches C(tau)."""
    tau = np.array([5.0, 9.21, 20.0])
    _, conc, _, _ = steady_state_entanglement(0.0, 100.0, tau * 100.0**2, 1.0)
    err = _worst(conc - [closed_form_concurrence(t) for t in tau])
    return [Line("strong_drive_convergence", err, 0.0, 1e-3)]


def undriven_limit() -> list[Line]:
    """5. Without drive every distance relaxes to the unentangled |gg>."""
    omega, k0r = np.repeat([0.1, 1.0, 10.0], 3), np.tile([0.1, 1.0, 3.0], 3)
    states, conc, _, _ = steady_state_entanglement(0.0, 0.0, omega, cross_decay(k0r))
    # |gg> is |-1> of the coupled basis, in which the engine returns its states
    return [Line("undriven_limit_state_err", _worst(states - np.diag([0.0, 0.0, 1.0, 0.0])),
                 0.0, 1e-8),
            Line("undriven_concurrence_max", _worst(conc), 0.0, 0.0)]


def singlet_conservation() -> list[Line]:
    """6. At gamma12 = 1 propagation keeps the singlet weight of four states."""
    proj = singlet_projector()
    ket_zero = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
    ket_mix = (SINGLET_KET + ket_zero) / math.sqrt(2)
    initials = (0.4 * proj + 0.6 * _GROUND,
                0.5 * proj + 0.5 * _GROUND,
                0.3 * proj + 0.7 * np.outer(ket_zero, ket_zero.conj()),
                np.outer(ket_mix, ket_mix.conj()))
    liouv = build_liouvillian(AtomPairConfig(delta=0.2, drive=1.0), Couplings(2.0, 1.0))
    drift = []
    for rho0 in initials:
        rho0 = DensityMatrix(rho0, BasisTag.COMPUTATIONAL)
        _, states = propagate(liouv, rho0, 50.0, 0.01)
        weights = np.array([s.singlet_weight() for s in states])
        drift.append(weights - weights[0])
    return [Line("singlet_conservation_drift", _worst(drift), 0.0, 1e-8)]


def triplet_spectrum() -> list[Line]:
    """7. The triplet block's eigenvalues, descending, are the roots of the
    paper's cubic eps^3 - omega eps^2 - (delta^2 + 4 E^2) eps + delta^2 omega:
    they obey Vieta (3 fixed, 50 random points) and equal the explicit
    roots without drive, (delta, omega, -delta), and at delta = 0,
    omega/2 +- sqrt(omega^2 + 16 E^2)/2 and 0."""
    rng = np.random.default_rng(17)
    points = [(0.5, 1.3, 0.8), (-1.0, 2.0, 0.1), (0.0, 5.0, 2.0)] + [
        (float(rng.normal() * 2), float(rng.normal() * 3), float(rng.uniform(0, 5)))
        for _ in range(50)]
    vieta = []
    for delta, omega, drive in points:
        r, _ = hermitian_eig(triplet_block(delta, omega, drive))
        vieta += [r.sum() - omega,
                  r[0] * r[1] + r[0] * r[2] + r[1] * r[2] + delta**2 + 4 * drive**2,
                  r.prod() + delta**2 * omega]
    explicit = {(delta, omega, 0.0): sorted((delta, omega, -delta), reverse=True)
                for delta, omega in ((0.5, 2.0), (1.5, -0.7), (2.0, 0.0))}
    for omega, drive in ((1.0, 0.5), (-2.0, 3.0)):
        gap = math.sqrt(omega**2 + 16 * drive**2)  # >= |omega|: descending
        explicit[0.0, omega, drive] = [omega / 2 + gap / 2, 0.0, omega / 2 - gap / 2]
    match = [hermitian_eig(triplet_block(*p))[0] - roots for p, roots in explicit.items()]
    return [Line("triplet_roots_vieta", _worst(vieta), 0.0, 1e-9),
            Line("triplet_roots_closed_form", _worst(match), 0.0, 1e-10)]


def admixture_rise_count(rho_s: DensityMatrix, points: int = 30) -> int:
    """Failures of C(p|A><A| + (1-p) rho_s) to fall on a grid of (0, p*):
    strictly where C > 0 (it is clamped to 0 near p*), and unclamped."""
    lam = spin_flip_spectrum(rho_s)
    p_star = lam[0] / (1.0 + lam[0])
    grid = np.linspace(1e-4, p_star - 1e-4, points)
    values = np.array([admixture_concurrence(float(p), rho_s) for p in grid])
    raw = (1 - grid) * (lam[0] - lam[1] - lam[2]) - grid
    return int(np.sum(~(values < admixture_concurrence(0.0, rho_s)))
               + np.sum(~(np.diff(values) <= 1e-12))
               + np.sum(~(np.diff(values[values > 0]) < 0))
               + np.sum(~(np.diff(raw) < 0)))


def admixture_rule() -> list[Line]:
    """9. The admixture rule equals Wootters, and C falls with p below p*,
    at tau = 9.21 and TAU_PEAK."""
    proj = singlet_projector()
    err, rises = [], 0
    for tau in (9.21, TAU_PEAK):
        rho_s = lamb_dicke_limit_state(tau)
        rho4 = rho_s.to_basis(BasisTag.COMPUTATIONAL).matrix
        err += [wootters_concurrence(p * proj + (1.0 - p) * rho4).concurrence
                - admixture_concurrence(p, rho_s) for p in (0.0, 0.05, 0.2, 0.8)]
        rises += admixture_rise_count(rho_s)
    return [Line("admixture_rule_max_err", _worst(err), 0.0, 1e-9),
            Line("admixture_decrease_violations", float(rises), 0.0, 0.0)]


def pure_state_oracle() -> list[Line]:
    """10. Wootters equals the pure-state concurrence on 200 random states."""
    err = []
    for seed in (7, 123):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            err.append(wootters_concurrence(np.outer(psi, psi.conj())).concurrence
                       - pure_concurrence(psi))
    return [Line("pure_vs_mixed_oracle", _worst(err), 0.0, 1e-9)]


class Criterion(NamedTuple):
    title: str
    run: Callable[[], list[Line]]
    gate_s: float  # wall-time bound of the acceptance test


CRITERIA = {
    1: Criterion("exact steady state on 20x20 grid", exact_steady_state, 5.0),
    2: Criterion("concurrence law C(tau)", concurrence_law, 1.0),
    3: Criterion("peak entanglement numbers", peak_numbers, 1.0),
    4: Criterion("strong-drive limit convergence", strong_drive_convergence, 1.0),
    5: Criterion("undriven limit is the ground state", undriven_limit, 1.0),
    6: Criterion("singlet weight conserved in propagation", singlet_conservation, 2.0),
    7: Criterion("triplet spectrum", triplet_spectrum, 1.0),
    9: Criterion("singlet admixture rule", admixture_rule, 1.0),
    10: Criterion("pure vs mixed concurrence oracle", pure_state_oracle, 1.0),
}


def all_lines():
    """Every check line of every criterion, in criterion order."""
    for criterion in CRITERIA.values():
        yield from criterion.run()
