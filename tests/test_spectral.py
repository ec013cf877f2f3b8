"""The triplet-sector spectrum and the dressed states of the paper.

The energies are the eigenvalues of the 3x3 block, which the package
computes one way (``hermitian_eig(triplet_block(...))``); the paper's
cubic eps^3 - omega eps^2 - (delta^2 + 4 E^2) eps + delta^2 omega is
their check. The dressed states at zero detuning are a test-local
closed form, held to the block and to ``pure_concurrence``.
"""

import math
from typing import NamedTuple

import numpy as np
import pytest

from dipolepair import hermitian_eig, pure_concurrence, triplet_block
from dipolepair.errors import NotNormalized
from dipolepair.model import TO_COUPLED

RNG = np.random.default_rng(11)
_SQ2 = math.sqrt(2.0)
# columns of the triplet states in computational coordinates (4x3)
TRIPLET_EMBED = TO_COUPLED.conj().T[:, :3]


def embed(amps3):
    return TRIPLET_EMBED @ np.asarray(amps3, dtype=complex)


def triplet_energies(delta, omega, drive):
    """The triplet block's eigenvalues, descending."""
    w, _ = hermitian_eig(triplet_block(delta, omega, drive))
    return w


class DressedState(NamedTuple):
    """Triplet-sector eigenstate: amplitudes on (|+1>, |0>, |-1>) and energy."""

    amplitudes: np.ndarray
    eigenvalue: float


def _dressed_vector(eps, drive):
    norm2 = 4.0 * drive**2 + eps**2
    if norm2 == 0.0:
        # drive -> 0 limit of the branch whose eigenvalue vanishes
        return np.array([1.0, 0.0, 1.0], dtype=complex) / _SQ2
    return np.array([_SQ2 * drive, eps, _SQ2 * drive], dtype=complex) / math.sqrt(norm2)


def dressed_eigensystem(omega, drive):
    """Zero-detuning eigenstates (psi_+, psi_0, psi_-) of the triplet block.

    psi_pm has amplitudes (sqrt(2)E, eps_pm, sqrt(2)E) up to normalization
    with eps_pm = W/2 +- sqrt(W^2 + 16 E^2)/2; psi_0 = (|+1> - |-1>)/sqrt(2)
    with eigenvalue 0 and the |+1> amplitude kept positive.
    """
    half_gap = math.sqrt(omega**2 + 16.0 * drive**2) / 2.0
    eps_p = omega / 2.0 + half_gap
    eps_m = omega / 2.0 - half_gap
    psi0 = np.array([1.0, 0.0, -1.0], dtype=complex) / _SQ2
    return (
        DressedState(_dressed_vector(eps_p, drive), eps_p),
        DressedState(psi0, 0.0),
        DressedState(_dressed_vector(eps_m, drive), eps_m),
    )


# ------------------------------------------------------- triplet energies


def test_roots_undriven():
    for delta, omega in ((0.5, 2.0), (1.5, -0.3), (0.0, 1.0)):
        roots = triplet_energies(delta, omega, 0.0)
        expected = sorted([delta, omega, -delta], reverse=True)
        assert np.allclose(roots, expected, atol=1e-10)


def test_roots_resonant():
    for omega, drive in ((1.0, 0.5), (-2.0, 1.5), (0.0, 0.7)):
        roots = triplet_energies(0.0, omega, drive)
        gap = math.sqrt(omega**2 + 16 * drive**2)
        expected = sorted([omega / 2 + gap / 2, 0.0, omega / 2 - gap / 2],
                          reverse=True)
        assert np.allclose(roots, expected, atol=1e-10)


def test_roots_vieta():
    for _ in range(30):
        delta = RNG.normal() * 2
        omega = RNG.normal() * 3
        drive = RNG.uniform(0, 4)
        r = triplet_energies(delta, omega, drive)
        assert abs(r.sum() - omega) < 1e-9
        assert abs(r[0] * r[1] + r[0] * r[2] + r[1] * r[2]
                   + delta**2 + 4 * drive**2) < 1e-9
        assert abs(r.prod() + delta**2 * omega) < 1e-9


def test_roots_sorted_descending():
    r = triplet_energies(1.0, -0.5, 2.0)
    assert r[0] >= r[1] >= r[2]


def test_roots_triple_degeneracy():
    assert np.allclose(triplet_energies(0.0, 0.0, 0.0), [0, 0, 0], atol=1e-12)


# ------------------------------------------------------- dressed states


def test_dressed_eigensystem_residuals():
    for omega, drive in ((1.0, 0.3), (-2.5, 1.0), (0.0, 2.0), (4.0, 0.01)):
        h = triplet_block(0.0, omega, drive)
        for state in dressed_eigensystem(omega, drive):
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12
            resid = h @ state.amplitudes - state.eigenvalue * state.amplitudes
            assert np.abs(resid).max() <= 1e-10


def test_dressed_weak_drive_limit_is_bell_like():
    plus, zero, minus = dressed_eigensystem(1.0, 1e-9)
    target = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
    assert np.abs(minus.amplitudes - target).max() < 1e-8
    assert abs(pure_concurrence(embed(minus.amplitudes)) - 1.0) < 1e-8
    # psi_0 sign convention: |+1> amplitude positive
    assert zero.amplitudes[0].real > 0
    assert np.allclose(zero.amplitudes, [1 / math.sqrt(2), 0, -1 / math.sqrt(2)])


def test_dressed_zero_coupling_eigenvalues():
    plus, _, minus = dressed_eigensystem(0.0, 1.3)
    assert abs(plus.eigenvalue - 2 * 1.3) < 1e-12
    assert abs(minus.eigenvalue + 2 * 1.3) < 1e-12


# ------------------------------------------------------- pure concurrence


def test_pure_concurrence_bell_state():
    psi = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
    assert abs(pure_concurrence(psi) - 1.0) < 1e-12


def test_pure_concurrence_product_state():
    psi = np.array([0, 0, 0, 1], dtype=complex)
    assert pure_concurrence(psi) == 0.0


def test_pure_concurrence_dressed_closed_form():
    for omega, drive in ((1.0, 0.5), (3.0, 2.0), (-1.5, 0.25)):
        plus, _, minus = dressed_eigensystem(omega, drive)
        for st in (plus, minus):
            eps = st.eigenvalue
            expected = abs(4 * drive**2 - eps**2) / (4 * drive**2 + eps**2)
            assert abs(pure_concurrence(embed(st.amplitudes)) - expected) < 1e-12


def test_pure_concurrence_vanishes_without_coupling():
    plus, _, minus = dressed_eigensystem(0.0, 1.7)
    assert pure_concurrence(embed(plus.amplitudes)) < 1e-12
    assert pure_concurrence(embed(minus.amplitudes)) < 1e-12


def test_pure_concurrence_local_phase_invariance():
    psi = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    psi /= np.linalg.norm(psi)
    base = pure_concurrence(psi)
    for _ in range(5):
        ta, tb = RNG.uniform(0, 2 * math.pi, size=2)
        phases = np.array(
            [np.exp(1j * (ta + tb)), np.exp(1j * ta), np.exp(1j * tb), 1.0]
        )
        assert abs(pure_concurrence(phases * psi) - base) < 1e-9


def test_pure_concurrence_monotone_in_drive():
    omega = 1.0
    values = []
    for drive in np.linspace(0.01, 10.0, 60):
        _, _, minus = dressed_eigensystem(omega, float(drive))
        values.append(pure_concurrence(embed(minus.amplitudes)))
    diffs = np.diff(values)
    assert np.all(diffs < 0)


def test_pure_concurrence_rejects_unnormalized():
    # the norm, a numpy float, is quoted as a Python float
    with pytest.raises(NotNormalized, match=r"^state norm 1\.4142135623730951$"):
        pure_concurrence(np.array([1.0, 0, 0, 1.0]))
