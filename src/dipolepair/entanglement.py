"""Mixed-state entanglement measures for the atom pair.

Concurrence follows Wootters, Phys. Rev. Lett. 80, 2245 (1998): the
spin-flipped state is rho~ = (Y x Y) rho* (Y x Y) and the concurrence is
max(0, lam1 - lam2 - lam3 - lam4) with lam_i the descending square roots
of the eigenvalues of rho rho~.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DensityMatrix, _density_errors
from .errors import InvalidState, OutOfRange
from .linalg import BasisTag, _psd_sqrt_stack, psd_sqrt
from .model import SIGMA_Y, SINGLET_KET, TO_COUPLED

_YY = np.kron(SIGMA_Y, SIGMA_Y).real.astype(complex)  # real matrix


@dataclass(frozen=True)
class ConcurrenceReport:
    """Spin-flip spectrum, concurrence and entanglement of formation."""

    lambdas: np.ndarray  # four nonnegative reals, descending
    concurrence: float
    eof: float


def _as_computational(rho) -> np.ndarray:
    """Accept DensityMatrix in any basis, or a raw 4x4/3x3 array."""
    if isinstance(rho, DensityMatrix):
        return rho.to_basis(BasisTag.COMPUTATIONAL).matrix
    m = np.asarray(rho, dtype=complex)
    if m.shape == (3, 3):
        return DensityMatrix(m, BasisTag.TRIPLET).to_basis(
            BasisTag.COMPUTATIONAL
        ).matrix
    if m.shape == (4, 4):
        # raw arrays are taken in the computational basis; validate
        return DensityMatrix(m, BasisTag.COMPUTATIONAL).matrix
    raise InvalidState(f"expected a 4x4 or 3x3 density matrix, got {m.shape}")


def spin_flip(rho) -> np.ndarray:
    """(Y x Y) rho* (Y x Y) in the computational basis."""
    m = _as_computational(rho)
    return _YY @ m.conj() @ _YY


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x), with h(0) = h(1) = 0."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation in ebits for a two-qubit concurrence."""
    if not -1e-12 <= c <= 1.0 + 1e-12:
        raise OutOfRange(f"concurrence {c!r} outside [0, 1]")
    c = min(max(c, 0.0), 1.0)
    return binary_entropy((1.0 - math.sqrt(1.0 - c * c)) / 2.0)


def spin_flip_spectrum(rho) -> np.ndarray:
    """Descending square roots of the eigenvalues of rho rho~.

    Computed as the singular values of K = sqrt(rho) (YxY) sqrt(rho)*,
    which satisfies K K^dagger = sqrt(rho) rho~ sqrt(rho): identical
    spectrum, but small values come out with absolute (not square-root)
    accuracy, which the pure-state cross checks need.
    """
    m = _as_computational(rho)
    root = psd_sqrt(m)
    k = root @ _YY @ root.conj()
    return np.linalg.svd(k, compute_uv=False)


def wootters_concurrence(rho) -> ConcurrenceReport:
    """Concurrence and entanglement of formation of a two-qubit state.

    Triplet-sector inputs are embedded with a zero singlet row and
    column first; for them the fourth spin-flip eigenvalue is zero.
    """
    lam = spin_flip_spectrum(rho)
    c = max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))
    return ConcurrenceReport(lambdas=lam, concurrence=c, eof=eof_from_concurrence(c))


def wootters_concurrences(states, errors=None):
    """Concurrence and entanglement of formation of N states in one batch.

    ``states`` is an (N, 4, 4) stack in the coupled basis and ``errors``
    its per-point errors, as solve_steady_states returns them; points
    with an error are passed through. Every other point gets the checks
    of the one-point path: the DensityMatrix checks in the computational
    basis, psd_sqrt's Hermiticity and PSD-floor checks (one eigh per
    point serves both and the square root; the DensityMatrix error is
    kept where both fail), and the range of the concurrence. Returns
    ``(concurrence, eof, errors)``, NaN where a point failed and its
    typed error in the list.
    """
    states = np.asarray(states, dtype=complex)
    n = len(states)
    errors = [None] * n if errors is None else list(errors)
    conc = np.full(n, np.nan)
    eof = np.full(n, np.nan)
    idx = np.flatnonzero([e is None for e in errors])
    comp = TO_COUPLED.conj().T @ states[idx] @ TO_COUPLED
    w, v = np.linalg.eigh(comp)  # serves both sets of checks and the root
    roots, root_errors = _psd_sqrt_stack(comp, w, v)
    for i, err, root_err in zip(idx, _density_errors(comp, w), root_errors):
        errors[i] = err or root_err
    keep = [errors[i] is None for i in idx]
    idx, roots = idx[keep], roots[keep]
    lam = np.linalg.svd(roots @ _YY @ roots.conj(), compute_uv=False)
    for i, d in zip(idx, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]):
        c = max(0.0, float(d))
        if c > 1.0 + 1e-12:
            errors[i] = OutOfRange(f"concurrence {c!r} outside [0, 1]")
        else:
            conc[i], eof[i] = c, eof_from_concurrence(c)
    return conc, eof, errors


# maximiser of closed_form_concurrence and its value, about 9.21 and 0.434
TAU_PEAK = 2.0 + 2.0 * math.sqrt(13.0)
C_PEAK = 2.0 / (math.sqrt(13.0) + 1.0)


def closed_form_concurrence(tau: float) -> float:
    """Steady-state concurrence law in the strong-drive limit.

    C(tau) = (8 tau - 16) / (tau^2 + 48) for tau >= 2, zero below; its
    maximum is C_PEAK at TAU_PEAK.
    """
    if tau <= 2.0:
        return 0.0
    return (8.0 * tau - 16.0) / (tau**2 + 48.0)


def admixture_concurrence(p: float, rho_s: DensityMatrix) -> float:
    """Concurrence of p |A><A| + (1-p) rho_s for a triplet-sector rho_s.

    The antisymmetric state is spin-flip invariant and orthogonal to the
    triplet block, so the spectrum of the mixture is the triplet spectrum
    scaled by q = 1 - p with p appended; the usual difference formula
    applies to that list.
    """
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"weight p = {p!r} outside [0, 1]")
    if rho_s.basis is not BasisTag.TRIPLET:
        raise InvalidState("admixture_concurrence expects a triplet-sector state")
    q = 1.0 - p
    lam = spin_flip_spectrum(rho_s)  # lam[3] == 0 for triplet support
    spectrum = np.sort(np.append(q * lam[:3], p))[::-1]
    return max(0.0, float(spectrum[0] - spectrum[1:].sum()))


def singlet_projector() -> np.ndarray:
    """|A><A| in the computational basis."""
    return np.outer(SINGLET_KET, SINGLET_KET.conj())


def argmax_concurrence(
    lo: float = 2.0, hi: float = 50.0, tol: float = 1e-8
) -> tuple[float, float]:
    """Golden-section maximizer of closed_form_concurrence on [lo, hi].

    Returns (tau_star, c_star). The law is unimodal on this interval.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = closed_form_concurrence(c), closed_form_concurrence(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = closed_form_concurrence(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = closed_form_concurrence(d)
    tau_star = 0.5 * (a + b)
    return tau_star, closed_form_concurrence(tau_star)
