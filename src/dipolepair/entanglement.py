"""Mixed-state entanglement measures for the atom pair.

Concurrence follows Wootters, Phys. Rev. Lett. 80, 2245 (1998): the
spin-flipped state is rho~ = (Y x Y) rho* (Y x Y) and the concurrence is
max(0, lam1 - lam2 - lam3 - lam4) with lam_i the descending square roots
of the eigenvalues of rho rho~. The steady state's concurrence also has a
closed form, steady_state_concurrences, which the grid commands use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .dynamics import _CONCURRENCE, DensityMatrix, _errors, _scaled_terms, _solve_blocks
from .errors import InvalidState, NotNormalized, OutOfRange
from .linalg import BasisTag, psd_sqrt
from .model import SIGMA_Y, SINGLET_KET

_YY = np.kron(SIGMA_Y, SIGMA_Y).real.astype(complex)  # real matrix
# Y x Y in the coupled basis (|+1>, |0>, |-1>, |A>), written out exactly:
# TO_COUPLED is real and orthogonal, so this is TO_COUPLED _YY TO_COUPLED^T
# (Y x Y |ee> = -|gg>, |0> -> |0>, |A> -> -|A>)
_YY_COUPLED = np.array([[0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1]],
                       dtype=complex)


@dataclass(frozen=True)
class ConcurrenceReport:
    """Spin-flip spectrum, concurrence and entanglement of formation."""

    lambdas: np.ndarray  # four nonnegative reals, descending
    concurrence: float
    eof: float


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x), with h(0) = h(1) = 0."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation in ebits for a two-qubit concurrence."""
    if not -1e-12 <= c <= 1.0 + 1e-12:
        raise OutOfRange(f"concurrence {float(c)!r} outside [0, 1]")
    c = min(max(c, 0.0), 1.0)
    return binary_entropy((1.0 - math.sqrt(1.0 - c * c)) / 2.0)


def spin_flip_spectrum(rho) -> np.ndarray:
    """Descending square roots of the eigenvalues of rho rho~.

    Computed as the singular values of K = sqrt(rho) (YxY) sqrt(rho)*,
    which satisfies K K^dagger = sqrt(rho) rho~ sqrt(rho): identical
    spectrum, but small values come out with absolute (not square-root)
    accuracy, which the pure-state cross checks need.

    K is formed in the basis the state already carries, with Y x Y written
    in that basis: a real orthogonal change of basis U takes sqrt(rho) to
    U sqrt(rho) U^T, its conjugate likewise, and K to U K U^T, whose
    singular values are those of K. So a DensityMatrix, checked when it
    was built, is neither rotated nor checked again, and a coupled-basis
    steady state keeps its singlet population p_A apart from the triplet
    block in the square root. A raw array is a computational 4x4 state,
    checked once here.
    """
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho, BasisTag.COMPUTATIONAL)
    yy = _YY if rho.basis is BasisTag.COMPUTATIONAL else _YY_COUPLED
    root = psd_sqrt(rho.matrix)
    k = root @ yy @ root.conj()
    return np.linalg.svd(k, compute_uv=False)


def wootters_concurrence(rho) -> ConcurrenceReport:
    """Concurrence and entanglement of formation of a two-qubit state.

    The spin-flip spectrum is taken in the state's own basis, which is
    exact (see spin_flip_spectrum). For a triplet-sector state, one whose
    singlet row and column are zero, the fourth spin-flip eigenvalue is zero.
    """
    lam = spin_flip_spectrum(rho)
    c = max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))
    return ConcurrenceReport(lambdas=lam, concurrence=c, eof=eof_from_concurrence(c))


def pure_concurrence(state: np.ndarray) -> float:
    """Concurrence of a pure two-qubit state, computational basis.

    C = 2 |c_ee c_gg - c_eg c_ge|; invariant under local phases.
    """
    psi = np.asarray(state, dtype=complex).ravel()
    if psi.shape != (4,):
        raise ValueError("expected a 4-component state vector")
    n = float(np.linalg.norm(psi))
    if abs(n - 1.0) > tol.STATE_NORM_ATOL:
        raise NotNormalized(f"state norm {n!r}")
    return float(2.0 * abs(psi[0] * psi[3] - psi[1] * psi[2]))


def steady_state_concurrences(delta, drive, omega, gamma12) -> np.ndarray:
    """Exact concurrence of the steady state at N parameter points.

    The arguments broadcast to one length N; gamma = 1 is the rate unit.
    With E = drive, s = 1 + 16 delta^2 and A = 256 E^4,

        D = 1024 E^4 + s (64 E^2 + 16 (omega + delta)^2 + (1 + gamma12)^2)
        T = 32 E^2 sqrt(s (16 omega^2 + gamma12^2))
        C = max(0, T - 2 A) / D,  or max(0, T - A) / (D - A) at gamma12 == 1

    the last on the decoupled-singlet branch of solve_steady_states. D is
    the trace of the state D rho = u u^+ + w w^+ + A |-1><-1| (+ A |A><A|)
    that solve_steady_states builds. Wootters' matrix
    psi_i^T (Y x Y) psi_j of u, w, sqrt(A) |-1> and sqrt(A) |A> is
    [[tau, 0, -A], [0, A, 0], [-A, 0, 0]] (+) (-A) with |tau| = T, so the
    lam_i are A, A and (sqrt(T^2 + 4 A^2) +- T) / 2, over D. As E -> oo at
    omega = tau E^2, delta = 0, C tends to closed_form_concurrence(tau) on
    the branch and to (8 tau - 32) / (tau^2 + 64) off it.

    D and T are evaluated on the scaled terms of dynamics._scaled_terms,
    which solve_steady_states builds its states from: E^4 is never formed,
    and no step overflows unless an input comes within a factor 4 of the
    largest double. A point outside the domain of solve_steady_states
    (where D = 0 lies) gives NaN here, without an error.
    """
    return _concurrence_law(_scaled_terms(delta, drive, omega, gamma12))


def _concurrence_law(terms) -> np.ndarray:
    """steady_state_concurrences on the terms of dynamics._scaled_terms."""
    _, outside, coupled, _, _, re, qe, a, den = terms
    with np.errstate(invalid="ignore"):
        conc = np.maximum(32.0 * re * qe - (1.0 + coupled) * a, 0.0) / den
    conc[outside > 0] = np.nan
    return conc


def _eofs(c: np.ndarray) -> np.ndarray:
    """eof_from_concurrence of every entry of an array in [0, 1]; NaN stays NaN."""
    x = (1.0 - np.sqrt(1.0 - np.minimum(c, 1.0) ** 2)) / 2.0
    y = 1.0 - x
    h = -(x * np.log2(np.where(x > 0.0, x, 1.0)) + y * np.log2(y))
    return np.where(x == 0.0, 0.0, h)  # h(0) = +0


def steady_state_entanglement(delta, drive, omega, gamma12):
    """Steady states of N parameter points with their concurrence and EoF.

    The arguments broadcast to one length N. States and their checks are
    those of solve_steady_states, which are also those of the square root
    in wootters_concurrence. The concurrence is
    steady_state_concurrences and must lie in [0, 1]
    (OutOfRange); states and concurrence share one evaluation of the
    scaled terms. A point that fails does not stop the others. Returns
    ``(states, concurrence, eof, errors)``, NaN where a point failed and
    the typed error of its failure code in the list.
    """
    states, conc, codes, quoted = _steady_concurrence(delta, drive, omega, gamma12)
    return states, conc, _eofs(conc), _errors(codes, quoted)


def _steady_concurrence(delta, drive, omega, gamma12):
    """steady_state_entanglement without the EoF and the error list: (states, conc,
    codes, quoted) as _solve_blocks marks them, then C <= 1."""
    terms = _scaled_terms(delta, drive, omega, gamma12)
    states, codes, quoted = _solve_blocks(terms)
    conc = _concurrence_law(terms)
    fails = ~(conc <= 1.0 + 1e-12) & (codes == 0)
    codes[fails], quoted[fails] = _CONCURRENCE, conc[fails]
    conc[codes > 0] = np.nan
    return states, conc, codes, quoted


# maximiser of closed_form_concurrence and its value, about 9.21 and 0.434
TAU_PEAK = 2.0 + 2.0 * math.sqrt(13.0)
C_PEAK = 2.0 / (math.sqrt(13.0) + 1.0)


def closed_form_concurrence(tau: float) -> float:
    """Steady-state concurrence law in the strong-drive limit.

    C(tau) = (8 tau - 16) / (tau^2 + 48) for tau >= 2, zero below, evaluated
    as 8 ((tau - 2)/tau) / (tau + 48/tau), which no finite tau overflows; its
    maximum is C_PEAK at TAU_PEAK. A NaN or infinite tau raises OutOfRange.
    """
    if not math.isfinite(tau):
        raise OutOfRange(f"tau must be finite, got {float(tau)!r}")
    if tau <= 2.0:
        return 0.0
    return 8.0 * ((tau - 2.0) / tau) / (tau + 48.0 / tau)


def admixture_concurrence(p: float, rho_s: DensityMatrix) -> float:
    """Concurrence of p |A><A| + (1-p) rho_s for a triplet-sector rho_s.

    rho_s is triplet-sector when its singlet weight is exactly zero (a PSD
    state then has no singlet coherence either); any other state raises
    InvalidState. The antisymmetric state is spin-flip invariant and
    orthogonal to the triplet block, so the spectrum of the mixture is the
    triplet spectrum scaled by q = 1 - p with p appended; the usual
    difference formula applies to that list.
    """
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"weight p = {float(p)!r} outside [0, 1]")
    if rho_s.singlet_weight() != 0.0:
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
