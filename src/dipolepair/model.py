"""Physical inputs and operator assembly for the driven atom pair.

Units: the single-atom spontaneous decay constant gamma is the unit of
rate. Detuning, drive amplitude and the derived couplings are all
dimensionless multiples of it. Geometry enters through the dimensionless
interatomic distance k0r (separation times the transition wavenumber) and
the projection |mu . r| of the unit dipole moment onto the interatomic
axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import InvalidGeometry, OutOfRange
from .linalg import kron

FINE_STRUCTURE = 1.0 / 137.0

# single-atom operators, basis (|e>, |g>)
I2 = np.eye(2, dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = SIGMA_PLUS.conj().T
SIGMA_X = SIGMA_PLUS + SIGMA_MINUS
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])

# two-atom operators, computational basis |ee>, |eg>, |ge>, |gg>
SP1 = kron(SIGMA_PLUS, I2)
SP2 = kron(I2, SIGMA_PLUS)
SM1 = kron(SIGMA_MINUS, I2)
SM2 = kron(I2, SIGMA_MINUS)
_EXCHANGE = SP1 @ SM2 + SM1 @ SP2  # sp_1 sm_2 + sm_1 sp_2, of the dipole coupling

_SQ2 = math.sqrt(2.0)
_DIAG = np.diag_indices(4)

# the largest double below 1, the cap of cross_decay
_BELOW_ONE = np.nextafter(1.0, 0.0)

# c_k = 3 (-1)^k (2k + 2) / (2k + 3)! of cross_decay's series, highest first: within
# 1 ulp below SMALL_X, where the first omitted term is below 1e-17 of the sum
_CROSS_SERIES = [3 * (-1) ** k * (2 * k + 2) / math.factorial(2 * k + 3) for k in range(10)][::-1]

# computational -> coupled basis change; rows are |+1>, |0>, |-1>, |A>
TO_COUPLED = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0 / _SQ2, 1.0 / _SQ2, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 1.0 / _SQ2, -1.0 / _SQ2, 0.0],
    ],
    dtype=complex,
)

SINGLET_KET = TO_COUPLED.conj().T[:, 3].copy()


@dataclass(frozen=True)
class AtomPairConfig:
    """Physical inputs, everything in units of gamma.

    delta:       detuning of the atoms from the driving field
    drive:       classical drive amplitude, >= 0
    k0r:         dimensionless interatomic distance, finite and > 0
    mu_dot_rhat: |mu . r| in [0, 1], dipole projection on the axis

    gamma, the single-atom decay rate, is the unit and not a field. A k0r
    outside its domain, nan and inf included, raises InvalidGeometry with
    the message of the geometry factors; any other non-finite or
    out-of-range field raises OutOfRange.
    """

    delta: float = 0.0
    drive: float = 0.0
    k0r: float = 1.0
    mu_dot_rhat: float = 0.0

    def __post_init__(self):
        values = (self.delta, self.drive, self.mu_dot_rhat)
        if not all(map(math.isfinite, values)):
            fields = ", ".join(f"{k}={float(v)!r}" for k, v in vars(self).items())
            raise OutOfRange(f"inputs must be finite, got AtomPairConfig({fields})")
        if self.drive < 0:
            raise OutOfRange("drive must be >= 0")
        if not 0.0 < self.k0r < math.inf:  # NaN fails too
            raise InvalidGeometry("k0r must be finite and > 0")
        if not 0.0 <= self.mu_dot_rhat <= 1.0:
            raise OutOfRange("mu_dot_rhat must lie in [0, 1]")


@dataclass(frozen=True)
class Couplings:
    """Derived coherent coupling and cross-decay rate, in units of gamma."""

    omega: float
    gamma12: float


def _any(mask) -> bool:
    """mask.any(), with a 0-d mask decided by its truth value: a reduction
    over one numpy bool costs about 2 us, the truth test a few ns."""
    return bool(mask.any() if mask.ndim else mask)


def _distance(k0r):
    """k0r as a float array, or a numpy float for a scalar (whose x**3 can round
    unlike np.power); InvalidGeometry unless every entry is finite and > 0."""
    x = np.asarray(k0r, dtype=float)[()]
    if _any(~((x > 0) & (x < math.inf))):  # NaN fails both
        raise InvalidGeometry("k0r must be finite and > 0")
    return x


def dipole_coupling(k0r, mu_dot_rhat: float = 0.0):
    """Coherent dipole-dipole coupling Omega/gamma at distance x = k0r.

    Omega/gamma = (3/4) [ -(1-|mu.r|^2) cos x / x
                          + (1-3|mu.r|^2) (sin x / x^2 + cos x / x^3) ]

    One formula at every x: at short distance its 1/x^3 term leads, so it
    needs no series. At large x the powers of x that overflow enter as
    1/inf = 0, the limit of their terms. Scalars and arrays give the same
    values; a k0r that is not finite and > 0, or so small that Omega
    overflows (below about 2e-103), raises InvalidGeometry for the call.
    """
    return _geometry(k0r, mu_dot_rhat)[0]


def cross_decay(k0r):
    """Cross decay rate Gamma12/gamma at distance x = k0r.

    Gamma12/gamma = -3 [ cos x / x^2 - sin x / x^3 ], whose terms cancel as
    x -> 0, so below x = SMALL_X it is the series sum_k c_k x^2k of
    _CROSS_SERIES. Tends to 1 as x -> 0 but stays below it: the value is
    capped at the largest double below 1, since gamma12 == gamma exactly
    selects the decoupled-singlet branch of the steady-state solver, which
    no distance reaches. Scalars and arrays give the same values; a k0r
    that is not finite and > 0 raises InvalidGeometry. At large x the
    powers of x that overflow enter as 1/inf = 0, the limit of their terms.
    """
    return _geometry(k0r, None)[1]


def couplings_from_geometry(cfg: AtomPairConfig) -> Couplings:
    """dipole_coupling and cross_decay at cfg's k0r, bit for bit, from one _geometry."""
    return Couplings(*_geometry(cfg.k0r, cfg.mu_dot_rhat))


def _geometry(k0r, mu_dot_rhat):
    """(Omega, Gamma12) of dipole_coupling and cross_decay at x = k0r: the two
    factors share one check of k0r and one evaluation of cos x, sin x, x^2 and
    x^3. For mu_dot_rhat None, Omega is None, so it cannot overflow."""
    x = _distance(k0r)
    small = x < tol.SMALL_X
    omega = None
    with np.errstate(all="ignore"):
        x2, x3, cos, sin = x * x, np.power(x, 3), np.cos(x), np.sin(x)
        if _any(small):
            series = _CROSS_SERIES[0]
            for c in _CROSS_SERIES[1:]:  # Horner, from the highest power
                series = series * x2 + c
        if mu_dot_rhat is not None:
            a, b = 1.0 - mu_dot_rhat**2, 1.0 - 3.0 * mu_dot_rhat**2
            # 3 (T / 4) for (3/4) T: the quarter, exact, comes first, where T alone
            # overflows at an Omega that does not
            qcos, qsin = 0.25 * cos, 0.25 * sin
            omega = 3.0 * (-a * qcos / x + b * (qsin / x2 + qcos / x3))
            if _any(~np.isfinite(omega)):
                raise InvalidGeometry("k0r below about 2e-103: the dipole coupling overflows")
        if x.ndim == 0 and small:  # a scalar below SMALL_X needs the series alone
            gamma12 = series
        else:
            gamma12 = -3.0 * (cos / x2 - sin / x3)
            if _any(small):
                gamma12 = np.where(small, series, gamma12)
    gamma12 = np.minimum(gamma12, _BELOW_ONE)
    if np.isscalar(k0r):
        return None if omega is None else float(omega), float(gamma12)
    return omega, gamma12


def build_hamiltonian(cfg: AtomPairConfig, omega: float) -> np.ndarray:
    """4x4 Hamiltonian in the computational basis.

    H = sum_i [ (delta/2) sz_i + E (sp_i + sm_i) ]
        + omega (sp_1 sm_2 + sm_1 sp_2)

    Drive phase factors are a global gauge for transverse propagation and
    are absorbed into the raising/lowering operators, so every entry is
    real and the assembly is exactly symmetric.
    """
    h = 0.5 * cfg.delta * (kron(SIGMA_Z, I2) + kron(I2, SIGMA_Z))
    h += cfg.drive * (kron(SIGMA_X, I2) + kron(I2, SIGMA_X))
    h += omega * _EXCHANGE
    return h


def triplet_block(delta: float, omega: float, drive: float) -> np.ndarray:
    """3x3 Hamiltonian block on (|+1>, |0>, |-1>).

    Its eigenvalues, the dressed-state energies, are the roots of the
    paper's cubic eps^3 - omega eps^2 - (delta^2 + 4 E^2) eps + delta^2 omega.
    """
    e = _SQ2 * drive
    return np.array(
        [[delta, e, 0.0], [e, omega, e], [0.0, e, -delta]], dtype=complex
    )


def build_effective_hamiltonian(cfg: AtomPairConfig, c: Couplings) -> np.ndarray:
    """Non-Hermitian no-jump Hamiltonian, coupled basis (|+1>,|0>,|-1>,|A>).

    triplet_block plus the singlet energy -omega, less i/2 times the decay
    rates (2, 1 + gamma12, 0, 1 - gamma12) on the diagonal. The singlet row
    and column are zero off the diagonal for every parameter value; its
    decay rate vanishes when gamma12 = 1. The rates enter the imaginary
    parts in real arithmetic: a complex product would turn an infinite
    rate into NaN in the energies.
    """
    h = np.zeros((4, 4), dtype=complex)
    h[:3, :3] = triplet_block(cfg.delta, c.omega, cfg.drive)
    h[3, 3] = -c.omega
    h.imag[_DIAG] -= 0.5 * np.array([2.0, 1.0 + c.gamma12, 0.0, 1.0 - c.gamma12])
    return h


def tau_of_geometry(k0r: float, q_factor: float, nbar_v: float) -> float:
    """tau = (3 / 4 pi alpha) / ( (k0r)^3 Q nbarV ), alpha = 1/137; InvalidGeometry where
    it overflows or underflows to 0 (at Q nbarV = 1, k0r below ~6e-103 or above ~6e102)."""
    if not (k0r > 0 and q_factor > 0 and nbar_v > 0):  # NaN fails too
        raise InvalidGeometry("k0r, q_factor and nbar_v must all be > 0")
    with np.errstate(all="ignore"):  # numpy floats: out of range gives 0 or inf
        tau = 3.0 / (4.0 * math.pi * FINE_STRUCTURE) / (np.float64(k0r)**3 * q_factor * nbar_v)
    if not 0.0 < tau < math.inf:
        raise InvalidGeometry(
            f"tau {'overflows' if tau else 'underflows to 0'} at this k0r^3 Q nbarV")
    return float(tau)


def k0r_for_tau(tau: float, q_factor: float, nbar_v: float) -> float:
    """Distance at which tau_of_geometry() returns the requested tau;
    InvalidGeometry where that distance overflows or underflows to 0."""
    if not (tau > 0 and q_factor > 0 and nbar_v > 0):  # NaN fails too
        raise InvalidGeometry("tau, q_factor and nbar_v must all be > 0")
    with np.errstate(all="ignore"):  # numpy floats: out of range gives 0 or inf
        den = 4.0 * math.pi * FINE_STRUCTURE * np.float64(tau) * q_factor * nbar_v
        k0r = (3.0 / den) ** (1.0 / 3.0)
    if not 0.0 < k0r < math.inf:
        raise InvalidGeometry(
            f"k0r {'overflows' if k0r else 'underflows to 0'} at this tau Q nbarV")
    return float(k0r)
