"""Dissipative dynamics: superoperator, steady states, time propagation.

Convention: the decay constants enter the dissipator at half their nominal
value (gamma/2 and gamma12/2 per channel). Under this amplitude-rate
normalization the hard-coded steady state of ``analytic_steady_state`` is
exact, and the fully excited pair population relaxes at rate gamma.

Vectorization is column-stacking throughout: entry (i, j) of an n x n
matrix sits at flat index i + n*j, and vec(A X B) = kron(B.T, A) vec(X).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import InvalidRegime, InvalidState, OutOfRange
from .linalg import BasisTag, hermitian_part, kron
from .model import (
    SM1,
    SM2,
    SP1,
    SP2,
    TO_COUPLED,
    AtomPairConfig,
    Couplings,
    build_hamiltonian,
)

_SQ2 = math.sqrt(2.0)

_I4 = np.eye(4, dtype=complex)

# flat indices of the 3x3 triplet block inside a column-stacked 4x4
_TRIPLET_IDX = np.array([i + 4 * j for j in range(3) for i in range(3)])

# coupled -> computational basis change
_FROM_COUPLED = TO_COUPLED.conj().T

# decay channels (i, j) of build_liouvillian: i != j (rate gamma12), sp_j^T, sm_i, sp_i sm_j
_CHANNELS = [(i != j, (SP1, SP2)[j].T, (SM1, SM2)[i], (SP1, SP2)[i] @ (SM1, SM2)[j])
             for i in range(2) for j in range(2)]


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(m, dtype=complex).flatten(order="F")


@dataclass(frozen=True)
class DensityMatrix:
    """Finite, Hermitian, trace-one, PSD 4x4 matrix with a basis tag.

    Violating any invariant raises InvalidState at construction (the
    checks of _density_codes).
    """

    matrix: np.ndarray
    basis: BasisTag

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.shape != (4, 4):
            raise InvalidState(f"expected 4x4, got {m.shape}")
        failed = _density_codes(m[None])
        if failed is not None:
            raise _failure(failed[0][0], failed[1][0])

    @classmethod
    def _checked(cls, stack: np.ndarray, basis: BasisTag) -> list["DensityMatrix"]:
        """Wrap each matrix of a stack that has just passed _density_codes,
        without checking again."""
        states = [object.__new__(cls) for _ in range(len(stack))]
        for state, m in zip(states, stack):
            state.__dict__["matrix"], state.__dict__["basis"] = m, basis
        return states

    def to_basis(self, basis: BasisTag) -> "DensityMatrix":
        """The same state in the other basis, computational or coupled."""
        if basis is self.basis:
            return self
        if basis is BasisTag.COUPLED:
            return DensityMatrix(TO_COUPLED @ self.matrix @ _FROM_COUPLED, basis)
        if basis is BasisTag.COMPUTATIONAL:
            return DensityMatrix(_FROM_COUPLED @ self.matrix @ TO_COUPLED, basis)
        raise InvalidState(f"cannot convert {self.basis} to {basis}")

    def singlet_weight(self) -> float:
        """Population <A|rho|A> of the antisymmetric state, read off the matrix."""
        m = self.matrix
        if self.basis is BasisTag.COMPUTATIONAL:  # |A> = (|eg> - |ge>) / sqrt(2)
            return float((m[1, 1].real + m[2, 2].real) / 2.0 - m[1, 2].real)
        return float(m[3, 3].real)


@dataclass(frozen=True)
class Liouvillian:
    """16x16 superoperator acting on column-stacked 4x4 density matrices."""

    matrix: np.ndarray
    basis: BasisTag


def build_liouvillian(cfg: AtomPairConfig, c: Couplings) -> Liouvillian:
    """Superoperator of the master equation, computational basis.

    Generates -i[H, rho] plus the correlated decay of both atoms, with
    channel rates (1/2, gamma12/2) as in the module docstring. Trace is
    preserved: vec(I) is a left null vector. An overflow raises OutOfRange.
    """
    with np.errstate(all="ignore"):
        h = build_hamiltonian(cfg, c.omega)
        rates = (0.5, 0.5 * float(c.gamma12))
        lm = -1j * (kron(_I4, h) - kron(h.T, _I4))
        for cross, sp_j_t, sm_i, a in _CHANNELS:
            lm += 0.5 * rates[cross] * (2.0 * kron(sp_j_t, sm_i) - kron(_I4, a) - kron(a.T, _I4))
    if not np.isfinite(lm).all():
        raise OutOfRange("non-finite generator")
    return Liouvillian(lm, BasisTag.COMPUTATIONAL)


def _broadcast(*args) -> list[np.ndarray]:
    """Float arrays of one common length from scalars and 1-d arrays."""
    arrays = [np.asarray(a, dtype=float).reshape(-1) for a in args]
    n = max(map(len, arrays))
    return [a if len(a) == n else np.broadcast_to(a, n) for a in arrays]


# ------------------------------------------------------- steady-state engine
#
# Every stage works on a stack of matrices and marks the points it fails in
# one array of _FAILURES codes (0: none), the first failure winning. A failed
# point never stops the others; typed errors are made for failed points only.

(_NON_FINITE_INPUT, _NEGATIVE_DRIVE, _DARK_LINE, _OVERFLOW, _NON_FINITE_ENTRIES,
 _NOT_HERMITIAN, _BAD_TRACE, _NEGATIVE_EIGENVALUE, _CONCURRENCE) = range(1, 10)

# The error type and message of each code; a message may quote the point's
# value (a trace or a concurrence). On the dark line, drive 0
# and gamma12 = -1 exactly, the symmetric channel's rate (1 + gamma12) / 2 is
# 0 and the antisymmetric one annihilates |0>, so |0><0| and |-1><-1| are
# both steady at every delta; D of steady_state_concurrences is 0 only there.
_FAILURES = {
    _NON_FINITE_INPUT: (OutOfRange, "inputs must be finite"),
    _NEGATIVE_DRIVE: (OutOfRange, "drive must be >= 0"),
    _DARK_LINE: (InvalidRegime, "steady state not unique: |0> is dark at drive 0, gamma12 = -1"),
    _OVERFLOW: (OutOfRange, "non-finite steady state"),
    _NON_FINITE_ENTRIES: (InvalidState, "entries are not finite"),
    _NOT_HERMITIAN: (InvalidState, "not Hermitian within tolerance"),
    _BAD_TRACE: (InvalidState, "trace {!r} is not 1"),
    _NEGATIVE_EIGENVALUE: (InvalidState, "negative eigenvalue beyond tolerance"),
    _CONCURRENCE: (OutOfRange, "concurrence {!r} outside [0, 1]"),
}


def _failure(code, value=math.nan):
    """The typed error of a _FAILURES code, quoting ``value`` where its message does."""
    kind, message = _FAILURES[code]
    return kind(message.format(float(value)))


def _errors(codes, quoted) -> list:
    """One entry per point: None, or the typed error of its code quoting its value."""
    return [_failure(c, v) if c else None for c, v in zip(codes.tolist(), quoted.tolist())]


_FLOOR_EYE = tol.PSD_EVAL_FLOOR * np.eye(4)  # the shift of _below_floor's screen
# _clears, the Python screen of one matrix, clears a matrix whose squared deviations
# |m_ij - conj m_ji|^2 sum to at most half the squared tolerance (safe however numpy
# rounds |.|) and whose m - floor I, scaled to a unit diagonal H, has det H above
# _DET_CLEAR: the lowest eigenvalue of H is then at least 27/64 det H (the other three
# sum to at most 4), far above the about 2e-15 at which a Cholesky factorisation in
# double precision can fail (Demmel; Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., Thm 10.7)
_DEV2_CLEAR = 0.5 * tol.HERMITICITY_ATOL**2
_DET_CLEAR = 1e-12


def _density_codes(m: np.ndarray):
    """DensityMatrix's checks, in its order, on an (N, 4, 4) stack.

    Every entry finite, Hermitian to HERMITICITY_ATOL, trace 1 to
    DENSITY_TRACE_ATOL, lowest eigenvalue at least PSD_EVAL_FLOOR: a
    state passes the checks of psd_sqrt, so Wootters' square root takes
    it as it is. One matrix goes through the Python screen _clears
    first (about 4 us, against 14 us of numpy calls on a stack of one).
    A stack, and a matrix that the screen does not clear, is decided by
    one comparison per check (|m - m^+| by one maximum over the stack),
    the last by one batched Cholesky factorisation (_below_floor). Both
    screens read the lower triangle, and eigvalsh decides what they do
    not clear. Returns None if every matrix passes, else (codes, traces),
    the code of each matrix's first failed check (0: none) and the
    traces that the trace message quotes.
    """
    if len(m) == 1 and _clears(m[0]):
        return None
    lowest = _below_floor(m)
    # a non-finite entry makes |m - m^+| NaN or inf, which fails the
    # Hermiticity test: a stack that passes it is finite
    with np.errstate(invalid="ignore", over="ignore"):
        dev = np.abs(m - m.conj().swapaxes(1, 2))  # made after the screen: less peak memory
        tr = m.trace(axis1=1, axis2=2).real
    if (dev.max(initial=0.0) <= tol.HERMITICITY_ATOL  # an empty stack passes
            and np.abs(tr - 1.0).max(initial=0.0) <= tol.DENSITY_TRACE_ATOL and lowest is None):
        return None
    codes = np.zeros(len(m), dtype=int)
    for code, fails in ((_NON_FINITE_ENTRIES, ~np.isfinite(m).all(axis=(1, 2))),
                        (_NOT_HERMITIAN, dev.max(axis=(1, 2)) > tol.HERMITICITY_ATOL),
                        (_BAD_TRACE, np.abs(tr - 1.0) > tol.DENSITY_TRACE_ATOL),
                        (_NEGATIVE_EIGENVALUE,  # NaN too: eigvalsh overflowed
                         lowest is not None and ~(lowest >= tol.PSD_EVAL_FLOOR))):
        codes[fails & (codes == 0)] = code
    return (codes, tr) if codes.any() else None


def _clears(m: np.ndarray) -> bool:
    """True only if the 4x4 ``m`` passes every check of _density_codes, decided on
    Python complex numbers; False if it fails one or comes too close to a bound.

    The deviations from Hermiticity sum within _DEV2_CLEAR, which a non-finite
    off-diagonal entry or diagonal imaginary part fails; the trace, summed in
    numpy's order, is within DENSITY_TRACE_ATOL, which a non-finite diagonal real
    part fails; and the lower triangle of m - floor I has an LDL^H factorisation
    with pivots > 0 and det H above _DET_CLEAR, so the Cholesky factorisation of
    _below_floor succeeds too. Python's * and / give inf on overflow, where abs()
    and ** would raise, and NaN fails every comparison.
    """
    (a00, a01, a02, a03, a10, a11, a12, a13,
     a20, a21, a22, a23, a30, a31, a32, a33) = m.ravel().tolist()
    off = (a01 - a10.conjugate(), a02 - a20.conjugate(), a03 - a30.conjugate(),
           a12 - a21.conjugate(), a13 - a31.conjugate(), a23 - a32.conjugate())
    dev = sum([(z * z.conjugate()).real for z in off]) + 4.0 * (
        a00.imag * a00.imag + a11.imag * a11.imag + a22.imag * a22.imag + a33.imag * a33.imag)
    tr = (a00.real + a11.real) + (a22.real + a33.real)
    if not (dev <= _DEV2_CLEAR and abs(tr - 1.0) <= tol.DENSITY_TRACE_ATOL):
        return False
    # the diagonal of m - floor I, then the pivots p, eliminating column by column
    f = tol.PSD_EVAL_FLOOR
    d0, d1, d2, d3 = a00.real - f, a11.real - f, a22.real - f, a33.real - f
    if not d0 > 0:
        return False
    c10, c20, c30 = a10.conjugate() / d0, a20.conjugate() / d0, a30.conjugate() / d0
    p1 = d1 - (a10 * c10).real
    if not p1 > 0:
        return False
    b21, b31, b32 = a21 - a20 * c10, a31 - a30 * c10, a32 - a30 * c20
    c21, c31 = b21.conjugate() / p1, b31.conjugate() / p1
    p2 = d2 - (a20 * c20).real - (b21 * c21).real
    if not p2 > 0:
        return False
    b32 -= b31 * c21
    p3 = d3 - (a30 * c30).real - (b31 * c31).real - (b32 * b32.conjugate()).real / p2
    return p3 > 0 and p1 / d1 * (p2 / d2) * (p3 / d3) > _DET_CLEAR


def _below_floor(m: np.ndarray) -> np.ndarray | None:
    """None if every matrix of an (N, 4, 4) stack has its lowest eigenvalue
    at PSD_EVAL_FLOOR or above, else each one's lowest eigenvalue (NaN for
    a non-finite matrix, or where eigvalsh overflows).

    The lowest eigenvalue is at least the floor exactly when m - floor I
    is PSD, so one batched Cholesky factorisation of that shift that
    succeeds clears the whole stack (the stack path of _density_codes;
    one matrix is screened by _clears first). When it fails, eigvalsh
    decides for each finite matrix; both read the lower triangle. A
    non-finite matrix is left to the finiteness check. Near the largest
    double, LAPACK can return a NaN factor instead of failing (a pivot
    that overflows makes every later pivot NaN, the last one included),
    and eigvalsh NaN eigenvalues.
    """
    try:
        if np.isfinite(np.linalg.cholesky(m - _FLOOR_EYE)[:, -1, -1]).all():
            return None
    except np.linalg.LinAlgError:
        pass
    lowest = np.full(len(m), np.nan)
    finite = np.isfinite(m).all(axis=(1, 2))
    lowest[finite] = np.linalg.eigvalsh(m[finite])[:, 0]
    return lowest


# The coupled basis without its 1/sqrt(2) factors, |0'> = |eg> + |ge> and
# |A'> = |eg> - |ge>: this change of basis and its inverse are dyadic, so a
# rotated generator keeps its exact zeros. Rows and columns of the triplet
# block of a generator in that basis:
_UNNORMALISED = np.array([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1], [0, 1, -1, 0]])
_INVERSE = _UNNORMALISED.T / np.array([[1], [2], [2], [1]])
_TRIPLET_ROWS = kron(_UNNORMALISED, _UNNORMALISED)[_TRIPLET_IDX]
_TRIPLET_COLS = kron(_INVERSE, _INVERSE)[:, _TRIPLET_IDX]
_NORMALISE = np.outer([1.0, 1.0 / _SQ2, 1.0], [1.0, 1.0 / _SQ2, 1.0])
_TRACE_RHS = np.eye(9, 1, -8)[:, 0]
# last row of the block solve: tr rho_T (unnormalised basis), + p_A = rho_{+1,+1} if coupled
_TRACE_ROWS = tuple(np.array([1.0 + p, 0, 0, 0, 0.5, 0, 0, 0, 1.0]) for p in (0, 1))


def _outside(finite, drive, gamma12):
    """The domain rule, written once: the _FAILURES code of the first rule broken, 0 if
    none (arithmetic on the masks, so a plain int on Python scalars)."""
    return (1 - finite) + finite * (2 * (drive < 0.0) + 3 * ((drive == 0.0) & (gamma12 == -1.0)))


def _scaled_terms(delta, drive, omega, gamma12):
    """Magnitudes of the closed-form steady state at N points, over a common scale.

    With s = 1 + 16 delta^2, p = |4 (omega + delta) - i (1 + gamma12)| and
    q = |4 omega - i gamma12|, every entry of D rho (see
    solve_steady_states) and of the concurrence law has degree 4 in
    (E, sqrt s, p, q). Their products are divided by k^2, k = max(|E|,
    sqrt(sqrt s max(p, min(q, |E|)))), each factor meeting E / k <= 1 or
    p / k first (sqrt s / k alone overflows at a subnormal drive next to
    D = 0). So E^4 is never formed, no step overflows unless an input
    comes within a factor 4 of the largest double, and D / k^4 does not
    underflow next to the dark line, where p and E are tiny: q enters only
    T, and D's leading monomials are E^4, s E^2 and s p^2. k is 0 only at
    D = 0. Returns the broadcast inputs (delta, drive, omega, gamma12),
    the _outside code of each point, the branch mask gamma12 != 1, k, E /
    k, sqrt s E and q E over k^2, and A = 256 E^4 and D over k^4.
    """
    d, drive, w, g = _broadcast(delta, drive, omega, gamma12)
    outside = _outside(np.isfinite(d) & np.isfinite(drive) & np.isfinite(w) & np.isfinite(g),
                       drive, g)
    coupled = g != 1.0
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        r = np.hypot(4.0 * d, 1.0)  # sqrt s
        p = np.hypot(4.0 * (w + d), 1.0 + g)
        q = np.hypot(4.0 * w, g)
        size = np.abs(drive)  # a negative drive, which is rejected, does not overflow either
        k = np.maximum(size, np.sqrt(r) * np.sqrt(np.maximum(p, np.minimum(q, size))))
        e = drive / k
        re, qe, rp = r * e / k, q * e / k, r * (p / k) / k
        e2 = e**2
        a = 256.0 * e2 * e2
        den = (3.0 + coupled) * a + 64.0 * re**2 + rp**2
    return (d, drive, w, g), outside, coupled, k, e, re, qe, a, den


def solve_steady_states(delta, drive, omega, gamma12):
    """Steady states of N parameter points in one batch, coupled basis.

    The arguments broadcast to one length N; gamma = 1 is the rate unit.
    With x = 4 delta - i, A = 256 E^4 and, on (|+1>, |0>, |-1>),

        u = (16 E^2, -4 sqrt 2 E x, x (4 omega + 4 delta - i (1 + gamma12)))
        w = (0, 16 E^2, -4 sqrt 2 E x)

    the steady state times its trace D is u u^+ + w w^+ + A |-1><-1|, plus
    A |A><A| while the singlet is coupled (gamma12 != 1); at gamma12 == 1
    exactly the singlet decouples and the state is the triplet-sector one,
    as in solve_steady_state. D is the denominator of
    steady_state_concurrences, and both are evaluated on the scaled terms
    of _scaled_terms. A Gram sum is PSD by construction; each state still
    gets the DensityMatrix checks. A point that fails does not stop the
    others: a non-finite input or a negative drive (OutOfRange), the dark
    line, where the steady state is not unique (InvalidRegime: no drive
    and gamma12 = -1 exactly, at any delta), a state that overflows
    (OutOfRange), or one failing the DensityMatrix checks (InvalidState).
    Returns ``(states, errors)``: an (N, 4, 4) array, NaN where a point
    failed, and a list holding per point None or its failure code's error.
    """
    states, codes, quoted = _solve_blocks(_scaled_terms(delta, drive, omega, gamma12))
    return states, _errors(codes, quoted)


def _closed_form_states(terms) -> np.ndarray:
    """The (N, 4, 4) states of solve_steady_states, unchecked; not finite where failed.

    Entries of D rho over k^4, from the terms of _scaled_terms, with c =
    16 E^2 and b = -4 sqrt 2 E x the shared entries of u and w, and z = x
    (4 omega + 4 delta - i (1 + gamma12)) the last of u; the lower
    triangle is the conjugate of the upper, so the state is exactly
    Hermitian.
    """
    (d, _, om, g), _, coupled, k, e, _, _, a, den = terms
    n = len(d)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        x = 4.0 * d - 1j
        y = np.empty(n, dtype=complex)  # (4 omega + 4 delta - i (1 + gamma12)) / k
        y.real, y.imag = 4.0 * (om + d) / k, -(1.0 + g) / k
        # x meets e or y before the division by k, as in _scaled_terms
        b = -4.0 * _SQ2 * (e * x) / k
        z = x * y / k
        c = 16.0 * e**2
        bb = b.real**2 + b.imag**2 + a  # |b|^2 + c^2, as c^2 == a
        cb, zc = c * b.conj(), z.conj()
        rho = np.zeros((n, 4, 4), dtype=complex)
        rho[:, 0, 0] = a
        rho[:, 0, 1] = cb
        rho[:, 0, 2] = c * zc
        rho[:, 1, 1] = bb
        rho[:, 1, 2] = b * zc + cb
        rho[:, 2, 2] = z.real**2 + z.imag**2 + bb
        rho[:, 1, 0], rho[:, 2, 0], rho[:, 2, 1] = (
            rho[:, 0, 1].conj(), rho[:, 0, 2].conj(), rho[:, 1, 2].conj())
        rho *= (1.0 / den)[:, None, None]
    rho[:, 3, 3] = coupled * rho[:, 0, 0].real  # p_A = rho_{+1,+1} = A / D
    return rho


def _solve_blocks(terms):
    """solve_steady_states on the terms of _scaled_terms: (states, codes, quoted),
    each point's _FAILURES code (0: none) and the value its message quotes.

    The states not failed before get the DensityMatrix checks; the others
    are set to I / 4, which passes them, to keep the fast path. A failed
    state becomes NaN. Each mark runs only where its mask holds a point, so
    a clean stack, every point finite and valid, makes no marks.
    """
    states = _closed_form_states(terms)
    codes = terms[1].copy()
    overflow = ~np.isfinite(states).all(axis=(1, 2))
    if np.count_nonzero(overflow):  # about 0.3 us on a stack of 36, against 1 us for .any()
        codes[overflow & (codes == 0)] = _OVERFLOW
    if np.count_nonzero(codes):
        states[codes > 0] = _I4 / 4.0
    quoted = np.full(len(codes), np.nan)
    failed = _density_codes(states)
    if failed is not None:  # at code-0 points only, as I / 4 passes
        codes += failed[0]
        quoted[codes == _BAD_TRACE] = failed[1][codes == _BAD_TRACE]
    if np.count_nonzero(codes):
        states[codes > 0] = np.nan
    return states, codes, quoted


def solve_steady_state(cfg: AtomPairConfig, c: Couplings) -> DensityMatrix:
    """Steady state for a parameter point, coupled basis, from one 9x9 solve.

    Exchange symmetry makes the unique steady state block-diagonal: a 3x3
    triplet block rho_T and the singlet population p_A, with no coherence
    between them. |A> is fed from |+1> and decays to |-1> alone, both at
    (gamma - gamma12)/2, so its balance forces p_A = rho_{+1,+1}, and p_A
    enters only the rho_{-1,-1} equation. That equation is redundant; the
    trace condition tr rho_T + p_A = 1 replaces it, which leaves 9
    equations in the 9 entries of rho_T, taken from the triplet block of
    build_liouvillian. solve_steady_states writes the same state in closed
    form. The only branch is gamma12 == gamma (= 1) exactly, where the
    singlet decouples, its population is conserved, and the solver returns
    the triplet-sector state (symmetric initial conditions, singlet weight
    exactly zero); any other gamma12, however close to gamma, keeps the
    singlet weight. A point outside the domain of solve_steady_states
    raises its error before the solve; an overflowing generator raises
    OutOfRange, a system singular in double precision InvalidRegime, and
    a state failing the DensityMatrix checks InvalidState.
    """
    finite = math.isfinite(c.omega) and math.isfinite(c.gamma12)  # cfg's are (AtomPairConfig)
    if code := _outside(finite, cfg.drive, c.gamma12):
        raise _failure(code)
    with np.errstate(all="ignore"):  # a finite generator can overflow in the projection
        a = _TRIPLET_ROWS @ build_liouvillian(cfg, c).matrix @ _TRIPLET_COLS
    coupled = bool(c.gamma12 != 1.0)
    a[8] = _TRACE_ROWS[coupled]
    if not np.isfinite(a).all():
        raise OutOfRange("non-finite generator")
    try:
        x = np.linalg.solve(a, _TRACE_RHS)  # trace 1, other rows 0
    except np.linalg.LinAlgError:
        x = np.full(9, np.nan)
    if not np.isfinite(x).all():
        raise InvalidRegime("9x9 steady-state system singular in double precision")
    # unvec, then back to the normalised coupled basis
    rho = hermitian_part(x.reshape(3, 3).T * _NORMALISE)
    return _coupled_state(rho, coupled * rho[0, 0].real)


def _coupled_state(block: np.ndarray, p_a: float = 0.0) -> DensityMatrix:
    """The coupled-basis state of a 3x3 triplet block and singlet population p_a."""
    m = np.zeros((4, 4), dtype=complex)
    m[:3, :3] = block
    m[3, 3] = p_a
    return DensityMatrix(m, BasisTag.COUPLED)


def analytic_steady_state(omega: float, drive: float) -> DensityMatrix:
    """Exact steady state in the triplet sector for gamma12 = 1, delta = 0.

    Hard-coded closed form on (|+1>, |0>, |-1>), normalized by its trace
    N = 192 E^4 + 16 E^2 + 4 W^2 + 1, returned in the coupled basis with
    the singlet row and column exactly zero. At drive = 0 it is the ground
    state diag(0, 0, 1, 0) (its last entry to within an ulp, from the
    division). Inputs outside the domain of solve_steady_states raise its
    errors, and so does a state that overflows (from E ~ 3.1e76 or
    |W| ~ 6.7e153).
    """
    if code := _outside(math.isfinite(omega) and math.isfinite(drive), drive, 1.0):
        raise _failure(code)
    e, w = drive, omega
    try:  # Python floats: a power beyond the largest double raises OverflowError
        m = np.array([
            [64.0 * e**4, -16j * e**3 * _SQ2, 8.0 * e**2 * (2j * w - 1.0)],
            [16j * e**3 * _SQ2, 8.0 * e**2 * (1.0 + 8.0 * e**2),
             -2.0 * e * _SQ2 * (2.0 * w + 1j + 8j * e**2)],
            [-8.0 * e**2 * (2j * w + 1.0), -2.0 * e * _SQ2 * (2.0 * w - 1j - 8j * e**2),
             4.0 * (w**2 + 2.0 * e**2 + 16.0 * e**4) + 1.0],
        ], dtype=complex)
    except OverflowError:
        raise _failure(_OVERFLOW) from None
    with np.errstate(over="ignore"):
        trace = np.trace(m).real  # a sum of entries >= 0 that bound the others
    if not math.isfinite(trace):  # a product, or the sum, overflowed to inf
        raise _failure(_OVERFLOW)
    return _coupled_state(m / trace)


def lamb_dicke_limit_state(tau: float) -> DensityMatrix:
    """Strong-drive limit of the steady state at fixed tau = W / E^2.

    (1 / (tau^2 + 48)) [[16, 0, 4 i tau], [0, 16, 0], [-4 i tau, 0, 16 + tau^2]]
    on (|+1>, |0>, |-1>), returned in the coupled basis with the singlet
    row and column exactly zero; trace is exactly one. A tau that is not
    finite, or whose square overflows (|tau| above about 1.3e154), raises
    the OutOfRange of solve_steady_states.
    """
    if not math.isfinite(tau):
        raise _failure(_NON_FINITE_INPUT)
    try:  # a Python float: its square beyond the largest double raises OverflowError
        tau2 = tau**2
    except OverflowError:
        raise _failure(_OVERFLOW) from None
    m = np.array([[16.0, 0.0, 4j * tau], [0.0, 16.0, 0.0], [-4j * tau, 0.0, 16.0 + tau2]],
                 dtype=complex)
    return _coupled_state(m / (tau2 + 48.0))


# Pade(m) coefficients b_k = (2m - k)! / (k! (m - k)!), up to a common
# factor, and the 1-norm theta_m up to which the unscaled degree-m
# approximant keeps its backward error below the double-precision unit
# roundoff (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005), Table 2.3)
_PADE = {m: [math.factorial(2 * m - k) // (math.factorial(k) * math.factorial(m - k))
             for k in range(m + 1)] for m in (3, 5, 7, 9, 13)}
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068, 13: 5.371920351148152}


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a square matrix by Higham's scaling and squaring of Pade(m).

    The lowest degree m in (3, 5, 7, 9) with ||a||_1 <= theta_m, unscaled;
    above theta_9 degree 13, scaled by 2^-s so that the norm is at most
    theta_13, then squared s times. A non-finite entry, or a result that
    overflows, raises OutOfRange.
    """
    norm = float(np.abs(a).sum(axis=0).max())
    if not math.isfinite(norm):
        raise OutOfRange("exponential of a non-finite matrix")
    m = next((m for m in (3, 5, 7, 9) if norm <= _THETA[m]), 13)
    s = math.ceil(math.log2(norm / _THETA[13])) if norm > _THETA[13] else 0
    if s:
        a = a / 2.0**s
    b = _PADE[m]
    # u and v without their b_1 I and b_0 I terms: r = (v - u)^-1 (v + u)
    # for the odd part u = a (b_1 + b_3 a^2 + ...), even part v = b_0 + b_2 a^2 + ...
    a2 = a @ a
    if m == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2)
    else:
        power, u, v = a2, b[3] * a2, b[2] * a2
        for k in range(4, m, 2):
            power = power @ a2
            u += b[k + 1] * power
            v += b[k] * power
    u.reshape(-1)[:: len(a) + 1] += b[1]  # the diagonals of fresh arrays
    v.reshape(-1)[:: len(a) + 1] += b[0]
    u = a @ u
    r = np.linalg.solve(v - u, v + u)
    if s:  # the squarings of a huge generator's step can overflow
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(s):
                r = r @ r
        if not np.isfinite(r).all():
            raise OutOfRange("exponential overflows")
    return r


# Real coordinates of a Hermitian 4x4: the diagonal, then Re and Im of the upper
# triangle. Column a of _FROM_REAL is vec of the Hermitian matrix that coordinate a
# multiplies. _TO_REAL L _FROM_REAL sums exact products in pairs whose imaginary
# parts cancel exactly if L[ji, lk] = conj L[ij, kl] bit for bit, as for every
# build_liouvillian output. _TO_STACK gives the row-major (Re, Im) pairs of rho.
_ROW = np.array([0, 1, 2, 3] + [0, 0, 0, 1, 1, 2] * 2)  # the diagonal, the upper triangle twice
_COL = np.array([0, 1, 2, 3] + [1, 2, 3, 2, 3, 3] * 2)
_UNIT = np.repeat([1.0, 1.0, 1j], [4, 6, 6])
_FROM_REAL = np.zeros((16, 16), dtype=complex)
_FROM_REAL[_COL + 4 * _ROW, np.arange(16)] = _UNIT.conj()  # overwritten on the diagonal
_FROM_REAL[_ROW + 4 * _COL, np.arange(16)] = _UNIT
# the inverse: the columns of _FROM_REAL are orthogonal, of squared norm 1 or 2
_TO_REAL = _FROM_REAL.conj().T / np.repeat([1.0, 2.0], [4, 12])[:, None]
_TO_STACK = _FROM_REAL[np.arange(16).reshape(4, 4).T.ravel()].T.copy().view(float)


def propagate(
    liouv: Liouvillian, rho0: DensityMatrix, t_final: float, dt: float
) -> tuple[np.ndarray, list[DensityMatrix]]:
    """Exact solution of rho' = L rho on the grid t = 0, dt, 2 dt, ...

    L runs in the 16 real coordinates of a Hermitian 4x4, the diagonal and
    then Re and Im of the upper triangle, so each state is Hermitian by
    construction and rho0 enters as its Hermitian part. The step
    P = exp(L dt) is computed once, so the step size sets only the
    sampling. The states come from about log2(steps) block products: with
    the states up to step m known, P^m maps them to steps m ... 2m - 1,
    and P^m is squared to P^2m. Returns (times, states) at every step
    including t = 0. A state's trace may drift from one by at most
    TRACE_DRIFT_MAX (only a generator that does not preserve trace does
    that); normalized, it must pass the DensityMatrix checks. The first
    failing state raises InvalidState naming its step, and a generator whose
    imaginary part in real coordinates exceeds HERMITICITY_RTOL of its
    largest entry (it does not preserve Hermiticity) InvalidState; dt,
    t_final, over MAX_STEPS steps or a generator out of range OutOfRange.
    """
    if not dt > 0:  # NaN fails too
        raise OutOfRange("dt must be > 0")
    if not dt <= t_final < math.inf:
        raise OutOfRange("t_final must be finite and >= dt")
    steps = float(t_final) / float(dt)  # inf when it overflows, on Python floats
    if not steps - 1e-9 <= tol.MAX_STEPS:
        raise OutOfRange(f"t_final / dt = {steps:.3g} exceeds {tol.MAX_STEPS} steps")
    if rho0.basis is not liouv.basis:
        raise InvalidState(
            f"cross-basis arithmetic: state is {rho0.basis}, generator {liouv.basis}"
        )
    with np.errstate(all="ignore"):  # a huge generator's conversion can overflow
        r = _TO_REAL @ liouv.matrix @ _FROM_REAL
    if r.imag.any():  # 0 for every build_liouvillian output; NaN is not
        size = np.abs(r).max()
        if not size < math.inf:  # NaN fails too; out of range comes first
            raise OutOfRange("exponential of a non-finite matrix")
        if np.abs(r.imag).max() > tol.HERMITICITY_RTOL * size:
            raise InvalidState("generator does not preserve Hermiticity")
    nsteps = math.ceil(steps - 1e-9)
    times = dt * np.arange(nsteps + 1)
    power = _expm(r.real * dt).T  # P^m, transposed: the states are rows
    v = np.empty((nsteps + 1, 16))
    v[0] = (_TO_REAL @ vec(rho0.matrix)).real
    done = 1  # states known: steps 0 ... done - 1
    while done <= nsteps:
        k = min(done, nsteps + 1 - done)
        v[done:done + k] = v[:k] @ power
        done += k
        if done <= nsteps:
            power = power @ power
    tr = v[1:, :4].sum(axis=1)
    drift = np.abs(tr - 1.0)
    over = np.flatnonzero(~(drift <= tol.TRACE_DRIFT_MAX))  # NaN drift fails too
    end = over[0] if len(over) else nsteps
    rho = ((v[1:end + 1] / tr[:end, None]) @ _TO_STACK).view(complex).reshape(end, 4, 4)
    failed = _density_codes(rho)
    if failed is not None:
        k = np.flatnonzero(failed[0])[0]
        raise InvalidState(f"step {k + 1}: {_failure(failed[0][k], failed[1][k])}")
    if len(over):
        raise InvalidState(f"step {end + 1}: trace drift {drift[end]:.3e} "
                           f"exceeds {tol.TRACE_DRIFT_MAX:.0e}")
    return times, [rho0] + DensityMatrix._checked(rho, liouv.basis)
