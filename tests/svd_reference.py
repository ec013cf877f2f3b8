"""Steady states as SVD kernels of the generator, one point at a time.

Independent references for the solver tests: the kernel of the full
16x16 superoperator (``steady_state_numeric``) and of its 9x9 triplet
block (``triplet_steady_state``). Neither knows about exchange symmetry
or the closed form; both stop at a singular-value threshold instead.
``kron_loop_liouvillian`` is the generator assembled channel by channel,
in the order and arithmetic that ``build_liouvillian`` must reproduce
bit for bit, and ``to_coupled`` takes a generator to the coupled basis.
"""

from __future__ import annotations

import math

import numpy as np

from dipolepair import BasisTag, DensityMatrix, Liouvillian, hermitian_part
from dipolepair import tolerances as tol
from dipolepair.errors import DipolePairError, NoNullSpace
from dipolepair.model import I2, SIGMA_X, SIGMA_Z, SM1, SM2, SP1, SP2, TO_COUPLED

KERNEL_EXACT_RTOL = 1e-12  # below this the kernel is genuinely multi-dimensional

# flat indices of the 3x3 triplet block inside a column-stacked 4x4
_TRIPLET_IDX = np.array([i + 4 * j for j in range(3) for i in range(3)])

# computational -> coupled basis change of column-stacked 4x4s
_TO_COUPLED_SUPER = np.kron(TO_COUPLED.conj(), TO_COUPLED)


class DegenerateKernel(DipolePairError):
    """Kernel is more than one-dimensional; the steady state is not unique."""


def _kernel_state(m: np.ndarray, label: str, degenerate_rtol: float | None):
    """State spanning the kernel of one generator, by SVD.

    Raises NoNullSpace (message prefix ``label``) when the smallest
    singular value exceeds NULLSPACE_RTOL of the largest; DegenerateKernel
    when, with ``degenerate_rtol``, the second is below that fraction of
    the largest, or when the kernel vector is traceless. The kernel vector,
    its phase fixed by its trace, Hermitized and normalized, is returned
    as a matrix.
    """
    _, s, vh = np.linalg.svd(m)
    if s[-1] > tol.NULLSPACE_RTOL * s[0]:
        raise NoNullSpace(f"{label}: smallest singular value {s[-1]:.3e}")
    if degenerate_rtol is not None and s[-2] <= degenerate_rtol * s[0]:
        raise DegenerateKernel("steady state is not unique (singlet sector decoupled); "
                               "restrict to the triplet sector")
    rho = vh[-1].conj().reshape((math.isqrt(len(m)),) * 2, order="F")
    tr = np.trace(rho)
    if abs(tr) < 1e-10:
        raise DegenerateKernel("kernel vector is traceless, steady state not unique")
    rho = hermitian_part(rho * (tr.conjugate() / abs(tr)))
    return rho / np.trace(rho).real


def steady_state_numeric(liouv: Liouvillian) -> DensityMatrix:
    """Kernel of the superoperator, Hermitized and trace-normalized.

    Raises DegenerateKernel when the kernel is more than one-dimensional
    at working precision, which happens exactly when gamma12 = gamma (the
    singlet decouples); restrict to the triplet sector in that case.
    """
    return DensityMatrix(_kernel_state(liouv.matrix, "no kernel", KERNEL_EXACT_RTOL),
                         liouv.basis)


def to_coupled(liouv: Liouvillian) -> Liouvillian:
    """The generator in the coupled basis; a coupled one is returned as it is."""
    if liouv.basis is BasisTag.COUPLED:
        return liouv
    u = _TO_COUPLED_SUPER
    return Liouvillian(u @ liouv.matrix @ u.conj().T, BasisTag.COUPLED)


def restrict_triplet(liouv: Liouvillian) -> np.ndarray:
    """9x9 sub-superoperator acting on the triplet block, coupled basis."""
    return to_coupled(liouv).matrix[np.ix_(_TRIPLET_IDX, _TRIPLET_IDX)]


def triplet_steady_state(liouv: Liouvillian) -> DensityMatrix:
    """Steady state of the triplet-restricted dynamics, coupled basis, with
    the singlet row and column exactly zero."""
    state = np.zeros((4, 4), dtype=complex)
    state[:3, :3] = _kernel_state(restrict_triplet(liouv), "no triplet kernel", None)
    return DensityMatrix(state, BasisTag.COUPLED)


def kron_loop_liouvillian(cfg, c) -> np.ndarray:
    """The 16x16 generator of build_liouvillian, Hamiltonian included.

    Every operator product is formed where it is used, the Kronecker
    products are numpy's own np.kron, the rates come from a numpy table,
    and each term makes a fresh array.
    """
    _i4 = np.eye(4, dtype=complex)
    h = 0.5 * cfg.delta * (np.kron(SIGMA_Z, I2) + np.kron(I2, SIGMA_Z))
    h = h + cfg.drive * (np.kron(SIGMA_X, I2) + np.kron(I2, SIGMA_X))
    h = h + c.omega * (SP1 @ SM2 + SM1 @ SP2)
    lops_minus = (SM1, SM2)
    lops_plus = (SP1, SP2)
    rates = 0.5 * np.array([[1.0, c.gamma12], [c.gamma12, 1.0]], dtype=float)
    lm = -1j * (np.kron(_i4, h) - np.kron(h.T, _i4))
    for i in range(2):
        for j in range(2):
            r = rates[i, j]
            a = lops_plus[i] @ lops_minus[j]
            lm = lm + 0.5 * r * (
                2.0 * np.kron(lops_plus[j].T, lops_minus[i]) - np.kron(_i4, a) - np.kron(a.T, _i4)
            )
    return lm
