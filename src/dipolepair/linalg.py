"""Dense complex linear algebra kernels for problems up to 16x16.

Everything here is a pure function of its arguments; inputs are never
mutated. All numerics are double precision.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

from . import tolerances as tol
from .errors import NoNullSpace, NotHermitian, NotPSD, OutOfRange


class BasisTag(enum.Enum):
    """Basis label carried by states and operators.

    Mixing two differently tagged objects in one expression is an error;
    convert explicitly first.
    """

    COMPUTATIONAL = "computational"  # |ee>, |eg>, |ge>, |gg>
    COUPLED = "coupled"              # |+1>, |0>, |-1>, |A>


@functools.cache
def _kron_index(m: int, n: int, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into a (m x n) and b (p x q) of each entry of kron(a, b)."""
    row_a, row_b, col_a, col_b = np.indices((m, p, n, q)).reshape(4, m * p, n * q)
    return row_a * n + col_a, row_b * q + col_b


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices; dimensions multiply.

    The same products as np.kron, from one gather of each factor by flat
    indices cached per pair of shapes.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    ia, ib = _kron_index(*a.shape, *b.shape)
    return a.ravel()[ia] * b.ravel()[ib]


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2, of one matrix or of each of a stack."""
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def _require_finite(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if not np.isfinite(m).all():
        raise OutOfRange("matrix entries must be finite")
    return m


def _finite_eigenvalues(w: np.ndarray) -> np.ndarray:
    if not np.isfinite(w).all():  # a finite matrix too large for its spectrum
        raise OutOfRange("eigenvalues are not finite: matrix entries too large")
    return w


def _require_hermitian(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    dev = np.abs(m - m.conj().T).max()
    if dev > tol.HERMITICITY_ATOL:
        raise NotHermitian(f"deviation from Hermiticity {dev:.3e}")
    return m


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues real and sorted
    descending; eigenvector i is the column ``v[:, i]``. A non-finite
    entry (checked before any arithmetic) or eigenvalue raises OutOfRange.
    """
    m = _require_hermitian(_require_finite(m))
    w, v = np.linalg.eigh(m)
    return _finite_eigenvalues(w)[::-1].copy(), v[:, ::-1].copy()


def general_eig(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a general complex matrix, dim <= 4.

    Sorted by descending real part, then descending imaginary part, so
    repeated runs produce identical output. A non-finite entry or
    eigenvalue raises OutOfRange.
    """
    m = _require_finite(m)
    if m.shape[0] != m.shape[1] or m.shape[0] > 4:
        raise ValueError(f"expected a square matrix of dim <= 4, got {m.shape}")
    w = _finite_eigenvalues(np.linalg.eigvals(m))
    order = np.lexsort((-w.imag, -w.real))
    return w[order]


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root s with s @ s == m.

    Eigenvalues slightly below zero (floor -1e-10) are clamped; anything
    lower raises NotPSD.
    """
    m = _require_hermitian(m)
    w, v = np.linalg.eigh(m)  # ascending
    if w[0] < tol.PSD_EVAL_FLOOR:
        raise NotPSD(f"eigenvalue {w[0]:.3e} below PSD floor")
    return hermitian_part((v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T)


def null_vector(m: np.ndarray) -> tuple[np.ndarray, bool]:
    """Unit-norm kernel vector of a square matrix, via SVD.

    Returns ``(v, degenerate)`` where v belongs to the smallest singular
    value and ``degenerate`` flags a second singular value under the same
    relative threshold (the caller decides what to do about it).
    Raises NoNullSpace when the smallest singular value is not small; OutOfRange on NaN or inf.
    """
    m = _require_finite(m)
    _, s, vh = np.linalg.svd(m)
    smax = s[0]
    if s[-1] > tol.NULLSPACE_RTOL * smax:
        raise NoNullSpace(
            f"smallest singular value {s[-1]:.3e} exceeds "
            f"{tol.NULLSPACE_RTOL:.0e} * {smax:.3e}"
        )
    degenerate = len(s) > 1 and s[-2] <= tol.KERNEL_FLAG_RTOL * smax
    return vh[-1].conj().copy(), degenerate
