import itertools
import warnings

import numpy as np
import pytest

from dipolepair import (
    AtomPairConfig,
    Couplings,
    build_effective_hamiltonian,
    build_liouvillian,
    general_eig,
    hermitian_eig,
    kron,
    null_vector,
    psd_sqrt,
)
from dipolepair.errors import NoNullSpace, NotHermitian, NotPSD, OutOfRange
from dipolepair.model import I2, SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Z, triplet_block

EIGEN_RESIDUAL_ATOL = 1e-9  # ||m v - lam v|| for Hermitian eigenpairs
GENERAL_EIG_ATOL = 1e-8  # characteristic-polynomial agreement
PSD_SQRT_ATOL = 1e-8  # ||s s - m||

RNG = np.random.default_rng(42)


def random_complex(n, m=None):
    m = n if m is None else m
    return RNG.normal(size=(n, m)) + 1j * RNG.normal(size=(n, m))


# ---------------------------------------------------------------- kron


def test_kron_identity():
    assert np.array_equal(kron(I2, I2), np.eye(4))


def test_kron_sigma_z_first_atom():
    assert np.array_equal(kron(SIGMA_Z, I2), np.diag([1, 1, -1, -1]).astype(complex))


def test_kron_exchange_maps_ge_to_eg():
    # basis |ee>, |eg>, |ge>, |gg>: hand expansion of the 2x2 blocks
    ge = np.array([0, 0, 1, 0], dtype=complex)
    eg = np.array([0, 1, 0, 0], dtype=complex)
    assert np.allclose(kron(SIGMA_PLUS, SIGMA_MINUS) @ ge, eg, atol=1e-15)


def test_kron_associative_bilinear():
    for _ in range(10):
        a, b, c = random_complex(2), random_complex(3), random_complex(2)
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        assert np.abs(left - right).max() < 1e-12
        x, y = RNG.normal(), RNG.normal()
        lin = kron(x * a + y * c, b)
        assert np.abs(lin - (x * kron(a, b) + y * kron(c, b))).max() < 1e-12


def test_kron_is_np_kron_bit_for_bit():
    # every pair of shapes with sides 1-4; each factor contiguous or a
    # transposed view, complex or real
    def factors(m, n):
        c = random_complex(m, n)
        r = RNG.normal(size=(m, n))
        return c, random_complex(n, m).T, r, RNG.normal(size=(n, m)).T

    for m, n, p, q in itertools.product(range(1, 5), repeat=4):
        for a, b in itertools.product(factors(m, n), factors(p, q)):
            got, want = kron(a, b), np.kron(a.astype(complex), b.astype(complex))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            if not (np.iscomplexobj(a) or np.iscomplexobj(b)):
                assert np.array_equal(got.real, np.kron(a, b)) and not got.imag.any()


# ---------------------------------------------------------------- hermitian_eig


def test_hermitian_eig_diagonal():
    w, _ = hermitian_eig(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(w, [3.0, 1.0])


def test_hermitian_eig_pauli_x():
    w, _ = hermitian_eig(SIGMA_X)
    assert np.allclose(w, [1.0, -1.0])


def test_hermitian_eig_triplet_block_zero_detuning():
    from dipolepair.model import triplet_block

    omega, drive = 1.7, 0.9
    w, _ = hermitian_eig(triplet_block(0.0, omega, drive))
    gap = np.sqrt(omega**2 + 16 * drive**2)
    expected = sorted([omega / 2 + gap / 2, 0.0, omega / 2 - gap / 2], reverse=True)
    assert np.allclose(w, expected, atol=1e-12)


def test_hermitian_eig_reconstruction_and_orthonormality():
    for n in (2, 3, 4):
        a = random_complex(n)
        m = (a + a.conj().T) / 2
        w, v = hermitian_eig(m)
        assert np.abs(v @ np.diag(w) @ v.conj().T - m).max() < EIGEN_RESIDUAL_ATOL
        assert np.abs(v.conj().T @ v - np.eye(n)).max() < EIGEN_RESIDUAL_ATOL
        for i in range(n):
            assert np.linalg.norm(m @ v[:, i] - w[i] * v[:, i]) < EIGEN_RESIDUAL_ATOL


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
def test_eigensolvers_reject_a_non_finite_entry_before_any_arithmetic(bad):
    # a Hermitian matrix apart from the bad diagonal entry; the Hermiticity
    # test on it would warn, and LAPACK would fail with its own message
    m = np.array([[1.0, 2.0, 0.0], [2.0, bad, 0.5], [0.0, 0.5, -1.0]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solver in (hermitian_eig, general_eig):
            with pytest.raises(OutOfRange, match="^matrix entries must be finite$"):
                solver(m)


def test_eigensolvers_reject_eigenvalues_that_overflow():
    # finite entries whose spectrum leaves the doubles: the triplet block at
    # E = 1e308 has eigenvalues +-inf, which no caller may take for energies
    m = triplet_block(0.0, 1.0, 1e308)
    assert np.isfinite(m).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solver in (hermitian_eig, general_eig):
            with pytest.raises(OutOfRange, match="^eigenvalues are not finite"):
                solver(m)


# ---------------------------------------------------------------- general_eig


def test_general_eig_nilpotent():
    w = general_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(w, [0.0, 0.0], atol=1e-12)


def test_general_eig_effective_hamiltonian_diagonal_at_zero_drive():
    cfg = AtomPairConfig(delta=0.0, drive=0.0)
    c = Couplings(omega=1.3, gamma12=0.4)
    heff = build_effective_hamiltonian(cfg, c)
    w = general_eig(heff)
    expected = np.array(
        [-1j, 1.3 - 0.5j * 1.4, 0.0, -1.3 - 0.5j * 0.6], dtype=complex
    )
    # compare as multisets
    for e in expected:
        assert np.abs(w - e).min() < 1e-8


def test_general_eig_matches_characteristic_polynomial():
    # independent oracle: coefficients from trace / principal minors / det
    for _ in range(20):
        m = random_complex(3)
        c2 = -np.trace(m)
        minors = 0.0
        for i in range(3):
            idx = [k for k in range(3) if k != i]
            sub = m[np.ix_(idx, idx)]
            minors += sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0]
        c0 = -np.linalg.det(m)
        roots = np.roots([1.0, c2, minors, c0])
        w = general_eig(m)
        for r in roots:
            assert np.abs(w - r).min() < GENERAL_EIG_ATOL


def test_general_eig_sum_is_trace_and_order_deterministic():
    for _ in range(10):
        m = random_complex(4)
        w = general_eig(m)
        assert abs(w.sum() - np.trace(m)) < 1e-9
        key = [(-v.real, -v.imag) for v in w]
        assert key == sorted(key)


def test_general_eig_rejects_large_matrices():
    with pytest.raises(ValueError):
        general_eig(np.eye(5))


# ---------------------------------------------------------------- psd_sqrt


def test_psd_sqrt_diagonal():
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0]).astype(complex)),
                       np.diag([2.0, 3.0]), atol=1e-12)


def test_psd_sqrt_identity():
    assert np.allclose(psd_sqrt(np.eye(4, dtype=complex)), np.eye(4), atol=1e-12)


def test_psd_sqrt_projector_idempotent():
    # zero modes of a singular input carry sqrt(eps) noise, so the
    # comparison tolerance is looser than for the square-back check
    v = random_complex(4, 1).ravel()
    v /= np.linalg.norm(v)
    p = np.outer(v, v.conj())
    s = psd_sqrt(p)
    assert np.abs(s - p).max() < 1e-7
    assert np.abs(s @ s - p).max() < 1e-8


def test_psd_sqrt_squares_back():
    for n in (2, 3, 4):
        a = random_complex(n)
        m = a @ a.conj().T
        s = psd_sqrt(m)
        assert np.abs(s @ s - m).max() < PSD_SQRT_ATOL
        assert np.abs(s - s.conj().T).max() < 1e-12


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -1e-6]).astype(complex))


# ---------------------------------------------------------------- null_vector


def test_null_vector_rejects_a_non_finite_entry():
    # the SVD would fail with LAPACK's own message
    with pytest.raises(OutOfRange, match="^matrix entries must be finite$"):
        null_vector(np.diag([1.0, np.nan]).astype(complex))


def test_null_vector_simple():
    v, degenerate = null_vector(np.diag([1.0, 0.0]).astype(complex))
    assert not degenerate
    assert abs(abs(v[1]) - 1.0) < 1e-12 and abs(v[0]) < 1e-12


def test_null_vector_of_undriven_liouvillian_is_ground_state():
    cfg = AtomPairConfig(delta=0.0, drive=0.0, k0r=1.0)
    liouv = build_liouvillian(cfg, Couplings(omega=2.0, gamma12=0.5))
    v, degenerate = null_vector(liouv.matrix)
    assert not degenerate
    target = np.zeros(16)
    target[15] = 1.0  # vec(|gg><gg|), column stacking
    overlap = abs(np.vdot(target, v))
    assert abs(overlap - 1.0) < 1e-8


def test_null_vector_constructed_kernel():
    for k in range(4):
        a = random_complex(4)
        p = np.eye(4, dtype=complex)
        p[k, k] = 0.0
        v, _ = null_vector(a @ p)
        assert abs(abs(v[k]) - 1.0) < 1e-8


def test_null_vector_flags_degenerate_kernel():
    cfg = AtomPairConfig(delta=0.0, drive=1.0)
    liouv = build_liouvillian(cfg, Couplings(omega=2.0, gamma12=1.0))
    _, degenerate = null_vector(liouv.matrix)
    assert degenerate


def test_null_vector_rejects_full_rank():
    with pytest.raises(NoNullSpace):
        null_vector(np.eye(3, dtype=complex))


def test_null_vector_residual_bound():
    cfg = AtomPairConfig(delta=0.3, drive=0.7, k0r=2.0)
    liouv = build_liouvillian(cfg, Couplings(omega=0.3, gamma12=0.65))
    m = liouv.matrix
    v, _ = null_vector(m)
    assert np.linalg.norm(m @ v) <= 1e-8 * np.linalg.norm(m, 2)
