import math
import warnings

import numpy as np
import pytest

from dipolepair import (
    AtomPairConfig,
    Couplings,
    build_effective_hamiltonian,
    build_hamiltonian,
    couplings_from_geometry,
    cross_decay,
    dipole_coupling,
    hermitian_eig,
    k0r_for_tau,
    tau_of_geometry,
)
from dipolepair import cli
from dipolepair.errors import InvalidGeometry, OutOfRange
from dipolepair.model import TO_COUPLED
from dipolepair.tolerances import SMALL_X

# ------------------------------------------------------- dipole coupling


def test_dipole_coupling_at_pi_perpendicular():
    got = dipole_coupling(math.pi, 0.0)
    expected = 0.75 * (1.0 / math.pi - 1.0 / math.pi**3)  # ~0.21454
    assert abs(got - expected) < 1e-14


def test_dipole_coupling_leading_divergence():
    # omega * x^3 -> 3/4 as x -> 0 for perpendicular dipoles
    for x in (1e-4, 1e-6):
        assert abs(dipole_coupling(x, 0.0) * x**3 - 0.75) < 1e-8


def test_dipole_coupling_magic_angle_leaves_first_term():
    mu = math.sqrt(1.0 / 3.0)
    for x in (0.5, 1.0, math.pi):
        expected = -0.75 * (2.0 / 3.0) * math.cos(x) / x
        assert abs(dipole_coupling(x, mu) - expected) < 1e-12


# from where the dipole coupling just fits in a double to where x^3 overflows,
# and the neighbours of the series switch SMALL_X
BITWISE_K0R = np.concatenate([np.geomspace(1e-102, 1e300, 4001),
                              SMALL_X * np.array([0.5, 0.999, 1.0, 1.001, 2.0])])


@pytest.mark.parametrize("factor", [dipole_coupling, cross_decay])
def test_scalar_and_one_element_array_calls_agree_bitwise(factor):
    # a scalar k0r runs on numpy floats, where x**3 rounds unlike the array
    # power for about 5% of k0r: the factors must still give the array values
    rng = np.random.default_rng(53)
    k0r = BITWISE_K0R
    mu = rng.uniform(0.0, 1.0, len(k0r))
    below = 0
    for x, m in zip(k0r.tolist(), mu.tolist()):
        extra = (m,) if factor is dipole_coupling else ()
        scalar = factor(x, *extra)
        (array,) = factor(np.array([x]), *extra)
        assert type(scalar) is float
        assert np.float64(scalar).tobytes() == array.tobytes(), (x, m)
        below += x < SMALL_X
    assert min(below, len(k0r) - below) > 900  # both sides of SMALL_X


@pytest.mark.parametrize("mu", [0.0, 0.3, 0.5773502691896258, 0.9, 1.0])
def test_shared_geometry_gives_the_public_factors_bit_for_bit(mu):
    # couplings_from_geometry and the mesh of the grid commands evaluate both
    # factors at once; each must give dipole_coupling and cross_decay bit for bit
    def bits(*values):
        return np.array(values, dtype=float).tobytes()

    omega, gamma12 = dipole_coupling(BITWISE_K0R, mu), cross_decay(BITWISE_K0R)
    for k, x in enumerate(BITWISE_K0R.tolist()):
        c = couplings_from_geometry(AtomPairConfig(k0r=x, mu_dot_rhat=mu))
        assert type(c.omega) is float and type(c.gamma12) is float
        public = (dipole_coupling(x, mu), cross_decay(x))
        assert bits(c.omega, c.gamma12) == bits(*public) == bits(omega[k], gamma12[k]), x
    ns = cli._build_parser().parse_args(["sweep", "--efield", "1", "--mu-dot-rhat", str(mu)])
    columns, _ = cli._mesh(ns, [("k0r", BITWISE_K0R)])
    assert columns["k0r"].tobytes() == BITWISE_K0R.tobytes()
    assert columns["omega"].tobytes() == omega.tobytes()
    assert columns["gamma12"].tobytes() == gamma12.tobytes()


def test_dipole_coupling_rejects_bad_distance():
    with pytest.raises(InvalidGeometry):
        dipole_coupling(0.0)
    with pytest.raises(InvalidGeometry):
        dipole_coupling(-1.0)


@pytest.mark.parametrize("factor", [dipole_coupling, cross_decay])
@pytest.mark.parametrize("k0r", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_geometry_factors_reject_a_distance_that_is_not_finite_and_positive(factor, k0r):
    with pytest.raises(InvalidGeometry, match="k0r must be finite and > 0"):
        factor(k0r)
    # one bad entry rejects the whole array
    with pytest.raises(InvalidGeometry, match="k0r must be finite and > 0"):
        factor(np.array([0.5, k0r, 1e-4]))
    with pytest.raises(InvalidGeometry):
        factor(np.full((2, 2), k0r))


@pytest.mark.parametrize("k0r", [1e103, 1e300])
def test_geometry_factors_at_large_distance_raise_no_warning(k0r):
    # the powers of x that overflow belong to terms that tend to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        omega, gamma12 = dipole_coupling(k0r), cross_decay(k0r)
        omegas = dipole_coupling(np.array([1e-4, k0r]), 0.3)
        gammas = cross_decay(np.array([1e-4, k0r]))
    inv2 = 1.0 / k0r**2 if k0r < 1e150 else 0.0
    assert omega == pytest.approx(0.75 * (-math.cos(k0r) / k0r + math.sin(k0r) * inv2), rel=1e-12)
    assert gamma12 == pytest.approx(-3.0 * math.cos(k0r) * inv2, rel=1e-12, abs=1e-320)
    assert omegas.tolist() == [dipole_coupling(1e-4, 0.3), dipole_coupling(k0r, 0.3)]
    assert gammas.tolist() == [cross_decay(1e-4), gamma12]


@pytest.mark.parametrize("k0r", [5e-324, 1e-120])
def test_dipole_coupling_rejects_a_distance_where_it_overflows(k0r):
    # |Omega| ~ 0.75 / k0r^3 exceeds the largest double below about 2e-103, so the
    # pair of factors fails too; the cross decay alone stays finite, at its cap below 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for arg in (k0r, np.array([0.5, k0r, 1e-4])):
            with pytest.raises(InvalidGeometry, match="^k0r below about 2e-103: .* overflows$"):
                dipole_coupling(arg, 0.2)
        with pytest.raises(InvalidGeometry, match="^k0r below about 2e-103: .* overflows$"):
            couplings_from_geometry(AtomPairConfig(k0r=k0r))
        assert cross_decay(k0r) == np.nextafter(1.0, 0.0)
    assert math.isfinite(dipole_coupling(2.3e-103))
    assert math.isfinite(dipole_coupling(2.3e-103, 1.0))


def omega_exact(x, mu):
    """Omega at k0r = x to 60 digits, a and b rounded to doubles as the package rounds them."""
    mp = pytest.importorskip("mpmath").mp
    a, b = 1.0 - mu**2, 1.0 - 3.0 * mu**2
    with mp.workdps(60):
        x = mp.mpf(x)
        c = mp.cos(x)
        return 0.75 * (-a * c / x + b * (mp.sin(x) / x**2 + c / x**3))


@pytest.mark.parametrize("mu", [0.0, 0.3, 0.5, 0.5773502691896258, 0.57735, 0.9, 1.0])
def test_dipole_coupling_is_one_formula_within_1e_15_of_mpmath(mu):
    # no series at short distance: the closed form holds down to the overflow,
    # also where b / x^3 nearly balances a / x (|mu.r| = 0.57735, x ~ 1e-3);
    # at 2.19e-103 Omega(1) = -1.428e308, where (3/4) T overflows and 3 (T / 4) does not
    for x in np.geomspace(2e-103, 1e-3, 1500).tolist() + [2.19e-103]:
        exact = omega_exact(x, mu)
        try:
            got = dipole_coupling(x, mu)
        except InvalidGeometry:  # only where Omega is beyond the largest double
            assert abs(exact) > np.finfo(float).max, (x, mu)
            continue
        assert abs(got - exact) <= 1e-15 * abs(exact), (x, mu, got)


# ------------------------------------------------------- cross decay


def test_cross_decay_short_distance_limit():
    assert abs(cross_decay(1e-6) - 1.0) < 1e-12


def test_cross_decay_reference_points():
    assert abs(cross_decay(math.pi) - 3.0 / math.pi**2) < 1e-14
    assert abs(cross_decay(2 * math.pi) + 3.0 / (4 * math.pi**2)) < 1e-14


def test_cross_decay_bounded_by_one():
    x = np.arange(1e-4, 100.0, 1e-3)
    g = cross_decay(x)
    assert np.abs(g).max() <= 1.0 + 1e-12


def test_cross_decay_stays_below_one_at_every_distance():
    # gamma12 == gamma exactly selects the decoupled-singlet branch of the
    # solver; the cap keeps every distance off it, on both evaluation paths
    x = np.array([5e-324, 1e-300, 1e-12, 1e-8, 2e-8, 3e-8, 1e-4])
    g = cross_decay(x)
    assert (g < 1.0).all() and g[:5].tolist() == [np.nextafter(1.0, 0.0)] * 5
    assert g.tolist() == [cross_decay(float(v)) for v in x]


def test_cross_decay_within_one_ulp_below_the_switch_and_the_closed_form_above():
    # the closed form cancels well above x = 1e-3 (millions of ulp at 1e-2, 19 at 0.5)
    mp = pytest.importorskip("mpmath").mp
    below = np.concatenate([np.geomspace(1e-8, SMALL_X, 3000, endpoint=False),
                            np.linspace(0.9 * SMALL_X, SMALL_X, 500, endpoint=False),
                            [1.001e-3, np.nextafter(SMALL_X, 0.0)]])
    with mp.workdps(60):
        for x in below.tolist():
            y = mp.mpf(x)
            exact = 3 * (mp.sin(y) - y * mp.cos(y)) / y**3
            got = cross_decay(x)
            assert abs(got - exact) <= np.spacing(float(exact)), (x, got)
    above = np.concatenate([[SMALL_X], np.geomspace(SMALL_X, 1e3, 2000)])
    closed = -3.0 * (np.cos(above) / (above * above) - np.sin(above) / np.power(above, 3))
    assert np.array_equal(cross_decay(above), closed)
    # the singlet decay 1 - Gamma12 that `spectrum --k0r 1.001e-3` prints
    assert 1.0 - cross_decay(1.001e-3) == pytest.approx(1.00200096414e-07, rel=1e-9)


# ------------------------------------------------------- small-x series guard


def _omega_taylor6(x, mu):
    # hand-combined 6-term expansion of the coupling bracket
    a = 1.0 - mu**2
    b = 1.0 - 3.0 * mu**2
    bracket = (
        b / x**3
        + (b / 2.0 - a) / x
        + (a / 2.0 - b / 8.0) * x
        + (-a / 24.0 + b / 144.0) * x**3
        + (a / 720.0 - b / 5760.0) * x**5
        + (-a / 40320.0 + b / 403200.0) * x**7
    )
    return 0.75 * bracket


def _gamma_taylor6(x):
    return (
        1.0
        - x**2 / 10.0
        + x**4 / 280.0
        - x**6 / 15120.0
        + x**8 / 1330560.0
        - x**10 / 172972800.0
    )


def test_small_x_series_agreement():
    xs = np.logspace(-5, math.log10(9.9e-4), 25)
    for x in xs:
        g = cross_decay(float(x))
        assert abs(g - _gamma_taylor6(x)) <= 1e-10 * abs(g)
        for mu in (0.0, 0.3, 1.0):
            w = dipole_coupling(float(x), mu)
            ref = _omega_taylor6(x, mu)
            assert abs(w - ref) <= 1e-10 * max(abs(ref), 1e-300)


def test_coupling_branches_agree_at_series_switch():
    # both factors sit on the Taylor oracle just either side of x = 1e-3
    x_lo = 1e-3 * (1 - 1e-9)
    x_hi = 1e-3 * (1 + 1e-9)
    for x in (x_lo, x_hi):
        assert abs(cross_decay(x) - _gamma_taylor6(x)) <= 2e-10
        ref = _omega_taylor6(x, 0.0)
        assert abs(dipole_coupling(x, 0.0) - ref) <= 2e-10 * abs(ref)


def test_array_geometry_equals_the_scalar_formulas():
    # the grid commands evaluate a whole mesh column in one call
    x = np.concatenate([
        np.geomspace(1e-4, 50.0, 1001),
        np.linspace(0.5 * SMALL_X, 2.0 * SMALL_X, 499),
        np.nextafter(SMALL_X, [0.0, 1.0]), [SMALL_X],
    ])
    np.random.default_rng(41).shuffle(x)
    parts = (slice(None), x < SMALL_X, x >= SMALL_X, slice(0, 7))
    for f in (lambda v: dipole_coupling(v, 0.0), lambda v: dipole_coupling(v, 0.5),
              lambda v: dipole_coupling(v, 1.0), cross_decay):
        scalar = np.array([f(float(v)) for v in x])
        for part in parts:
            assert np.array_equal(f(x[part]), scalar[part])


# ------------------------------------------------------- Hamiltonian


def test_hamiltonian_spectrum_undriven_resonant():
    cfg = AtomPairConfig(delta=0.0, drive=0.0)
    for omega in (0.5, 2.0):
        w, _ = hermitian_eig(build_hamiltonian(cfg, omega))
        assert np.allclose(w, sorted([omega, 0.0, 0.0, -omega], reverse=True),
                           atol=1e-12)


def test_singlet_is_eigenstate_for_any_parameters():
    ket_a = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
    for delta, drive, omega in ((0.7, 1.3, 2.0), (0.0, 5.0, -1.0), (-2.0, 0.1, 0.4)):
        h = build_hamiltonian(AtomPairConfig(delta=delta, drive=drive), omega)
        assert np.abs(h @ ket_a + omega * ket_a).max() < 1e-12


def test_resonant_bell_state_has_zero_energy():
    psi = np.zeros(4, dtype=complex)
    psi[0], psi[3] = 1.0, -1.0
    psi /= math.sqrt(2)
    h = build_hamiltonian(AtomPairConfig(delta=0.0, drive=1.7), 0.9)
    assert np.abs(h @ psi).max() < 1e-12


def test_hamiltonian_exactly_hermitian():
    h = build_hamiltonian(AtomPairConfig(delta=0.3, drive=0.9), 1.1)
    assert np.array_equal(h, h.conj().T)


# ------------------------------------------------------- effective Hamiltonian


def test_effective_hamiltonian_diagonal_at_zero_drive():
    cfg = AtomPairConfig(delta=0.4, drive=0.0)
    c = Couplings(omega=1.2, gamma12=0.3)
    heff = build_effective_hamiltonian(cfg, c)
    off = heff - np.diag(np.diag(heff))
    assert np.abs(off).max() == 0.0
    assert np.allclose(
        np.diag(heff),
        [0.4 - 1j, 1.2 - 0.5j * 1.3, -0.4, -1.2 - 0.5j * 0.7],
    )


def test_effective_hamiltonian_undamped_singlet_at_full_cross_decay():
    cfg = AtomPairConfig(delta=0.4, drive=2.0)
    heff = build_effective_hamiltonian(cfg, Couplings(omega=1.2, gamma12=1.0))
    assert heff[3, 3] == -1.2 + 0j


def test_effective_hamiltonian_hermitian_part_is_rotated_hamiltonian():
    # decay terms are purely imaginary on the diagonal, so the Hermitian
    # part must equal the coherent Hamiltonian rotated into the coupled basis
    cfg = AtomPairConfig(delta=0.8, drive=1.6)
    c = Couplings(omega=-0.7, gamma12=0.25)
    heff = build_effective_hamiltonian(cfg, c)
    herm = (heff + heff.conj().T) / 2
    rotated = TO_COUPLED @ build_hamiltonian(cfg, c.omega) @ TO_COUPLED.conj().T
    assert np.abs(herm - rotated).max() < 1e-12


def test_effective_hamiltonian_singlet_row_column_zero():
    rng = np.random.default_rng(5)
    for _ in range(10):
        cfg = AtomPairConfig(delta=float(rng.normal()), drive=float(rng.uniform(0, 3)))
        c = Couplings(omega=float(rng.normal()), gamma12=float(rng.uniform(-1, 1)))
        heff = build_effective_hamiltonian(cfg, c)
        assert np.abs(heff[3, :3]).max() == 0.0
        assert np.abs(heff[:3, 3]).max() == 0.0


def written_out_effective_hamiltonian(cfg, c):
    """H_eff with every entry written out, in complex arithmetic."""
    g12, e = c.gamma12, math.sqrt(2.0) * cfg.drive
    return np.array(
        [
            [cfg.delta - 1j, e, 0.0, 0.0],
            [e, c.omega - 0.5j * (1.0 + g12), e, 0.0],
            [0.0, e, -cfg.delta, 0.0],
            [0.0, 0.0, 0.0, -c.omega - 0.5j * (1.0 - g12)],
        ],
        dtype=complex,
    )


def test_effective_hamiltonian_is_the_written_out_matrix_bit_for_bit():
    # over |gamma12| <= 1, the cross decay's range, zeros and gamma12 = +-1 included;
    # the two differ only in the sign of a zero energy when |gamma12| > 1
    rng = np.random.default_rng(24)

    def signed(n):
        values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
        values = np.where(rng.random(n) < 0.2, rng.uniform(-3.0, 3.0, n), values)
        values[rng.random(n) < 0.05] = 0.0
        return values.tolist()

    n = 20000
    gamma12 = np.where(rng.random(n) < 0.1, rng.choice([-1.0, 0.0, 1.0], n),
                       rng.uniform(-1.0, 1.0, n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for delta, drive, omega, g12 in zip(signed(n), np.abs(signed(n)).tolist(), signed(n),
                                            gamma12.tolist()):
            cfg, c = AtomPairConfig(delta=delta, drive=drive), Couplings(omega, g12)
            got = build_effective_hamiltonian(cfg, c)
            expected = written_out_effective_hamiltonian(cfg, c)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), (cfg, c)
        # an infinite or NaN rate stays in the imaginary parts: no NaN energy, no warning
        cfg = AtomPairConfig(delta=0.5, drive=1.0)
        for g12 in (math.inf, -math.inf, math.nan):
            heff = build_effective_hamiltonian(cfg, Couplings(2.0, g12))
            assert heff.real.tolist() == written_out_effective_hamiltonian(
                cfg, Couplings(2.0, 0.0)).real.tolist()
            assert heff[0, 0].imag == -1.0 and heff[2, 2].imag == 0.0
            np.testing.assert_equal(-2.0 * heff.imag[[1, 3], [1, 3]], [1.0 + g12, 1.0 - g12])


# ------------------------------------------------------- tau and geometry


def test_tau_definitional_inversion():
    alpha = 1.0 / 137.0
    k0r = 1.7
    q = 3.0 / (4 * math.pi * alpha) / k0r**3  # so that q * nbar_v * k0r^3 hits 1
    assert abs(tau_of_geometry(k0r, q, 1.0) - 1.0) < 1e-12


def test_tau_reference_point():
    tau = tau_of_geometry(7.083e-3, 1e6, 10.0)
    assert abs(tau - 9.204076771136908) < 1e-9  # frozen direct evaluation
    assert abs(tau - 9.21) < 0.01


def test_tau_halves_when_photon_number_doubles():
    t1 = tau_of_geometry(0.01, 1e6, 10.0)
    t2 = tau_of_geometry(0.01, 1e6, 20.0)
    assert abs(t2 - t1 / 2) < 1e-12 * t1


def test_k0r_for_tau_round_trip():
    for tau, q, nv in ((9.21, 1e6, 10.0), (2.0, 1e5, 3.0), (50.0, 1e7, 123.0)):
        k = k0r_for_tau(tau, q, nv)
        assert abs(tau_of_geometry(k, q, nv) - tau) < 1e-12 * tau


def test_k0r_for_tau_reference_point():
    assert abs(k0r_for_tau(9.21, 1e6, 10.0) - 7.08e-3) < 1e-5


def test_k0r_cube_root_scaling():
    k1 = k0r_for_tau(9.21, 1e6, 10.0)
    k2 = k0r_for_tau(9.21, 1e6, 10000.0)
    assert abs(k2 - k1 / 10.0) < 1e-15


def test_geometry_helpers_reject_nonpositive():
    with pytest.raises(InvalidGeometry):
        tau_of_geometry(0.0, 1e6, 10.0)
    with pytest.raises(InvalidGeometry):
        k0r_for_tau(9.21, -1e6, 10.0)
    for helper in (tau_of_geometry, k0r_for_tau):
        with pytest.raises(InvalidGeometry, match="must all be > 0"):
            helper(math.nan, 1e6, 10.0)


@pytest.mark.parametrize("helper, args, message", [
    (tau_of_geometry, (1e103, 1.0, 1.0), "tau underflows to 0"),  # k0r**3 overflows
    (tau_of_geometry, (1e-120, 1.0, 1.0), "tau overflows"),  # k0r**3 underflows to 0
    (tau_of_geometry, (1e-104, 1.0, 1.0), "tau overflows"),
    (tau_of_geometry, (1e100, 1e300, 1.0), "tau underflows to 0"),
    (k0r_for_tau, (1e-320, 1.0, 1.0), "k0r overflows"),
    (k0r_for_tau, (1e-320, 1e-10, 1.0), "k0r overflows"),  # tau Q nbarV underflows to 0
    (k0r_for_tau, (1e300, 1e300, 1.0), "k0r underflows to 0"),
    (k0r_for_tau, (9.21, 1e300, np.float64(1e300)), "k0r underflows to 0"),
])
def test_geometry_helpers_reject_a_result_outside_the_doubles(helper, args, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidGeometry, match=f"^{message} at this "):
            helper(*args)


def test_geometry_helpers_return_floats_equal_to_the_plain_formulas():
    for k0r, q, nv in ((7.083e-3, 1e6, 10.0), (6e-103, 1.0, 1.0), (5.6e102, 1.0, 1.0)):
        tau = tau_of_geometry(k0r, q, np.float64(nv))
        assert type(tau) is float
        assert tau == 3.0 / (4.0 * math.pi * (1 / 137)) / (k0r**3 * q * nv)
        k = k0r_for_tau(tau, q, nv)
        assert type(k) is float
        assert k == (3.0 / (4.0 * math.pi * (1 / 137) * tau * q * nv)) ** (1.0 / 3.0)


# ------------------------------------------------------- config validation


def test_config_validation():
    with pytest.raises(ValueError):
        AtomPairConfig(drive=-0.1)
    with pytest.raises(InvalidGeometry, match="^k0r must be finite and > 0$"):
        AtomPairConfig(k0r=0.0)
    with pytest.raises(ValueError):
        AtomPairConfig(mu_dot_rhat=1.5)
    with pytest.raises(TypeError):  # gamma is the rate unit, not a field
        AtomPairConfig(gamma=1.0)


@pytest.mark.parametrize("fields", [{"drive": -0.1}, {"mu_dot_rhat": 1.5},
                                    {"mu_dot_rhat": -0.1}, {"drive": -5e-324}])
def test_config_range_errors_are_typed(fields):
    with pytest.raises(OutOfRange) as info:
        AtomPairConfig(**fields)
    assert isinstance(info.value, ValueError)


def test_config_rejects_non_finite_fields():
    for field in ("delta", "drive", "mu_dot_rhat"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(OutOfRange, match="finite"):
                AtomPairConfig(**{field: bad})
    with pytest.raises(OutOfRange):
        AtomPairConfig(drive=math.nan, k0r=math.nan, delta=math.inf)
    # numpy scalars are quoted as floats, without numpy's repr
    with pytest.raises(OutOfRange, match=r"^inputs must be finite, got AtomPairConfig\("
                       r"delta=0\.0, drive=nan, k0r=2\.0, mu_dot_rhat=0\.5\)$"):
        AtomPairConfig(drive=np.float64(math.nan), k0r=np.float64(2.0), mu_dot_rhat=0.5)


@pytest.mark.parametrize("k0r", [math.nan, math.inf, -math.inf, 0.0, -1.0, -5e-324])
def test_config_gives_k0r_the_geometry_rule_and_error(k0r):
    # one domain rule, one error: the geometry factors' check and message
    with pytest.raises(InvalidGeometry, match="^k0r must be finite and > 0$"):
        AtomPairConfig(k0r=k0r)


def test_config_derived_couplings():
    cfg = AtomPairConfig(delta=0.0, drive=1.0, k0r=math.pi, mu_dot_rhat=0.0)
    c = couplings_from_geometry(cfg)
    assert abs(c.omega - 0.75 * (1 / math.pi - 1 / math.pi**3)) < 1e-14
    assert abs(c.gamma12 - 3.0 / math.pi**2) < 1e-14
