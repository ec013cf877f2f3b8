"""Independent high-precision reference for the benchmark's correctness gate.

Everything here is built from the physical inputs with mpmath and never
calls into ``dipolepair``, so a defect in the package's assembly code cannot
pass its own gate.

Physics (units of the single-atom decay constant gamma):

* geometry, closed forms evaluated at ``DPS`` digits, where the 1/x^3
  cancellations at short distance cost only a few of them:
  Omega   = (3/4) [ -(1 - m^2) cos x / x + (1 - 3 m^2) (sin x / x^2 + cos x / x^3) ]
  Gamma12 = -3 [ cos x / x^2 - sin x / x^3 ]
* H = sum_i [ (delta/2) sz_i + E (sp_i + sm_i) ] + Omega (sp_1 sm_2 + sm_1 sp_2)
* collective decay with every rate halved (amplitude-rate convention):
  D(rho) = (1/4) sum_ij Gamma_ij (2 s_i rho s_j^+ - s_i^+ s_j rho - rho s_i^+ s_j)
  with Gamma_11 = Gamma_22 = 1, Gamma_12 = Gamma_21 = Gamma12.

States are 4x4 matrices in the computational basis |ee>, |eg>, |ge>, |gg>;
the generator acts on row-major flattened matrices (index 4 i + j).
"""

from __future__ import annotations

import functools

import mpmath as mp
import numpy as np
import scipy.linalg

DPS = 50

# two-atom basis index 2 a1 + a2, with a = 0 for |e> and a = 1 for |g>
_DIM = 4


def _zeros():
    return mp.matrix(_DIM, _DIM)


def _lowering(atom: int):
    """s_atom = |g><e| acting on one atom of the pair."""
    s = _zeros()
    for a1 in range(2):
        for a2 in range(2):
            if (a1, a2)[atom] != 0:
                continue
            src = 2 * a1 + a2
            dst = src + (2 if atom == 0 else 1)
            s[dst, src] = 1
    return s


def _dagger(m):
    return m.transpose_conj()


def geometry(k0r: float, mu_dot_rhat: float) -> tuple[mp.mpf, mp.mpf]:
    """(Omega, Gamma12) at distance k0r, closed forms at DPS digits."""
    with mp.workdps(DPS + 20):
        x = mp.mpf(k0r)
        m2 = mp.mpf(mu_dot_rhat) ** 2
        c, s = mp.cos(x), mp.sin(x)
        omega = mp.mpf(3) / 4 * (-(1 - m2) * c / x + (1 - 3 * m2) * (s / x**2 + c / x**3))
        gamma12 = -3 * (c / x**2 - s / x**3)
    return +omega, +gamma12


@functools.cache
def _components():
    """Generator split as sum_k p_k G_k over p = (delta, drive, Omega, 1, Gamma12).

    Each G_k is built once by applying its term of the master equation to
    the 16 matrix units; entries are small exact rationals, kept sparse.
    """
    s = [_lowering(0), _lowering(1)]
    sd = [_dagger(op) for op in s]
    sz = [sd[i] * s[i] * 2 - mp.eye(_DIM) for i in range(2)]
    minus_i = mp.mpc(0, -1)

    def commutator(h):
        return lambda rho: (h * rho - rho * h) * minus_i

    def decay(pairs):
        def term(rho):
            out = _zeros()
            for i, j in pairs:
                a = sd[i] * s[j]
                out += (s[i] * rho * sd[j] * 2 - a * rho - rho * a) / 4
            return out
        return term

    terms = (
        commutator((sz[0] + sz[1]) / 2),
        commutator(sd[0] + s[0] + sd[1] + s[1]),
        commutator(sd[0] * s[1] + s[0] * sd[1]),
        decay(((0, 0), (1, 1))),
        decay(((0, 1), (1, 0))),
    )
    comps = []
    for term in terms:
        entries = []
        for c in range(_DIM):
            for d in range(_DIM):
                unit = _zeros()
                unit[c, d] = 1
                image = term(unit)
                for a in range(_DIM):
                    for b in range(_DIM):
                        if image[a, b] != 0:
                            entries.append((_DIM * a + b, _DIM * c + d, image[a, b]))
        comps.append(entries)
    return comps


def generator(delta, drive, omega, gamma12):
    """16x16 master-equation generator as an mpmath matrix."""
    gen = mp.matrix(_DIM**2, _DIM**2)
    params = (mp.mpf(delta), mp.mpf(drive), mp.mpf(omega), mp.mpf(1), mp.mpf(gamma12))
    for p, entries in zip(params, _components()):
        for row, col, coef in entries:
            gen[row, col] += p * coef
    return gen


def _solve(gen, constraints):
    """Solve gen v = 0 with the given rows replaced by (functional, value)."""
    rhs = mp.matrix(_DIM**2, 1)
    for row, functional, value in constraints:
        for col in range(_DIM**2):
            gen[row, col] = functional(col)
        rhs[row] = value
    v = mp.lu_solve(gen, rhs)
    rho = _zeros()
    for a in range(_DIM):
        for b in range(_DIM):
            rho[a, b] = v[_DIM * a + b]
    return rho


def _trace(col):
    return 1 if col % (_DIM + 1) == 0 else 0


def _singlet(col):
    """<A| rho |A> with |A> = (|eg> - |ge>) / sqrt 2, as a row functional."""
    return {5: 1, 10: 1, 6: -1, 9: -1}.get(col, 0) / mp.mpf(2)


def steady_state(delta: float, drive: float, k0r: float, mu_dot_rhat: float):
    """Unique steady state as a 4x4 mpmath matrix, solved with a trace row."""
    with mp.workdps(DPS):
        omega, gamma12 = geometry(k0r, mu_dot_rhat)
        gen = generator(delta, drive, omega, gamma12)
        # the trace functional is a left null vector, so one diagonal row is
        # redundant; replace it by the normalisation Tr rho = 1
        return _solve(gen, [(0, _trace, 1)])


def triplet_state(delta: float, drive: float, k0r: float, mu_dot_rhat: float):
    """Steady state of the decoupled-singlet limit Gamma12 = 1 with <A|rho|A> = 0.

    This is the answer of the triplet-sector restriction, which is exact
    only when Gamma12 = 1; the gate uses it to recognise outputs of that
    branch at distances where Gamma12 < 1.
    """
    with mp.workdps(DPS):
        omega, _ = geometry(k0r, mu_dot_rhat)
        gen = generator(delta, drive, omega, 1)
        # at Gamma12 = 1 the singlet population is conserved too, which
        # makes a second row redundant: <A|rho|A> is rows 5 + 10 - 6 - 9
        return _solve(gen, [(0, _trace, 1), (6, _singlet, 0)])


def _psd_sqrt(m):
    evals, q = mp.eighe(m)
    root = _zeros()
    for k in range(_DIM):
        w = mp.sqrt(max(mp.re(evals[k]), 0))
        for a in range(_DIM):
            for b in range(_DIM):
                root[a, b] += q[a, k] * w * mp.conj(q[b, k])
    return root


def concurrence(rho) -> float:
    """Wootters concurrence of a 4x4 mpmath density matrix."""
    with mp.workdps(DPS):
        yy = _zeros()
        for a, b, v in ((0, 3, -1), (1, 2, 1), (2, 1, 1), (3, 0, -1)):
            yy[a, b] = v
        flipped = yy * rho.conjugate() * yy
        root = _psd_sqrt(rho)
        herm = root * flipped * root
        herm = (herm + _dagger(herm)) / 2
        evals, _ = mp.eighe(herm)
        lam = sorted((mp.sqrt(max(mp.re(e), 0)) for e in evals), reverse=True)
        return float(max(lam[0] - lam[1] - lam[2] - lam[3], 0))


def to_numpy(m) -> np.ndarray:
    return np.array(m.tolist(), dtype=complex)


def evolve(delta: float, drive: float, k0r: float, mu_dot_rhat: float,
           rho0: np.ndarray, times) -> list[np.ndarray]:
    """States exp(L t) rho0 at the given times, L the reference generator in float."""
    with mp.workdps(DPS):
        omega, gamma12 = geometry(k0r, mu_dot_rhat)
        gen = to_numpy(generator(delta, drive, omega, gamma12))
    v0 = np.asarray(rho0, dtype=complex).reshape(_DIM**2)
    return [(scipy.linalg.expm(gen * t) @ v0).reshape(_DIM, _DIM) for t in times]
