"""50-digit steady states and concurrences of the 16x16 generator, for the solver tests.

Built from the master equation alone, without calling into dipolepair:

    H = sum_i [ (delta/2) sz_i + E (s_i^+ + s_i) ] + Omega (s_1^+ s_2 + s_1 s_2^+)
    D(rho) = (1/4) sum_ij Gamma_ij (2 s_i rho s_j^+ - s_i^+ s_j rho - rho s_i^+ s_j)

with Gamma_11 = Gamma_22 = 1 and Gamma_12 = Gamma_21 = gamma12, in the
computational basis |ee>, |eg>, |ge>, |gg>. Matrices are column-stacked
(entry (a, b) at flat index a + 4 b). The steady state solves the
generator with one redundant diagonal row replaced by the trace.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

mp = pytest.importorskip("mpmath").mp

DPS = 50
_DIM = 4


def _lowering(atom: int):
    """s_atom = |g><e| on one atom; basis index 2 a1 + a2, a = 0 for |e>."""
    s = mp.matrix(_DIM, _DIM)
    for src in range(_DIM):
        if (src >> (1 - atom)) & 1 == 0:  # this atom excited
            s[src + (2 if atom == 0 else 1), src] = 1
    return s


@functools.cache
def _components():
    """Sparse generator terms G_k of L = sum_k p_k G_k, p = (delta, E, Omega, 1, gamma12)."""
    s = [_lowering(0), _lowering(1)]
    sd = [m.transpose_conj() for m in s]
    sz = [sd[i] * s[i] * 2 - mp.eye(_DIM) for i in range(2)]

    def commutator(h):
        return lambda rho: (h * rho - rho * h) * mp.mpc(0, -1)

    def decay(pairs):
        def term(rho):
            out = mp.matrix(_DIM, _DIM)
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
                unit = mp.matrix(_DIM, _DIM)
                unit[c, d] = 1
                image = term(unit)
                entries += [(a + _DIM * b, c + _DIM * d, image[a, b])
                            for a in range(_DIM) for b in range(_DIM) if image[a, b] != 0]
        comps.append(entries)
    return comps


def steady_state(delta, drive, omega, gamma12, singlet_free=False) -> np.ndarray:
    """Computational-basis steady state, rounded to complex128.

    ``singlet_free`` also sets the singlet population <A|rho|A> to zero,
    which selects the triplet-sector state where gamma12 = 1 leaves the
    kernel two-dimensional.
    """
    with mp.workdps(DPS):
        rho = _state(delta, drive, omega, gamma12, singlet_free)
        flat = np.array([complex(rho[a, b]) for b in range(_DIM) for a in range(_DIM)])
    return flat.reshape((_DIM, _DIM), order="F")


def coupled_state(delta, drive, omega, gamma12, singlet_free=False, dps=DPS) -> np.ndarray:
    """The steady state of steady_state on (|+1>, |0>, |-1>, |A>), rotated at dps digits.

    |+1> = |ee>, |0> = (|eg> + |ge>) / sqrt 2, |-1> = |gg> and
    |A> = (|eg> - |ge>) / sqrt 2; rotating before rounding keeps the
    relative accuracy of every entry. The solve is accurate to about
    10^-dps absolute, so an entry of size 10^-m has about dps - m digits.
    """
    with mp.workdps(dps):
        rho = _state(delta, drive, omega, gamma12, singlet_free)
        h = 1 / mp.sqrt(2)
        u = mp.matrix([[1, 0, 0, 0], [0, h, h, 0], [0, 0, 0, 1], [0, h, -h, 0]])
        rho = u * rho * u.T
        return np.array([[complex(rho[a, b]) for b in range(_DIM)] for a in range(_DIM)])


def concurrence(delta, drive, omega, gamma12, singlet_free=False) -> float:
    """Wootters concurrence of the steady state, at DPS digits throughout.

    The spin-flip values are the square roots of the eigenvalues of
    sqrt(rho) (Y x Y) rho* (Y x Y) sqrt(rho).
    """
    with mp.workdps(DPS):
        rho = _state(delta, drive, omega, gamma12, singlet_free)
        rho = (rho + rho.transpose_conj()) / 2
        evals, vecs = mp.eighe(rho)
        root = vecs * mp.diag([mp.sqrt(max(mp.re(w), 0)) for w in evals]) * vecs.transpose_conj()
        yy = mp.matrix(_DIM, _DIM)
        for a, b, v in ((0, 3, -1), (1, 2, 1), (2, 1, 1), (3, 0, -1)):
            yy[a, b] = v
        flipped = yy * rho.conjugate() * yy
        herm = root * flipped * root
        lam = sorted((mp.sqrt(max(mp.re(w), 0))
                      for w in mp.eighe((herm + herm.transpose_conj()) / 2)[0]), reverse=True)
        return float(max(lam[0] - lam[1] - lam[2] - lam[3], 0))


def _state(delta, drive, omega, gamma12, singlet_free):
    """The steady state as an mpmath matrix, at the working precision of the caller."""
    gen = mp.matrix(_DIM**2, _DIM**2)
    params = [mp.mpf(float(p)) for p in (delta, drive, omega, 1.0, gamma12)]
    for p, entries in zip(params, _components()):
        for row, col, coef in entries:
            gen[row, col] += p * coef
    rhs = mp.matrix(_DIM**2, 1)
    # the trace is a left null vector, so the |ee><ee| row is redundant
    for col in range(_DIM**2):
        gen[0, col] = 1 if col % (_DIM + 1) == 0 else 0
    rhs[0] = 1
    if singlet_free:
        # at gamma12 = 1 the singlet population is conserved as well;
        # <A|rho|A> = (rho_5 + rho_10 - rho_6 - rho_9) / 2 replaces row 9
        for col in range(_DIM**2):
            gen[9, col] = {5: 1, 10: 1, 6: -1, 9: -1}.get(col, 0)
    v = mp.lu_solve(gen, rhs)
    return mp.matrix([[v[a + _DIM * b] for b in range(_DIM)] for a in range(_DIM)])
