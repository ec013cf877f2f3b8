"""Seeded inputs and timed requests of the benchmark's three workloads.

Each workload is a closed loop with one caller: the next request is sent
only after the previous one returned. A request is what a user asks the
package for in one call; an operation is the unit of work it contains
(one grid point, one stream point, one trajectory).

Inputs come from a Halton sequence with a seeded random shift, mapped onto
each workload's parameter ranges. The marginals are the stated uniform or
log-uniform laws, and the points cover the ranges more evenly than
independent draws, so two seeds time nearly the same mix of cheap and
expensive inputs.

This module imports only numpy and ``dipolepair``; the reference that
checks the outputs lives in ``reference.py`` and is imported after timing.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from dipolepair import cli, dynamics, entanglement, linalg, model
from dipolepair.errors import DipolePairError

# fig2_grid: points per axis of every requested grid; small enough that a
# run holds three passes of 100 grids even when the shared core runs at
# half speed
GRID_POINTS = 6
# onset_propagate: trajectory length (short enough for a few passes of
# 256 trajectories in a run), first step and smallest step tried
T_FINAL = 0.5
DT_START = 0.01
DT_FLOOR = 1e-5
# fractions of t_final at which a trajectory's state is kept for the gate
CHECK_AT = (0.25, 0.5, 1.0)

_PRIMES = (2, 3, 5, 7)

WORKLOADS = ("fig2_grid", "point_stream", "onset_propagate")


def halton(n: int, dims: int, rng: np.random.Generator) -> np.ndarray:
    """n points of the Halton sequence in [0, 1)^dims, shifted modulo 1 by rng."""
    out = np.empty((n, dims))
    idx = np.arange(1, n + 1)
    for d, base in enumerate(_PRIMES[:dims]):
        k = idx.copy()
        f = 1.0
        r = np.zeros(n)
        while k.any():
            f /= base
            r += f * (k % base)
            k //= base
        out[:, d] = r
    return (out + rng.random(dims)) % 1.0


def _log_uniform(u, lo, hi):
    return np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))


def dipole_omega(k0r, mu):
    """Omega/gamma from the closed form, to derive a drive from tau."""
    a, b = 1.0 - mu**2, 1.0 - 3.0 * mu**2
    return 0.75 * (-a * np.cos(k0r) / k0r
                   + b * (np.sin(k0r) / k0r**2 + np.cos(k0r) / k0r**3))


@dataclass
class Inputs:
    """Generated requests of one workload, one row per request."""

    columns: tuple[str, ...]
    rows: np.ndarray
    ops_per_request: int = 1

    def digest(self) -> str:
        h = hashlib.sha256(",".join(self.columns).encode())
        h.update(np.ascontiguousarray(self.rows).tobytes())
        return h.hexdigest()[:16]

    def request(self, i: int) -> tuple[float, ...]:
        return tuple(float(v) for v in self.rows[i])


def make_inputs(name: str, seed: int, n: int) -> Inputs:
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "fig2_grid":
        # range endpoints inside the paper's Fig. 2 envelope k0r in
        # [0.05, 2], E in [0, 10]; each range keeps most of the envelope
        u = halton(n, 4, rng)
        rows = np.column_stack([
            0.05 + 0.45 * u[:, 0], 1.0 + 1.0 * u[:, 1],
            2.0 * u[:, 2], 6.0 + 4.0 * u[:, 3],
        ])
        return Inputs(("k0r_lo", "k0r_hi", "e_lo", "e_hi"), rows,
                      ops_per_request=GRID_POINTS**2)
    if name == "point_stream":
        u = halton(n, 4, rng)
        k0r = _log_uniform(u[:, 0], 0.003, 2.0)
        tau = _log_uniform(u[:, 1], 1.0, 100.0)
        delta = -1.0 + 2.0 * u[:, 2]
        mu = u[:, 3]
        drive = np.sqrt(np.abs(dipole_omega(k0r, mu)) / tau)
        return Inputs(("k0r", "drive", "delta", "mu_dot_rhat"),
                      np.column_stack([k0r, drive, delta, mu]))
    if name == "onset_propagate":
        u = halton(n, 2, rng)
        k0r = _log_uniform(u[:, 0], 0.05, 2.0)
        drive = 5.0 * (1.0 - u[:, 1])  # (0, 5]
        return Inputs(("k0r", "drive", "t_final"),
                      np.column_stack([k0r, drive, np.full(n, T_FINAL)]))
    raise ValueError(f"unknown workload {name!r}")


# ------------------------------------------------------------- requests
#
# Each request comes down to (failed operations, output); fig2 through
# read_fig2, outside the timed region. Only DipolePairError and LinAlgError
# count as failures; anything else is a defect of the benchmark or the
# package and stops the run.

FAILURES = (DipolePairError, np.linalg.LinAlgError)


def fig2_request(req, out_path: str):
    """One `dipolepair fig2` call through the CLI entry point, in-process."""
    k_lo, k_hi, e_lo, e_hi = req
    return cli.main([
        "fig2", "--k0r-range", f"{k_lo!r}:{k_hi!r}",
        "--efield-range", f"{e_lo!r}:{e_hi!r}",
        "--points", str(GRID_POINTS), "--out", out_path,
    ])


def read_fig2(rc: int, out_path: str):
    """(failed points, rows) from a fig2 call; NaN rows count as failed."""
    n = GRID_POINTS**2
    if rc != 0:
        return n, []
    with open(out_path) as fh:
        lines = fh.read().split()
    if lines[0] != "k0r,efield,omega,gamma12,concurrence" or len(lines) != n + 1:
        return n, []
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    return sum(1 for r in rows if any(math.isnan(v) for v in r)), rows


def stream_request(req):
    """One scalar-API point: config, geometry, steady state, concurrence."""
    k0r, drive, delta, mu = req
    try:
        cfg = model.AtomPairConfig(delta=delta, drive=drive, k0r=k0r, mu_dot_rhat=mu)
        state = dynamics.solve_steady_state(cfg, model.couplings_from_geometry(cfg))
        conc = entanglement.wootters_concurrence(state).concurrence
    except FAILURES:
        return 1, None
    return (1, None) if math.isnan(conc) else (0, conc)


def ground_state():
    return np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)


def onset_request(req):
    """One trajectory from |gg>, halving dt on error until one succeeds.

    Returns (failed, (steps, [(t, state) near CHECK_AT * t_final])), failed
    when dt falls below DT_FLOOR. ``steps`` has one entry per attempt: the
    steps planned at that dt for an attempt that raised, and the steps
    returned (``len(times) - 1``) for the one that succeeded.
    """
    k0r, drive, t_final = req
    try:
        cfg = model.AtomPairConfig(delta=0.0, drive=drive, k0r=k0r)
        liouv = dynamics.build_liouvillian(cfg, model.couplings_from_geometry(cfg))
        rho0 = dynamics.DensityMatrix(ground_state(), linalg.BasisTag.COMPUTATIONAL)
    except FAILURES:
        return 1, None
    dt, steps = DT_START, []
    while dt >= DT_FLOOR:
        try:
            times, states = dynamics.propagate(liouv, rho0, t_final, dt)
        except FAILURES:
            steps.append(math.ceil(t_final / dt - 1e-9))
            dt /= 2.0
            continue
        steps.append(len(times) - 1)
        picked = [int(np.argmin(np.abs(times - f * t_final))) for f in CHECK_AT]
        return 0, (steps, [(float(times[k]), states[k].matrix) for k in picked])
    return 1, (steps, None)


def first_result(name: str, seed: int, index: int, out_dir: str):
    """Failed operations of request ``index``, run as a fresh process's first."""
    req = make_inputs(name, seed, index + 1).request(index)
    if name == "fig2_grid":
        path = os.path.join(out_dir, f"setup_{os.getpid()}.csv")
        try:
            return read_fig2(fig2_request(req, path), path)[0]
        finally:
            if os.path.exists(path):
                os.remove(path)
    if name == "point_stream":
        return stream_request(req)[0]
    return onset_request(req)[0]
