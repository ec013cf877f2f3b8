"""Command-line front end: steady states, spectra, figure data, self checks.

Exit codes: 0 success, 1 check failure or every grid point failed, 2
usage error. CSV output uses a single header row, 12-significant-digit
floats and the literal ``NaN`` for failed points; JSON carries the same
rounded values.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from collections import Counter

import numpy as np

from .dynamics import (
    _broadcast,
    analytic_steady_state,
    lamb_dicke_limit_state,
    solve_steady_state,
    solve_steady_states,
)
from .entanglement import TAU_PEAK, wootters_concurrence, wootters_concurrences
from .errors import DipolePairError
from .linalg import BasisTag, general_eig, hermitian_eig
from .model import (
    AtomPairConfig,
    Couplings,
    DriveScaling,
    build_effective_hamiltonian,
    cross_decay,
    dipole_coupling,
    k0r_for_tau,
)
from .spectral import triplet_cubic_roots

AXIS_NAMES = ("k0r", "efield", "omega", "delta", "tau")

# grid points per solver stack: about 1.3 MB per (chunk, 9, 9) work array
GRID_CHUNK = 1024


class UsageError(Exception):
    pass


# ---------------------------------------------------------------- formatting


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "NaN"
    return f"{x:.12g}"


def _round12(x: float) -> float:
    return float(_fmt(x))


def _write_rows(columns, rows, fmt: str, out) -> None:
    if fmt == "json":
        payload = [dict(zip(columns, (_round12(float(v)) for v in row)))
                   for row in rows]
        out.write(json.dumps(payload, indent=1))
        out.write("\n")
    else:
        # one %-format, the digits of _fmt and _round12; "%g" gives "nan" for NaN
        rows = np.asarray(rows, dtype=float)
        template = ",".join(["%.12g"] * rows.shape[1]) + "\n"
        out.write(",".join(columns) + "\n")
        out.write(((template * len(rows)) % tuple(rows.ravel().tolist())).replace("nan", "NaN"))


def _output(ns, config):
    """Context manager of the output: the --out file, closed on exit, or stdout."""
    path = _resolve(ns, config, "out", None)
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _print_matrix(m: np.ndarray, labels, out) -> None:
    width = 22
    out.write(" " * 6 + "".join(f"{lab:>{width}}" for lab in labels) + "\n")
    for lab, row in zip(labels, m):
        cells = "".join(f"{v.real:+.6f}{v.imag:+.6f}j".rjust(width) for v in row)
        out.write(f"{lab:>6}{cells}\n")


# ---------------------------------------------------------------- arguments


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--delta", type=float, default=None, help="detuning / gamma")
    common.add_argument("--efield", type=float, default=None, help="drive / gamma")
    common.add_argument("--omega", type=float, default=None, help="dipole coupling / gamma")
    common.add_argument("--gamma12", type=float, default=None, help="cross decay / gamma")
    common.add_argument("--k0r", type=float, default=None, help="dimensionless distance")
    common.add_argument(
        "--mu-dot-rhat", type=float, default=None, dest="mu_dot_rhat",
        help="dipole projection on the axis, in [0, 1]",
    )
    common.add_argument("--tau", type=float, default=None, help="omega / efield^2")
    common.add_argument(
        "--lamb-dicke", action="store_const", const=True, default=None,
        dest="lamb_dicke", help="force gamma12 = gamma and delta = 0",
    )
    common.add_argument("--format", choices=("text", "csv", "json"), default=None)
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--config", default=None, help="key=value defaults file")

    parser = argparse.ArgumentParser(
        prog="dipolepair",
        description="Steady-state entanglement of two dipole-coupled driven atoms",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("steady", parents=[common],
                   help="steady state at one parameter point")
    sub.add_parser("spectrum", parents=[common],
                   help="eigenvalues of the Hamiltonian and its damped counterpart")
    fig1 = sub.add_parser("fig1", parents=[common],
                          help="distance giving maximal entanglement vs photon number")
    fig1.add_argument("--q", type=float, default=None, help="atomic quality factor")
    fig1.add_argument("--nbar-min", type=float, default=None, dest="nbar_min")
    fig1.add_argument("--nbar-max", type=float, default=None, dest="nbar_max")
    fig1.add_argument("--points", type=int, default=None)
    fig2 = sub.add_parser("fig2", parents=[common],
                          help="concurrence over a distance x drive grid")
    fig2.add_argument("--k0r-range", default=None, dest="k0r_range", help="START:STOP")
    fig2.add_argument("--efield-range", default=None, dest="efield_range",
                      help="START:STOP")
    fig2.add_argument("--points", type=int, default=None, help="points per axis")
    sweep = sub.add_parser("sweep", parents=[common],
                           help="general one- or two-axis parameter sweep")
    sweep.add_argument("--axis", action="append", default=None,
                       help="NAME=START:STOP:COUNT (repeat for a second axis)")
    sweep.add_argument("--mode", choices=("geometric", "direct"), default=None)
    sub.add_parser("check", parents=[common], help="run the numeric self checks")
    return parser


def _load_config(path: str) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"bad config line: {raw.strip()!r}")
                key, text = (part.strip() for part in line.split("=", 1))
                key = key.replace("-", "_")
                if text.lower() in ("true", "false"):
                    values[key] = text.lower() == "true"
                else:
                    try:
                        values[key] = float(text)
                    except ValueError:
                        values[key] = text
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    return values


def _resolve(ns, config: dict, key: str, fallback):
    value = getattr(ns, key, None)
    if value is None:
        value = config.get(key, fallback)
    return value


def _require_finite(**values) -> None:
    """Reject the first non-finite option (None means unset) as a usage error."""
    for key, value in values.items():
        if value is not None and not math.isfinite(float(value)):
            raise UsageError(f"--{key.replace('_', '-')} must be finite, got {value!r}")


# ---------------------------------------------------------------- parameters


def _point_parameters(ns, config):
    """Shared flag resolution for steady/spectrum: one parameter point."""
    delta = float(_resolve(ns, config, "delta", 0.0))
    mu = float(_resolve(ns, config, "mu_dot_rhat", 0.0))
    efield = _resolve(ns, config, "efield", None)
    omega = _resolve(ns, config, "omega", None)
    gamma12 = _resolve(ns, config, "gamma12", None)
    k0r = _resolve(ns, config, "k0r", None)
    tau = _resolve(ns, config, "tau", None)
    lamb_dicke = bool(_resolve(ns, config, "lamb_dicke", False))
    if efield is not None and efield < 0:
        raise UsageError("drive must be >= 0")
    if lamb_dicke:
        delta = 0.0
    return delta, mu, efield, omega, gamma12, k0r, tau, lamb_dicke


def _derive_couplings(omega, gamma12, k0r, mu, lamb_dicke) -> Couplings:
    if (omega is None) == (k0r is None):
        raise UsageError("supply exactly one of --k0r or --omega")
    if k0r is not None:
        if omega is not None or gamma12 is not None:
            raise UsageError("--k0r conflicts with --omega/--gamma12")
        omega = dipole_coupling(k0r, mu)
        gamma12 = 1.0 if lamb_dicke else cross_decay(k0r)
    else:
        if gamma12 is None:
            gamma12 = 1.0 if lamb_dicke else 0.0
    if lamb_dicke:
        gamma12 = 1.0
    return Couplings(omega=float(omega), gamma12=float(gamma12))


# ---------------------------------------------------------------- commands


def _cmd_steady(ns, config) -> int:
    delta, mu, efield, omega, gamma12, k0r, tau, lamb_dicke = _point_parameters(
        ns, config
    )
    fmt = _resolve(ns, config, "format", "text")
    if lamb_dicke:  # the closed forms build no AtomPairConfig, which checks this
        _require_finite(efield=efield, omega=omega, k0r=k0r, tau=tau)
    if lamb_dicke and tau is not None:
        state = lamb_dicke_limit_state(float(tau))
        inputs = {"tau": float(tau), "delta": 0.0, "gamma12": 1.0}
    else:
        if efield is None:
            raise UsageError("supply --efield (or --tau with --lamb-dicke)")
        couplings = _derive_couplings(omega, gamma12, k0r, mu, lamb_dicke)
        inputs = {
            "delta": delta,
            "efield": float(efield),
            "omega": couplings.omega,
            "gamma12": couplings.gamma12,
        }
        if k0r is not None:
            inputs["k0r"] = float(k0r)
        if lamb_dicke:
            state = analytic_steady_state(couplings.omega, float(efield))
        else:
            cfg = AtomPairConfig(
                delta=delta, drive=float(efield),
                k0r=float(k0r) if k0r is not None else 1.0, mu_dot_rhat=mu,
            )
            state = solve_steady_state(cfg, couplings)
    coupled = state.to_basis(BasisTag.COUPLED)
    report = wootters_concurrence(state)
    evals, _ = hermitian_eig(coupled.matrix)
    pops = coupled.matrix.diagonal().real
    with _output(ns, config) as out:
        if fmt == "json":
            payload = dict(inputs)
            payload.update(
                {
                    "populations": [_round12(p) for p in pops],
                    "eigenvalues": [_round12(v) for v in evals],
                    "concurrence": _round12(report.concurrence),
                    "eof": _round12(report.eof),
                    "matrix_re": [[_round12(v.real) for v in row] for row in coupled.matrix],
                    "matrix_im": [[_round12(v.imag) for v in row] for row in coupled.matrix],
                }
            )
            out.write(json.dumps(payload, indent=1) + "\n")
        elif fmt == "csv":
            cols = list(inputs) + ["pop_plus1", "pop_zero", "pop_minus1",
                                   "singlet_weight", "concurrence", "eof"]
            row = list(inputs.values()) + list(pops) + [report.concurrence, report.eof]
            _write_rows(cols, [row], "csv", out)
        else:
            for key, val in inputs.items():
                out.write(f"{key} = {_fmt(float(val))}\n")
            out.write("steady state (basis |+1>, |0>, |-1>, |A>):\n")
            _print_matrix(coupled.matrix, ("|+1>", "|0>", "|-1>", "|A>"), out)
            out.write("eigenvalues: " + "  ".join(_fmt(v) for v in evals) + "\n")
            out.write(
                "populations: "
                + "  ".join(f"{lab}={_fmt(p)}" for lab, p in
                            zip(("+1", "0", "-1", "A"), pops))
                + "\n"
            )
            out.write(f"concurrence = {_fmt(report.concurrence)}\n")
            out.write(f"entanglement of formation = {_fmt(report.eof)} ebit\n")
    return 0


def _cmd_spectrum(ns, config) -> int:
    delta, mu, efield, omega, gamma12, k0r, _tau, lamb_dicke = _point_parameters(
        ns, config
    )
    efield = 0.0 if efield is None else float(efield)
    couplings = _derive_couplings(omega, gamma12, k0r, mu, lamb_dicke)
    cfg = AtomPairConfig(
        delta=delta, drive=efield,
        k0r=float(k0r) if k0r is not None else 1.0, mu_dot_rhat=mu,
    )
    roots = triplet_cubic_roots(delta, couplings.omega, efield)
    heff = build_effective_hamiltonian(cfg, couplings)
    heff_evals = general_eig(heff)
    fmt = _resolve(ns, config, "format", "text")
    with _output(ns, config) as out:
        rows = [("triplet", float(r), float("nan")) for r in roots]
        rows.append(("singlet", -couplings.omega, cfg.gamma - couplings.gamma12))
        rows += [("damped", v.real, -2.0 * v.imag) for v in heff_evals]
        if fmt == "json":
            payload = [
                {"branch": b, "energy": _round12(e), "decay": _round12(d)}
                for b, e, d in rows
            ]
            out.write(json.dumps(payload, indent=1) + "\n")
        elif fmt == "csv":
            out.write("branch,energy,decay\n")
            for b, e, d in rows:
                out.write(f"{b},{_fmt(e)},{_fmt(d)}\n")
        else:
            out.write(f"triplet eigenvalues: {'  '.join(_fmt(float(r)) for r in roots)}\n")
            out.write(
                f"singlet eigenvalue:  {_fmt(-couplings.omega)}"
                f"  (decay {_fmt(cfg.gamma - couplings.gamma12)})\n"
            )
            out.write("damped spectrum (energy, decay rate):\n")
            for v in heff_evals:
                out.write(f"  {_fmt(v.real):>18}  {_fmt(-2.0 * v.imag):>18}\n")
    return 0


def _cmd_fig1(ns, config) -> int:
    q = float(_resolve(ns, config, "q", 1e6))
    tau = float(_resolve(ns, config, "tau", TAU_PEAK))
    nbar_min = float(_resolve(ns, config, "nbar_min", 1.0))
    nbar_max = float(_resolve(ns, config, "nbar_max", 1e4))
    points = int(_resolve(ns, config, "points", 50))
    _require_finite(q=q, tau=tau, nbar_min=nbar_min, nbar_max=nbar_max)
    DriveScaling(tau=tau, q_factor=q, nbar_v=nbar_min)  # raises when one is <= 0
    if points < 2:
        raise UsageError("--points must be >= 2")
    if nbar_min >= nbar_max:
        raise UsageError("--nbar-min must be below --nbar-max")
    grid = np.logspace(math.log10(nbar_min), math.log10(nbar_max), points)
    rows = [(nv, k0r_for_tau(tau, q, nv)) for nv in grid]
    fmt = _resolve(ns, config, "format", "csv")
    with _output(ns, config) as out:
        _write_rows(("nbar_v", "k0r"), rows, fmt, out)
    return 0


def _parse_range(text: str, flag: str) -> tuple[float, float]:
    try:
        lo, hi = (float(p) for p in text.split(":"))
    except ValueError as exc:
        raise UsageError(f"{flag} expects START:STOP, got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"{flag} must be finite, got {text!r}")
    if not lo < hi:
        raise UsageError(f"{flag}: start must be below stop")
    return lo, hi


def _solve_grid(delta, drive, omega, gamma12):
    """Steady states and concurrence of every point of a parameter mesh.

    The arguments broadcast to one length N. Points are solved in stacks
    of GRID_CHUNK, so the (chunk, 16, 16) work arrays stay bounded on large
    grids. Returns (coupled-basis populations (N, 4), concurrence, eof,
    errors), NaN where a point failed and its typed error in the list.
    """
    args = _broadcast(delta, drive, omega, gamma12)
    n = len(args[0])
    pops = np.empty((n, 4))
    conc = np.empty(n)
    eof = np.empty(n)
    errors = []
    for lo in range(0, n, GRID_CHUNK):
        part = slice(lo, lo + GRID_CHUNK)
        states, errs = solve_steady_states(*(a[part] for a in args))
        pops[part] = states.diagonal(axis1=1, axis2=2).real
        conc[part], eof[part], errs = wootters_concurrences(states, errs)
        errors += errs
    return pops, conc, eof, errors


def _report_failures(errors) -> bool:
    """Warn on stderr about failed points, by error class; True if all failed."""
    failed = Counter(type(e).__name__ for e in errors if e is not None)
    count = sum(failed.values())
    if count:
        kinds = ", ".join(f"{name}: {k}" for name, k in failed.most_common())
        print(f"warning: {count} grid point(s) failed, recorded as NaN ({kinds})",
              file=sys.stderr)
    return count == len(errors)


def _parse_axis(text: str):
    if "=" not in text:
        raise UsageError(f"--axis expects NAME=START:STOP:COUNT, got {text!r}")
    name, rest = text.split("=", 1)
    name = name.strip().replace("-", "_")
    if name == "drive":
        name = "efield"
    if name not in AXIS_NAMES:
        raise UsageError(f"unknown axis {name!r}; choose from {AXIS_NAMES}")
    parts = rest.split(":")
    if len(parts) != 3:
        raise UsageError(f"--axis expects NAME=START:STOP:COUNT, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad axis numbers in {text!r}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise UsageError(f"axis range must be finite, got {text!r}")
    if count < 2:
        raise UsageError("axis count must be >= 2")
    if not start < stop:
        raise UsageError("axis start must be below stop")
    return name, np.linspace(start, stop, count)


def _solve_mesh(axes, fixed: dict, mu: float, mode: str, lamb_dicke: bool):
    """Solve the row-major mesh over one or two axes with fixed values.

    ``axes`` holds (name, values) pairs and ``fixed`` the scalar
    parameters. ``lamb_dicke`` sets delta = 0 and gamma12 = 1, as steady
    does; a tau axis sets omega = tau efield^2 and gamma12 = 1, the branch
    whose state is the closed form's (triplet sector). Every usage error
    is raised before the first solve. Returns the mesh columns by
    parameter name, with delta, omega and gamma12 as solved, and
    (populations, concurrence, eof, errors) as _solve_grid returns them.
    """
    if not 0.0 <= mu <= 1.0:
        raise UsageError("--mu-dot-rhat must lie in [0, 1]")
    grids = np.meshgrid(*(values for _, values in axes), indexing="ij")
    params = {name: grid.ravel() for (name, _), grid in zip(axes, grids)}
    n = grids[0].size
    params.update({key: np.full(n, val) for key, val in fixed.items()})
    if lamb_dicke:
        params["delta"] = np.zeros(n)
    delta = params.setdefault("delta", np.zeros(n))
    efield = params.get("efield")
    if efield is None:
        raise UsageError("sweep needs --efield or an efield axis")
    if (efield < 0).any():
        raise UsageError("drive must be >= 0")
    if "k0r" in params and not (params["k0r"] > 0).all():  # NaN fails too
        raise UsageError("k0r must be > 0")
    if "tau" in params:
        if (delta != 0.0).any():
            raise UsageError("a tau axis requires delta = 0")
        if {"k0r", "omega", "gamma12"} & params.keys():
            raise UsageError("tau conflicts with --k0r/--omega/--gamma12")
        params["omega"] = params["tau"] * efield**2
        params["gamma12"] = np.ones(n)
    elif mode == "geometric":
        if "k0r" not in params:
            raise UsageError("geometric sweep needs --k0r or a k0r axis")
        if "omega" in params or "gamma12" in params:
            raise UsageError("--k0r conflicts with --omega/--gamma12")
        # one call per mesh; the array formulas equal the scalar ones bit for bit
        params["omega"] = dipole_coupling(params["k0r"], mu)
        params["gamma12"] = cross_decay(params["k0r"])
    elif "omega" not in params:
        raise UsageError("direct sweep needs --omega or an omega axis")
    params["gamma12"] = np.ones(n) if lamb_dicke else params.get("gamma12", np.zeros(n))
    return params, _solve_grid(delta, efield, params["omega"], params["gamma12"])


def _write_grid(ns, config, columns, rows, errors) -> int:
    """Report failed points, then write the rows; exit 1 if every point failed."""
    if _report_failures(errors):
        return 1
    with _output(ns, config) as out:
        _write_rows(columns, rows, _resolve(ns, config, "format", "csv"), out)
    return 0


def _cmd_fig2(ns, config) -> int:
    k0r_lo, k0r_hi = _parse_range(
        str(_resolve(ns, config, "k0r_range", "0.05:2.0")), "--k0r-range"
    )
    e_lo, e_hi = _parse_range(
        str(_resolve(ns, config, "efield_range", "0.0:10.0")), "--efield-range"
    )
    points = int(_resolve(ns, config, "points", 20))
    fixed = {key: float(val) for key in ("delta", "omega", "gamma12")
             if (val := _resolve(ns, config, key, None)) is not None}
    mu = float(_resolve(ns, config, "mu_dot_rhat", 0.0))
    if points < 2:
        raise UsageError("--points must be >= 2")
    if k0r_lo <= 0:
        raise UsageError("--k0r-range must be positive")
    # the geometric sweep over a distance axis and a drive axis
    axes = [("k0r", np.linspace(k0r_lo, k0r_hi, points)),
            ("efield", np.linspace(e_lo, e_hi, points))]
    lamb_dicke = bool(_resolve(ns, config, "lamb_dicke", False))
    params, (_, conc, _, errors) = _solve_mesh(axes, fixed, mu, "geometric", lamb_dicke)
    columns = ("k0r", "efield", "omega", "gamma12")
    rows = np.column_stack([params[k] for k in columns] + [conc])
    return _write_grid(ns, config, columns + ("concurrence",), rows, errors)


def _cmd_sweep(ns, config) -> int:
    axis_specs = ns.axis or config.get("axis") or []
    if isinstance(axis_specs, str):
        axis_specs = [axis_specs]
    if not 1 <= len(axis_specs) <= 2:
        raise UsageError("supply one or two --axis options")
    axes = [_parse_axis(a) for a in axis_specs]
    names = [name for name, _ in axes]
    if len(set(names)) != len(names):
        raise UsageError("axis names must be distinct")
    fixed = {}
    for key in ("delta", "efield", "omega", "gamma12", "k0r", "tau"):
        val = _resolve(ns, config, key, None)
        if val is not None:
            if key in names:
                raise UsageError(f"{key} is an axis and cannot also be fixed")
            fixed[key] = float(val)
    mu = float(_resolve(ns, config, "mu_dot_rhat", 0.0))
    mode = _resolve(ns, config, "mode", None)
    if mode is None:
        mode = "geometric" if ("k0r" in names or "k0r" in fixed) else "direct"
    lamb_dicke = bool(_resolve(ns, config, "lamb_dicke", False))
    printed = fixed.keys() | ({"delta", "gamma12"} if lamb_dicke else set())
    input_cols = names + [k for k in ("k0r", "delta", "efield", "omega",
                                      "gamma12", "tau")
                          if k in printed and k not in names]
    params, (pops, conc, eof, errors) = _solve_mesh(axes, fixed, mu, mode, lamb_dicke)
    rows = np.column_stack([params[k] for k in input_cols] + [pops, conc, eof])
    out_cols = ("pop_plus1", "pop_zero", "pop_minus1", "singlet_weight",
                "concurrence", "eof")
    return _write_grid(ns, config, tuple(input_cols) + out_cols, rows, errors)


# ---------------------------------------------------------------- self check


def _cmd_check(ns, config) -> int:
    from . import checks  # loaded here: no other command needs the criteria
    failures = 0
    with _output(ns, config) as out:
        for line in checks.all_lines():
            failures += not line.ok
            out.write(f"{line}\n")
        out.write("all checks passed\n" if failures == 0
                  else f"{failures} check(s) failed\n")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------- entry point


_COMMANDS = {
    "steady": _cmd_steady,
    "spectrum": _cmd_spectrum,
    "fig1": _cmd_fig1,
    "fig2": _cmd_fig2,
    "sweep": _cmd_sweep,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        config = _load_config(ns.config) if ns.config else {}
        return _COMMANDS[ns.command](ns, config)
    except (UsageError, DipolePairError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"error: linear algebra failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
