"""Command-line front end: steady states, spectra, figure data, self checks.

steady, spectrum, fig2 and sweep read the parameter-point flags through
one resolver, so each flag means the same thing in all four, and a flag
set they cannot honour is a usage error before any solve; fig1 and check
take only the flags they read.

Exit codes: 0 success, 1 check failure or every grid point failed, 2
usage error, package error or memory run out (one ``error:`` line), 141
the reader closed standard output early (quietly). CSV output uses a
single header row, 12-significant-digit floats and the literal ``NaN``
for failed points; JSON carries the same rounded values, ``null`` for
NaN. ``--out`` is written in place and then cut to length.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import stat
import sys
from collections import Counter

import numpy as np

from .dynamics import _FAILURES, DensityMatrix, lamb_dicke_limit_state
from .entanglement import (TAU_PEAK, _eofs, _steady_concurrence, steady_state_entanglement,
                           wootters_concurrence)
from .errors import DipolePairError
from .linalg import BasisTag, general_eig, hermitian_eig
from .model import (
    AtomPairConfig,
    Couplings,
    _geometry,
    build_effective_hamiltonian,
    k0r_for_tau,
    triplet_block,
)

AXIS_NAMES = ("k0r", "efield", "omega", "delta", "tau")

# grid points per solver stack: about 0.3 MB per (chunk, 4, 4) state stack
GRID_CHUNK = 1024

# exit code when the reader of the output closed it: 128 + SIGPIPE, as a
# shell reports a program that the signal ended
EXIT_BROKEN_PIPE = 141


class UsageError(Exception):
    pass


# ---------------------------------------------------------------- formatting


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "NaN"
    return f"{x:.12g}"


def _round12(x: float) -> float:
    return float(_fmt(x))


def _json(obj) -> str:
    """JSON text of ``obj``, dicts and lists of floats and text, each float
    rounded by _round12 and a non-finite one written as null (RFC 8259 has
    no NaN or Infinity)."""
    def plain(v):
        if isinstance(v, float):
            return _round12(v) if math.isfinite(v) else None
        if isinstance(v, dict):
            return {key: plain(x) for key, x in v.items()}
        return [plain(x) for x in v] if isinstance(v, list) else v

    return json.dumps(plain(obj), indent=1, allow_nan=False) + "\n"


def _write_rows(columns, rows, fmt: str, out) -> None:
    rows = np.asarray(rows, dtype=float)
    if fmt == "json":
        out.write(_json([dict(zip(columns, row)) for row in rows.tolist()]))
    else:
        # one %-format, the digits of _fmt and _round12; "%g" gives "nan" for NaN
        template = ",".join(["%.12g"] * rows.shape[1]) + "\n"
        out.write(",".join(columns) + "\n")
        out.write(((template * len(rows)) % tuple(rows.ravel().tolist())).replace("nan", "NaN"))


def _output(ns):
    """Context manager of the output: the --out file, written on exit, or stdout."""
    path = getattr(ns, "out", None)
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return _written_in_place(fd)


@contextlib.contextmanager
def _written_in_place(fd):
    """Yield a text buffer; on exit write it to ``fd``, opened without
    truncation, cut a regular file to length and close ``fd``.

    The bytes on disk end up those of open(path, "w"), without its
    truncation of the old contents first, which costs far more than the
    write on some file systems. Devices and FIFOs are never truncated.
    """
    text = io.StringIO()
    try:
        yield text
    finally:
        with open(fd, "wb", buffering=0) as raw:
            data = memoryview(text.getvalue().encode())
            while data:
                data = data[raw.write(data):]
            if stat.S_ISREG(os.fstat(fd).st_mode):
                raw.truncate()  # at the written length


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
    unset = {"argument_default": argparse.SUPPRESS}  # an option not given stays absent
    files = argparse.ArgumentParser(add_help=False, **unset)
    files.add_argument("--out", help="output path (default stdout)")
    files.add_argument("--config", help="key=value defaults file")
    table = argparse.ArgumentParser(add_help=False, parents=[files], **unset)
    table.add_argument("--format", choices=_FORMATS)
    point = argparse.ArgumentParser(add_help=False, parents=[table], **unset)
    point.add_argument("--delta", type=float, help="detuning / gamma")
    point.add_argument("--efield", type=float, help="drive / gamma")
    point.add_argument("--omega", type=float, help="dipole coupling / gamma")
    point.add_argument("--gamma12", type=float, help="cross decay / gamma")
    point.add_argument("--k0r", type=float, help="dimensionless distance")
    point.add_argument("--mu-dot-rhat", type=float,
                       help="dipole projection on the axis, in [0, 1]")
    point.add_argument("--tau", type=float, help="omega / efield^2")
    point.add_argument("--lamb-dicke", action="store_const", const=True,
                       help="force gamma12 = gamma and delta = 0")

    parser = argparse.ArgumentParser(
        prog="dipolepair",
        description="Steady-state entanglement of two dipole-coupled driven atoms",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("steady", parents=[point],
                   help="steady state at one parameter point")
    sub.add_parser("spectrum", parents=[point],
                   help="eigenvalues of the Hamiltonian and its damped counterpart")
    fig1 = sub.add_parser("fig1", parents=[table], **unset,
                          help="distance giving maximal entanglement vs photon number")
    fig1.add_argument("--tau", type=float, help="omega / efield^2")
    fig1.add_argument("--q", type=float, help="atomic quality factor")
    fig1.add_argument("--nbar-min", type=float)
    fig1.add_argument("--nbar-max", type=float)
    fig1.add_argument("--points", type=int)
    fig2 = sub.add_parser("fig2", parents=[point], **unset,
                          help="concurrence over a distance x drive grid")
    fig2.add_argument("--k0r-range", help="START:STOP")
    fig2.add_argument("--efield-range", help="START:STOP")
    fig2.add_argument("--points", type=int, help="points per axis")
    sweep = sub.add_parser("sweep", parents=[point], **unset,
                           help="general one- or two-axis parameter sweep")
    sweep.add_argument("--axis", action="append",
                       help="NAME=START:STOP:COUNT (repeat for a second axis)")
    sub.add_parser("check", parents=[files], help="run the numeric self checks")
    return parser


@functools.cache
def _config_actions() -> dict:
    """The parser action of each key a config file may hold: the options of
    every command but --config, so that one file can serve several commands."""
    (commands,) = (action for action in _build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    return {a.dest: a for command in commands.choices.values() for a in command._actions
            if a.dest not in ("help", "config")}


def _load_config(path: str) -> dict:
    """The values of a config file by key; the lines of an append option
    (axis) in a list, any other key at most once."""
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
                action = _config_actions().get(key)
                if action is None:
                    raise UsageError(f"unknown config key {key!r}")
                value = _config_value(action, text)
                if isinstance(action, argparse._AppendAction):
                    values.setdefault(key, []).append(value)
                elif key in values:
                    raise UsageError(f"config key {key} given twice")
                else:
                    values[key] = value
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    return values


def _config_value(action, text: str):
    """The value of ``text`` as the flag of ``action`` takes it: a boolean
    for a switch, one of the choices where the flag has them, the text read
    by the flag's own type (float or int) where it has one, the text otherwise."""
    key = action.dest
    if action.nargs == 0:
        if text.lower() not in BOOLEAN_WORDS:
            raise UsageError(f"config key {key} expects one of "
                             f"{'/'.join(BOOLEAN_WORDS)}, got {text!r}")
        return BOOLEAN_WORDS[text.lower()]
    if action.choices is not None and text not in action.choices:
        raise UsageError(f"config key {key} expects one of {'/'.join(action.choices)}, "
                         f"got {text!r}")
    if action.type is None:
        return text
    try:
        return action.type(text)
    except ValueError:
        kind = "an integer" if action.type is int else "a number"
        raise UsageError(f"config key {key} expects {kind}, got {text!r}") from None


def _require_finite(**values) -> None:
    """Reject the first non-finite option as a usage error."""
    for key, value in values.items():
        if not math.isfinite(value):
            raise UsageError(f"--{key.replace('_', '-')} must be finite, got {value!r}")


# ---------------------------------------------------------------- parameters


POINT_FLAGS = ("delta", "efield", "omega", "gamma12", "k0r", "tau")
# the words a config switch takes
BOOLEAN_WORDS = {"true": True, "false": False, "yes": True, "no": False,
                 "1": True, "0": False}
# the choices of --format, and of the config key format
_FORMATS = ("text", "csv", "json")


def _mesh(ns, axes=(), drive=None, limit=False):
    """Parameter columns of the row-major mesh over ``axes``: the one reader
    of the point flags, for steady and spectrum (no axes: one point), fig2
    and sweep.

    ``ns`` holds the options given, flags over the config file (main
    merges the two). Each of POINT_FLAGS fixes one value on every point.
    A distance k0r gives omega = dipole_coupling(k0r, mu) and gamma12 =
    cross_decay(k0r); --omega takes --gamma12, default 0; tau with a drive
    gives omega = tau efield^2 (tau efield times efield where efield^2
    overflows) and gamma12 = 1 and needs delta = 0; --lamb-dicke fixes
    gamma12 = 1 and delta = 0. ``drive`` is the drive when none is given
    (None: one must be). With ``limit``, tau without a drive stands for
    the strong-drive limit state, and only its tau, delta and gamma12 are
    returned. Every usage error is raised here, before any solve. Returns
    (columns, fixed): the flat columns by name (np.meshgrid(...,
    indexing="ij") ravelled), delta, efield, omega and gamma12 as solved,
    then k0r or tau when given, and the names fixed on every point.
    """
    names = [name for name, _ in axes]
    fixed = {key: getattr(ns, key) for key in POINT_FLAGS if key in ns}
    mu = getattr(ns, "mu_dot_rhat", None)
    given = fixed.keys() | set(names)
    if getattr(ns, "lamb_dicke", False):
        fixed.update(delta=0.0, gamma12=1.0)
    for name in names:
        if name in fixed:
            raise UsageError(f"{name} is an axis and cannot also be fixed")
    if "k0r" in given and given & {"omega", "gamma12"}:
        raise UsageError("--k0r conflicts with --omega/--gamma12")
    if "tau" in given and given & {"k0r", "omega", "gamma12"}:
        raise UsageError("tau conflicts with --k0r/--omega/--gamma12")
    if not given & {"k0r", "omega", "tau"}:
        raise UsageError("supply one of --k0r, --omega or --tau")
    if mu is not None and "k0r" not in given:
        raise UsageError("--mu-dot-rhat conflicts with --omega/tau")
    mu = 0.0 if mu is None else float(mu)
    if not 0.0 <= mu <= 1.0:
        raise UsageError("--mu-dot-rhat must lie in [0, 1]")

    # row-major: each value repeated over the later axes, that block over the earlier ones
    n = math.prod(len(values) for _, values in axes)
    params, inner = {}, n
    for name, values in axes:
        inner //= len(values)
        params[name] = values.repeat(inner)[None].repeat(n // (inner * len(values)), 0).ravel()
    params.update((key, np.full(n, value)) for key, value in fixed.items())
    delta = params.setdefault("delta", np.zeros(n))
    if "tau" in params:
        if (delta != 0.0).any():
            raise UsageError("tau requires delta = 0")
        params.setdefault("gamma12", np.ones(n))
    if "efield" not in params:
        if limit and "tau" in params:
            _require_finite(tau=fixed["tau"])
            return {key: params[key] for key in ("tau", "delta", "gamma12")}, fixed.keys()
        if drive is None or "tau" in params:
            raise UsageError("supply --efield or an efield axis" if axes else "supply --efield")
        params["efield"] = np.full(n, drive)
    efield = params["efield"]
    if (efield < 0).any():
        raise UsageError("drive must be >= 0")
    if "tau" in params:
        with np.errstate(over="ignore", invalid="ignore"):  # fails its point as non-finite
            tau, e2 = params["tau"], efield**2  # (tau E) E where only E^2 overflows
            params["omega"] = np.where(np.isinf(e2), tau * efield * efield, tau * e2)
    elif "k0r" in params:
        # one evaluation of both factors per mesh, which rejects a k0r that is not
        # finite and > 0; the array formulas equal the scalar ones bit for bit
        params["omega"], gamma12 = _geometry(params["k0r"], mu)
        params.setdefault("gamma12", gamma12)
    params.setdefault("gamma12", np.zeros(n))
    order = ("delta", "efield", "omega", "gamma12", "k0r", "tau")
    return {key: params[key] for key in order if key in params}, fixed.keys()


def _axis(name: str, bounds: str, count: int, flag: str):
    """(name, values): ``count`` points over START:STOP ``bounds``, given by ``flag``."""
    try:
        start, stop = (float(p) for p in bounds.split(":"))
    except ValueError as exc:
        raise UsageError(f"{flag} expects START:STOP, got {bounds!r}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise UsageError(f"{flag} must be finite, got {bounds!r}")
    if not start < stop:
        raise UsageError(f"{flag}: start must be below stop")
    return name, np.linspace(start, stop, count)


# ---------------------------------------------------------------- commands


def _cmd_steady(ns) -> int:
    columns, _ = _mesh(ns, limit=True)
    inputs = {key: float(column[0]) for key, column in columns.items()}
    fmt = getattr(ns, "format", "text")
    if "efield" in inputs:
        # the grid engine on one point, so steady and sweep print the same numbers
        states, (conc,), (eof,), (err,) = steady_state_entanglement(
            *(columns[key] for key in ("delta", "efield", "omega", "gamma12")))
        if err is not None:
            raise err
        (coupled,) = DensityMatrix._checked(states, BasisTag.COUPLED)
    else:
        coupled = lamb_dicke_limit_state(inputs["tau"])
        report = wootters_concurrence(coupled)
        conc, eof = report.concurrence, report.eof
    evals, _ = hermitian_eig(coupled.matrix)
    pops = coupled.matrix.diagonal().real
    with _output(ns) as out:
        if fmt == "json":
            out.write(_json({**inputs, "populations": pops.tolist(),
                             "eigenvalues": evals.tolist(), "concurrence": conc, "eof": eof,
                             "matrix_re": coupled.matrix.real.tolist(),
                             "matrix_im": coupled.matrix.imag.tolist()}))
        elif fmt == "csv":
            cols = list(inputs) + ["pop_plus1", "pop_zero", "pop_minus1",
                                   "singlet_weight", "concurrence", "eof"]
            row = list(inputs.values()) + list(pops) + [conc, eof]
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
            out.write(f"concurrence = {_fmt(conc)}\n")
            out.write(f"entanglement of formation = {_fmt(eof)} ebit\n")
    return 0


def _cmd_spectrum(ns) -> int:
    columns, _ = _mesh(ns, drive=0.0)
    p = {key: float(column[0]) for key, column in columns.items()}
    cfg = AtomPairConfig(delta=p["delta"], drive=p["efield"], k0r=p.get("k0r", 1.0))
    couplings = Couplings(p["omega"], p["gamma12"])
    roots, _ = hermitian_eig(triplet_block(cfg.delta, couplings.omega, cfg.drive))
    heff = build_effective_hamiltonian(cfg, couplings)
    heff_evals = general_eig(heff)
    # the singlet line, exact given gamma12 (+ 0.0 turns a zero decay's -0 into 0)
    singlet = float(heff[3, 3].real), -2.0 * float(heff[3, 3].imag) + 0.0
    fmt = getattr(ns, "format", "text")
    with _output(ns) as out:
        rows = [("triplet", float(r), float("nan")) for r in roots]
        rows.append(("singlet", *singlet))
        rows += [("damped", v.real, -2.0 * v.imag) for v in heff_evals]
        if fmt == "json":
            out.write(_json([{"branch": b, "energy": e, "decay": d} for b, e, d in rows]))
        elif fmt == "csv":
            out.write("branch,energy,decay\n")
            for b, e, d in rows:
                out.write(f"{b},{_fmt(e)},{_fmt(d)}\n")
        else:
            out.write(f"triplet eigenvalues: {'  '.join(_fmt(float(r)) for r in roots)}\n")
            out.write(f"singlet eigenvalue:  {_fmt(singlet[0])}  (decay {_fmt(singlet[1])})\n")
            out.write("damped spectrum (energy, decay rate):\n")
            for v in heff_evals:
                out.write(f"  {_fmt(v.real):>18}  {_fmt(-2.0 * v.imag):>18}\n")
    return 0


def _cmd_fig1(ns) -> int:
    q = getattr(ns, "q", 1e6)
    tau = getattr(ns, "tau", TAU_PEAK)
    nbar_min = getattr(ns, "nbar_min", 1.0)
    nbar_max = getattr(ns, "nbar_max", 1e4)
    points = getattr(ns, "points", 50)
    _require_finite(q=q, tau=tau, nbar_min=nbar_min, nbar_max=nbar_max)
    k0r_for_tau(tau, q, nbar_min)  # raises when one is <= 0, before log10
    if points < 2:
        raise UsageError("--points must be >= 2")
    if nbar_min >= nbar_max:
        raise UsageError("--nbar-min must be below --nbar-max")
    grid = np.logspace(math.log10(nbar_min), math.log10(nbar_max), points)
    rows = [(nv, k0r_for_tau(tau, q, nv)) for nv in grid]
    fmt = getattr(ns, "format", "csv")
    with _output(ns) as out:
        _write_rows(("nbar_v", "k0r"), rows, fmt, out)
    return 0


def _solve_grid(delta, drive, omega, gamma12):
    """Steady states and concurrence of every point of a parameter mesh.

    The arguments are columns of one length N, as _mesh gives them. Points
    go through steady_state_entanglement without its EoF and error list
    (_steady_concurrence), in stacks of GRID_CHUNK to bound the work arrays.
    Returns (coupled-basis populations (N, 4), concurrence, codes), NaN and
    a dynamics._FAILURES code (0: none) where a point failed; a command
    that prints the EoF takes entanglement._eofs of the concurrence.
    """
    args = delta, drive, omega, gamma12
    n = len(delta)
    pops = np.empty((n, 4))
    conc = np.empty(n)
    codes = np.empty(n, dtype=int)
    for lo in range(0, n, GRID_CHUNK):
        part = slice(lo, lo + GRID_CHUNK)
        states, conc[part], codes[part], _ = _steady_concurrence(*(a[part] for a in args))
        pops[part] = states.diagonal(axis1=1, axis2=2).real
    return pops, conc, codes


def _report_failures(codes) -> bool:
    """Warn on stderr about failed points by error class, first seen first; True if all failed."""
    if not np.count_nonzero(codes):
        return False
    failed = Counter(_FAILURES[code][0].__name__ for code in codes[codes > 0].tolist())
    kinds = ", ".join(f"{name}: {k}" for name, k in failed.most_common())
    print(f"warning: {failed.total()} grid point(s) failed, recorded as NaN ({kinds})",
          file=sys.stderr)
    return failed.total() == len(codes)


def _parse_axis(text: str):
    """(name, values) of a sweep axis NAME=START:STOP:COUNT."""
    name, _, rest = text.partition("=")
    bounds, _, count = rest.rpartition(":")
    name = name.strip().replace("-", "_")
    if name == "drive":
        name = "efield"
    if name not in AXIS_NAMES:
        raise UsageError(f"unknown axis {name!r}; choose from {AXIS_NAMES}")
    try:
        count = int(count)
    except ValueError as exc:
        raise UsageError(f"--axis expects NAME=START:STOP:COUNT, got {text!r}") from exc
    if count < 2:
        raise UsageError("axis count must be >= 2")
    return _axis(name, bounds, count, f"--axis {name}")


def _write_grid(ns, columns, rows, codes) -> int:
    """Report failed points, then write the rows; exit 1 if every point failed."""
    if _report_failures(codes):
        return 1
    with _output(ns) as out:
        _write_rows(columns, rows, getattr(ns, "format", "csv"), out)
    return 0


def _cmd_fig2(ns) -> int:
    points = getattr(ns, "points", 20)
    if points < 2:
        raise UsageError("--points must be >= 2")
    # the sweep over a distance axis and a drive axis
    axes = [_axis("k0r", getattr(ns, "k0r_range", "0.05:2.0"), points, "--k0r-range"),
            _axis("efield", getattr(ns, "efield_range", "0.0:10.0"), points, "--efield-range")]
    p, _ = _mesh(ns, axes)
    _, conc, codes = _solve_grid(p["delta"], p["efield"], p["omega"], p["gamma12"])
    columns = ("k0r", "efield", "omega", "gamma12")
    rows = np.column_stack([p[k] for k in columns] + [conc])
    return _write_grid(ns, columns + ("concurrence",), rows, codes)


def _cmd_sweep(ns) -> int:
    axis_specs = getattr(ns, "axis", [])
    if not 1 <= len(axis_specs) <= 2:
        raise UsageError("supply one or two --axis options")
    axes = [_parse_axis(a) for a in axis_specs]
    names = [name for name, _ in axes]
    if len(set(names)) != len(names):
        raise UsageError("axis names must be distinct")
    p, fixed = _mesh(ns, axes)
    input_cols = names + [k for k in ("k0r", "delta", "efield", "omega", "gamma12", "tau")
                          if k in fixed]
    pops, conc, codes = _solve_grid(p["delta"], p["efield"], p["omega"], p["gamma12"])
    rows = np.column_stack([p[k] for k in input_cols] + [pops, conc, _eofs(conc)])
    out_cols = ("pop_plus1", "pop_zero", "pop_minus1", "singlet_weight",
                "concurrence", "eof")
    return _write_grid(ns, tuple(input_cols) + out_cols, rows, codes)


# ---------------------------------------------------------------- self check


def _cmd_check(ns) -> int:
    from . import checks  # loaded here: no other command needs the criteria
    failures = 0
    with _output(ns) as out:
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
    ns = _build_parser().parse_args(argv)
    try:
        if getattr(ns, "config", None):
            # the one merge of the file: a flag given keeps its value
            for key, value in _load_config(ns.config).items():
                vars(ns).setdefault(key, value)
        code = _COMMANDS[ns.command](ns)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except (UsageError, DipolePairError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # say, a grid too large for memory
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left (say, `dipolepair check | head`): stop without a
        # message, and point stdout at devnull so that its final flush is silent
        with contextlib.suppress(AttributeError, OSError, ValueError):
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
