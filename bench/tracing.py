"""Spans around every call into the package's layers, for the traced run.

The layers are the package modules ``model``, ``dynamics``,
``entanglement``, ``linalg`` and ``cli``. Every public function of a
layer is wrapped at each module namespace that binds it (``cli`` and
``entanglement`` import names directly), and every public class gets a
span around construction and around each public method. A span records
its name, start, end, the span that caused it, the request it belongs to
and whether the call returned. Self time is a span's duration minus the
durations of its direct children.

``spectral`` is left out: only the one-point ``spectrum`` command calls
it. ``errors`` and ``tolerances`` do no work.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import sys
import time

import numpy as np

PACKAGE = "dipolepair"
LAYERS = ("model", "dynamics", "entanglement", "linalg", "cli")

# public names of each layer at the commit that defined the benchmark; a
# name a later commit removes is reported as absent with zero calls
SPAN_NAMES = (
    "model.AtomPairConfig", "model.Couplings", "model.DriveScaling",
    "model.dipole_coupling", "model.cross_decay", "model.omega_dipole",
    "model.gamma_cross", "model.couplings_from_geometry",
    "model.build_hamiltonian", "model.build_effective_hamiltonian",
    "model.tau_of_geometry", "model.k0r_for_tau",
    "dynamics.vec", "dynamics.unvec", "dynamics.DensityMatrix",
    "dynamics.DensityMatrix.to_basis", "dynamics.DensityMatrix.singlet_weight",
    "dynamics.Liouvillian", "dynamics.Liouvillian.to_coupled",
    "dynamics.build_liouvillian", "dynamics.steady_state_numeric",
    "dynamics.restrict_triplet", "dynamics.triplet_steady_state",
    "dynamics.solve_steady_state", "dynamics.analytic_steady_state",
    "dynamics.lamb_dicke_limit_state", "dynamics.propagate",
    "entanglement.ConcurrenceReport", "entanglement.spin_flip",
    "entanglement.binary_entropy", "entanglement.eof_from_concurrence",
    "entanglement.spin_flip_spectrum", "entanglement.wootters_concurrence",
    "entanglement.closed_form_concurrence", "entanglement.admixture_concurrence",
    "entanglement.singlet_projector", "entanglement.argmax_concurrence",
    "linalg.kron", "linalg.hermitian_part", "linalg.hermitian_eig",
    "linalg.general_eig", "linalg.psd_sqrt", "linalg.null_vector",
    "cli.main",
)

# span fields: name id, start, end, parent span index (-1 at top level),
# request index, returned normally
NAME, START, END, PARENT, REQUEST, OK = range(6)


class Tracer:
    """Installs and removes the span wrappers; holds the spans in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._plan_cache = None

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.request, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
                span[OK] = True
                return out
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def _plan(self):
        """Build the wrappers once: a list of (owner, attribute, original, traced)."""
        pkg = importlib.import_module(PACKAGE)
        layers = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        prefix = PACKAGE + "."
        namespaces = [pkg] + [m for key, m in sorted(sys.modules.items())
                              if key.startswith(prefix) and m is not None]
        plan = []
        for layer, mod in layers.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    traced = self._wrap(f"{layer}.{attr}", obj)
                    plan += [(ns, key, obj, traced) for ns in namespaces
                             for key, val in vars(ns).items() if val is obj]
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                    init = obj.__init__
                    plan.append((obj, "__init__", init, self._wrap(f"{layer}.{attr}", init)))
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            plan.append((obj, meth, fn, self._wrap(f"{layer}.{attr}.{meth}", fn)))
        return plan

    def install(self):
        if self._plan_cache is None:
            self._plan_cache = self._plan()
        for owner, attr, _, traced in self._plan_cache:
            setattr(owner, attr, traced)

    def remove(self):
        for owner, attr, original, _ in self._plan_cache or ():
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def self_times(spans: list[list]) -> np.ndarray:
    """Per-span self time in seconds: duration minus direct children."""
    dur = np.array([s[END] - s[START] for s in spans])
    child = np.zeros(len(spans))
    for s, d in zip(spans, dur):
        if s[PARENT] >= 0:
            child[s[PARENT]] += d
    return dur - child

