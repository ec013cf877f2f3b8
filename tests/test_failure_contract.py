"""One failure contract: every failure the engine reports is a DipolePairError.

Extreme inputs (magnitudes up to the largest double, subnormal drives,
gamma12 at and next to +-1, NaN and inf) go through the batch, the scalar
solve, the closed forms, propagation and the CLI. The batch reports each
point's failure in its error slot; the scalar calls raise; the CLI prints
one ``error:`` line.
None of them may let numpy's LinAlgError, or any other exception, through.
"""

import contextlib
import io
import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from dipolepair import (
    AtomPairConfig,
    BasisTag,
    Couplings,
    DensityMatrix,
    analytic_steady_state,
    build_liouvillian,
    lamb_dicke_limit_state,
    propagate,
    solve_steady_state,
    solve_steady_states,
    steady_state_entanglement,
)
from dipolepair import tolerances as tol
from dipolepair.cli import main
from dipolepair.errors import DipolePairError, InvalidState, OutOfRange

BIG = [1.0, 2.0, 1e154, 1e300, 1e308, float(np.finfo(float).max), math.inf]
SMALL = [0.0, 5e-324, 1e-310, 1e-300, 1e-200, 1e-160]
ANY = st.one_of(st.sampled_from(BIG + SMALL + [-x for x in BIG + SMALL] + [math.nan]),
                st.floats())
DRIVE = st.one_of(st.sampled_from(SMALL + BIG + [-5e-324, -1.0, -math.inf, math.nan]),
                  st.floats(0.0, 1e-300), st.floats())
GAMMA12 = st.one_of(
    st.sampled_from([float(g) for g in (-1.0, np.nextafter(-1.0, 0.0), np.nextafter(-1.0, -2.0),
                                        1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0))]
                    + [0.0, math.nan, math.inf, -math.inf, 1e308]),
    st.floats(-1.0, 1.0), st.floats())
GROUND = DensityMatrix(np.diag([0.0, 0.0, 0.0, 1.0]), BasisTag.COMPUTATIONAL)


def check_batch(errors, states):
    assert all(e is None or isinstance(e, DipolePairError) for e in errors)
    for err, state in zip(errors, states):
        assert np.isnan(state).all() if err is not None else np.isfinite(state).all()


def check_scalar(call):
    try:
        call()
    except DipolePairError:
        pass


def check_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    text = err.getvalue()
    assert "linear algebra failed" not in text
    if rc == 2:
        assert out.getvalue() == "" and text.startswith("error: ") and text.count("\n") == 1
    else:
        assert rc in (0, 1)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(delta=ANY, drive=DRIVE, omega=ANY, gamma12=GAMMA12, resonant=st.booleans())
def test_every_failure_is_a_dipole_pair_error(delta, drive, omega, gamma12, resonant):
    if resonant:  # delta = -omega: D = 0 on the dark line, and p = 0 next to it
        omega = -delta
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states, errors = solve_steady_states(delta, drive, omega, gamma12)
        check_batch(errors, states)
        states, conc, eof, errors = steady_state_entanglement(delta, drive, omega, gamma12)
        check_batch(errors, states)
        assert np.isnan(conc[0]) == np.isnan(eof[0]) == (errors[0] is not None)
        try:
            cfg = AtomPairConfig(delta=delta, drive=drive)
        except DipolePairError:
            cfg = None
        if cfg is not None:
            c = Couplings(omega, gamma12)
            check_scalar(lambda: solve_steady_state(cfg, c))
            check_scalar(lambda: propagate(build_liouvillian(cfg, c), GROUND, 0.5, 0.1))
        # the closed forms, with omega standing in for tau
        check_scalar(lambda: analytic_steady_state(omega, drive))
        check_scalar(lambda: lamb_dicke_limit_state(omega))
        point = [f"--delta={delta!r}", f"--efield={drive!r}", f"--omega={omega!r}"]
        for argv in (["steady", *point, f"--gamma12={gamma12!r}"],
                     ["spectrum", *point, f"--gamma12={gamma12!r}"],
                     ["sweep", "--axis", "gamma12=-1:1:3", *point],
                     ["steady", f"--tau={omega!r}"],
                     ["steady", f"--tau={omega!r}", f"--efield={drive!r}"]):
            check_cli(argv)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(parts=st.lists(ANY, min_size=32, max_size=32), hermitian=st.booleans(),
       basis=st.sampled_from(BasisTag))
def test_density_matrix_of_any_entries_is_a_state_or_invalid_state(parts, hermitian, basis):
    # extreme entries, also Hermitian ones that reach the trace and eigenvalue checks;
    # a state that is built is one
    m = np.array(parts).view(complex).reshape(4, 4)
    if hermitian:
        m = np.triu(m, 1) + np.triu(m, 1).conj().T + np.diag(m.diagonal().real)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            state = DensityMatrix(m, basis)
        except InvalidState:
            return
    assert np.isfinite(state.matrix).all()
    assert np.linalg.eigvalsh(state.matrix)[0] >= 2.0 * tol.PSD_EVAL_FLOOR


@pytest.mark.parametrize("delta, drive", [(1e308, 3.0), (0.0, 1e308)])
def test_huge_finite_inputs_raise_out_of_range_without_a_warning(delta, drive):
    # the generator (delta) or its triplet projection (drive) overflows
    cfg = AtomPairConfig(delta=delta, drive=drive)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange, match="^non-finite generator$"):
            solve_steady_state(cfg, Couplings(0.0, 0.0))
        if delta:
            with pytest.raises(OutOfRange, match="^non-finite generator$"):
                build_liouvillian(cfg, Couplings(0.0, 0.0))


@pytest.mark.parametrize("call", [
    lambda: analytic_steady_state(1e200, 1.0),  # W^2 raises OverflowError on Python floats
    lambda: analytic_steady_state(1.0, 1e80),  # E^4 too
    lambda: analytic_steady_state(1.0, 1.2e77),  # 64 E^4 overflows to inf
    lambda: analytic_steady_state(1.0, 3.5e76),  # the entries are finite, their sum is not
    lambda: analytic_steady_state(1e154, 1.0),  # 4 W^2 too
    lambda: lamb_dicke_limit_state(1e200),  # tau^2
    lambda: lamb_dicke_limit_state(-1.4e154),
], ids=["W=1e200", "E=1e80", "E=1.2e77", "E=3.5e76", "W=1e154", "tau=1e200", "tau=-1.4e154"])
def test_closed_forms_that_overflow_raise_the_batch_error_without_a_warning(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange, match="^non-finite steady state$"):
            call()


def test_an_overflowing_step_raises_out_of_range_without_a_warning():
    # exp(L dt) of a huge finite generator overflows in the squaring
    liouv = build_liouvillian(AtomPairConfig(delta=1.0), Couplings(1e154, -1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange, match="^exponential overflows$"):
            propagate(liouv, GROUND, 0.5, 0.1)


@pytest.mark.parametrize("argv, message", [
    (["steady", "--tau", "1e200"], "error: non-finite steady state\n"),
    (["steady", "--tau", "3", "--efield", "1e200"], "error: inputs must be finite\n"),
])
def test_steady_at_a_huge_tau_or_drive_prints_one_error_line(argv, message):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert out.getvalue() == "" and err.getvalue() == message
