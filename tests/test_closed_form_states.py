"""The closed-form batch states of solve_steady_states against the 50-digit oracle.

solve_steady_states builds each state from D rho = u u^+ + w w^+ +
A |-1><-1| (+ A |A><A|); ``mp_oracle`` solves the full 16x16 generator
at 50 digits. Every nonzero entry must agree to 1e-12 relative, plus the
input-rounding term of ``entry_bound``.
"""

import math
import warnings

import numpy as np
import pytest

pytest.importorskip("mpmath")
pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from mp_oracle import coupled_state
from test_block_solver import corner_grid

from dipolepair import cross_decay, dipole_coupling, solve_steady_states

EPS = np.finfo(float).eps
# digits of the oracle: on this domain the smallest nonzero entry, about
# E^4 / D, reaches 1e-51 (E = 1e-3, |omega| ~ 1e9 at k0r = 1e-3, delta ~ -omega),
# and its 1e-12 check needs 12 more digits beyond that
DPS = 90


def entry_bound(delta, omega):
    """Relative bound on each nonzero entry of a state.

    1e-12, plus eps |omega| / |omega + delta|: rounding omega or delta
    once (a relative change of eps) moves omega + delta by up to
    eps |omega|, and the entries that carry omega + delta by up to that
    over |omega + delta|. The term matters only near the two-atom
    resonance delta = -omega, where omega + delta cancels.
    """
    shift = abs(omega + delta)
    return 1e-12 + (EPS * abs(omega) / shift if shift else math.inf)


def assert_matches_oracle(delta, drive, omega, gamma12):
    (state,), (error,) = solve_steady_states(delta, drive, omega, gamma12)
    assert error is None
    exact = coupled_state(delta, drive, omega, gamma12, singlet_free=gamma12 == 1.0,
                          dps=DPS)
    # no triplet-singlet coherence: exactly zero here, below 1e-80 in the oracle
    assert not state[3, :3].any() and not state[:3, 3].any()
    assert np.abs(exact[3, :3]).max() <= 1e-80 and np.abs(exact[:3, 3]).max() <= 1e-80
    bound = entry_bound(delta, omega)
    nonzero = np.abs(exact) > 1e-80
    assert not state[~nonzero].any()  # E = 0 leaves only |-1><-1|
    rel = np.abs(state - exact)[nonzero] / np.abs(exact)[nonzero]
    assert rel.max() <= bound, (rel.max(), bound)


def test_states_match_oracle_on_log_grid():
    for point in zip(*corner_grid()):
        assert_matches_oracle(*map(float, point))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    k0r=st.floats(-3.0, 0.5).map(lambda e: 10.0**e),
    drive=st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)),
    delta=st.floats(-10.0, 10.0),
    resonance=st.one_of(st.none(), st.just(0.0), st.floats(-0.2, 0.2),
                        st.floats(-12.0, -2.0).map(lambda e: 10.0**e)),
    mu=st.floats(0.0, 1.0),
    branch=st.booleans(),
)
def test_states_match_oracle_through_the_resonance(k0r, drive, delta, resonance, mu,
                                                   branch):
    omega = float(dipole_coupling(k0r, mu))
    if resonance is not None:  # the detuned two-atom resonance delta = -omega
        delta = -omega * (1.0 + resonance)
    gamma12 = 1.0 if branch else float(cross_decay(k0r))
    assert_matches_oracle(delta, drive, omega, gamma12)


def test_extreme_drive_gives_the_mixed_state_without_warnings():
    # the strong-drive limit: each of |+1>, |0>, |-1>, |A> at 1/4, or the
    # three triplet states at 1/3 when the singlet is decoupled
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states, errors = solve_steady_states(0.0, [1e150, 1e160, 1e150],
                                             dipole_coupling(0.5),
                                             [cross_decay(0.5)] * 2 + [1.0])
    assert errors == [None, None, None]
    for state, diagonal in zip(states, ([0.25] * 4, [0.25] * 4, [1 / 3] * 3 + [0.0])):
        assert np.abs(state - np.diag(diagonal)).max() <= 1e-15


def test_a_non_finite_state_fails_its_point_with_out_of_range():
    # finite input whose state overflows (4 delta) gives a non-finite
    # state: OutOfRange; non-finite input fails as OutOfRange before that,
    # and D = 0 (no drive, gamma12 = -1, omega + delta = 0), where the
    # steady state is not unique, as InvalidRegime
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states, errors = solve_steady_states([0.0, math.nan, 0.0, 0.0, 1e308],
                                             [1.0, 1.0, math.inf, 0.0, 1.0],
                                             [2.0, 2.0, 2.0, 0.0, 2.0],
                                             [0.3, 0.3, 0.3, -1.0, 0.3])
    assert errors[0] is None and not np.isnan(states[0]).any()
    assert [type(e).__name__ for e in errors[1:]] == ["OutOfRange", "OutOfRange",
                                                      "InvalidRegime", "OutOfRange"]
    assert "not unique" in str(errors[3])
    assert str(errors[4]) == "non-finite steady state"
    assert np.isnan(states[1:]).all()
