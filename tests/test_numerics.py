import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import midpoint_quad
from sybilgames.errors import NumericError
from sybilgames.numerics import bisect_root, grid_argmax, integer_argmax, integrate


def test_integrate_polynomials_exact():
    assert integrate(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert integrate(lambda x: x**3, 0.0, 2.0) == pytest.approx(4.0, abs=1e-12)


def test_integrate_matches_midpoint_oracle():
    f = lambda x: np.exp(-x) * np.sin(3.0 * x) + x**2
    assert integrate(f, 0.0, 2.0) == pytest.approx(midpoint_quad(f, 0.0, 2.0), abs=1e-6)


def test_integrate_empty_range():
    assert integrate(lambda x: x, 1.0, 1.0) == 0.0
    assert integrate(lambda x: x, 2.0, 1.0) == 0.0


def test_integrate_resolves_an_oscillating_integrand():
    # zero at every multiple of 1/4, so a rule that trusts a handful of samples sees 0
    assert integrate(lambda x: np.sin(4.0 * np.pi * x) ** 2, 0.0, 1.0) == pytest.approx(0.5, abs=1e-10)


def test_integrate_resolves_a_narrow_bump():
    width = 0.01
    bump = lambda x: np.exp(-(((x - 0.5) / width) ** 2))
    assert integrate(bump, 0.0, 1.0) == pytest.approx(width * math.sqrt(math.pi), abs=1e-10)


def test_integrate_raises_on_an_unresolved_step():
    with pytest.raises(NumericError):
        integrate(lambda x: np.where(x < 1.0 / 3.0, 1.0, 0.0), 0.0, 1.0)


@settings(max_examples=25, deadline=None)
@given(
    family=st.sampled_from(["oscillating", "peaked"]),
    k=st.floats(0.5, 20.0),
    c=st.floats(0.1, 0.9),
)
def test_integrate_matches_midpoint_oracle_on_oscillating_and_peaked_families(family, k, c):
    if family == "oscillating":
        f = lambda x: np.cos(k * np.pi * x + c) ** 2 + x * np.sin(k * x)
    else:
        f = lambda x: 1.0 / (1.0 + (5.0 * k * (x - c)) ** 2)  # half-width down to 0.01
    assert integrate(f, 0.0, 1.0) == pytest.approx(midpoint_quad(f, 0.0, 1.0), abs=1e-6)


def test_bisect_root_finds_root():
    root = bisect_root(lambda x: x**2 - 2.0, 0.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-10)


def test_bisect_root_requires_sign_change():
    with pytest.raises(NumericError):
        bisect_root(lambda x: x**2 + 1.0, -1.0, 1.0)


def test_bisect_root_raises_when_iterations_run_out():
    with pytest.raises(NumericError):
        bisect_root(lambda x: x**2 - 2.0, 0.0, 2.0, max_iter=3)


def test_grid_argmax_refines_to_interior_peak():
    x, v = grid_argmax(lambda x: -(x - 0.3123) ** 2, 0.0, 1.0, 0.1, refine_rounds=4)
    assert x == pytest.approx(0.3123, abs=1e-4)
    assert v == pytest.approx(0.0, abs=1e-7)


def test_grid_argmax_ties_break_low():
    x, _ = grid_argmax(lambda x: 1.0, 0.0, 1.0, 0.25, refine_rounds=1)
    assert x == 0.0


def test_integer_argmax():
    assert integer_argmax(lambda x: -abs(x - 3), 0, 10) == (3, 0)
    assert integer_argmax(lambda x: 1.0, 1, 5) == (1, 1.0)
