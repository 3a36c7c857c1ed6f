import math

import pytest

from oracles import midpoint_quad
from sybilgames.errors import NumericError
from sybilgames.numerics import adaptive_simpson, bisect_root, grid_argmax, integer_argmax


def test_adaptive_simpson_polynomials_exact():
    assert adaptive_simpson(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert adaptive_simpson(lambda x: x**3, 0.0, 2.0) == pytest.approx(4.0, abs=1e-12)


def test_adaptive_simpson_matches_midpoint_oracle():
    f = lambda x: math.exp(-x) * math.sin(3.0 * x) + x**2
    assert adaptive_simpson(f, 0.0, 2.0) == pytest.approx(midpoint_quad(f, 0.0, 2.0), abs=1e-6)


def test_adaptive_simpson_empty_range():
    assert adaptive_simpson(lambda x: x, 1.0, 1.0) == 0.0
    assert adaptive_simpson(lambda x: x, 2.0, 1.0) == 0.0


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
