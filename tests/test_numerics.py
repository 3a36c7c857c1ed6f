import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import _scalar_window, midpoint_quad, scalar_grid_argmax
from sybilgames.equilibrium import BRD_REFINE_ROUNDS, grid_best_response
from sybilgames.errors import DomainError, NumericError
from sybilgames.numerics import (
    QUAD_CELLS,
    QUAD_TOL,
    bisect_root,
    cumulative_simpson,
    _check_resolved,
    _finer_samples,
    first_max,
    grid_argmax,
    integrate,
    _nested_totals,
    _observed_error,
    _quadrature_points,
    refine_argmax,
    _simpson_weights,
)
from sybilgames.rdm import TentFunction, tent_game
from sybilgames.ring import DISTRIBUTIONS, RingModel, constant_share_config


def test_integrate_polynomials_exact():
    assert integrate(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert integrate(lambda x: x**3, 0.0, 2.0) == pytest.approx(4.0, abs=1e-12)


def test_integrate_matches_midpoint_oracle():
    f = lambda x: np.exp(-x) * np.sin(3.0 * x) + x**2
    assert integrate(f, 0.0, 2.0) == pytest.approx(midpoint_quad(f, 0.0, 2.0), abs=1e-6)


def test_integrate_empty_range():
    assert integrate(lambda x: x, 1.0, 1.0) == 0.0


def test_integrate_reversed_range_raises():
    with pytest.raises(DomainError):
        integrate(lambda x: x, 1.0, 0.0)


def test_integrate_rows_equal_one_dimensional_calls_bit_for_bit():
    fs = [
        lambda x: x**3,
        lambda x: np.exp(-x) * np.sin(3.0 * x) + x**2,
        lambda x: 1.0 / (1.0 + (25.0 * (x - 0.4)) ** 2),
    ]
    calls = [integrate(g, 0.0, 2.0) for g in fs]
    # C order, Fortran order, and the transpose of a (points, rows) array
    for layout in (np.ascontiguousarray, np.asfortranarray, lambda y: np.ascontiguousarray(y.T).T):
        rows = integrate(lambda x: layout(np.stack([g(x) for g in fs])), 0.0, 2.0)
        assert rows.shape == (3,)
        assert rows.tolist() == calls
    y = np.stack([g(np.linspace(0.0, 1.0, 9)) for g in fs])
    for row, y_row in zip(cumulative_simpson(y, 0.125), y):
        assert np.array_equal(row, cumulative_simpson(y_row, 0.125))


# (0.2, 0.9): the last running point falls short of b, which linspace sets as given
LINSPACE_RANGES = [(0.0, 1.0), (0.0, 0.63), (-3.5, 2.25), (1e6, 1e6 + 1.0), (0.2, 0.9)]


@pytest.mark.parametrize("a, b", LINSPACE_RANGES)
def test_integrate_samples_f_at_the_linspace_points_bit_for_bit(a, b):
    seen = []

    def f(x):
        seen.append(x.copy())
        return np.ones_like(x)

    integrate(f, a, b)
    assert len(seen) == 1
    assert seen[0].tobytes() == np.linspace(a, b, 2 * QUAD_CELLS + 1).tobytes()


@pytest.mark.parametrize("a, b", LINSPACE_RANGES)
def test_quadrature_points_are_the_linspace_points_bit_for_bit(a, b):
    x, h = _quadrature_points(a, b)
    assert x.tobytes() == np.linspace(a, b, 2 * QUAD_CELLS + 1).tobytes()
    assert h == (b - a) / (2 * QUAD_CELLS)


@pytest.mark.parametrize("f", [lambda x: 0.5 - x + 2.0 * x**3, np.exp], ids=["cubic", "exp"])
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.5, 0.7)])
def test_simpson_weight_sums_agree_with_integrate_to_rounding(f, a, b):
    x, h = _quadrature_points(a, b)
    assert _nested_totals(f(x), h)[0] == integrate(f, a, b)
    for cells in (QUAD_CELLS, 1024):  # integrate's cells, and the profit rule's on RingModel's nodes
        x, h = _quadrature_points(a, b, cells)
        sums = (_simpson_weights(h, cells) * f(x)).sum(axis=-1)
        size = (b - a) * np.abs(f(x)).max()  # bounds the terms both sums add
        for got, expected in zip(sums, _nested_totals(f(x), h), strict=True):
            assert abs(got - expected) <= 1e-14 * size


@pytest.mark.parametrize("a", [0.1, 0.5, 1.1, 1.5, 2.5, 3.5, 5.5, 7.5, 12.0])
@pytest.mark.parametrize("v", [0.01, 0.3, 1.0, 2.0])
def test_observed_error_covers_the_true_error_on_every_nested_level(a, v):
    f = lambda u: u**a
    exact = v ** (a + 1) / (a + 1)
    x, h = _quadrature_points(0.0, v, 256)
    y = f(x)
    for cells in (256, 512, 1024, 2048, 4096):
        fresh = np.linspace(0.0, v, 2 * cells + 1)
        assert x.tobytes() == fresh.tobytes()  # the ladder's points, each level's even ones reused
        assert h == v / (2 * cells)
        totals = _nested_totals(y, h)
        assert totals == _nested_totals(f(fresh), h)
        assert _observed_error(*totals) >= abs(totals[0] - exact) - 2.0 * np.spacing(exact)
        if cells < QUAD_CELLS:
            x, _ = _finer_samples(lambda u: u, x, 0.0, v)
            y, h = _finer_samples(f, y, 0.0, v)


def test_observed_error_of_a_nan_total_fails_every_test():
    for totals in [(np.nan, 1.0, 1.0), (1.0, np.nan, 1.0), (1.0, 1.0, np.nan)]:
        assert np.isnan(_observed_error(*map(np.float64, totals)))
        assert math.isnan(_observed_error(*map(float, totals)))  # the 1-D path's Python floats
    assert _observed_error(1.0, 1.0, 1.0) == 0.0
    assert _observed_error(1.0, 1.0, 2.0) == 0.0  # d1 = 0 < d2: order above 4, capped at 16
    assert _observed_error(1.0, 1.0 + 1e-8, 1.0 + 17e-8) == pytest.approx(2e-8 / (16.0 - 1.0))  # rho = 16
    # rows of totals: each element's bound is the scalar call's, bit for bit
    rows = np.array(
        [[np.nan, 1.0, 1.0], [1.0, np.nan, 1.0], [1.0, 1.0, 2.0], [1.0, 1.0 + 1e-8, 1.0 + 17e-8],
         [1.0, 1.0 + 1e-8, 1.0 + 3e-8], [1.0, 1.0 + 1e-8, 1.0 - 5e-8], [2.0, 2.0, 2.0]]
    )
    scalar = [_observed_error(*map(np.float64, row)) for row in rows]
    assert np.array_equal(_observed_error(*rows.T), scalar, equal_nan=True)


def test_check_resolved_raises_the_same_error_on_floats_and_numpy_scalars():
    # 1-D totals are Python floats; the message prints the estimate as it did on numpy scalars
    for totals in [(1.0, 1.0 + 1e-6, 1.0 + 3e-6), (np.nan, 1.0, 1.0), (1.0, 1.0, np.nan)]:
        messages = []
        for kind in (float, np.float64):
            with pytest.raises(NumericError, match=r"^integral on \[0.0, 1.0\] unresolved: error estimate") as raised:
                _check_resolved(tuple(map(kind, totals)), kind(1.0), 0.0, 1.0)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
    _check_resolved((1.0, 1.0, 1.0), 1.0, 0.0, 1.0)  # a zero bound passes


def test_integrate_raises_when_the_step_underflows():
    # h = 1e-320 / 8192 is 0.0: every point would be a, and the rule would return 0.0
    with pytest.raises(NumericError, match="underflows"):
        integrate(np.ones_like, 0.0, 1e-320)


def _polynomial(coefficients):
    return lambda x: sum(c * x**k for k, c in enumerate(coefficients))


def _exponential(c, k):
    return lambda x: c * np.exp(k * x)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["polynomial", "exponential", "rows"]),
    coefficients=st.lists(st.integers(-5, 5), min_size=1, max_size=5),
    c=st.floats(0.5, 2.0),
    sign=st.sampled_from([-1.0, 1.0]),
    k=st.floats(-3.0, 3.0),
    a=st.floats(-2.0, 2.0),
    width=st.floats(0.25, 3.0),
)
def test_integrate_is_the_last_entry_of_cumulative_simpson_to_rounding(family, coefficients, c, sign, k, a, width):
    poly, expo = _polynomial(coefficients), _exponential(sign * c, k)
    f = {"polynomial": poly, "exponential": expo, "rows": lambda x: np.stack([poly(x), expo(x)])}[family]
    b = a + width
    y = np.asarray(f(np.linspace(a, b, 2 * QUAD_CELLS + 1)), dtype=float)
    h = (b - a) / (2 * QUAD_CELLS)
    scale = cumulative_simpson(np.abs(y), h)[..., -1]
    # the running sum adds QUAD_CELLS cells one by one, so its own rounding reaches
    # QUAD_CELLS ulps of the integral of |f| (1.9e-13 relative on x - 2 over [-0.56, 2.44])
    bound = QUAD_CELLS * np.finfo(float).eps * scale
    assert np.all(np.abs(integrate(f, a, b) - cumulative_simpson(y, h)[..., -1]) <= bound)


@settings(max_examples=40, deadline=None)
@given(
    coefficients=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    a=st.floats(-2.0, 2.0),
    width=st.floats(0.25, 2.0),
)
def test_every_nested_simpson_total_is_exact_on_cubics(coefficients, a, width):
    b = a + width
    exact = sum(
        Fraction(c) * (Fraction(b) ** (j + 1) - Fraction(a) ** (j + 1)) / (j + 1)
        for j, c in enumerate(coefficients)
    )
    # the size of the terms the rule sums, which bounds its rounding
    size = width * sum(abs(c) * max(abs(a), abs(b)) ** j for j, c in enumerate(coefficients))
    y = _polynomial(coefficients)(np.linspace(a, b, 2 * QUAD_CELLS + 1))
    for total in _nested_totals(y, (b - a) / (2 * QUAD_CELLS)):
        assert abs(total - float(exact)) <= 1e-14 * size


def test_integrate_names_the_unresolved_row():
    step = lambda x: np.where(x < 1.0 / 3.0, 1.0, 0.0)
    with pytest.raises(NumericError, match="in row 1:"):
        integrate(lambda x: np.stack([x, step(x), x**2]), 0.0, 1.0)


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


def _abs_scale_rule(f, a: float, b: float):
    """(fine, resolved) of integrate's rule with the integral of |f| as the scale for every integrand.

    The nested totals are summed as integrate sums them: the odd samples, the samples 2 mod 4,
    4 mod 8 and the interior samples 0 mod 8, each a pairwise sum along the last axis; the
    error is their observed-order bound.
    """

    def totals(y, h):
        ends, odd = y[..., 0] + y[..., -1], np.sum(y[..., 1::2], axis=-1)
        two, four, eight = (np.sum(y[..., s], axis=-1) for s in (slice(2, None, 4), slice(4, None, 8), slice(8, -1, 8)))
        return (
            h / 3.0 * (ends + 4.0 * odd + 2.0 * (two + four + eight)),
            2.0 * h / 3.0 * (ends + 4.0 * two + 2.0 * (four + eight)),
            4.0 * h / 3.0 * (ends + 4.0 * four + 2.0 * eight),
        )

    x = np.linspace(a, b, 2 * QUAD_CELLS + 1)
    y = np.ascontiguousarray(f(x), dtype=float)
    h = (b - a) / (2 * QUAD_CELLS)
    nested = totals(y, h)
    error = _observed_error(*nested)
    return nested[0], bool(np.all(error <= QUAD_TOL * totals(np.abs(y), h)[0]))


@pytest.mark.parametrize(
    "f",
    [
        lambda x: x**0.5,  # the singular ring integrands F^(k-2+l) with fractional l
        lambda x: x**1.1,
        lambda x: np.exp(-(((x - 0.5) / 0.01) ** 2)),
        lambda x: np.where(x < 1.0 / 3.0, 1.0, 0.0),
        lambda x: np.stack([3.0 * x**2, 6.0 * x * (1.0 - x), np.zeros_like(x)]),
    ],
    ids=["sqrt", "pow1.1", "bump", "step", "rows"],
)
def test_a_nonnegative_integrand_gives_the_abs_scale_result_bit_for_bit(f):
    fine, resolved = _abs_scale_rule(f, 0.0, 1.0)
    if resolved:
        out = integrate(f, 0.0, 1.0)
        assert np.array_equal(out, fine) and np.ndim(out) == np.ndim(fine)
    else:
        with pytest.raises(NumericError):
            integrate(f, 0.0, 1.0)


@pytest.mark.parametrize("b", [0.0, 0.5, 1.1])
def test_an_endpoint_power_is_resolved_or_raises(b):
    # |fine - coarse|/15 assumed fourth-order convergence: u^a (1 - u)^b with a in [0.80, 1.30]
    # passed it while up to 5.6e-10 off the Beta function (u^0.91, for one)
    for a in np.round(np.arange(0.80, 1.305, 0.01), 2).tolist():
        exact = math.gamma(a + 1.0) * math.gamma(b + 1.0) / math.gamma(a + b + 2.0)
        try:
            value = integrate(lambda u: u**a * (1.0 - u) ** b, 0.0, 1.0)
        except NumericError:
            continue
        assert abs(value - exact) <= QUAD_TOL * exact, (a, value, exact)


def test_a_mixed_sign_integrand_is_scaled_by_the_integral_of_its_absolute_value():
    # the integral is 0 to rounding; only the |f| scale of 4 lets its error estimate pass
    assert integrate(np.sin, 0.0, 2.0 * np.pi) == pytest.approx(0.0, abs=1e-12)


def test_a_nan_sample_raises_on_a_nonnegative_integrand():
    with pytest.raises(NumericError):
        integrate(lambda x: np.where(x > 0.5, np.nan, x), 0.0, 1.0)


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
    x, _ = grid_argmax(lambda x: np.ones_like(x), 0.0, 1.0, 0.25, refine_rounds=1)
    assert x == 0.0


def test_first_max_takes_the_first_maximum_and_never_nan():
    assert first_max([-3.0, 0.0, 2.0, 2.0, 1.0]) == 2
    assert first_max([math.nan, 1.0, math.nan, 1.0]) == 1
    assert first_max([math.nan, -math.inf, math.nan]) == 1
    assert first_max([-0.0, 0.0]) == 0
    with pytest.raises(NumericError):
        first_max([math.nan, math.nan])


def test_grid_argmax_nan_at_the_lower_bound_never_wins():
    x, v = grid_argmax(lambda x: np.where(x == 0.0, np.nan, -((x - 0.5) ** 2)), 0.0, 1.0, 0.1, 2)
    assert x == pytest.approx(0.5, abs=1e-12)
    assert v == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(NumericError):
        grid_argmax(lambda x: np.full(np.shape(x), np.nan), 0.0, 1.0, 0.1, 2)
    # a window with no number keeps the incumbent, in a 1-D call and in a row
    nan = lambda x: np.full(np.shape(x), np.nan)
    assert refine_argmax(nan, 0.0, 1.0, 0.5, -1.0, 0.1, 2) == (0.5, -1.0)
    xs, vs = refine_argmax(nan, 0.0, 1.0, np.array([0.5, 0.2]), np.array([-1.0, 3.0]), 0.1, 2)
    assert xs.tolist() == [0.5, 0.2] and vs.tolist() == [-1.0, 3.0]


def test_grid_argmax_calls_f_once_per_grid():
    sizes = []

    def f(x):
        sizes.append(len(x))
        return -np.abs(x - 0.3123)

    grid_argmax(f, 0.0, 1.0, 0.1, 3)
    assert sizes == [11, 21, 21, 21]


@pytest.mark.parametrize(
    "f, lo, hi, step, x, at",
    [
        (lambda x: -x, 0.0, 1.0, 0.1, 0.0, "first"),  # at lo, before the equal window point lo
        (lambda x: np.ones_like(x), 0.0, 1.0, 0.1, 0.0, "first"),  # and it keeps the tie
        (lambda x: x, 0.3, 2.0, 0.07, 2.0, "last"),  # at hi, past every window point
        (lambda x: np.ones_like(x), 0.3, 2.0, 0.07, 2.0, "last"),  # the first window point takes the tie
        (lambda x: np.where(x <= 0.5, 1.0, 0.0), 0.0, 1.0, 0.1, 0.5, None),  # tied with the points on its left
        (lambda x: np.where(x >= 0.5, 1.0, 0.0), 0.0, 1.0, 0.1, 0.5, None),  # tied with the points on its right
        (lambda x: np.where(np.abs(x - 0.5) < 0.05, 1.0, 0.0), 0.0, 1.0, 0.1, 0.5, None),  # on both sides
        (lambda x: -((x - 0.537) ** 2), 0.0, 1.0, 0.1, 0.5, None),  # beaten by a point on its right
    ],
)
def test_refine_argmax_places_the_incumbent_as_the_scalar_rescan_does(f, lo, hi, step, x, at):
    windows = []

    def recorded(xs):
        windows.append(xs.copy())
        return f(xs)

    v = float(f(np.float64(x)))
    for rounds in (1, 3):
        windows.clear()
        got = refine_argmax(recorded, lo, hi, x, v, step, rounds)
        assert len(windows) == rounds
        assert got == _scalar_window(lambda a: float(f(np.float64(a))), lo, hi, x, v, step, rounds)
    first = windows[0]
    if at == "first":
        assert first[0] == x and np.searchsorted(first, x) == 0
    elif at == "last":
        assert first[-1] < x and np.searchsorted(first, x) == len(first)


@pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
@pytest.mark.parametrize("theta", [0.0, 0.35, 0.7, 1.0])
def test_grid_argmax_equals_the_scalar_oracle_on_ring_payoffs(dist, theta):
    values = DISTRIBUTIONS[dist]()
    model = RingModel(values, constant_share_config(theta, 3))
    for q in (0.35, 0.6, 0.85):
        v = float(values.quantile(q))
        args = (0.0, values.v_h, values.v_h / 200.0, 4)
        assert grid_argmax(lambda w: model.payoff(w, v, 1), *args) == scalar_grid_argmax(
            lambda w: model.payoff(w, v, 1), *args
        )


@pytest.mark.parametrize("eps", [0.05, 0.3])
@pytest.mark.parametrize("y", [0.0, 0.2, 0.71, 3.0])
def test_tent_best_response_equals_the_scalar_oracle(eps, y):
    game = tent_game(TentFunction(10.0, 1.0, eps))
    space = game.space
    x, _ = scalar_grid_argmax(
        lambda a: float(game.phi_values(a, y)), space.lower, space.upper, space.grid_step, BRD_REFINE_ROUNDS
    )
    assert grid_best_response(game, y) == x


@pytest.mark.parametrize(
    "f, lo, hi, step",
    [
        (lambda x: np.ones_like(x), 0.0, 1.0, 0.25),  # ties everywhere
        (lambda x: np.minimum(x, 0.5), 0.0, 1.0, 0.1),  # a plateau from 0.5 on
        (lambda x: np.floor(4.0 * x), 0.0, 1.0, 0.1),  # steps: ties inside every window
        (lambda x: -x, 0.0, 1.0, 0.1),  # windows clipped at lo
        (lambda x: x, 0.0, 1.03, 0.1),  # hi off the grid: windows clipped at hi
        (lambda x: -((x - 1.0299) ** 2), 0.2, 1.03, 0.1),
        (lambda x: np.sin(7.0 * x), 0.3, 2.0, 0.07),
    ],
)
def test_grid_argmax_equals_the_scalar_oracle_on_ties_and_clipped_windows(f, lo, hi, step):
    for rounds in (0, 1, 4):
        x, v = grid_argmax(f, lo, hi, step, rounds)
        expected_x, expected_v = scalar_grid_argmax(lambda a: float(f(np.float64(a))), lo, hi, step, rounds)
        assert (x, v) == (expected_x, expected_v)


def _row_wise(fs):
    """One row per function: the coarse grid goes to every function, a (rows, points) window array row by row."""

    def f(x):
        return np.stack([g(x) for g in fs] if x.ndim == 1 else [g(row) for g, row in zip(fs, x)])

    return f


ROWS = [
    lambda x: -x,  # the window clipped at lo
    lambda x: x,  # hi off the grid: the window clipped at hi
    lambda x: np.ones_like(x),  # ties everywhere go to the smaller x
    lambda x: np.floor(4.0 * x),  # steps: ties inside every window
    lambda x: -((x - 1.0299) ** 2),
    lambda x: np.sin(7.0 * x),
]
NAN_AT_LO = lambda x: np.where(x == 0.0, np.nan, -((x - 0.5) ** 2))  # NaN never wins


@pytest.mark.parametrize("rounds", [0, 1, 4])
def test_row_wise_grid_argmax_equals_the_scalar_oracle_on_every_row(rounds):
    lo, hi, step = 0.0, 1.03, 0.1
    xs, vs = grid_argmax(_row_wise(ROWS + [NAN_AT_LO]), lo, hi, step, rounds)
    assert xs.shape == vs.shape == (len(ROWS) + 1,)
    for g, x, v in zip(ROWS, xs.tolist(), vs.tolist()):
        assert (x, v) == scalar_grid_argmax(lambda a: float(g(np.float64(a))), lo, hi, step, rounds)
        assert (x, v) == grid_argmax(g, lo, hi, step, rounds)
    # the scalar oracle does not model NaN: compare the last row with the 1-D call
    assert (xs[-1], vs[-1]) == grid_argmax(NAN_AT_LO, lo, hi, step, rounds)
    assert xs[-1] == pytest.approx(0.5, abs=1e-12)


def test_row_wise_first_max_and_an_all_nan_row():
    values = np.array([[math.nan, 1.0, math.nan, 1.0], [-3.0, 0.0, 2.0, 2.0], [math.nan, -math.inf, math.nan, -1.0]])
    assert first_max(values).tolist() == [first_max(row) for row in values] == [1, 2, 3]
    with pytest.raises(NumericError, match="row 1"):
        first_max(np.array([[1.0, 2.0], [math.nan, math.nan]]))
    with pytest.raises(NumericError, match="row 1"):
        grid_argmax(_row_wise([lambda x: -x, lambda x: np.full(np.shape(x), np.nan)]), 0.0, 1.0, 0.1, 2)
