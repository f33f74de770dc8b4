"""The package's two search routines against the scipy routines they port
(reference.brentq, reference.nelder_mead): the same function evaluations in
the same order and the same result, bit for bit.

* scaling.brent_root against scipy.optimize.brentq, on every peak search of
  the scaling pipeline at the tiny and bench scales and on random smooth
  functions, including functions small enough for the extrapolation's
  denominator to underflow.
* scaling.nelder_mead against minimize(method="Nelder-Mead"), on the bench
  collapse objective from several seeds and on Rosenbrock's function.
* Their errors: a same-sign bracket, a NaN value and a search that does not
  converge in maxiter steps raise; maxiter stops the polish where scipy's
  does.
"""

import math

import numpy as np
import pytest

import kerrqgt.scaling as scaling
import reference
from kerrqgt import BracketError
from kerrqgt.scaling import CurveFamily, brent_root, nelder_mead, sweep_family

TINY = dict(sizes=(40, 50, 60, 70, 85), n_cut=200, peak_bracket=(1.05, 1.45),
            collapse_window=(1.05, 1.40), collapse_step=0.01)
BENCH = dict(sizes=(150, 200, 250, 300, 350), n_cut=400, peak_bracket=(0.99, 1.40),
             collapse_window=(0.95, 1.06), collapse_step=0.004)
POLISH = dict(xatol=1e-7, fatol=1e-16, maxiter=800)


def _recorded(f):
    """f, and the list of abscissae it is called at, in order."""
    calls = []

    def g(x):
        calls.append(np.array(x, copy=True))
        return f(x)
    return g, calls


def _same_calls(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def _random_roots(count, seed, scale=1.0):
    """(f, xa, xb, xtol) of smooth functions with one sign change in [xa, xb]."""
    rng = np.random.default_rng(seed)
    while count:
        c, s, k, w = (rng.uniform(lo, hi) for lo, hi in ((-3, 3), (0.2, 5), (-3, 3), (-1, 1)))

        def f(x, c=c, s=s, k=k, w=w):
            u = x - c
            return scale * (math.tanh(s * u) + k * u**3 + 0.1 * w * math.sin(7 * u) * u + 1e-3)

        xa, xb = c - rng.uniform(0.01, 2), c + rng.uniform(0.01, 2)
        if np.signbit(f(xa)) != np.signbit(f(xb)):
            count -= 1
            yield f, xa, xb, 10 ** rng.uniform(-15, -2)


# ---------------------------------------------------------------------------
# Brent's root

@pytest.mark.parametrize("config", [TINY, BENCH], ids=["tiny", "bench"])
def test_brent_root_equals_brentq_on_the_peak_searches(config, monkeypatch):
    searches = []

    def both(f, xa, xb, xtol):
        ours, our_calls = _recorded(f)
        theirs, their_calls = _recorded(f)
        root = brent_root(ours, xa, xb, xtol)
        searches.append((root, reference.brentq(theirs, xa, xb, xtol), our_calls, their_calls))
        return root

    monkeypatch.setattr(scaling, "brent_root", both)
    scaling.scaling_pipeline(**config)
    assert len(searches) >= len(config["sizes"])
    for root, scipy_root, our_calls, their_calls in searches:
        assert root == scipy_root
        assert _same_calls(our_calls, their_calls)
        # the root is an abscissa the search evaluated (the peak tensor is read off it)
        assert any(x == root for x in our_calls)


@pytest.mark.parametrize("scale", [1.0, 1e-300], ids=["unit", "underflowing"])
def test_brent_root_equals_brentq_on_random_functions(scale):
    for f, xa, xb, xtol in _random_roots(200, seed=31, scale=scale):
        ours, our_calls = _recorded(f)
        theirs, their_calls = _recorded(f)
        root = brent_root(ours, xa, xb, xtol)
        assert root == reference.brentq(theirs, xa, xb, xtol)
        assert _same_calls(our_calls, their_calls)
        assert any(x == root for x in our_calls)
        assert type(root) is float


def test_brent_root_returns_an_end_where_f_is_zero():
    assert brent_root(lambda x: x - 1.0, 1.0, 3.0, 1e-12) == 1.0
    assert brent_root(lambda x: x - 3.0, 1.0, 3.0, 1e-12) == 3.0


def test_brent_root_raises_on_a_same_sign_bracket():
    with pytest.raises(BracketError, match="have one sign"):
        brent_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
    with pytest.raises(ValueError):
        reference.brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)


def test_brent_root_raises_on_nan():
    with pytest.raises(ValueError, match="NaN"):
        brent_root(lambda x: math.nan if x > 0.6 else x - 0.5, 0.0, 1.0, 1e-12)


def test_brent_root_raises_when_it_does_not_converge(monkeypatch):
    def f(x):
        return math.tanh(5.0 * (x - 0.3))

    assert brent_root(f, 0.0, 1.0, 1e-12) == reference.brentq(f, 0.0, 1.0, 1e-12)
    monkeypatch.setattr(scaling, "BRENT_MAXITER", 3)
    with pytest.raises(RuntimeError, match="did not converge in 3 steps"):
        brent_root(f, 0.0, 1.0, 1e-12)
    with pytest.raises(RuntimeError):
        reference.brentq(f, 0.0, 1.0, 1e-12, maxiter=3)


# ---------------------------------------------------------------------------
# Nelder-Mead polish

@pytest.fixture(scope="module")
def bench_family():
    sizes = np.array(BENCH["sizes"], dtype=float)
    grid = np.arange(0.95, 1.06 + 0.002, 0.004)
    rows = sweep_family(sizes, grid, BENCH["n_cut"])
    return CurveFamily(sizes=sizes, eps_grid=grid, observable="g_ee",
                       values=np.array([[r.g_ee for r in row] for row in rows]))


def _rosenbrock(x):
    return (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2


def _assert_same_polish(f, x0, **options):
    ours, our_calls = _recorded(f)
    theirs, their_calls = _recorded(f)
    x, value = nelder_mead(ours, x0, **options)
    scipy_x, scipy_value = reference.nelder_mead(theirs, x0, **options)
    assert np.array_equal(x, scipy_x) and value == scipy_value
    assert _same_calls(our_calls, their_calls)
    return x, value


def test_nelder_mead_equals_scipy_on_the_collapse_objective(bench_family, monkeypatch):
    polishes = []

    def capture(f, x0, **options):
        polishes.append((f, x0))
        return nelder_mead(f, x0, **options)

    monkeypatch.setattr(scaling, "nelder_mead", capture)
    optimum = scaling.optimize_collapse(bench_family, 1.0, (1.2, 1.9), (0.97, 1.03))
    [(objective, seed)] = polishes
    x, value = _assert_same_polish(objective, seed, **POLISH)
    assert (optimum.nu, optimum.eps_c_star, optimum.quality) == (x[0], x[1], value)
    # more seeds: grid corners, the middle, and points off the grid
    for x0 in ([1.2, 0.97], [1.9, 1.03], [1.55, 1.0], [1.31, 0.985], [1.77, 1.012]):
        _assert_same_polish(objective, x0, **POLISH)


@pytest.mark.parametrize("x0", [[-1.2, 1.0], [0.0, 0.0], [2.0, -1.0], [0.5, 3.0]])
def test_nelder_mead_equals_scipy_on_rosenbrock(x0):
    x, value = _assert_same_polish(_rosenbrock, x0, **POLISH)
    assert np.allclose(x, 1.0, atol=1e-6) and value < 1e-12


def test_nelder_mead_equals_scipy_on_rippled_quadratics():
    # 1 to 4 dimensions, with zero coordinates in x0; the ripple's local
    # minima make the simplex shrink (16 times over these 40)
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        a = rng.normal(size=(n, n))
        centre = rng.normal(size=n)
        x0 = np.where(rng.random(n) < 0.3, 0.0, rng.normal(size=n))

        def f(x, a=a, c=centre):
            return float(np.sum((a @ (x - c)) ** 2) + np.sum(np.sin(9 * (x - c)) ** 2))
        _assert_same_polish(f, x0, xatol=1e-8, fatol=1e-12, maxiter=400)


@pytest.mark.parametrize("x0", [[0.3, -0.2], [1.5, 1.0], [0.0, 0.0]])
def test_nelder_mead_equals_scipy_on_a_flat_bottom(x0):
    # the simplex ends on the flat bottom, so it stops with every vertex value
    # tied at zero and the argsort alone orders its vertices
    def f(x):
        return max(0.0, (x[0] - 0.3) ** 2 + (x[1] + 0.2) ** 2 - 0.01)

    x, value = _assert_same_polish(f, x0, **POLISH)
    assert value == 0.0 and f(x) == 0.0


@pytest.mark.parametrize("maxiter", [1, 2, 5, 30])
def test_maxiter_stops_the_polish(maxiter):
    x, value = _assert_same_polish(_rosenbrock, [-1.2, 1.0], **{**POLISH, "maxiter": maxiter})
    assert value > 1e-3  # far from the minimum
    if maxiter == 1:
        # the best vertex of the initial simplex: x0 with its second coordinate 5% up
        assert np.array_equal(x, [-1.2, 1.05]) and value == _rosenbrock([-1.2, 1.05])
