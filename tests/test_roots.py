import math

import numpy as np
import pytest
from scipy.optimize import brentq

from liborlab._roots import bracketed_root
from liborlab.errors import CalibrationError, LiborLabError

CASES = [
    (lambda x: x**3 - 2.0, 0.0, 3.0),
    (lambda x: np.cos(x) - x, 0.0, 1.0),
    (lambda x: np.exp(x) - 1e-5, -20.0, 5.0),
    (lambda x: np.tanh(50.0 * (x - 0.3)), -1.0, 1.0),  # steep
    (lambda x: x * np.exp(x) - 1.0, 0.0, 2.0),
    (lambda x: np.log(x) + 2.0, 1e-8, 10.0),
]


@pytest.mark.parametrize("xtol", [1e-15, 1e-14, 1e-12])
@pytest.mark.parametrize("case", range(len(CASES)))
def test_scalar_root_agrees_with_brentq(case, xtol):
    f, lo, hi = CASES[case]
    root = bracketed_root(f, lo, hi, xtol=xtol)
    expect = brentq(f, lo, hi, xtol=xtol, rtol=8.9e-16)
    assert np.ndim(root) == 0
    # both stop on a sign-changing bracket narrower than xtol + rtol |x|
    assert abs(root - expect) <= 2.0 * (xtol + 8.9e-16 * abs(expect))


def test_array_roots_agree_with_brentq_and_do_not_depend_on_batching():
    rng = np.random.default_rng(3)
    targets = rng.uniform(0.01, 0.99, 40)
    lo, hi = np.full(40, 1e-8), 10.0 * np.exp(rng.uniform(0.0, 2.0, 40))

    def f(k, t=targets):
        return np.exp(-k * k / 3.0) - t

    roots = bracketed_root(f, lo, hi, xtol=1e-12)
    assert roots.shape == (40,)
    for i in range(40):
        expect = brentq(lambda k: f(k, targets[i]), lo[i], hi[i], xtol=1e-12, rtol=8.9e-16)
        assert abs(roots[i] - expect) <= 2.0 * (1e-12 + 8.9e-16 * expect)
        alone = bracketed_root(lambda k: f(k, targets[i]), lo[i], hi[i], xtol=1e-12)
        assert alone == roots[i]  # an element's steps ignore its neighbours


def test_root_at_a_bracket_end_is_returned_exactly():
    assert bracketed_root(lambda x: x - 2.0, 2.0, 5.0, xtol=1e-14) == 2.0
    assert bracketed_root(lambda x: x - 5.0, 2.0, 5.0, xtol=1e-14) == 5.0


def test_no_sign_change_raises_typed_error():
    with pytest.raises(CalibrationError, match="no sign change"):
        bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-14)
    # one bad bracket among good ones fails the call, rather than giving NaN
    with pytest.raises(LiborLabError, match="1 of 3"):
        bracketed_root(lambda x: x - np.array([0.5, 2.0, 0.1]), np.zeros(3), np.ones(3),
                       xtol=1e-14)


def test_non_finite_value_raises_typed_error():
    with pytest.raises(CalibrationError, match="non-finite"):
        bracketed_root(lambda x: -math.inf if x == 0.0 else x - 1.0, 0.0, 2.0, xtol=1e-14)
    with pytest.raises(CalibrationError, match="non-finite"):
        bracketed_root(lambda x: math.nan if 0.1 < x < 0.9 else x - 0.5, 0.0, 1.0, xtol=1e-14)
