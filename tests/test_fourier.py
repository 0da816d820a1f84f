import math
from pathlib import Path

import numpy as np
import pytest

from liborlab import affine_libor, experiment, forward_price
from liborlab.config import parse_config
from liborlab.errors import QuadratureError
from liborlab.fourier import damped_call_expectation, saddle_damping
from liborlab.pricing import black_caplet

PRICE_ANALYTIC = Path(__file__).resolve().parents[1] / "perfbench" / "price_analytic.cfg"


def _gaussian_cumulant(mean, var):
    return lambda w: w * mean + 0.5 * var * w * w


@pytest.mark.parametrize("angle", [math.pi / 12, math.pi / 6])
def test_residues_give_the_call_from_every_saddle_region(angle):
    # log-normal e^S with E[e^S] = 1.05 and variance 0.09: the saddle
    # (log K - mean) / 0.09 falls below 0, in (0, 1) and above 1 over these
    # strikes, so E[e^S] is added back below w = 1 and K taken off below 0
    var = 0.09
    cumulant = _gaussian_cumulant(math.log(1.05) - 0.5 * var, var)
    dampings = []
    for strike in (0.5, 0.8, 1.0, 1.05, 1.1, 1.3, 2.0):
        dampings.append(saddle_damping(cumulant, math.log(strike), -math.inf, math.inf))
        oracle = black_caplet(1.05, strike, math.sqrt(var), 1.0, 1.0)
        got = damped_call_expectation(cumulant, strike, -math.inf, math.inf, angle)
        assert got == pytest.approx(oracle, abs=1e-13)
    assert min(dampings) < 0.0 < min(d for d in dampings if d > 0.0) < 1.0 < max(dampings)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("strike", [0.5, 1.02])
def test_non_finite_cumulant_raises(strike):
    with pytest.raises(QuadratureError):
        damped_call_expectation(
            lambda w: np.full(w.shape, complex(np.nan)), strike, -math.inf, math.inf, 0.5
        )
    # one bad node of the rule is enough: nothing is masked
    with pytest.raises(QuadratureError):
        damped_call_expectation(
            lambda w: np.where(np.arange(w.size) == 100, np.nan, 0.0) * w,
            strike, -math.inf, math.inf, 0.5,
        )


def _transform_quotes():
    ctx = experiment.Context(parse_config(str(PRICE_ANALYTIC)))
    for k in ctx.tenor.rate_indices:
        for strike in ctx.strikes(k):
            yield forward_price.caplet_price_fourier, ctx.fpm, k, strike
            yield affine_libor.caplet_price_fourier, ctx.affine_family, k, strike


def test_transform_prices_nonnegative_on_price_config():
    prices = [pricer(model, k, strike) for pricer, model, k, strike in _transform_quotes()]
    assert len(prices) == 90
    assert min(prices) >= 0.0


def test_transform_quote_evaluates_under_1000_points(monkeypatch):
    counts = []
    for module in (affine_libor, forward_price):

        def counting(cumulant_fn, *args, _real=module.damped_call_expectation, **kwargs):
            seen = []

            def counted(w):
                seen.append(np.size(w))
                return cumulant_fn(w)

            value = _real(counted, *args, **kwargs)
            counts.append(sum(seen))
            return value

        monkeypatch.setattr(module, "damped_call_expectation", counting)
    for pricer, model, k, strike in _transform_quotes():
        pricer(model, k, strike)
    assert len(counts) == 90
    assert max(counts) < 1000
