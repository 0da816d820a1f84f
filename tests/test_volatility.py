import warnings

import numpy as np
import pytest

from liborlab.errors import CurveError
from liborlab.tenor import TenorStructure
from liborlab.volatility import VolatilitySurface


@pytest.fixture
def tenor():
    return TenorStructure(delta=0.5, n=4)


def test_flat_surface_lives_strictly_before_reset(tenor):
    vols = VolatilitySurface.flat(tenor, 0.2)
    assert vols.values[0][3] == 0.2
    assert vols.values[2][3] == 0.2
    assert vols.values[3][3] == 0.0  # at the reset date the loading is gone
    assert vols.values[0][0] == 0.0  # the first fixing has no dynamics
    assert vols.max_abs == 0.2


def test_from_columns_round_trip(tenor):
    cols = [[0.3], [0.2, 0.25], [0.1, 0.15, 0.2]]
    vols = VolatilitySurface.from_columns(tenor, cols)
    assert vols.values[1][2] == 0.25
    assert vols.values[2][3] == 0.2
    with pytest.raises(CurveError):
        VolatilitySurface.from_columns(tenor, [[0.3, 0.4], [0.2, 0.25], [0.1, 0.15, 0.2]])


def test_nonzero_loading_after_reset_rejected(tenor):
    vals = np.triu(np.full((4, 4), 0.2), k=1)
    vals[2, 1] = 0.1  # rate 1 already fixed on interval 2
    with pytest.raises(CurveError):
        VolatilitySurface(tenor, vals)
    vals = np.triu(np.full((4, 4), 0.2), k=1)
    vals[2, 2] = 0.1  # rate 2 resets at T_2, the start of interval 2
    with pytest.raises(CurveError):
        VolatilitySurface(tenor, vals)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_loading_rejected(tenor, bad):
    # refused with their own message, and with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CurveError, match="finite"):
            VolatilitySurface.flat(tenor, bad)
        with pytest.raises(CurveError, match="finite"):
            VolatilitySurface.from_columns(tenor, [[0.3], [0.2, bad], [0.1, 0.15, 0.2]])


def test_row_masks_already_fixed_rates(tenor):
    vols = VolatilitySurface.flat(tenor, 0.2)
    row = vols.values[2]  # interval 2: rates 3.. remain
    assert row[3] == 0.2
    assert np.all(row[:3] == 0.0)


def test_total_variance(tenor):
    vols = VolatilitySurface.flat(tenor, 0.2)
    assert vols.total_variance(3, c=0.5) == pytest.approx(0.5 * 0.2**2 * 1.5, rel=1e-14)
