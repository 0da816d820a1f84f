import numpy as np
import pytest

from liborlab.errors import CurveError, LiborLabError
from liborlab.lmm import LiborPathSet
from liborlab.tenor import (
    InitialCurve,
    TenorStructure,
    read_curve_file,
    write_curve_file,
)


@pytest.fixture
def tenor():
    return TenorStructure(delta=0.5, n=5)


def test_tenor_dates_regular(tenor):
    assert tenor.dates == (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)
    assert tenor.horizon == 2.5
    assert list(tenor.rate_indices) == [1, 2, 3, 4]


def test_tenor_rejects_irregular_spacing():
    with pytest.raises(CurveError):
        TenorStructure(delta=0.5, n=2, dates=(0.0, 0.5, 1.2))
    with pytest.raises(CurveError):
        TenorStructure(delta=0.5, n=2, dates=(0.1, 0.6, 1.1))
    with pytest.raises(CurveError):
        TenorStructure(delta=-0.5, n=2)


def test_flat_curve_zero_rate_bonds(tenor):
    curve = InitialCurve.flat(tenor, 0.0)
    assert np.allclose(curve.bonds, 1.0)
    assert curve.libor(2) == 0.0


def test_libor_from_bonds_direct_arithmetic(tenor):
    # delta=0.5, B_k=0.98, B_{k+1}=0.97 -> L = (0.98/0.97 - 1)/0.5
    bonds = [1.0, 0.99, 0.98, 0.97, 0.96, 0.95]
    curve = InitialCurve.from_bonds(tenor, bonds)
    assert curve.libor(2) == pytest.approx((0.98 / 0.97 - 1.0) / 0.5, rel=1e-15)


def test_bonds_libors_round_trip(tenor):
    libors = [0.04, 0.035, 0.05, 0.041, 0.038]
    curve = InitialCurve.from_libors(tenor, libors)
    assert np.allclose(curve.libors, libors, rtol=1e-12)
    again = InitialCurve.from_libors(tenor, curve.libors)
    assert np.allclose(again.bonds, curve.bonds, rtol=1e-12)


def test_curve_rejects_negative_rates(tenor):
    bonds = [1.0, 0.97, 0.98, 0.96, 0.95, 0.94]  # increasing step
    with pytest.raises(CurveError):
        InitialCurve.from_bonds(tenor, bonds)
    with pytest.raises(CurveError):
        InitialCurve.from_libors(tenor, [0.04, -0.01, 0.04, 0.04, 0.04])


def test_forward_price_same_date_and_telescoping(tenor):
    curve = InitialCurve.from_libors(tenor, [0.04, 0.035, 0.05, 0.041, 0.038])
    assert curve.forward_price(3, 3) == 1.0
    # telescoping product oracle
    prod = np.prod([1.0 + 0.5 * curve.libor(j) for j in range(2, 5)])
    assert curve.forward_price(2, 5) == pytest.approx(prod, rel=1e-13)
    with pytest.raises(CurveError):
        curve.forward_price(3, 2)
    # decreasing curve => factor >= 1
    assert curve.forward_price(1, 4) >= 1.0


def _path_set_at_dates(tenor, curve, date_values):
    # a path set whose only content is hand-made rate snapshots at tenor dates
    n_paths = date_values.shape[0]
    return LiborPathSet(
        tenor=tenor, scheme="exact", seed=0, grid=np.asarray(tenor.dates),
        initial_libors=curve.libors, fixings=np.zeros((n_paths, tenor.n)),
        fixing_weights=np.ones((n_paths, tenor.n)), date_values=date_values,
    )


def test_density_chain_weight_normalization(tenor):
    curve = InitialCurve.flat(tenor, 0.04)
    state = curve.libors * np.array([1.1, 1.05, 1.02, 0.99, 1.0])
    paths = _path_set_at_dates(tenor, curve, np.stack([curve.libors, state])[None])
    # at time zero the weight is one for every measure
    for k in range(1, 6):
        assert paths.density_weight(0, k) == pytest.approx(1.0, abs=1e-15)
    # k = N is the same measure regardless of the path state
    assert paths.density_weight(1, 5)[0] == 1.0
    with pytest.raises(LiborLabError):
        paths.density_weight(1, 0)
    with pytest.raises(LiborLabError):
        paths.density_weight(1, 6)


def test_density_chain_rule_pathwise(tenor):
    curve = InitialCurve.flat(tenor, 0.04)
    rng = np.random.default_rng(0)
    libors = 0.04 * np.exp(rng.normal(0.0, 0.3, size=(3, 5)))
    paths = _path_set_at_dates(tenor, curve, libors[:, None, :])
    fwd = np.ones((3, 6))
    fwd[:, :-1] = np.cumprod((1.0 + 0.5 * libors)[:, ::-1], axis=1)[:, ::-1]
    for k in range(1, 5):
        w_k = paths.density_weight(0, k)
        w_k1 = paths.density_weight(0, k + 1)
        # the weight is F(t, T_k, T_N) / F(0, T_k, T_N)
        assert np.allclose(w_k, fwd[:, k] / curve.forward_price(k, 5), rtol=1e-12, atol=0.0)
        # dP_k/dP_{k+1} * dP_{k+1}/dP_N == dP_k/dP_N pathwise
        ratio_k_k1 = (fwd[:, k] / fwd[:, k + 1]) / (curve.bond(k) / curve.bond(k + 1))
        assert np.allclose(ratio_k_k1 * w_k1, w_k, rtol=1e-10, atol=0.0)


def test_curve_file_round_trip(tenor, tmp_path):
    curve = InitialCurve.from_libors(tenor, [0.04, 0.035, 0.05, 0.041, 0.038])
    path = tmp_path / "curve.txt"
    write_curve_file(path, curve)
    again = read_curve_file(path)
    assert again.tenor.n == curve.tenor.n
    assert again.tenor.delta == pytest.approx(curve.tenor.delta, rel=1e-15)
    assert np.array_equal(np.asarray(again.bonds), np.asarray(curve.bonds))
