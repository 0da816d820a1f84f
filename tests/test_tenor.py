from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liborlab import affine_libor, forward_price, markov_functional
from liborlab.affine import CirParams
from liborlab.drift_approx import frozen_drift_law
from liborlab.errors import CurveError, LiborLabError
from liborlab.forward_price import FpmModel
from liborlab.levy import LevyCharacteristics
from liborlab.lmm import (
    LiborPathSet, LmmModel, forward_measure_characteristics, simulate_exact, simulation_grid,
)
from liborlab.pricing import mc_caplet
from liborlab.tenor import InitialCurve, TenorStructure, read_curve_file
from liborlab.volatility import VolatilitySurface


@pytest.fixture
def tenor():
    return TenorStructure(delta=0.5, n=5)


def test_tenor_dates_regular(tenor):
    assert tenor.dates == (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)
    assert tenor.horizon == 2.5
    assert list(tenor.rate_indices) == [1, 2, 3, 4]


def test_curve_file_rejects_irregular_spacing(tmp_path):
    # the dates of a curve file must be k * delta, with delta = T_1 - T_0
    for dates in ((0.0, 0.5, 1.2), (0.1, 0.6, 1.1), (0.0, 0.5, 0.4), (0.0, 0.5, float("nan"))):
        path = tmp_path / "curve.txt"
        path.write_text("".join(f"{t!r},{b!r}\n" for t, b in zip(dates, (1.0, 0.98, 0.96))))
        with pytest.raises(CurveError):
            read_curve_file(path)
    with pytest.raises(CurveError):
        TenorStructure(delta=-0.5, n=2)
    with pytest.raises(CurveError):
        TenorStructure(delta=float("nan"), n=2)


def test_flat_curve_zero_rate_bonds(tenor):
    curve = InitialCurve.flat(tenor, 0.0)
    assert np.allclose(curve.bonds, 1.0)
    assert curve.libor(2) == 0.0


def test_libor_from_bonds_direct_arithmetic(tenor):
    # delta=0.5, B_k=0.98, B_{k+1}=0.97 -> L = (0.98/0.97 - 1)/0.5
    bonds = [1.0, 0.99, 0.98, 0.97, 0.96, 0.95]
    curve = InitialCurve.from_bonds(tenor, bonds)
    assert curve.libor(2) == pytest.approx((0.98 / 0.97 - 1.0) / 0.5, rel=1e-15)


DELTAS = st.floats(0.01, 2.0)
# bond prices 1 = B_0 >= B_1 >= ... > 0 as cumulative products of factors
DISCOUNTS = st.lists(st.floats(0.5, 1.0), min_size=1, max_size=40)


def _bonds(discounts):
    return [1.0, *np.cumprod(discounts).tolist()]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(delta=DELTAS, libors=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=40))
def test_libors_bonds_libors_property(delta, libors):
    tenor = TenorStructure(delta=delta, n=len(libors))
    curve = InitialCurve.from_libors(tenor, libors)
    # each fixing is recovered from two bonds, each a few roundings off
    assert np.allclose(curve.libors, libors, rtol=1e-12, atol=1e-13 / delta)
    assert InitialCurve.from_bonds(tenor, curve.bonds) == curve


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(delta=DELTAS, discounts=DISCOUNTS)
def test_bonds_libors_bonds_property(delta, discounts):
    tenor = TenorStructure(delta=delta, n=len(discounts))
    bonds = _bonds(discounts)
    curve = InitialCurve.from_bonds(tenor, bonds)
    assert np.all(curve.libors >= 0.0)
    again = InitialCurve.from_libors(tenor, curve.libors)
    assert np.allclose(again.bonds, bonds, rtol=1e-12, atol=0.0)


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
    # F(0, T_k, T_l) = B(0, T_k) / B(0, T_l)
    assert curve.bond(3) / curve.bond(3) == 1.0
    # telescoping product oracle
    prod = np.prod([1.0 + 0.5 * curve.libor(j) for j in range(2, 5)])
    assert curve.bond(2) / curve.bond(5) == pytest.approx(prod, rel=1e-13)
    # decreasing curve => factor >= 1
    assert curve.bond(1) / curve.bond(4) >= 1.0


def _path_set_at_dates(tenor, curve, date_values):
    # a path set whose only content is hand-made rate snapshots at tenor dates
    n_paths = date_values.shape[0]
    return LiborPathSet(
        tenor=tenor, initial_libors=curve.libors, fixings=np.zeros((n_paths, tenor.n)),
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
        assert np.allclose(w_k, fwd[:, k] / (curve.bond(k) / curve.bond(5)), rtol=1e-12, atol=0.0)
        # dP_k/dP_{k+1} * dP_{k+1}/dP_N == dP_k/dP_N pathwise
        ratio_k_k1 = (fwd[:, k] / fwd[:, k + 1]) / (curve.bond(k) / curve.bond(k + 1))
        assert np.allclose(ratio_k_k1 * w_k1, w_k, rtol=1e-10, atol=0.0)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(delta=DELTAS, discounts=DISCOUNTS)
def test_curve_file_round_trip(tmp_path_factory, delta, discounts):
    # a hand-written file: a comment, a blank line, then one T_k,B(0,T_k) line per date
    bonds = _bonds(discounts)
    lines = ["# maturity,bond", ""] + [f"{k * delta!r},{b!r}" for k, b in enumerate(bonds)]
    path = tmp_path_factory.mktemp("curve") / "curve.txt"
    path.write_text("\n".join(lines) + "\n")
    curve = read_curve_file(path)
    assert curve.tenor.n == len(discounts)
    assert curve.tenor.delta == delta
    assert curve.bonds == tuple(bonds)


@pytest.fixture(scope="module")
def models():
    # one of each model on a 4-period tenor, enough to reach every tenor-index check
    tenor = TenorStructure(delta=0.5, n=4)
    curve = InitialCurve.from_libors(tenor, [0.03, 0.035, 0.04, 0.045])
    vols = VolatilitySurface.flat(tenor, 0.2)
    lmm = LmmModel(tenor, curve, vols, LevyCharacteristics(drift_b=0.0, diffusion_c=1.0))
    return SimpleNamespace(
        curve=curve, vols=vols, lmm=lmm,
        paths=simulate_exact(lmm, simulation_grid(tenor, 4), 8, seed=1, store_dates=True),
        fpm=FpmModel(tenor, curve, vols, lmm.chars),
        family=affine_libor.fit_initial_curve(curve, CirParams(1.2, 0.06, 0.5, 0.06)),
        mfm=markov_functional.calibrate_backward(curve, markov_functional.MfmDriver.flat(tenor, 0.2)),
    )


# public entry point -> (index name, lo, hi, call at index i); N = 4
INDEX_RANGES = {
    "InitialCurve.bond": ("bond", 0, 4, lambda m, i: m.curve.bond(i)),
    "InitialCurve.libor": ("LIBOR", 0, 3, lambda m, i: m.curve.libor(i)),
    "VolatilitySurface.total_variance": ("rate", 1, 3, lambda m, i: m.vols.total_variance(i)),
    "forward_measure_characteristics-j": ("interval", 0, 3, lambda m, i: forward_measure_characteristics(
        m.curve.libors, i, 1, m.lmm.chars, m.vols, 0.5)),
    "forward_measure_characteristics-k": ("rate", 0, 3, lambda m, i: forward_measure_characteristics(
        m.curve.libors, 0, i, m.lmm.chars, m.vols, 0.5)),
    "LiborPathSet.density_weight-date": ("date", 0, 3, lambda m, i: m.paths.density_weight(i, 1)),
    "LiborPathSet.density_weight-measure": ("measure", 1, 4, lambda m, i: m.paths.density_weight(0, i)),
    "frozen_drift_law": ("date", 0, 3, lambda m, i: frozen_drift_law(m.lmm, 1, i)),
    "forward_price.caplet_price_fourier": (
        "rate", 1, 3, lambda m, i: forward_price.caplet_price_fourier(m.fpm, i, 0.04)),
    "affine_libor.libor_coefficients": (
        "rate", 0, 3, lambda m, i: affine_libor.libor_coefficients(m.family, i, 0.0)),
    "affine_libor.forward_measure_cgf": (
        "measure", 1, 4, lambda m, i: affine_libor.forward_measure_cgf(m.family, i, 0.1, 0.0, 0.5, 0.06)),
    "affine_libor.caplet_price_fourier": (
        "rate", 1, 3, lambda m, i: affine_libor.caplet_price_fourier(m.family, i, 0.04)),
    "affine_libor.caplet_price_chi2": (
        "rate", 1, 3, lambda m, i: affine_libor.caplet_price_chi2(m.family, i, 0.04)),
    "pricing.mc_caplet": ("caplet", 1, 3, lambda m, i: mc_caplet(m.paths, i, 0.04, m.curve)),
    "markov_functional.caplet_value": (
        "date", 1, 3, lambda m, i: markov_functional.caplet_value(m.mfm, i, 0.04)),
    "markov_functional.digital_value": (
        "date", 1, 3, lambda m, i: markov_functional.digital_value(m.mfm, i, 0.04)),
    "markov_functional.initial_bond_repricing": (
        "date", 1, 3, lambda m, i: markov_functional.initial_bond_repricing(m.mfm, i)),
}


@pytest.mark.parametrize("entry", list(INDEX_RANGES))
def test_tenor_indices_are_checked_at_both_ends(models, entry):
    # lo and hi are read; lo - 1 and hi + 1 are refused by TenorStructure.check
    name, lo, hi, call = INDEX_RANGES[entry]
    call(models, lo)
    call(models, hi)
    for i in (lo - 1, hi + 1):
        with pytest.raises(CurveError, match=rf"^{name} index {i} outside {lo}\.\.{hi}$"):
            call(models, i)
