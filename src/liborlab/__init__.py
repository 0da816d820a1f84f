"""Four LIBOR-rate modeling frameworks with a shared comparison harness.

* :mod:`liborlab.lmm` and :mod:`liborlab.drift_approx` - the market model
  under the terminal measure with exact, frozen-drift, Picard and strong
  Taylor simulation schemes.
* :mod:`liborlab.forward_price` - exponential forward-price dynamics with
  structure-preserving measure changes and Fourier caplet pricing.
* :mod:`liborlab.markov_functional` - functional forms implied from Black
  digital quotes by backward induction on a Gaussian driver.
* :mod:`liborlab.affine_libor` - bond quotients as exponential-affine
  martingales of a square-root diffusion; nonnegative rates by design.

:mod:`liborlab.pricing` holds the Black/Monte-Carlo/implied-vol utilities
and :mod:`liborlab.cli` the config-driven command-line harness.
"""

from .affine import CirParams, cir_flow, simulate_cir
from .affine_libor import (
    MartingaleFamily,
    caplet_price_chi2,
    fit_initial_curve,
    forward_measure_mgf,
    libor_value,
    martingale_value,
    simulate_affine_paths,
)
from .config import ExperimentConfig, parse_config, serialize_config
from .drift_approx import (
    frozen_drift_law,
    frozen_drift_simulate,
    picard_simulate,
    taylor_simulate,
)
from .errors import (
    CalibrationError,
    ConfigError,
    CurveError,
    DomainError,
    FitInfeasibleError,
    LiborLabError,
    PriceBoundsError,
    QuadratureError,
    UnsupportedSchemeError,
)
from .forward_price import (
    FpmModel,
    negative_rate_fraction,
    simulate_fpm,
)
from .levy import (
    DoubleExponentialJumps,
    DriverPathSet,
    LevyCharacteristics,
    NormalJumps,
    simulate_driver,
)
from .lmm import (
    LiborPathSet,
    LmmModel,
    forward_measure_characteristics,
    simulate_exact,
    simulation_grid,
)
from .markov_functional import (
    FunctionalGrid,
    MfmDriver,
    black_digital_price,
    bond_value,
    calibrate_backward,
    conditional_expectation,
    terminal_bond_functional,
)
from .pricing import CapletQuote, black_caplet, implied_vol, mc_caplet, mc_swaption
from .tenor import InitialCurve, TenorStructure, read_curve_file
from .volatility import VolatilitySurface

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
