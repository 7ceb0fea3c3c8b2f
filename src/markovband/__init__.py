"""Markov check, square-root-law prediction bands, and interruption costs.

A numeric series is accepted as Markovian when its first differences pass a
Shapiro-Wilk normality test, i.e. when the data are consistent with
"next value = current value + independent Gaussian noise".  For accepted
series the k-step-ahead prediction band is x0 +/- sqrt(k) * sigma-hat (the
one-standard-deviation envelope, ~68% per-step coverage), and bands convert
to schedule-interruption dollar costs through per-interruption averages.
A seeded simulation harness measures how the check and the bands behave on
data that truly follows the model.
"""

from .cost import (
    CostBand,
    CostRates,
    CostSummary,
    MonthlyEvents,
    cost_band,
    load_events,
    load_rates,
    sample_cost_moments,
    sample_costs,
    summarize_costs,
)
from .forecast import ForecastBand, band, make_band, sample_paths
from .markov import DRIFT_SIGMAS, MIN_CHECK_LENGTH, MarkovVerdict, check_markov
from .normal import norm_cdf, norm_ppf
from .rng import BLOCK_PATHS, DEFAULT_SEED, standard_normal_matrix, substream
from .series import (
    DegenerateSeriesError,
    ErrorSequence,
    SeriesFormatError,
    TimeSeries,
    difference,
    load_series,
)
from .simulate import SimulationReport, generate_walk, run_calibration
from .swilk import (
    MAX_SAMPLE,
    MIN_SAMPLE,
    RULE_P_VALUE,
    RULE_PAPER_THRESHOLD,
    RULES,
    InapplicableSampleError,
    SWResult,
    sw_coefficients,
    sw_decide,
    sw_pvalue,
    sw_statistic,
    sw_test,
)

__version__ = "0.1.0"

__all__ = [
    "BLOCK_PATHS",
    "DEFAULT_SEED",
    "DRIFT_SIGMAS",
    "MAX_SAMPLE",
    "MIN_CHECK_LENGTH",
    "MIN_SAMPLE",
    "RULES",
    "RULE_PAPER_THRESHOLD",
    "RULE_P_VALUE",
    "CostBand",
    "CostRates",
    "CostSummary",
    "DegenerateSeriesError",
    "ErrorSequence",
    "ForecastBand",
    "InapplicableSampleError",
    "MarkovVerdict",
    "MonthlyEvents",
    "SWResult",
    "SeriesFormatError",
    "SimulationReport",
    "TimeSeries",
    "band",
    "check_markov",
    "cost_band",
    "difference",
    "generate_walk",
    "load_events",
    "load_rates",
    "load_series",
    "make_band",
    "norm_cdf",
    "norm_ppf",
    "run_calibration",
    "sample_cost_moments",
    "sample_costs",
    "sample_paths",
    "standard_normal_matrix",
    "substream",
    "summarize_costs",
    "sw_coefficients",
    "sw_decide",
    "sw_pvalue",
    "sw_statistic",
    "sw_test",
    "__version__",
]
