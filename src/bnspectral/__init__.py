"""Spectral and information-theoretic analysis of Boolean functions and
feed-forward Boolean networks under product input distributions."""

__version__ = "0.1.0"

from .boolfn import (
    ARITY_CAP_DEFAULT,
    ArityCapError,
    BoolFn,
    ProductDist,
    Spectrum,
    basis_eval,
    conditional_expectation,
    evaluate,
    indices_of,
    mask_of,
    reconstruct,
    reconstruct_table,
    relevant_variables,
    transform,
)
from .measures import (
    EntropyBound,
    UnatenessProfile,
    avg_sensitivity,
    avg_sensitivity_spectral,
    binary_entropy,
    cond_entropy,
    entropy_bounds,
    independence_test,
    influence,
    influence_entropy_identity,
    influence_spectral,
    mi_influence_bound_check,
    mutual_information,
    noise_sensitivity,
    noise_sensitivity_mc,
    output_entropy,
    psi,
    unate_coefficient_check,
    unateness,
    variance,
)
from .netlang import (
    CollapsedNetwork,
    NetParseError,
    Network,
    collapse,
    effective_inputs,
    out_degree,
    parse,
)
from .analysis import (
    BaselineResult,
    BaselineSpec,
    RankingResult,
    SensitivityRecord,
    UncertaintyCurve,
    baseline_curves,
    determinative_power,
    node_spectra,
    sensitivity_scatter,
    uncertainty_curve,
)
from .sampling import sample_random_function, sample_random_unate

__all__ = [name for name in dir() if not name.startswith("_")]
