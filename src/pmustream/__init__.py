"""Adaptive reporting-rate selection for synchrophasor measurement streams.

The package synthesizes ground-truth power-system waveforms from sparse
anchor profiles, estimates synchrophasor/frequency/ROCOF with two P-class
algorithms, decimates the measurement stream with an accuracy-driven
keep/discard rule, and scores tracking quality and data reduction.
"""

from .decimator import (
    DecisionRecord,
    Decimator,
    Thresholds,
    decide,
    decimate_stream,
    epsilon,
    predict,
    reconstruct,
)
from .errors import (
    ConfigError,
    DegenerateSignalError,
    DomainError,
    InvalidInputError,
    PmuStreamError,
    ProfileError,
    SequencingError,
    UndefinedMetricError,
)
from .estimators import (
    EstimatorConfig,
    EstimatorKind,
    MeasurementTriplet,
    TripletSeries,
    fortescue_positive,
    ipdft_estimate,
    p_iec_estimate,
    run_estimator,
)
from .metrics import (
    TrackingReport,
    fe,
    instantaneous_rr,
    rfe,
    tracking_indices,
    tve,
)
from .pipeline import ExperimentConfig, emit_table, parse_profile, run_experiment
from .waveform import (
    AnchorSeries,
    GroundTruth,
    PiecewisePoly,
    SampleBlock,
    eval_reference,
    integrate_phase,
    pchip_fit,
    synth_three_phase,
)

__version__ = "0.1.0"
