"""OFDM joint radar-communication simulator.

Synthesizes OFDM frames reflected by real targets or replayed by
adversarial responders with a carrier frequency offset, processes them
into range-Doppler observations, jointly estimates range, velocity, and
offset by linear least squares, and discriminates the two target kinds
with a matched-template GLRT. Monte Carlo sweeps produce ROC curves with
confidence intervals; a CLI fronts the whole pipeline.
"""

# Set before the submodules load: configio stamps it into run manifests.
__version__ = "0.1.0"

from .channel import (
    ChannelGain,
    Scenario,
    TargetKind,
    add_awgn,
    draw_channel_gain,
    path_loss_gain,
    synth_target,
    wavelength_m,
)
from .detector import (
    MODE_AMPLITUDE,
    MODE_REAL_PART,
    Decision,
    GlrtOutcome,
    TemplatePair,
    decide,
    glrt_statistic,
    synth_templates,
)
from .errors import (
    CalibrationError,
    ConfigurationError,
    DivisionGuardError,
    EstimationSetupError,
    IllConditionedError,
    NoPeakError,
    OfdmJrcError,
    PipelineError,
    SingularityError,
)
from .estimator import (
    DesignMatrices,
    Estimates,
    ObservationVector,
    build_design_matrices,
    estimate_h0,
    estimate_h1,
)
from .grids import FreqGrid, SampleGrid
from .montecarlo import (
    RocCurve,
    TrialRecord,
    auto_gamma_grid,
    roc_sweep,
    run_batch,
    run_trial,
    run_trial_with_grids,
    trial_seed,
    wilson_interval,
    write_roc_csv,
)
from .rdmap import (
    PeakObservations,
    RangeDopplerMap,
    extract_peak_observations,
    fast_time_dft,
    range_doppler_map,
    remove_known_symbols,
    resolution_summary,
)
from .waveform import (
    C_LIGHT,
    FrameSymbols,
    OfdmConfig,
    active_subcarriers,
    build_config,
    generate_frame,
    idft_modulate,
)

__all__ = [
    "C_LIGHT",
    "CalibrationError",
    "ChannelGain",
    "ConfigurationError",
    "Decision",
    "DesignMatrices",
    "DivisionGuardError",
    "EstimationSetupError",
    "Estimates",
    "FrameSymbols",
    "FreqGrid",
    "GlrtOutcome",
    "IllConditionedError",
    "MODE_AMPLITUDE",
    "MODE_REAL_PART",
    "NoPeakError",
    "ObservationVector",
    "OfdmConfig",
    "OfdmJrcError",
    "PeakObservations",
    "PipelineError",
    "RangeDopplerMap",
    "RocCurve",
    "SampleGrid",
    "Scenario",
    "SingularityError",
    "TargetKind",
    "TemplatePair",
    "TrialRecord",
    "active_subcarriers",
    "add_awgn",
    "auto_gamma_grid",
    "build_config",
    "build_design_matrices",
    "decide",
    "draw_channel_gain",
    "estimate_h0",
    "estimate_h1",
    "extract_peak_observations",
    "fast_time_dft",
    "generate_frame",
    "glrt_statistic",
    "idft_modulate",
    "path_loss_gain",
    "range_doppler_map",
    "remove_known_symbols",
    "resolution_summary",
    "roc_sweep",
    "run_batch",
    "run_trial",
    "run_trial_with_grids",
    "synth_target",
    "synth_templates",
    "trial_seed",
    "wavelength_m",
    "wilson_interval",
    "write_roc_csv",
]
