"""cpdlab: a small laboratory for offline change-point detection.

Classical scan statistics (CUSUM family, generalised likelihood-ratio
scans, a rank-based scan), feedforward ReLU networks that contain those
scans exactly and can be trained on labelled examples, seeded synthetic
benchmark generators, a sliding-window multi-change localiser, and a
Monte-Carlo harness that checks the advertised error bounds.
"""

from .cusum import (
    as_series,
    cusum_basis,
    cusum_star_statistic,
    cusum_statistic,
    cusum_transform,
    dyadic_grid,
    misclassification_bound,
    misclassification_bound_star,
    null_threshold,
    snr,
    snr_threshold,
    snr_threshold_star,
    step_response,
)
from .glr import (
    ChangeDesign,
    GlrDirections,
    adaptive_classify,
    glr_directions,
    glr_statistic,
    lr_slope_scan,
    lr_variance_scan,
    mean_change_design,
    slope_change_design,
)
from .robust import (
    wilcoxon_statistic,
    wilcoxon_statistic_bruteforce,
    zscore_truncate,
)
from .simulate import (
    LabeledDataset,
    MulticlassSpec,
    ScenarioSpec,
    ar1_noise,
    gen_multiclass,
    gen_piecewise,
    gen_scenario,
    regenerate_example,
    snr_base,
)
from .network import (
    Architecture,
    Network,
    Preprocessor,
    TrainConfig,
    TrainingError,
    embed_cusum,
    embed_directions,
    forward,
    grad_check,
    lag_product,
    loss_and_gradient,
    network_from_json,
    network_to_json,
    train,
    unit_scale,
)
from .localise import (
    LocalisationResult,
    WindowClassifier,
    cusum_star_window_classifier,
    network_window_classifier,
    localise,
    sliding_labels,
)
from .evaluate import (
    BoundCheck,
    EvalReport,
    LocalisationErrorReport,
    batch_cusum_statistics,
    localisation_rmse,
    mer_from_predictions,
    monte_carlo_bound_check,
    scan_report,
    scan_statistics,
    tune_threshold,
)
from .dataio import load_dataset, load_values, save_dataset, save_values, write_report
from .recipes import RECIPES, run_recipe

__version__ = "0.1.0"
