"""Named end-to-end experiment recipes.

Each recipe is a pure function of its seed (the four Monte-Carlo ones
also take ``reps``) returning a JSON-able report dictionary, so rerunning
a recipe with the same seed reproduces the report byte for byte.  No
recipe takes a size or setting.  The registry keys double as the
``reproduce`` subcommand names:

    fig1a            Gaussian scenario: trained wide single-layer net
                     versus threshold-tuned CUSUM.
    fig1d            Cauchy scenario: trained net versus tuned CUSUM.
    figb1            Cauchy scenario: truncation-preprocessed net versus
                     the tuned rank (Wilcoxon) scan.
    table1           Five-class change-type mixture: oracle and min-BIC
                     likelihood classifiers versus a depth-5 network.
    thm-localisation Sliding-window localiser recovery experiment.
    null-rate        Null false-positive rate of the scan vs its bound.
    detection-miss   Miss rate just above the detection boundary.
    snr-risk         Scan risk under an SNR-floor prior vs its bound.
    grid-check       Deterministic dyadic-neighbourhood response check.

fig1a, fig1d and figb1 are rows of one run loop; each row fixes its
scenario, scan, network input and start, and training size (700 or
1000).  Run ``k`` of 3 draws its training set from seed ``seed + 1000 k``,
tunes the scan's threshold on it, trains the network (200 epochs) with
the one train helper, which table1 uses too, and frees the training set.
Only then does it draw its 5000-row test set, from that seed plus 1, a
block of rows at a time (:func:`cpdlab.simulate.scenario_blocks`), and
label each block with the scan and the network before drawing the next,
so no whole test set is held.  table1 streams its training mixture a
block of rows at a time (:func:`cpdlab.simulate.multiclass_blocks`)
into its feature matrix and its oracle scan statistics, so the raw
mixture is never held; it tunes and trains on those, frees them, and
only then draws its test mixture, which it scores with the one score
helper.  The four Monte-Carlo recipes are one function with their own
check and reps.
"""

from __future__ import annotations

import math
import statistics
from functools import partial

import numpy as np

from . import cusum, glr
from .dataio import jsonable
from .evaluate import (
    EvalReport,
    batch_cusum_statistics,
    mer_from_predictions,
    monte_carlo_bound_check,
    scan_statistics,
    tune_threshold,
)
from .network import Architecture, Preprocessor, TrainConfig, embed_cusum, predict, train
from .simulate import (LabeledDataset, MulticlassSpec, ScenarioSpec, gen_multiclass, gen_scenario,
                       multiclass_blocks, scenario_blocks)

__all__ = ["RECIPES", "run_recipe"]


def _train_network(feats: np.ndarray, labels: np.ndarray, start, config: TrainConfig,
                   output_dim: int = 1):
    """``(net, threshold)``: a network trained on the feature rows ``feats``.

    ``start`` is a tuple of hidden widths for a random start, or
    ``"cusum"`` for the CUSUM scan embedded at the threshold tuned on
    ``feats``.  ``threshold`` is that tuned threshold, or ``None`` for a
    random start.
    """
    if start == "cusum":
        threshold = tune_threshold(batch_cusum_statistics(feats), labels)
        init = embed_cusum(feats.shape[1], threshold)
        arch = init.architecture
    else:
        threshold = init = None
        arch = Architecture(feats.shape[1], start, output_dim)
    return train(feats, labels, arch, config, init=init), threshold


def _score_network(net, pre: Preprocessor, test_set, seed: int) -> EvalReport:
    """Score ``net`` on ``pre`` features of ``test_set``."""
    _, predictions = predict(net, pre, test_set.values)
    return mer_from_predictions(test_set.labels, predictions, seed=seed,
                                fingerprint=test_set.fingerprint())


# Every Figure 1 row's test size, number of runs and training epochs.
_TEST_SIZE, _RUNS, _EPOCHS = 5000, 3, 200


def _scan_versus_network(recipe, scenario, method, pre, start, train_size, threshold_keys,
                         settings, summary, seed):
    """The tuned ``method`` scan versus a trained network over the runs of ``scenario``.

    A run tunes the scan's threshold on its training set and trains the
    network on it, then frees it before it draws its test set, which it
    labels with both a row block at a time as the blocks are drawn.
    Each run's threshold keys name the scan's threshold, then the
    embedded start's; with one key the start's is left out.
    ``settings`` are extra report fields.  ``summary`` is
    ``(key, minuend, subtrahend)``: the report's ``key`` is the median
    over runs of the run's ``minuend`` minus its ``subtrahend``.
    """
    def run(k):
        run_seed = seed + 1000 * k
        train_set = gen_scenario(ScenarioSpec(scenario, size=train_size, role="train"), run_seed)
        threshold = tune_threshold(scan_statistics(method, train_set.values), train_set.labels)
        net, net_threshold = _train_network(pre.apply(train_set.values), train_set.labels, start,
                                            TrainConfig(epochs=_EPOCHS, seed=run_seed))
        del train_set
        # The test set is scored a block at a time as it is drawn.  Its
        # blocks are the ones ``predict`` splits a whole batch into, so
        # every network score is bit for bit that of the whole batch.
        test = ScenarioSpec(scenario, size=_TEST_SIZE, role="test")
        labels, scan_labels, net_labels = np.empty((3, _TEST_SIZE), dtype=np.int64)
        width = max(pre.output_dim(test.n), *net.architecture.layer_dims)
        for block, block_labels, rows in scenario_blocks(test, run_seed + 1, width):
            labels[block] = block_labels
            scan_labels[block] = scan_statistics(method, rows) > threshold
            net_labels[block] = predict(net, pre, rows)[1]
        return {"seed": run_seed, **dict(zip(threshold_keys, (threshold, net_threshold))),
                f"{method}_mer": mer_from_predictions(labels, scan_labels).mer,
                "network_mer": mer_from_predictions(labels, net_labels).mer}

    runs = [run(k) for k in range(_RUNS)]
    key, minuend, subtrahend = summary
    return {
        "recipe": recipe,
        "seed": seed,
        "scenario": scenario,
        **settings,
        "train_size": train_size,
        "test_size": _TEST_SIZE,
        "epochs": _EPOCHS,
        "runs": runs,
        "median_network_mer": statistics.median(r["network_mer"] for r in runs),
        f"median_{method}_mer": statistics.median(r[f"{method}_mer"] for r in runs),
        key: statistics.median(r[minuend] - r[subtrahend] for r in runs),
    }


# figb1's input.  One z-score clip leaves the scale estimate inflated by
# the outliers it should tame, so the clip is applied 12 times (the band
# shrinks towards its fixed point) before unit scaling.  figb1's network
# starts from the scan embedded at its features' tuned threshold.
_CLIP_Z, _CLIP_PASSES = 3.0, 12
_CLIPPED = Preprocessor(((*(("truncate", _CLIP_Z),) * _CLIP_PASSES, ("unit_scale",)),))


# The oracle's test of each change type: the scan it runs, the class it
# predicts when the scan fires and when it does not, and the classes of
# the examples it labels.  Its threshold is tuned on the examples of the
# first two classes.
_ORACLE_TESTS = (("mean", "cusum", 2, 1, (1, 2)), ("variance", "variance", 3, 1, (3,)),
                 ("slope", "slope", 5, 4, (4, 5)))


def _oracle_predictions(dataset: LabeledDataset, thresholds: dict) -> np.ndarray:
    """Type-matched likelihood detectors, one binary test per example.

    Examples of classes 1/2 run the mean scan (predict 2 on a firing),
    class 3 the variance scan (3, else 1), classes 4/5 the slope scan
    (5, else 4).  This mirrors pre-specifying the change type under test.
    """
    preds = np.empty(len(dataset), dtype=np.int64)
    for kind, method, fired, idle, classes in _ORACLE_TESTS:
        mask = np.isin(dataset.labels, classes)
        stats = scan_statistics(method, dataset.values[mask])
        preds[mask] = np.where(stats > thresholds[kind], fired, idle)
    return preds


def table1(seed: int) -> dict:
    """Five-class mixture: oracle and adaptive likelihood classifiers vs a deep net.

    The oracle thresholds are tuned per change type on the training
    mixture; the network is a depth-5 multilayer perceptron on
    (scaled x, scaled x^2) features.  The training mixture is streamed a
    block of rows at a time into the feature matrix and each oracle
    test's scan statistics, which keep row order, so the raw mixture is
    never held.  The recipe trains and frees the features before it
    draws its test mixture.
    """
    regime, per_class_train, per_class_test, epochs = "strong", 400, 200, 200
    pre = Preprocessor((("unit_scale",), (("square",), ("unit_scale",))))

    spec = MulticlassSpec(regime, per_class=per_class_train)
    feats = np.empty((5 * per_class_train, pre.output_dim(spec.n)))
    labels = np.empty(len(feats), dtype=np.int64)
    stats = {kind: [] for kind, *_ in _ORACLE_TESTS}
    for block, block_labels, rows in multiclass_blocks(spec, seed, feats.shape[1]):
        feats[block] = pre.apply(rows)
        labels[block] = block_labels
        for kind, method, fired, idle, _ in _ORACLE_TESTS:
            stats[kind].append(scan_statistics(method, rows[np.isin(block_labels, (fired, idle))]))
    thresholds = {}
    for kind, method, fired, idle, _ in _ORACLE_TESTS:
        tested = labels[np.isin(labels, (fired, idle))]
        thresholds[kind] = tune_threshold(np.concatenate(stats[kind]), tested == fired)
    width = 4 * (spec.n.bit_length() - 1)
    net, _ = _train_network(feats, labels, (width,) * 5,
                            TrainConfig(epochs=epochs, seed=seed, lr_decay=0.02), 5)
    del feats

    test_set = gen_multiclass(MulticlassSpec(regime, per_class=per_class_test), seed + 1)
    oracle_report = mer_from_predictions(
        test_set.labels, _oracle_predictions(test_set, thresholds),
        seed=seed, fingerprint=test_set.fingerprint())
    adaptive_report = mer_from_predictions(
        test_set.labels,
        glr.adaptive_classify(test_set.values),
        seed=seed, fingerprint=test_set.fingerprint())
    net_report = _score_network(net, pre, test_set, seed)

    return {
        "recipe": "table1",
        "seed": seed,
        "regime": regime,
        "per_class_train": per_class_train,
        "per_class_test": per_class_test,
        "epochs": epochs,
        "thresholds": thresholds,
        "oracle": jsonable(oracle_report),
        "adaptive": jsonable(adaptive_report),
        "network": jsonable(net_report),
        "oracle_accuracy": oracle_report.accuracy,
        "adaptive_accuracy": adaptive_report.accuracy,
        "network_accuracy": net_report.accuracy,
    }


def _bound_recipe(recipe: str, kind: str, seed: int, *, reps: int) -> dict:
    """The Monte-Carlo check ``kind`` of :func:`monte_carlo_bound_check` as a report."""
    check = monte_carlo_bound_check(kind, reps=reps, seed=seed)
    return {"recipe": recipe, "seed": seed, **jsonable(check)}


_GRID_FLOOR = math.sqrt(3.0) / 3.0


def _grid_check_length(n: int) -> tuple[float, int]:
    """grid-check at length ``n``: its worst window-to-peak ratio and its violation count."""
    tau = np.arange(1, n)
    reach = np.minimum(tau, n - tau) / 2.0
    points = np.stack([np.ceil(tau - reach), tau, np.floor(tau + reach)], axis=1)
    lo, peak, hi = cusum._unit_step_response(n, tau[:, None], points).T
    ratio = np.minimum(lo, hi) / peak
    return float(ratio.min()), int(np.count_nonzero(ratio < _GRID_FLOOR - 1e-9))


def grid_check(seed: int) -> dict:
    """Deterministic check that near-change scan points keep >= sqrt(3)/3 response.

    For every length from 16 to 512 and every change location, every
    scan position within half the shorter segment of the change must
    respond at least sqrt(3)/3 times the peak.  The dyadic grid always
    contains such a position, so this is the exact ingredient that
    bounds the grid scan's power loss.  The seed is accepted for
    interface uniformity but unused.

    Each response is nondecreasing up to its peak at the change and
    nonincreasing after it, exactly, in floating point too (see
    :func:`cusum.step_response`).  So the smallest response over a window
    that contains the change is the smaller of the two at its endpoints,
    and the check evaluates only those and the peak: O(n) per length.
    """
    n_min, n_max = 16, 512
    worst, violations = zip(*map(_grid_check_length, range(n_min, n_max + 1)))
    return {
        "recipe": "grid-check",
        "seed": seed,
        "n_min": n_min,
        "n_max": n_max,
        "floor": _GRID_FLOOR,
        "worst_ratio": min(worst),
        "violations": sum(violations),
        "passed": sum(violations) == 0,
    }


RECIPES = {
    "fig1a": partial(_scan_versus_network, "fig1a", "S1", "cusum", Preprocessor(), (198,), 700,
                     ("threshold",), {}, ("median_mer_difference", "network_mer", "cusum_mer")),
    "fig1d": partial(_scan_versus_network, "fig1d", "S3", "cusum", Preprocessor(), (198,), 1000,
                     ("threshold",), {}, ("median_mer_gain", "cusum_mer", "network_mer")),
    "figb1": partial(_scan_versus_network, "figb1", "S3", "wilcoxon", _CLIPPED, "cusum", 1000,
                     ("wilcoxon_threshold", "scan_threshold"),
                     {"truncation_z": _CLIP_Z, "clip_passes": _CLIP_PASSES},
                     ("median_mer_margin", "network_mer", "wilcoxon_mer")),
    "table1": table1,
    "thm-localisation": partial(_bound_recipe, "thm-localisation", "localisation", reps=500),
    "null-rate": partial(_bound_recipe, "null-rate", "null_rate", reps=20000),
    "detection-miss": partial(_bound_recipe, "detection-miss", "detection_miss", reps=20000),
    "snr-risk": partial(_bound_recipe, "snr-risk", "snr_risk", reps=20000),
    "grid-check": grid_check,
}


def run_recipe(name: str, seed: int = 7, **overrides) -> dict:
    """Run a named recipe; unknown names raise ``ValueError``, unknown keywords ``TypeError``."""
    if name not in RECIPES:
        raise ValueError(f"unknown recipe {name!r}; choose from {sorted(RECIPES)}")
    return RECIPES[name](seed, **overrides)
