"""The benchmark's workloads: inputs made from the seed, and the commands of one pass.

Every command is an argument list for ``cpdlab.cli.main`` plus a check
of the report it writes.  Workloads and why they were chosen:

``paper-train``
    ``reproduce fig1a`` then ``reproduce table1``.  Nearly all of the
    time is ``network.train`` on two shapes: a wide, shallow binary net
    (matrix multiplies) and a depth-5 softmax net of width 32 (per-step
    Python overhead).  No rank scan and no truncation.
``heavy-tail``
    ``reproduce figb1``, the only recipe where the rank scan and the
    repeated z-score clip carry real weight, plus training from the
    embedded network.
``scan-serve``
    No training.  ``detect`` with every method, ``localise`` on long
    series, and the scan and Monte-Carlo recipes, on CSV and JSON
    inputs written in set-up: scans, localiser, bound checks, CSV
    parsing and network inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from cpdlab.dataio import save_dataset, save_values
from cpdlab.network import Preprocessor, embed_cusum, network_to_json
from cpdlab.simulate import (MulticlassSpec, ScenarioSpec, gen_multiclass, gen_piecewise,
                             gen_scenario)

from .checks import check_detect, check_localise, check_recipe, recipe_claims


@dataclass(frozen=True)
class Command:
    """One call of the command line, the report it writes and the check of that report.

    ``check(report, earlier)`` gets the parsed report and the reports of
    the commands before it in the same pass, by command name.
    ``claims(report)`` returns the acceptance bounds the report misses.
    """

    name: str
    argv: tuple[str, ...]
    out: Path
    check: Callable[[dict, dict], list[str]]
    claims: Callable[[dict], list[str]] | None = None
    metric: str | None = None
    rows: int = 0
    samples: int = 0


@dataclass
class Workload:
    name: str
    commands: list[Command]


def _reproduce(workdir: Path, seed: int, recipe: str) -> Command:
    out = workdir / f"reproduce-{recipe}.json"
    return Command(f"reproduce {recipe}",
                   ("reproduce", recipe, "--seed", str(seed), "--out", str(out)),
                   out, lambda report, earlier: check_recipe(recipe, seed, report),
                   lambda report: recipe_claims(recipe, report), metric=f"recipe.{recipe}_s")


# scan-serve sizes.  Each detect command parses, scores and reports a
# few thousand rows, so that one command takes a few tenths of a second
# and the median over a run's passes is steady.
S2_ROWS = 3000
S3_ROWS = 2000
MIXTURE_PER_CLASS = 200  # five classes, series of length 400
SERIES = 100
SERIES_LENGTH = 3500
# Localiser settings and signal of the thm-localisation recipe: three
# changes with jumps of 11 to 13 noise standard deviations.
WINDOW = 128
SNR_BOUND = 1.8
CHANGE_POINTS = (990, 1691, 2733)
LEVELS = (0.0, 11.0, -1.0, 12.0)
# The localiser must find every change within this many samples.
LOCATION_TOLERANCE = 2
# Decision thresholds, near the 95% quantile of each statistic on the
# no-change rows of its input (S2 noise is autocorrelated, so its CUSUM
# threshold lies above the i.i.d. one).
THRESHOLDS = {"cusum": 8.0, "cusum-star": 8.0, "wilcoxon": 0.37,
              "variance": 9.3, "slope": 1.5}


@dataclass
class ScanInputs:
    """The generated scan-serve inputs, kept in memory for the checks."""

    s2: object
    s3: object
    mixture: object
    series_truths: list


def make_scan_inputs(workdir: Path, seed: int) -> ScanInputs:
    """Generate the scan-serve inputs with ``cpdlab.simulate`` and write them out."""
    s2 = gen_scenario(ScenarioSpec("S2", size=S2_ROWS, role="test"), seed)
    s3 = gen_scenario(ScenarioSpec("S3", size=S3_ROWS, role="test"), seed + 1)
    mixture = gen_multiclass(MulticlassSpec("strong", per_class=MIXTURE_PER_CLASS), seed + 2)
    series = [gen_piecewise(SERIES_LENGTH, CHANGE_POINTS, LEVELS, seed=seed * SERIES + k,
                            min_spacing=2 * WINDOW)[0] for k in range(SERIES)]
    save_dataset(s2, workdir / "s2.csv")
    save_dataset(s3, workdir / "s3.csv")
    save_dataset(mixture, workdir / "mixture.csv")
    save_values(np.asarray(series), workdir / "series.csv")
    star = embed_cusum(s2.n, THRESHOLDS["cusum-star"], "star")
    # The preprocessor is written out explicitly: a network file without
    # one is read back with unit scaling, which changes the inputs the
    # embedded scan sees and so its decisions.
    identity = Preprocessor((("identity",),))
    (workdir / "star-network.json").write_text(network_to_json(star, identity), encoding="ascii")
    return ScanInputs(s2, s3, mixture, [list(CHANGE_POINTS)] * SERIES)


def _detect(workdir: Path, method: str, data: str, dataset, subset_step: int) -> Command:
    out = workdir / f"detect-{method}.json"
    argv = ["detect", "--method", method, "--data", str(workdir / f"{data}.csv"),
            "--out", str(out)]
    threshold = THRESHOLDS.get(method, THRESHOLDS["cusum-star"])
    if method == "net":
        argv += ["--net", str(workdir / "star-network.json")]
    else:
        argv += ["--threshold", repr(threshold)]

    def check(report, earlier):
        return check_detect(report, dataset, method, threshold, subset_step,
                            earlier.get("detect cusum-star"))

    return Command(f"detect {method}", tuple(argv), out, check, rows=len(dataset))


def setup(name: str, workdir: Path, seed: int) -> Workload:
    """Everything a run needs before its first timed command: inputs and commands."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "paper-train":
        return Workload(name, [_reproduce(workdir, seed, "fig1a"),
                               _reproduce(workdir, seed, "table1")])
    if name == "heavy-tail":
        return Workload(name, [_reproduce(workdir, seed, "figb1")])
    if name != "scan-serve":
        raise ValueError(f"unknown workload {name!r}")
    inputs = make_scan_inputs(workdir, seed)
    commands = [
        _detect(workdir, "cusum", "s2", inputs.s2, 1),
        _detect(workdir, "cusum-star", "s2", inputs.s2, 1),
        _detect(workdir, "net", "s2", inputs.s2, 1),
        _detect(workdir, "wilcoxon", "s3", inputs.s3, 40),
        _detect(workdir, "variance", "mixture", inputs.mixture, 50),
        _detect(workdir, "slope", "mixture", inputs.mixture, 100),
    ]
    out = workdir / "localise.json"
    commands.append(Command(
        "localise",
        ("localise", "--data", str(workdir / "series.csv"), "--window", str(WINDOW),
         "--snr-bound", repr(SNR_BOUND), "--out", str(out)),
        out, lambda report, earlier: check_localise(report, inputs.series_truths,
                                                    LOCATION_TOLERANCE),
        samples=SERIES * SERIES_LENGTH))
    for recipe in ("grid-check", "thm-localisation", "null-rate", "detection-miss", "snr-risk"):
        commands.append(_reproduce(workdir, seed, recipe))
    return Workload(name, commands)
