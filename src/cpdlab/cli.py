"""Command-line front end: simulate, train, detect, localise, reproduce.

Every command is a pure function of its arguments; the seed of the
commands that draw (simulate, train, reproduce) comes from ``--seed``
alone (default 7, never negative).  Each option is declared once and
accepted in that one spelling only, with no prefix of it (the dataset
size is ``--N``), and the scan names are ``evaluate.SCAN_METHODS``.
``detect`` scores a scan at ``--threshold``, or at the threshold it
tunes on the labelled ``--train`` file.  A network file carries the
preprocessor it was trained with, and ``--method net`` applies it.
Exit codes: 0 success, 1 runtime failure, 2 invalid configuration or
arguments, which includes an option that the chosen use of its command
does not read.
"""

from __future__ import annotations

import argparse
import errno
import inspect
import math
import os
import stat
import sys

import numpy as np

from . import cusum
from .dataio import (
    load_dataset,
    load_values,
    save_dataset,
    save_values,
    write_report,
)
from .evaluate import SCAN_METHODS, mer_from_predictions, scan_statistics, tune_threshold
from .localise import cusum_star_window_classifier, localise
from .network import (
    Architecture,
    Preprocessor,
    TrainConfig,
    network_from_json,
    network_to_json,
    predict,
    train,
)
from .recipes import RECIPES, run_recipe
from .robust import wilcoxon_statistic  # noqa: F401  (perfbench's tracer test wraps it here)
from .simulate import SCENARIOS, MulticlassSpec, ScenarioSpec, gen_multiclass, gen_scenario

__all__ = ["main"]


def _parse_preprocess(text: str) -> Preprocessor:
    """Parse 'unit_scale' or 'truncate:3+unit_scale|square+unit_scale' syntax.

    '|' separates channels, '+' separates steps inside a channel and
    ':' attaches a numeric parameter to a step.  An empty step raises
    ``ValueError``, so no channel or step quietly means ``identity``.
    """
    channels = []
    for chunk in text.split("|"):
        steps = []
        for item in chunk.split("+"):
            if not item.strip():
                raise ValueError(f"--preprocess {text!r} has an empty step")
            name, colon, value = item.partition(":")
            steps.append((name.strip(), float(value)) if colon else (name.strip(),))
        channels.append(tuple(steps))
    return Preprocessor(tuple(channels))


# The options each use of a command reads, keyed by (command, use); the
# use is the method, the kind of dataset or how the threshold is set.
# Any other option given exits 2, so an option that some use of its
# command does not read defaults to None.  Every command reads --out,
# and train and reproduce read every option they have.
_READS = {key: set(names.split()) for key, names in {
    ("simulate", "a scenario"): "seed scenario n size role",
    ("simulate", "--multiclass"): "seed multiclass per_class",
    ("detect", "a scan method"): "method threshold data",
    ("detect", "--train"): "method train data",
    ("detect", "--method net"): "method net data",
    ("localise", "--threshold"): "data window threshold gamma",
    ("localise", "--snr-bound"): "data window snr_bound gamma",
}.items()}


def _given(args, *names) -> dict:
    """The options among ``names`` that are set, by name."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _check_options(args, use: str) -> None:
    """Reject a given option that ``use`` does not read, and a bad ``--threshold``."""
    unread = sorted(set(_given(args, *vars(args))) - _READS[args.command, use]
                    - {"command", "func", "out"})
    if unread:
        # Name each option by the flag the parser declares for it (``size`` is ``--N``).
        (commands,) = _build_parser()._subparsers._group_actions
        flags = {a.dest: a.option_strings for a in commands.choices[args.command]._actions}
        raise ValueError(f"{args.command} with {use} does not read "
                         + ", ".join("/".join(flags[name]) for name in unread))
    threshold = getattr(args, "threshold", None)
    if threshold is not None and not (math.isfinite(threshold) and threshold > 0):
        raise ValueError(f"--threshold must be a finite positive number, got {threshold}")


def _cmd_simulate(args) -> int:
    if args.multiclass:
        _check_options(args, "--multiclass")
        spec = MulticlassSpec(args.multiclass, **_given(args, "per_class"))
        dataset = gen_multiclass(spec, args.seed)
    else:
        _check_options(args, "a scenario")
        spec = ScenarioSpec(**{"scenario": "S1", **_given(args, "scenario", "n", "size", "role")})
        dataset = gen_scenario(spec, args.seed)
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} examples of length {dataset.n} to {args.out}")
    return 0


def _cmd_train(args) -> int:
    dataset = load_dataset(args.data)
    pre = _parse_preprocess(args.preprocess)
    widths = args.hidden.split(",")
    if not all(w.strip() for w in widths):
        raise ValueError(f"--hidden {args.hidden!r} has an empty width")
    hidden = tuple(map(int, widths))
    classes = np.unique(dataset.labels)
    output_dim = 1 if set(classes.tolist()) <= {0, 1} else classes.size
    arch = Architecture(pre.output_dim(dataset.n), hidden, output_dim)
    config = TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size,
        learning_rate=args.learning_rate, seed=args.seed, lr_decay=args.lr_decay,
    )
    net = train(pre.apply(dataset.values), dataset.labels, arch, config)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(network_to_json(net, pre))
    print(f"trained {arch.depth}-layer network on {len(dataset)} examples -> {args.out}")
    return 0


def _cmd_detect(args) -> int:
    _check_options(args, "--method net" if args.method == "net"
                   else "a scan method" if args.train is None else "--train")
    dataset = load_dataset(args.data)
    threshold = args.threshold
    if args.method == "net":
        # The network's own threshold decides.
        if not args.net:
            raise ValueError("--net is required with method 'net'")
        with open(args.net, encoding="ascii") as fh:
            net, pre = network_from_json(fh.read())
        scores, preds = predict(net, pre, dataset.values)
        stats = scores if scores.ndim == 1 else scores.max(axis=1)
    else:
        if args.train is not None:
            train_set = load_dataset(args.train)
            threshold = tune_threshold(scan_statistics(args.method, train_set.values),
                                       train_set.labels)
        elif threshold is None:
            raise ValueError("provide --threshold or --train")
        stats = scan_statistics(args.method, dataset.values)
        preds = (stats > threshold).astype(np.int64)
    report = mer_from_predictions(dataset.labels, preds, threshold=threshold,
                                  fingerprint=dataset.fingerprint())
    if str(args.out).endswith(".csv"):
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write("row,label,decision,statistic\n")
            for k, (label, pred, stat) in enumerate(zip(dataset.labels, preds, stats), start=1):
                fh.write(f"{k},{int(label)},{int(pred)},{repr(float(stat))}\n")
    else:
        write_report({
            "command": "detect",
            "method": args.method,
            "report": report,
            "decisions": preds,
            "statistics": stats,
        }, args.out)
    print(f"MER {report.mer:.4f} on {report.size} examples -> {args.out}")
    return 0


def _cmd_localise(args) -> int:
    threshold = args.threshold
    _check_options(args, "--snr-bound" if threshold is None else "--threshold")
    rows = load_values(args.data)
    if threshold is None:
        if args.snr_bound is None:
            raise ValueError("provide --threshold or --snr-bound")
        threshold = cusum.snr_threshold_star(args.window, args.snr_bound)
    classifier = cusum_star_window_classifier(args.window, threshold)
    results = []
    for row in rows:
        res = localise(row, classifier, args.gamma)
        results.append({
            "change_points": res.change_points,
            "segments": res.segments,
        })
    write_report({
        "command": "localise",
        "window": args.window,
        "threshold": threshold,
        "gamma": args.gamma,
        "results": results,
    }, args.out)
    total = sum(len(r["change_points"]) for r in results)
    print(f"localised {total} change points across {len(results)} series -> {args.out}")
    return 0


def _cmd_reproduce(args) -> int:
    overrides = _given(args, "reps")
    if overrides and "reps" not in inspect.signature(RECIPES[args.recipe]).parameters:
        raise ValueError(f"recipe {args.recipe!r} does not accept --reps")
    report = run_recipe(args.recipe, args.seed, **overrides)
    write_report(report, args.out)
    print(f"recipe {args.recipe} (seed {args.seed}) -> {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpdlab",
        description="Change-point detection lab: scans, trainable detectors, benchmarks.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=7, help="random seed (default 7)")

    def command(name, func, help, *parents):
        p = sub.add_parser(name, help=help, parents=parents, allow_abbrev=False)
        p.add_argument("--out", required=True, help="output file")
        p.set_defaults(func=func)
        return p

    p = command("simulate", _cmd_simulate, "generate a labelled dataset CSV", seeded)
    p.add_argument("--scenario",
                   help=f"one of {', '.join(SCENARIOS)}, spelled exactly (default S1)")
    p.add_argument("--multiclass", choices=("weak", "strong"),
                   help="generate the five-class mixture instead of a scenario")
    p.add_argument("--n", type=int, help="series length (default 100)")
    p.add_argument("--N", dest="size", type=int, help="dataset size (default 700)")
    p.add_argument("--per-class", type=int, help="multiclass examples per class (default 500)")
    p.add_argument("--role", choices=("train", "test"), help="train (default) or test")

    p = command("train", _cmd_train, "train a network on a dataset CSV", seeded)
    p.add_argument("--data", required=True)
    p.add_argument("--hidden", default="198", help="comma-separated hidden widths")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--lr-decay", type=float, default=0.0,
                   help="inverse time decay rate applied per epoch")
    p.add_argument("--preprocess", default="unit_scale",
                   help="channels separated by '|', steps by '+', e.g. 'truncate:3+unit_scale'")

    p = command("detect", _cmd_detect, "run a detector over a dataset CSV")
    p.add_argument("--method", default="cusum", choices=(*SCAN_METHODS, "net"))
    p.add_argument("--threshold", type=float)
    p.add_argument("--train", help="labelled CSV to tune a scan's threshold on")
    p.add_argument("--net", help="network JSON (method 'net')")
    p.add_argument("--data", required=True)

    p = command("localise", _cmd_localise, "estimate change points in long series")
    p.add_argument("--data", required=True, help="CSV of plain series rows")
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--threshold", type=float)
    p.add_argument("--snr-bound", type=float,
                   help="derive the dyadic-scan threshold from an SNR floor")
    p.add_argument("--gamma", type=float, default=0.5)

    p = command("reproduce", _cmd_reproduce, "run a named experiment recipe", seeded)
    p.add_argument("recipe", choices=sorted(RECIPES))
    p.add_argument("--reps", type=int, help="override replication count where applicable")
    return parser


def _check_out(path: str) -> None:
    """Raise the error that opening ``path`` for writing would, without creating it.

    Checked before a command runs, so a bad ``--out`` costs no training or scan.
    """
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)


def _reject_undeclared(parser, argv) -> None:
    """Exit 2 naming every ``--`` option in ``argv`` that its command does not declare.

    argparse reports a missing required option before unrecognised ones,
    so ``detect --thr 3 --da x.csv`` would otherwise name only the
    missing ``--data``, not the two spellings it rejected.
    """
    (commands,) = parser._subparsers._group_actions
    command = commands.choices.get(argv[0]) if argv else None
    if command is None:
        return
    declared = {flag for action in command._actions for flag in action.option_strings}
    words = argv[1:argv.index("--")] if "--" in argv else argv[1:]
    undeclared = [word for word in words
                  if word.startswith("--") and word.split("=", 1)[0] not in declared]
    if undeclared:
        command.error("unrecognized arguments: " + " ".join(undeclared))


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        _reject_undeclared(parser, argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        _check_out(args.out)
        return args.func(args)
    except (ValueError, FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
