"""Benchmark of the cpdlab command line, end to end and layer by layer.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload paper-train --seed 7 --seconds 20 --trace 0

One client in one process calls ``cpdlab.cli.main`` in a closed loop:
each command starts after the previous one returns.  A pass runs the
workload's commands once; passes repeat while the next one is expected
to end within ``--seconds`` (at least one pass).  Every report is
checked, and its SHA-256 is compared with the one recorded for the seed
in ``perfbench/digests.json``; a changed digest is printed but is not a
failure.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs pairs of passes, one untraced and one traced, and
reports the per-layer metrics of the traced passes and the tracing
overhead.  The last line of standard output is one JSON object; the
lines before it repeat the numbers for people, and a result file with
the machine description goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTPUT = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
WORKLOADS = ("paper-train", "heavy-tail", "scan-serve")
# Set-up is repeated in this many fresh processes before the passes and
# as many after them, and the median of all of them is reported.
SETUP_SAMPLES = 3
# The seed at which the acceptance suite asserts the recipe bounds.
ACCEPTANCE_SEED = 7

END_TO_END = {
    "setup_s": "s",
    "wall_ref_s": "ref-s",
    "command_p50_ref_s": "ref-s",
    "peak_rss_mb": "MB",
}


@dataclass
class CommandResult:
    name: str
    latency: float
    problems: list[str]
    # The latency in reference seconds (equal to it when not sampled).
    ref: float = 0.0
    claims_missed: list[str] = field(default_factory=list)
    digest: str | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class PassResult:
    commands: list[CommandResult] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(c.latency for c in self.commands)

    @property
    def wall_ref(self) -> float:
        return sum(c.ref for c in self.commands)


def run_command(cli, command, earlier: dict, seed: int, tracer=None, probe=None,
                floor: int = 0):
    """Run one command in-process, time it, then check its report untimed.

    With a speed probe, the latency leaves out the probe's kernel, and
    ``ref`` is normalised by the samples since ``floor``.
    """
    command.out.unlink(missing_ok=True)
    scope = tracer.command(command.name) if tracer else contextlib.nullcontext()
    clock = probe.clock if probe else time.perf_counter
    problems = []
    mark = probe.mark() if probe else 0
    with contextlib.redirect_stdout(io.StringIO()), scope:
        start = clock()
        try:
            code = cli.main(list(command.argv))
        except Exception as exc:  # the command failed; record it and go on
            code = None
            problems.append(f"raised {exc!r}")
        latency = clock() - start
    ref = latency * probe.factor(mark, probe.mark(), floor) if probe else latency
    if code not in (0, None):
        problems.append(f"exit code {code}")
    result = CommandResult(command.name, latency, problems, ref)
    if problems:
        return result
    try:
        data = command.out.read_bytes()
        result.digest = hashlib.sha256(data).hexdigest()
        report = json.loads(data)
        problems += command.check(report, earlier)
        if command.claims:
            result.claims_missed = command.claims(report)
        earlier[command.name] = report
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable report: {exc!r}")
    if seed == ACCEPTANCE_SEED:
        problems += result.claims_missed
    return result


def run_pass(cli, workload, seed: int, tracer=None, probe=None) -> PassResult:
    result = PassResult()
    earlier: dict = {}
    floor = probe.mark() if probe else 0
    sampling = probe.sampling() if probe else contextlib.nullcontext()
    with sampling:
        for command in workload.commands:
            result.commands.append(
                run_command(cli, command, earlier, seed, tracer, probe, floor))
    return result


def measure_setup(workload: str, seed: int, workdir: Path) -> list[float]:
    """Time set-up in ``SETUP_SAMPLES`` fresh processes: interpreter start, imports, inputs."""
    times = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", "0",
            "--setup-only", str(workdir)]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=170)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed with exit code {code}")
        times.append(elapsed)
    return times


def _current_cpu() -> int:
    """The CPU this process runs on, or the lowest it may run on."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return min(os.sched_getaffinity(0))


def machine(seed: int) -> dict:
    """The machine and software a result was measured on."""
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
        "git_commit": commit or "unknown (not a git checkout)",
    }


def digest_lines(workload: str, seed: int, first: PassResult) -> list[str]:
    """Compare each report's digest with the one recorded for this seed."""
    recorded = json.loads(DIGESTS.read_text(encoding="ascii")) if DIGESTS.is_file() else {}
    if recorded.get("seed") != seed:
        return [f"digests: none recorded for seed {seed} "
                f"(recorded for seed {recorded.get('seed')})"]
    reference = recorded["reports"].get(workload, {})
    lines = []
    for result in first.commands:
        want = reference.get(result.name)
        if result.digest is None:
            state = "no report"
        elif want is None:
            state = "not recorded"
        elif want == result.digest:
            state = "matches"
        else:
            state = f"CHANGED (recorded {want[:12]}, now {result.digest[:12]})"
        lines.append(f"digest {result.name}: {state}")
    return lines


def record_digests(workload: str, seed: int, first: PassResult) -> None:
    recorded = json.loads(DIGESTS.read_text(encoding="ascii")) if DIGESTS.is_file() else {}
    if recorded.get("seed") != seed:
        recorded = {"seed": seed, "reports": {}}
    recorded["reports"][workload] = {c.name: c.digest for c in first.commands}
    DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="ascii")


def named_metrics(workload, passes: list[PassResult]) -> dict:
    """The workload's own metrics, in raw seconds: recipe times and throughputs."""
    def latencies(name):
        return [c.latency for p in passes for c in p.commands if c.name == name]

    named = {}
    for command in workload.commands:
        if command.metric:
            named[command.metric] = statistics.median(latencies(command.name))
    detect = [c for c in workload.commands if c.rows]
    if detect:
        names = {c.name for c in detect}
        rows = sum(c.rows for c in detect)
        named["detect_series_per_s"] = statistics.median(
            rows / sum(c.latency for c in p.commands if c.name in names) for p in passes)
    for command in workload.commands:
        if command.samples:
            named["localise_samples_per_s"] = statistics.median(
                command.samples / t for t in latencies(command.name))
    return named


def speed_factor(passes: list[PassResult]) -> float:
    """Reference seconds per measured second over all commands of the passes."""
    return sum(p.wall_ref for p in passes) / sum(p.wall for p in passes)


def end_to_end(passes: list[PassResult], setup_times: list[float]) -> dict:
    """The end-to-end metrics; set-up is converted with the passes' speed factor.

    Set-up runs in other processes just before the passes, and each
    lasts too short a time to sample its own speed steadily.
    """
    return {
        "setup_s": statistics.median(setup_times) * speed_factor(passes),
        "wall_ref_s": statistics.median(p.wall_ref for p in passes),
        "command_p50_ref_s": statistics.median(c.ref for p in passes for c in p.commands),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark of the cpdlab command line.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole passes until the next would end after this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's report digests as the seed's reference")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure(cli, workload, args, tracing):
    """Run passes for ``args.seconds``; return untraced passes, traced passes, tracer."""
    from perfbench.speed import SpeedProbe

    probe = SpeedProbe()
    tracer = tracing.Tracer(clock=probe.clock) if args.trace else None
    untraced, traced, longest = [], [], 0.0
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        untraced.append(run_pass(cli, workload, args.seed, probe=probe))
        if tracer:
            with tracer.installed():
                traced.append(run_pass(cli, workload, args.seed, tracer, probe))
        longest = max(longest, time.perf_counter() - pass_start)
        if time.perf_counter() - started + longest > args.seconds:
            return untraced, traced, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread, set before NumPy loads: the workloads are one
    # client on one core.  On the 2-core reference machine two OpenBLAS
    # threads made fig1a slower (8.0 s against 4.8 s), as its 32-row
    # batches are too small to split.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "cpdlab" / "__init__.py").is_file():
        print(f"error: no cpdlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import cpdlab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: cpdlab was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import tracing, workloads

    if args.setup_only:
        workloads.setup(args.workload, Path(args.setup_only), args.seed)
        print("ready", flush=True)
        return 0

    # Passes and set-up processes share one CPU, so that the speed factor
    # measured in the passes also holds for set-up.
    cpu = _current_cpu()
    os.sched_setaffinity(0, {cpu})
    workdir = OUTPUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    setup_times = []
    try:
        if not args.trace:
            setup_times += measure_setup(args.workload, args.seed, workdir / "setup")
        workload = workloads.setup(args.workload, workdir, args.seed)
        untraced, traced, tracer = measure(cli, workload, args, tracing)
        leftover = tracing.installed_wrappers()
        if not args.trace:
            setup_times += measure_setup(args.workload, args.seed, workdir / "setup")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for plain, with_trace in zip(untraced, traced):
        for a, b in zip(plain.commands, with_trace.commands):
            if a.ok and b.ok and a.digest != b.digest:
                b.problems.append("traced report differs from the untraced one")
    results = [c for p in untraced + traced for c in p.commands]
    failed = sum(not c.ok for c in results)
    if leftover:
        print(f"error: wrappers left installed: {leftover}", file=sys.stderr)
        failed += 1

    lines = [f"perfbench {args.workload} seed {args.seed}: {len(untraced)} untraced and "
             f"{len(traced)} traced passes, {len(results)} commands, {failed} failed"]
    for c in results:
        state = "ok" if c.ok else "FAILED: " + "; ".join(c.problems)
        if c.claims_missed and c.ok:
            state += " (claim missed: " + "; ".join(c.claims_missed) + ")"
        lines.append(f"  {c.name:<28} {c.latency:9.4f} s  {state}")
    lines += digest_lines(args.workload, args.seed, untraced[0])
    if args.record_digests:
        record_digests(args.workload, args.seed, untraced[0])

    if tracer:
        units = tracing.layer_metric_units()
        values = tracer.layer_metrics(passes=len(traced))
        untraced_wall = statistics.median(p.wall_ref for p in untraced)
        traced_wall = statistics.median(p.wall_ref for p in traced)
        values["trace.untraced_wall_ref_s"] = untraced_wall
        values["trace.traced_wall_ref_s"] = traced_wall
        values["trace.overhead_ref_s"] = traced_wall - untraced_wall
        values["trace.speed_factor"] = speed_factor(traced)
        named = {}
    else:
        units = END_TO_END
        values = end_to_end(untraced, setup_times)
        named = named_metrics(workload, untraced)
        named["wall_s"] = statistics.median(p.wall for p in untraced)
        named["setup_raw_s"] = statistics.median(setup_times)
        named["speed_factor"] = speed_factor(untraced)
        named["error_rate"] = failed / len(results)
        named["claims_missed"] = sum(len(c.claims_missed) for c in results)
    for name, value in {**values, **named}.items():
        lines.append(f"{name} = {value:.6g} {units.get(name, '')}".rstrip())

    OUTPUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.write(OUTPUT / "results" / f"{stem}.spans.jsonl.gz")
    record = {
        "workload": args.workload, "machine": machine(args.seed),
        "metrics": values, "named": named,
        "passes": [{"traced": traced_pass, "commands": [
            {"name": c.name, "latency_s": c.latency, "ref_s": c.ref, "problems": c.problems,
             "claims_missed": c.claims_missed, "sha256": c.digest} for c in p.commands]}
            for traced_pass, group in ((False, untraced), (True, traced)) for p in group],
    }
    (OUTPUT / "results" / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    lines.append("machine: " + ", ".join(f"{k} {v}" for k, v in record["machine"].items()))
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
