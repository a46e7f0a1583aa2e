"""Benchmark of the ``dcd`` command, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``dcdesign`` from
``src/`` (pure Python, nothing to build).  Set-up is timed in fresh
interpreters; ops then run in this process, back to back, until their
summed time reaches S seconds (and, untraced, at least MIN_OPS ops).  Op
times are scaled by a calibration kernel timed around each op (see
CALIBRATION_REFERENCE_S).  Outputs are checked afterwards, outside the
timed region.  The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
A results file with provenance, per-op records and per-function span
totals goes to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import oracle
import spans
from workloads import WORKLOADS, corpus_files

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Fresh-interpreter set-ups per run; set-up_s is their median.  The corpus
# set-up writes 4 designs, so it gets fewer repeats.
SETUP_REPEATS = {"verify-corpus": 3}
DEFAULT_SETUP_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 120
# The timed set-up child: a fresh interpreter and ``import dcdesign.cli``,
# which every dcd call pays.  argv: src dir, perfbench dir, workload, seed,
# inputs dir.  A workload with inputs then writes them; only then does the
# child import any of the benchmark's own modules.
SETUP_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
import dcdesign.cli
"""
PREPARE_INPUTS = """\
from pathlib import Path
sys.path.insert(0, sys.argv[2])
import workloads
workloads.prepare(workloads.WORKLOADS[sys.argv[3]], int(sys.argv[4]), Path(sys.argv[5]))
"""

# The host's speed drifts by up to about +-20% over tens of seconds to
# minutes, for every process alike: over ten runs, raw median op times
# spread (quartiles) by up to 32%, calibrated ones by up to 12% (see
# README.md).  A fixed calibration kernel timed before and after every op
# and every set-up sample measures the drift.  Reported op and set-up times are scaled to a machine on which the
# kernel takes CALIBRATION_REFERENCE_S, its typical time on the 2-vCPU Xeon
# host where the benchmark was defined.  Raw times and calibrations stay in
# the results file.
CALIBRATION_REFERENCE_S = 0.15
# Untraced runs time at least this many ops, so that the median has a
# middle even when one op outlasts --seconds.
MIN_OPS = 3

# name -> (unit, better); BENCHMARK.json lists the same names.
END_TO_END = {
    "latency_p50_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
PER_LAYER = {
    "gf.fields_built": ("count/op", "lower"),
    "gf.self_s": ("s/op", "lower"),
    "oabuild.arrays_built": ("count/op", "lower"),
    "oabuild.self_s": ("s/op", "lower"),
    "construct.inputs_s": ("s/op", "lower"),
    "construct.constructions": ("count/op", "lower"),
    "construct.self_s": ("s/op", "lower"),
    "arrays.level_expand_s": ("s/op", "lower"),
    "arrays.oa_checks": ("count/op", "lower"),
    "arrays.oa_check_s": ("s/op", "lower"),
    "arrays.grid_checks": ("count/op", "lower"),
    "arrays.grid_s": ("s/op", "lower"),
    "verify.coupling_s": ("s/op", "lower"),
    "verify.projections_s": ("s/op", "lower"),
    "verify.projection_checks": ("count/op", "lower"),
    "verify.witness_s": ("s/op", "lower"),
    "verify.stratification_s": ("s/op", "lower"),
    "verify.croa_s": ("s/op", "lower"),
    "verify.full_reports": ("count/op", "lower"),
    "criteria.evaluations": ("count/op", "lower"),
    "criteria.maximin_s": ("s/op", "lower"),
    "criteria.cl2_s": ("s/op", "lower"),
    "criteria.search_self_s": ("s/op", "lower"),
    "criteria.accepted_ratio": ("ratio", "higher"),
    "criteria.maximin_best": ("1", "higher"),
    "criteria.cl2_best": ("1", "lower"),
    "bundle.write_s": ("s/op", "lower"),
    "bundle.bytes_written": ("B/op", "lower"),
    "bundle.read_s": ("s/op", "lower"),
    "bundle.bytes_read": ("B/op", "lower"),
    "cli.self_s": ("s/op", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


@dataclass
class Op:
    seed: int
    tag: str
    seconds: float = 0.0
    calibration_s: float = CALIBRATION_REFERENCE_S
    rcs: list = field(default_factory=list)
    expected_rcs: list = field(default_factory=list)
    stdout: str = ""
    error: str | None = None
    outputs: list = field(default_factory=list)  # Calls that write a bundle
    sha256: list = field(default_factory=list)  # of each output, once checked
    winner: tuple | None = None  # (criterion, value) of an optimize call
    layers: dict | None = None
    stats: dict | None = None
    swaps: tuple = (0, 0)
    problems: list = field(default_factory=list)

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * CALIBRATION_REFERENCE_S / self.calibration_s

    def digest(self) -> str:
        h = hashlib.sha256(json.dumps(self.rcs).encode())
        h.update(b"" if self.outputs else self.stdout.encode())
        for sha in self.sha256:
            h.update(sha.encode())
        return h.hexdigest()


class Calibration:
    """Times a fixed mix of the three kinds of work dcd ops do, about a
    third each: interpreter loops, numpy calls on small arrays, and in-place
    passes over a 4 MB array, allocated once.  The code never changes, so
    its time tracks only the machine."""

    def __init__(self):
        import numpy as np

        self._rows = np.arange(625)
        self._big = np.arange(500_000, dtype=np.float64)
        self.seconds()  # fault in the buffer and warm the caches

    def seconds(self) -> float:
        import numpy as np

        start = time.perf_counter()
        total = 0
        for i in range(550_000):
            total += i * i % 7
        for i in range(4_800):
            total += int(np.bincount((self._rows * 7 + i) % 125, minlength=125).min())
        big = self._big
        for _ in range(135):
            np.subtract(big, 0.5, out=big)
            np.abs(big, out=big)
        return time.perf_counter() - start


def _cli():
    return importlib.import_module("dcdesign.cli")


def run_op(workload, seed: int, tag: str, run_dir: Path, inputs: Path, tracer=None) -> Op:
    """One op: its dcd calls, timed together; nothing is checked here.  An
    op that raises keeps the time it ran, but no metric uses it."""
    op = Op(seed=seed, tag=tag)
    calls = workload.calls(seed, run_dir / f"op{seed}-{tag}.json", inputs)
    op.expected_rcs = [call.expected_rc for call in calls]
    out = io.StringIO()
    try:
        try:
            if tracer is not None:
                tracer.install()
            with contextlib.redirect_stdout(out):
                start = time.perf_counter()
                try:
                    for call in calls:
                        op.rcs.append(_cli().main(call.argv))
                finally:
                    op.seconds = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.restore()
    except Exception:
        op.error = traceback.format_exc()
        print(op.error, file=sys.stderr)
        return op
    op.stdout = out.getvalue()
    op.outputs = [call for call in calls if call.output is not None]
    if tracer is not None:
        op.layers = spans.op_layer_metrics(tracer.spans, tracer.counters)
        op.swaps = spans.swap_acceptance(tracer.spans)
        op.stats = spans.name_stats(tracer.spans)
        tracer.reset()
    return op


def _winner_value(data: dict, criterion: str, d2) -> tuple[float, list[str]]:
    """The stored winner's score, replaying optimize_d2's tie rule, checked
    against the library criterion (exactly) and the oracle's (closely)."""
    from dcdesign.criteria import CRITERIA, TIE_TOLERANCE, score

    trajectory = data["metadata"]["trajectory"]
    sense = CRITERIA[criterion]
    best = 0
    for r in range(1, len(trajectory)):
        gap = trajectory[r] - trajectory[best]
        if (gap > TIE_TOLERANCE) if sense == "maximize" else (gap < -TIE_TOLERANCE):
            best = r
    value = trajectory[best]
    problems = []
    library = score(d2, criterion).value
    if library != value:
        problems.append(f"trajectory best {value!r} != score of saved d2 {library!r}")
    independent = oracle.CRITERIA[criterion](d2)
    if abs(independent - value) > 1e-9 * abs(value):
        problems.append(f"trajectory best {value!r} != oracle {criterion} {independent!r}")
    return value, problems


def check_op(op: Op) -> None:
    """Exit codes, output bundles (oracle, digest, search winner)."""
    if op.error is not None:
        op.problems.append("raised an exception")
        return
    if op.rcs != op.expected_rcs:
        op.problems.append(f"exit codes {op.rcs} != expected {op.expected_rcs}")
    for call in op.outputs:
        if not call.output.is_file():
            op.problems.append(f"{call.output.name} was not written")
            continue
        raw = call.output.read_bytes()
        op.sha256.append(hashlib.sha256(raw).hexdigest())
        try:
            s, d1, d2, data = oracle.parse(raw.decode())
        except (ValueError, KeyError, TypeError) as exc:
            op.problems.append(f"{call.output.name}: unparsable bundle ({exc})")
            continue
        op.problems += [f"{call.output.name}: oracle: {name}" for name in oracle.check(s, d1, d2)]
        if call.criterion is not None:
            try:
                value, problems = _winner_value(data, call.criterion, d2)
            except (KeyError, TypeError, IndexError) as exc:
                op.problems.append(f"{call.output.name}: no usable search trajectory ({exc!r})")
                continue
            op.winner = (call.criterion, value)
            op.problems += problems


def check_corpus(inputs: Path) -> list[str]:
    """Every untouched corpus bundle passes the oracle; every tampered one
    stays a Latin hypercube and fails it."""
    problems = []
    for path, rc in corpus_files(inputs):
        s, d1, d2, _ = oracle.parse(path.read_text())
        failed = oracle.check(s, d1, d2)
        if rc == 0 and failed:
            problems.append(f"{path.name}: untouched bundle fails the oracle: {failed}")
        if rc == 1 and (not failed or "d2 Latin hypercube" in failed):
            problems.append(f"{path.name}: tampered bundle is not a coupling-breaking Latin hypercube: {failed}")
    return problems


def _tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(directory)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def measure_setup(workload, seed: int, run_dir: Path, calibration) -> tuple[list[dict], Path, list[str]]:
    """Time fresh interpreters from start to a ready state: import
    dcdesign.cli and write the workload's inputs.  Each sample carries the
    calibration timed around it.  All repeats must write identical bytes;
    the first one's inputs are used by the ops."""
    samples, digests = [], []
    repeats = SETUP_REPEATS.get(workload.name, DEFAULT_SETUP_REPEATS)
    code = SETUP_CHILD + (PREPARE_INPUTS if workload.has_inputs else "")
    before = calibration.seconds()
    for r in range(repeats):
        inputs = run_dir / f"setup{r}"
        cmd = [sys.executable, "-c", code, str(SRC), str(HERE), workload.name, str(seed), str(inputs)]
        start = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, cwd=ROOT)
        # wait() without a timeout blocks in waitpid; with one it polls in
        # steps of up to 50 ms, which would quantize the sample.
        watchdog = threading.Timer(SUBPROCESS_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            rc = child.wait()
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
        if rc != 0:
            raise subprocess.CalledProcessError(rc, cmd)
        after = calibration.seconds()
        samples.append({"seconds": elapsed, "calibration_s": (before + after) / 2})
        before = after
        inputs.mkdir(parents=True, exist_ok=True)
        digests.append(_tree_digest(inputs))
        if r:
            shutil.rmtree(inputs)
    problems = [] if len(set(digests)) == 1 else ["set-up repeats wrote different inputs for one seed"]
    return samples, run_dir / "setup0", problems


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _tree_digest(SRC / "dcdesign"),
        "workload": args.workload,
        "workload_seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _metric(table: dict, name: str, value) -> dict:
    return {"value": value, "unit": table[name][0]}


def layer_metrics(untraced: list[Op], traced: list[Op]) -> dict:
    values = spans.merge_ops([op.layers for op in traced])
    proposed = sum(op.swaps[0] for op in traced)
    accepted = sum(op.swaps[1] for op in traced)
    values["criteria.accepted_ratio"] = accepted / proposed if proposed else 0.0
    for criterion in ("maximin", "cl2"):
        won = [op.winner[1] for op in traced if op.winner and op.winner[0] == criterion]
        values[f"criteria.{criterion}_best"] = statistics.median(won) if won else 0.0
    values["trace.overhead_ratio"] = (
        statistics.median(op.scaled_seconds for op in traced) / statistics.median(op.scaled_seconds for op in untraced)
    )
    return {name: _metric(PER_LAYER, name, values[name]) for name in PER_LAYER}


def measure(args) -> tuple[dict, dict]:
    import dcdesign.cli  # noqa: F401  (fails early; compiles bytecode before set-up is timed)

    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        calibration = Calibration()
        setup_samples, inputs, problems = measure_setup(workload, args.seed, run_dir, calibration)
        untraced, traced = [], []
        timed = 0.0
        k = 0
        # With tracing on, each seed runs untraced and traced, alternating
        # which goes first: the pair gives the tracing overhead and must
        # produce identical bytes.
        before = calibration.seconds()
        min_ops = 1 if args.trace else MIN_OPS
        raised = False  # the run is then incorrect; it measures no further
        while not raised and (len(untraced) < min_ops or timed < args.seconds):
            order = (None, spans.Tracer()) if k % 2 == 0 else (spans.Tracer(), None)
            for tracer in order if args.trace else (None,):
                tag = "plain" if tracer is None else "traced"
                op = run_op(workload, args.seed + k, tag, run_dir, inputs, tracer)
                after = calibration.seconds()
                op.calibration_s = (before + after) / 2
                before = after
                (untraced if tracer is None else traced).append(op)
                timed += op.seconds
                if op.error is not None:
                    raised = True
                    break
            k += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            pairs = list(zip(untraced, traced))
            ops = untraced + traced
        elif raised:
            pairs, ops = [], untraced
        else:
            again = run_op(workload, args.seed, "again", run_dir, inputs)
            pairs = [(untraced[0], again)]
            ops = untraced + [again]
        for op in ops:
            check_op(op)
        for first, second in pairs:
            if first.error is None and second.error is None and first.digest() != second.digest():
                second.problems.append(f"seed {second.seed} gave different output on a second run")
        if workload.name == "verify-corpus":
            problems += check_corpus(inputs)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(1 for op in ops if op.problems)
    # Metrics come from ops that ran to the end; the others count as failed.
    untraced = [op for op in untraced if op.error is None]
    traced = [op for op in traced if op.error is None]
    if not untraced or (args.trace and not traced):
        raise RuntimeError(f"{failed} of {len(ops)} ops failed and none is left to measure")
    latencies = [op.scaled_seconds for op in untraced]
    if args.trace:
        metrics = layer_metrics(untraced, traced)
    else:
        values = {
            "latency_p50_s": statistics.median(latencies),
            "ops_per_s": len(latencies) / sum(latencies),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(
                sample["seconds"] * CALIBRATION_REFERENCE_S / sample["calibration_s"] for sample in setup_samples
            ),
        }
        metrics = {name: _metric(END_TO_END, name, values[name]) for name in END_TO_END}
    result = {"correct": failed == 0 and not problems, "attempted": len(ops), "failed": failed, "metrics": metrics}
    stats: dict[str, dict] = {}
    for op in traced:
        for name, entry in op.stats.items():
            total = stats.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            for key in total:
                total[key] += entry[key]
    record = {
        "provenance": provenance(args),
        "result": result,
        "failed_ops_ratio": failed / len(ops),
        "peak_rss_mb": peak_rss_mb,
        "setup_s_samples": setup_samples,
        "problems": problems,
        "ops": [
            {
                "seed": op.seed,
                "tag": op.tag,
                "seconds": op.seconds,
                "calibration_s": op.calibration_s,
                "rcs": op.rcs,
                "sha256": op.sha256,
                "winner": op.winner,
                "problems": op.problems,
            }
            for op in ops
        ],
        "traced_ops": len(traced),
        "span_totals": stats,
    }
    return result, record


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dcdesign" / "__init__.py").is_file():
        print(f"no dcdesign sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, record = measure(args)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
