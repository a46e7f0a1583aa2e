"""Print the ROADMAP baseline table, re-measured from traced benchmark runs.

    python3 perfbench/baseline.py

Reads the results files that ``run.py`` wrote to ``.perfbench_work/results``
and prints Markdown: per-call times of
the ROADMAP stages beside the ROADMAP's numbers.  Times come from traced
ops, so they include the wrappers' cost; the overhead ratio is printed too.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

# (stage, span name, ROADMAP value at n=625, ROADMAP value at n=4096).  The
# n=625 numbers come from search-restarts, n=4096 from generate-4096.
STAGES = (
    ("`build_design`", "construct.build_design", "156 ms", "3.85 s"),
    ("`full_report`", "verify.full_report", "274 ms", "7.4 s"),
    ("`check_projections`", "verify.check_projections", "35 ms", "0.56 s"),
    ("`check_coupling`", "verify.check_coupling", "101 ms", "1.9 s"),
    ("CL2 (`centered_l2_discrepancy`)", "criteria.centered_l2_discrepancy", "309 ms", "not run"),
)
N625, N4096, N125 = "search-restarts", "generate-4096", "search-swap"
SWAP_RESTARTS, SWAP_STEPS = 2, 100
RESULTS = Path(__file__).resolve().parent.parent / ".perfbench_work" / "results"


def load(directory: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        runs.setdefault(record["provenance"]["workload"], []).append(record)
    return runs


def per_call(records: list[dict], span: str) -> float | None:
    calls = sum(r["span_totals"].get(span, {}).get("calls", 0) for r in records)
    total = sum(r["span_totals"].get(span, {}).get("inclusive_s", 0.0) for r in records)
    return total / calls if calls else None


def fmt(seconds: float | None) -> str:
    if seconds is None:
        return "not measured"
    return f"{seconds * 1e3:.0f} ms" if seconds < 1 else f"{seconds:.2f} s"


def main() -> int:
    runs = load(RESULTS)
    traced = {w: [r for r in rs if r["provenance"]["trace"] == 1] for w, rs in runs.items()}
    plain = {w: [r for r in rs if r["provenance"]["trace"] == 0] for w, rs in runs.items()}
    out = print
    out("| stage | n=625 ROADMAP | n=625 now | n=4096 ROADMAP | n=4096 now |")
    out("| --- | --- | --- | --- | --- |")
    for label, span, road625, road4096 in STAGES:
        now625 = fmt(per_call(traced.get(N625, []), span))
        now4096 = fmt(per_call(traced.get(N4096, []), span)) if road4096 != "not run" else "not run"
        out(f"| {label} | {road625} | {now625} | {road4096} | {now4096} |")
    climb = per_call(traced.get(N125, []), "criteria.optimize_d2")
    per_100 = None if climb is None else climb / SWAP_RESTARTS * 100 / SWAP_STEPS
    out(f"| swap climbing per 100 steps, n=125 | about 1.05 s | {fmt(per_100)} | | |")
    out("")
    rss = [r["peak_rss_mb"] for r in plain.get(N625, [])]
    out(
        "The ROADMAP's 316 MB (maximin) and 469 MB (CL2) at n=625 are `tracemalloc` peaks: "
        "bytes held by Python's allocator during one call.  `peak_rss_mb` is a different measure, "
        "the resident-set high-water mark (`ru_maxrss`) of the whole process over a run; on "
        f"{N625} its median is "
        + (f"{statistics.median(rss):.0f} MB over {len(rss)} untraced runs." if rss else "not measured here.")
    )
    out("")
    out("Times are raw wall-clock means per call over every traced op, not calibration-scaled.  Sources:")
    out("")
    for workload in (N625, N4096, N125):
        records = traced.get(workload, [])
        if not records:
            continue
        prov = records[0]["provenance"]
        ratio = statistics.median(r["result"]["metrics"]["trace.overhead_ratio"]["value"] for r in records)
        seeds = sorted(r["provenance"]["workload_seed"] for r in records)
        ops = sum(r["traced_ops"] for r in records)
        out(
            f"- {workload}: seeds {seeds}, {ops} traced ops, tracing overhead ratio "
            f"{ratio:.3f}; Python {prov['python']}, numpy {prov['numpy']}, nproc {prov['nproc']}, "
            f"{prov['cpu_model']}, source sha256 {prov['source_sha256'][:12]}, git {prov['git_commit']}."
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
