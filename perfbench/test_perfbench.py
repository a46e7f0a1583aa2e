"""Tests of the benchmark's own logic: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
import spans
import workloads
from dcdesign.construct import DesignFamily, build_design
from dcdesign.criteria import centered_l2_discrepancy, maximin_distance
from dcdesign.design import CoupledDesign
from dcdesign.verify import check_projections

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    inputs = tmp_path_factory.mktemp("corpus")
    workloads.prepare(workloads.WORKLOADS["verify-corpus"], 7, inputs)
    return inputs


def test_tampered_bundles_stay_latin_fail_the_oracle_and_exit_1(corpus):
    files = workloads.corpus_files(corpus)
    assert [rc for _, rc in files] == [0, 1] * len(workloads.CORPUS)
    for path, rc in files:
        s, d1, d2, _ = oracle.parse(path.read_text())
        assert (np.sort(d2, axis=0) == np.arange(d2.shape[0])[:, None]).all()
        failed = oracle.check(s, d1, d2)
        if rc == 0:
            assert failed == []
        else:
            assert failed and all(name.startswith("condition") for name in failed)
        assert workloads.run_cli(["verify", str(path)]) == rc
    assert run.check_corpus(corpus) == []


def test_oracle_agrees_with_library_verdicts_on_swapped_entries():
    design = build_design(DesignFamily(method="c2", s=3, q=3, p=3, lam=3), seed=5)
    rng = np.random.default_rng(0)
    verdicts = []
    for trial in range(40):
        d2 = design.d2.copy()
        k = int(rng.integers(d2.shape[1]))
        i = int(rng.integers(d2.shape[0]))
        # Half the swaps stay inside one collapsed class, so some keep coupling.
        pool = np.flatnonzero(d2[:, k] // 3 == d2[i, k] // 3) if trial % 2 else np.arange(d2.shape[0])
        j = int(rng.choice(pool[pool != i]))
        d2[[i, j], k] = d2[[j, i], k]
        ours = oracle.check(3, design.d1, d2) == []
        assert ours == check_projections(CoupledDesign(d1=design.d1, d2=d2, s=3)).passed
        verdicts.append(ours)
    assert set(verdicts) == {True, False}


def test_self_time_subtracts_direct_children_only():
    trace = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["verify.full_report", 1.0, 4.0, 0, None],
        ["arrays.is_orthogonal_array", 2.0, 3.0, 1, None],
        ["verify.check_mcd", 5.0, 9.0, 0, None],
        ["verify.check_mcd", 6.0, 7.5, 3, None],
    ]
    assert spans.self_times(trace) == [3.0, 2.0, 1.0, 2.5, 1.5]
    stats = spans.name_stats(trace)
    assert stats["verify.check_mcd"] == {"calls": 2, "inclusive_s": 4.0, "self_s": 4.0}
    assert stats["cli.main"]["inclusive_s"] == 10.0
    layers = spans.op_layer_metrics(trace, {})
    assert layers["cli.self_s"] == 3.0
    assert layers["arrays.oa_checks"] == 1 and layers["arrays.oa_check_s"] == 1.0
    assert sum(spans.self_times(trace)) == 10.0


def test_swap_acceptance_replays_each_restart():
    def score(value, parent):
        return ["criteria.score", 0.0, 0.0, parent, (value, "maximize")]

    trace = [
        ["criteria.optimize_d2", 0.0, 1.0, -1, None],
        ["construct.sample_family_plan", 0.0, 0.0, 0, None],
        score(1.0, 0), score(1.5, 0), score(1.2, 0), score(1.5 + 1e-13, 0),
        ["construct.sample_family_plan", 0.0, 0.0, 0, None],
        score(0.5, 0), score(0.7, 0),
        score(9.0, -1),  # the command's final score, outside the search
    ]
    assert spans.swap_acceptance(trace) == (4, 2)


def _bindings():
    import dcdesign

    found = {}
    for key, module in sys.modules.items():
        if key == "dcdesign" or key.startswith("dcdesign."):
            found.update({(key, name): value for name, value in vars(module).items()})
    found["GaloisField.__init__"] = dcdesign.GaloisField.__dict__["__init__"]
    return found


def test_traced_op_counts_and_every_name_is_restored(tmp_path):
    before = _bindings()
    with spans.Tracer() as tracer:
        import dcdesign.verify

        assert dcdesign.verify.is_orthogonal_array is not before[("dcdesign.arrays", "is_orthogonal_array")]
        argv = ["optimize", "--method", "c1", "--s", "3", "--lambda", "3", "--criterion", "maximin",
                "--restarts", "2", "--swap-steps", "10", "--seed", "4", "-o", str(tmp_path / "b.json")]
        assert workloads.run_cli(argv) == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    layers = spans.op_layer_metrics(tracer.spans, tracer.counters)
    assert layers["construct.constructions"] == layers["gf.fields_built"] == 2 * (10 + 1)
    assert layers["criteria.evaluations"] == 2 * (10 + 1) + 1
    assert layers["verify.full_reports"] == 1
    assert layers["bundle.bytes_written"] == (tmp_path / "b.json").stat().st_size
    assert spans.swap_acceptance(tracer.spans)[0] == 20


def test_oracle_criteria_match_the_library():
    rng = np.random.default_rng(3)
    d2 = np.column_stack([rng.permutation(90) for _ in range(4)])
    assert oracle.maximin(d2) == pytest.approx(maximin_distance(d2), rel=1e-12)
    assert oracle.cl2(d2) == pytest.approx(centered_l2_discrepancy(d2), rel=1e-12)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "search-swap", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_an_op_that_raises_keeps_its_time_and_error(tmp_path, monkeypatch):
    class Broken:
        @staticmethod
        def main(argv):
            time.sleep(0.01)
            raise ValueError("broken")

    monkeypatch.setattr(run, "_cli", lambda: Broken)
    op = run.run_op(workloads.WORKLOADS["search-swap"], 1, "plain", tmp_path, tmp_path, spans.Tracer())
    assert op.seconds >= 0.01 and "ValueError" in op.error and op.layers is None
    run.check_op(op)
    assert op.problems == ["raised an exception"]
