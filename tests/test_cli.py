import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcdesign.arrays import make_oa
from dcdesign.bundle import load_bundle
from dcdesign.cli import main
from dcdesign.construct import DesignFamily, build_design, regular_inputs
from dcdesign.criteria import score
from dcdesign.gf import GaloisField
from dcdesign.oabuild import load_oa, save_oa
from dcdesign.rng import derive_seed

import oracles
import refdesigns as ref


def write_reference_files(tmp_path):
    d1_path = tmp_path / "d1.oa"
    rows = "\n".join(" ".join(map(str, r)) for r in ref.D1_8RUN)
    d1_path.write_text(f"8 2 2 2\n{rows}\n")
    d2_path = tmp_path / "d2.txt"
    d2_path.write_text("\n".join(" ".join(map(str, r)) for r in ref.D2_8RUN) + "\n")
    return d1_path, d2_path


def test_generate_and_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "d.json"
    assert main(["generate", "--method", "c3-case2", "--s", "2", "--u", "3", "--seed", "7", "-o", str(out)]) == 0
    assert main(["verify", str(out), "--omega", "2"]) == 0
    design, data = load_bundle(out)
    assert design.n == 8 and design.q == 2 and design.p == 4
    assert data["metadata"]["method"] == "c3-case2"
    assert data["metadata"]["plan_digest"].startswith("sha256:")


def test_generate_counts_the_achieved_stratifications(tmp_path, capsys):
    """The printed count is the passing grids among all those tried, here
    some but not all of them (441 of 459)."""
    out = tmp_path / "d.json"
    assert main(["generate", "--method", "c3-case2", "--s", "3", "--u", "4", "--seed", "5", "-o", str(out)]) == 0
    checks = oracles.stratification_report(load_bundle(out)[0]).stratification
    achieved = sum(c.passed for c in checks)
    assert 0 < achieved < len(checks)
    assert f"grid stratifications achieved: {achieved}/{len(checks)}\n" in capsys.readouterr().out


def test_generate_minimal_four_run_design(tmp_path):
    out = tmp_path / "tiny.json"
    code = main(["generate", "--method", "c1", "--s", "2", "--lambda", "1", "--q", "2", "--p", "1", "--seed", "1", "-o", str(out)])
    assert code == 0
    design, _ = load_bundle(out)
    assert design.n == 4 and design.p == 1


def test_generate_rejects_too_many_factors(tmp_path, capsys):
    code = main(["generate", "--method", "c1", "--s", "3", "--q", "4", "--seed", "1", "-o", str(tmp_path / "x.json")])
    assert code == 3
    assert "q <= s" in capsys.readouterr().err


def test_verify_reference_files_pass(tmp_path):
    d1_path, d2_path = write_reference_files(tmp_path)
    assert main(["verify", str(d1_path), str(d2_path), "--omega", "2"]) == 0


def test_verify_counterexample_fails_with_pair_condition(tmp_path, capsys):
    d1_path, _ = write_reference_files(tmp_path)
    d2_path = tmp_path / "d2a.txt"
    d2_path.write_text("\n".join(" ".join(map(str, r)) for r in ref.D2_8RUN_SINGLE_ONLY) + "\n")
    assert main(["verify", str(d1_path), str(d2_path), "--omega", "2"]) == 1
    out = capsys.readouterr().out
    assert "factor-pair balance: FAIL" in out
    assert "single-factor balance: pass" in out


def test_negative_omega_is_a_usage_error_not_a_pass(tmp_path, capsys):
    d1_path, _ = write_reference_files(tmp_path)
    d2_path = tmp_path / "d2b.txt"
    d2_path.write_text("\n".join(" ".join(map(str, r)) for r in ref.D2_8RUN_PAIR_ONLY) + "\n")
    assert main(["verify", str(d1_path), str(d2_path), "--omega", "1"]) == 1
    assert "single-factor balance: FAIL" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(d1_path), str(d2_path), "--omega", "-1"])
    assert exc.value.code == 2
    assert "--omega must be at least 0" in capsys.readouterr().err


def test_verify_rejects_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == 2


def test_verify_detects_tampered_bundle(tmp_path):
    out = tmp_path / "d.json"
    assert main(["generate", "--method", "c1", "--s", "2", "--q", "2", "--p", "2", "--seed", "3", "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    data["d2"][0][0] = data["d2"][1][0]  # duplicate a level, no longer a hypercube
    out.write_text(json.dumps(data))
    assert main(["verify", str(out)]) == 1


def test_optimize_single_restart_matches_generate(tmp_path):
    opt = tmp_path / "opt.json"
    gen = tmp_path / "gen.json"
    args = ["--method", "c1", "--s", "3", "--lambda", "3", "--q", "3", "--p", "3"]
    assert main(["optimize", *args, "--criterion", "maximin", "--restarts", "1", "--seed", "3", "-o", str(opt)]) == 0
    child = derive_seed(3, 0)
    assert main(["generate", *args, "--seed", str(child), "-o", str(gen)]) == 0
    a, _ = load_bundle(opt)
    b, _ = load_bundle(gen)
    assert np.array_equal(a.d2, b.d2)


def test_optimize_with_swap_climbing(tmp_path):
    out = tmp_path / "opt.json"
    args = ["--method", "c2", "--s", "2", "--lambda", "2", "--q", "2", "--p", "2"]
    code = main(["optimize", *args, "--criterion", "cl2", "--restarts", "3", "--swap-steps", "10", "--seed", "7", "-o", str(out)])
    assert code == 0
    assert main(["verify", str(out)]) == 0


def test_optimize_trajectory_recorded(tmp_path):
    out = tmp_path / "opt.json"
    args = ["--method", "c1", "--s", "3", "--lambda", "3", "--q", "3", "--p", "3"]
    assert main(["optimize", *args, "--criterion", "maximin", "--restarts", "20", "--seed", "5", "-o", str(out)]) == 0
    _, data = load_bundle(out)
    trajectory = data["metadata"]["trajectory"]
    assert len(trajectory) == 20
    assert max(trajectory) >= float(np.median(trajectory))


def test_optimize_prints_the_saved_winners_score(tmp_path, capsys):
    out = tmp_path / "opt.json"
    args = ["--method", "c2", "--s", "2", "--lambda", "2", "--q", "2", "--p", "3"]
    assert main(["optimize", *args, "--criterion", "cl2", "--restarts", "4", "--seed", "2", "-o", str(out)]) == 0
    design, _ = load_bundle(out)
    best = score(design.d2, "cl2").value
    assert f"criterion cl2 (minimize): best {best:.6f} over 4 restarts" in capsys.readouterr().out


def test_export_csv_shape(tmp_path):
    bundle = tmp_path / "d.json"
    csv = tmp_path / "d.csv"
    assert main(["generate", "--method", "c3-case2", "--s", "2", "--u", "3", "--seed", "7", "-o", str(bundle)]) == 0
    assert main(["export", str(bundle), "--format", "csv", "-o", str(csv)]) == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "z1,z2,x1,x2,x3,x4"
    assert len(lines) == 9
    assert all(len(ln.split(",")) == 6 for ln in lines[1:])


def test_export_oa_text_round_trip(tmp_path):
    bundle = tmp_path / "d.json"
    oa_path = tmp_path / "d1.oa"
    assert main(["generate", "--method", "c2", "--s", "2", "--lambda", "2", "--q", "2", "--p", "2", "--seed", "2", "-o", str(bundle)]) == 0
    assert main(["export", str(bundle), "--format", "oa-text", "-o", str(oa_path)]) == 0
    design, _ = load_bundle(bundle)
    assert np.array_equal(load_oa(oa_path).matrix, design.d1)


def test_export_json_round_trip(tmp_path):
    bundle = tmp_path / "d.json"
    copy = tmp_path / "copy.json"
    assert main(["generate", "--method", "c1", "--s", "2", "--q", "2", "--p", "2", "--seed", "4", "-o", str(bundle)]) == 0
    assert main(["export", str(bundle), "--format", "json", "-o", str(copy)]) == 0
    a, _ = load_bundle(bundle)
    b, _ = load_bundle(copy)
    assert np.array_equal(a.d1, b.d1) and np.array_equal(a.d2, b.d2)


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--method", "c1", "--s", "2", "--q", "2", "--p", "2", "--seed", "4"],
        ["optimize", "--method", "c2", "--s", "2", "--lambda", "2", "--q", "2", "--p", "3", "--criterion", "cl2", "--restarts", "3", "--seed", "2"],
        ["generate", "--method", "c3-case1", "--s", "3", "--p", "0", "--seed", "1"],
    ],
    ids=["generate", "optimize", "c3-case1-p0"],
)
def test_export_json_reproduces_the_bundle_bytes(argv, tmp_path):
    bundle, copy = tmp_path / "d.json", tmp_path / "copy.json"
    assert main([*argv, "-o", str(bundle)]) == 0
    assert main(["export", str(bundle), "--format", "json", "-o", str(copy)]) == 0
    assert copy.read_bytes() == bundle.read_bytes()


EXPORT_INPUTS = {
    "c1": ["--method", "c1", "--s", "2", "--q", "2", "--p", "2", "--seed", "4"],
    "c3-case1-p0": ["--method", "c3-case1", "--s", "3", "--p", "0", "--seed", "1"],
    "unverified": None,
}


def export_input(name, tmp_path):
    """A bundle to export; "unverified" is the c1 bundle with a negative and
    an int64-extreme entry in d2, which only an unverified load accepts."""
    bundle = tmp_path / "d.json"
    assert main(["generate", *(EXPORT_INPUTS[name] or EXPORT_INPUTS["c1"]), "-o", str(bundle)]) == 0
    if EXPORT_INPUTS[name] is None:
        data = json.loads(bundle.read_text())
        data["d2"][0][0], data["d2"][1][1] = -1, 2**63 - 1
        bundle.write_text(json.dumps(data))
    return bundle


# a d2 that is not a Latin hypercube has no continuous export, and oa-text reads only d1
EXPORT_CASES = [(name, fmt) for name in EXPORT_INPUTS for fmt in ("csv", "csv-continuous", "json", "oa-text") if EXPORT_INPUTS[name] or fmt in ("csv", "json")]


@pytest.mark.parametrize("name, fmt", EXPORT_CASES)
def test_export_bytes_equal_the_per_entry_writers(name, fmt, tmp_path):
    bundle, out = export_input(name, tmp_path), tmp_path / "out"
    extra = ["--continuous", "--seed", "9"] if fmt == "csv-continuous" else []
    assert main(["export", str(bundle), "--format", fmt.split("-continuous")[0], *extra, "-o", str(out)]) == 0
    design, _ = load_bundle(bundle, verify=False)
    if fmt == "json":
        expected = oracles.bundle_text(json.loads(bundle.read_text()))
    elif fmt == "oa-text":
        expected = oracles.oa_text(make_oa(design.d1, design.s, min(2, design.q)))
    else:
        expected = oracles.csv_text(design, continuous=bool(extra), seed=9)
    assert out.read_text() == expected


def test_export_continuous_deterministic(tmp_path):
    bundle = tmp_path / "d.json"
    assert main(["generate", "--method", "c1", "--s", "2", "--q", "2", "--p", "2", "--seed", "4", "-o", str(bundle)]) == 0
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["export", str(bundle), "--format", "csv", "--continuous", "--seed", "9", "-o", str(c1)]) == 0
    assert main(["export", str(bundle), "--format", "csv", "--continuous", "--seed", "9", "-o", str(c2)]) == 0
    assert c1.read_bytes() == c2.read_bytes()
    values = [float(v) for v in c1.read_text().splitlines()[1].split(",")[2:]]
    assert all(0.0 <= v < 1.0 for v in values)


def test_export_continuous_of_a_d2_that_is_not_a_latin_hypercube_is_an_error(tmp_path, capsys):
    bundle = tmp_path / "d.json"
    assert main(["generate", "--method", "c1", "--s", "3", "--lambda", "3", "--seed", "0", "-o", str(bundle)]) == 0
    data = json.loads(bundle.read_text())
    data["d2"][0][0] = data["d2"][1][0]
    bundle.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["export", str(bundle), "--format", "csv", "--continuous", "-o", str(tmp_path / "x.csv")]) == 2
    assert "error: input is not a Latin hypercube" in capsys.readouterr().err


def test_env_seed_default(tmp_path, monkeypatch):
    monkeypatch.setenv("DCD_SEED", "13")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["generate", "--method", "c1", "--s", "2", "--q", "2", "--p", "2", "-o", str(a)]) == 0
    assert main(["generate", "--method", "c1", "--s", "2", "--q", "2", "--p", "2", "--seed", "13", "-o", str(b)]) == 0
    da, _ = load_bundle(a)
    db, _ = load_bundle(b)
    assert np.array_equal(da.d2, db.d2)


def test_generate_with_catalogue_inputs(tmp_path):
    from dcdesign.arrays import make_oa

    path = tmp_path / "a1.oa"
    save_oa(make_oa(ref.A1_9RUN, 3, 2), path)
    out = tmp_path / "d.json"
    code = main([
        "generate", "--method", "c1", "--s", "3", "--lambda", "3", "--q", "3", "--p", "2",
        "--oa", str(path), "--oa", str(path), "--oa", str(path), "--seed", "8", "-o", str(out),
    ])
    assert code == 0
    design, _ = load_bundle(out)
    assert design.n == 27


def test_single_catalogue_file_replicated_by_lambda(tmp_path):
    from dcdesign.arrays import make_oa

    path = tmp_path / "a1.oa"
    save_oa(make_oa(ref.A1_9RUN, 3, 2), path)
    out = tmp_path / "d.json"
    code = main([
        "generate", "--method", "c1", "--s", "3", "--lambda", "2", "--q", "3", "--p", "2",
        "--oa", str(path), "--seed", "8", "-o", str(out),
    ])
    assert code == 0
    design, _ = load_bundle(out)
    assert design.n == 18


def test_generate_rejects_wrong_catalogue_width(tmp_path, capsys):
    from dcdesign.arrays import make_oa

    path = tmp_path / "a1.oa"
    save_oa(make_oa(ref.A1_9RUN, 3, 2), path)
    code = main([
        "generate", "--method", "c1", "--s", "3", "--q", "2", "--p", "2",
        "--oa", str(path), "--seed", "8", "-o", str(tmp_path / "x.json"),
    ])
    assert code == 3
    assert "q+1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["--method", "c1", "--s", "2", "--q", "2", "--p", "3", "--lambda", "2"],
        ["--method", "c2", "--s", "3", "--q", "3", "--p", "2", "--lambda", "2"],
        ["--method", "c3-case1", "--s", "3", "--q", "2", "--p", "1"],
        ["--method", "c3-case2", "--s", "3", "--u", "4", "--q", "3", "--p", "5"],
    ],
)
def test_pipeline_round_trip_all_methods(args, tmp_path):
    out = tmp_path / "d.json"
    assert main(["generate", *args, "--seed", "42", "-o", str(out)]) == 0
    assert main(["verify", str(out)]) == 0


def test_custom_pool_generate(tmp_path):
    from dcdesign.arrays import make_oa

    a_path, b_path = tmp_path / "a.oa", tmp_path / "b.oa"
    save_oa(make_oa(ref.A_8RUN_POOL, 2, 2), a_path)
    save_oa(make_oa(ref.B_8RUN_COMPANION, 2, 1), b_path)
    out = tmp_path / "d.json"
    code = main([
        "generate", "--method", "c3-custom", "--s", "2", "--q", "2",
        "--a", str(a_path), "--b", str(b_path), "--select", "1,2", "--seed", "6", "-o", str(out),
    ])
    assert code == 0
    design, _ = load_bundle(out)
    assert np.array_equal(design.d1, ref.D1_8RUN)


def test_custom_method_defaults_q_to_pool_width(tmp_path):
    from dcdesign.arrays import make_oa

    a_path, b_path = tmp_path / "a.oa", tmp_path / "b.oa"
    save_oa(make_oa(ref.A_8RUN_POOL, 2, 2), a_path)
    save_oa(make_oa(ref.B_8RUN_COMPANION, 2, 1), b_path)
    out = tmp_path / "d.json"
    code = main(["generate", "--method", "c3-custom", "--s", "2", "--a", str(a_path), "--b", str(b_path), "--seed", "1", "-o", str(out)])
    assert code == 0
    design, _ = load_bundle(out)
    assert design.q == 2


def test_custom_pool_whose_levels_are_not_s_is_infeasible(tmp_path, capsys):
    """The 2-level linear-column pair under --s 3, and a pool with 2- and
    4-level columns under --s 2: refused before any plan is drawn."""
    a, b = regular_inputs(GaloisField(2), 3)
    paths = {name: tmp_path / f"{name}.oa" for name in ("a", "b", "mixed", "half")}
    save_oa(a, paths["a"])
    save_oa(b, paths["b"])
    save_oa(make_oa([[i, j] for i in range(2) for j in range(4)], (2, 4), 2), paths["mixed"])
    save_oa(make_oa(np.repeat([[0], [1]], 4, axis=0), 2, 1), paths["half"])
    out = str(tmp_path / "d.json")
    for pool, companion, s, levels in (("a", "b", "3", "2"), ("mixed", "half", "2", "2/4")):
        capsys.readouterr()
        assert main(["generate", "--method", "c3-custom", "--s", s, "--a", str(paths[pool]), "--b", str(paths[companion]), "-o", out]) == 3
        assert f"pool columns have {levels} levels, not s={s}" in capsys.readouterr().err


def test_mixed_level_strength3_array_exits_two(tmp_path, capsys):
    """OA(64, 5, (4,4,4,4,2), 3) has verified strength 3, but its 2-level
    column cannot serve as a 4-level companion column: the split refuses it
    before any construction."""
    from dcdesign.arrays import make_oa
    from dcdesign.gf import GaloisField
    from dcdesign.oabuild import bush_oa

    g = bush_oa(GaloisField(4), 3).matrix.copy()
    g[:, 4] //= 2
    g_path, out = tmp_path / "g.oa", tmp_path / "d.json"
    save_oa(make_oa(g, (4, 4, 4, 4, 2), 3), g_path)
    assert main(["generate", "--method", "c3-case1", "--s", "4", "--q", "2", "--g", str(g_path), "-o", str(out)]) == 2
    assert "must all have 4 levels" in capsys.readouterr().err
    assert not out.exists()


def test_verify_rejects_extra_paths(tmp_path):
    d1_path, d2_path = write_reference_files(tmp_path)
    assert main(["verify", str(d1_path), str(d2_path), str(d2_path)]) == 2


def test_build_design_used_by_cli_matches_library(tmp_path):
    out = tmp_path / "d.json"
    assert main(["generate", "--method", "c3-case1", "--s", "3", "--q", "1", "--seed", "11", "-o", str(out)]) == 0
    design, data = load_bundle(out)
    family = DesignFamily(method="c3-case1", s=3, q=1, p=2)
    direct = build_design(family, 11)
    assert np.array_equal(design.d2, direct.d2)


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--method", "c1", "--s", "2", "--seed", "-1"],
        ["optimize", "--method", "c1", "--s", "2", "--restarts", "0"],
        ["optimize", "--method", "c1", "--s", "2", "--swap-steps", "-1"],
        ["generate", "--method", "c3-case2", "--s", "2", "--select", "1,x"],
    ],
)
def test_malformed_numbers_are_usage_errors(argv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "-o", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_non_integer_env_seed_is_usage_error(tmp_path, monkeypatch):
    monkeypatch.setenv("DCD_SEED", "seven")
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--method", "c1", "--s", "2", "-o", str(tmp_path / "x.json")])
    assert exc.value.code == 2


@pytest.mark.parametrize("method", ["c1", "c2", "c3-case1", "c3-case2"])
def test_field_too_large_is_infeasible(method, tmp_path, capsys):
    assert main(["generate", "--method", method, "--s", "37", "-o", str(tmp_path / "x.json")]) == 3
    assert "built-in field" in capsys.readouterr().err


def test_verify_bundle_runs_full_report_once(tmp_path, monkeypatch):
    import dcdesign.bundle
    import dcdesign.cli

    out = tmp_path / "d.json"
    assert main(["generate", "--method", "c1", "--s", "3", "--seed", "2", "-o", str(out)]) == 0
    calls = []
    original = dcdesign.cli.full_report

    def counted(design, omega=2):
        calls.append(omega)
        return original(design, omega)

    monkeypatch.setattr(dcdesign.cli, "full_report", counted)
    monkeypatch.setattr(dcdesign.bundle, "full_report", counted)
    assert main(["verify", str(out)]) == 0
    assert calls == [2]
    assert main(["verify", str(out), "--omega", "1"]) == 0
    assert calls == [2, 1, 2]


@pytest.mark.parametrize(
    "which, text",
    [
        ("d2", b"1 0\n99999999999999999999 1\n"),
        ("d1", b"2 1 2 1\n0\n99999999999999999999\n"),
        ("d1", b"2 1 2 1\n0\n1\n\xff\n"),
        ("d2", b"1 0\n\xff 1\n"),
        ("d2", b"1 0\n0 +1\n"),
        ("d2", b"1_0 0\n0 1\n"),
        ("d1", "2 1 2 1\n0\n\u0666\n".encode()),
        ("d1", b"2 1 +2 1\n0\n1\n"),
        ("d1", b"2 1 2 1_0\n0\n1\n"),
        ("d1", "2 1 \u0666 1\n0\n1\n".encode()),
    ],
    ids=[
        "matrix-beyond-int64",
        "array-beyond-int64",
        "array-not-utf8",
        "matrix-not-utf8",
        "matrix-plus-sign",
        "matrix-underscore",
        "array-non-ascii-digit",
        "header-plus-sign",
        "header-underscore",
        "header-non-ascii-digit",
    ],
)
def test_unreadable_text_entries_are_parse_errors(which, text, tmp_path, capsys):
    paths = {"d1": tmp_path / "d1.oa", "d2": tmp_path / "d2.txt"}
    paths["d1"].write_text("2 1 2 1\n0\n1\n")
    paths["d2"].write_text("1 0\n0 1\n")
    paths[which].write_bytes(text)
    assert main(["verify", str(paths["d1"]), str(paths["d2"])]) == 2
    assert "parse error" in capsys.readouterr().err
    if which == "d1":
        out = tmp_path / "x.json"
        assert main(["generate", "--method", "c1", "--s", "2", "--q", "1", "--oa", str(paths["d1"]), "-o", str(out)]) == 2


@pytest.mark.parametrize("levels", ["0", "2,0", "-1", "4611686018427387904", "4611686018427387904,4", "100000000000000000000"])
def test_level_counts_below_one_or_past_int64_exit_two(levels, tmp_path):
    d1_path, d2_path = write_reference_files(tmp_path)
    d1_path.write_text(d1_path.read_text().replace("8 2 2 2", f"8 2 {levels} 2"))
    assert main(["verify", str(d1_path), str(d2_path)]) == 2


def test_bundle_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_bytes(b'{"format": "dcd-bundle/1", "s": "\xff"}\n')
    assert main(["verify", str(path)]) == 2
    assert main(["export", str(path), "--format", "json", "-o", str(tmp_path / "copy.json")]) == 2
    assert "parse error" in capsys.readouterr().err


def text_rows(matrix) -> list[str]:
    return [" ".join(map(str, row)) for row in matrix]


def edited_file(draw, lines: list[str], token) -> bytes:
    """`lines` with up to three line edits, and sometimes stray bytes."""
    lines = list(lines)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        edit = draw(st.sampled_from(["replace-line", "replace-token", "drop", "append", "comment"]))
        at = draw(st.integers(0, max(len(lines) - 1, 0)))
        if edit == "replace-line" and lines:
            lines[at] = " ".join(draw(st.lists(token, max_size=5)))
        elif edit == "replace-token" and lines:
            parts = lines[at].split() or [""]
            parts[draw(st.integers(0, len(parts) - 1))] = draw(token)
            lines[at] = " ".join(parts)
        elif edit == "drop" and lines:
            del lines[at]
        elif edit == "append":
            lines += [" ".join(row) for row in draw(st.lists(st.lists(token, max_size=5), max_size=9))]
        else:
            lines.insert(at, "# " + draw(token))
    data = "\n".join(lines).encode()
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
    return data


@st.composite
def loader_files(draw):
    """Bytes of an array-text file and a matrix file for `dcd verify` (the
    8-run pair) and of a 9-run array for `dcd generate --method c1 --s 3`,
    edited with random headers, huge and negative ints, Unicode digits,
    ragged rows, comments and stray bytes."""
    number = st.one_of(
        st.integers(-3, 9),
        st.sampled_from([2**62, 2**63, -(2**63) - 1, 10**20, -(10**30), 2**64]),
    ).map(str)
    token = st.one_of(number, st.sampled_from(["٣", "²", "x", "1.5", "2,2", "0,2", "4611686018427387904,4", "1_0", "+2", "#", "-"]))

    def header(*valid):
        # each field stays valid three times in four, so most edits reach past the header
        return " ".join(draw(token) if draw(st.integers(0, 3)) == 0 else v for v in valid)

    d1 = edited_file(draw, [header("8", "2", "2", "2"), *text_rows(ref.D1_8RUN)], token)
    d2 = edited_file(draw, text_rows(ref.D2_8RUN), token)
    a = edited_file(draw, [header("9", "4", "3", "2"), *text_rows(ref.A1_9RUN)], token)
    return d1, d2, a


@settings(max_examples=300, deadline=None)
@given(loader_files())
def test_text_loaders_exit_with_a_documented_code(files):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / name for name in ("d1.oa", "d2.txt", "a.oa")]
        for path, data in zip(paths, files):
            path.write_bytes(data)
        d1, d2, a = map(str, paths)
        out = str(Path(tmp) / "d.json")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["verify", d1, d2]) in (0, 1, 2, 3)
            assert main(["generate", "--method", "c1", "--s", "3", "--oa", a, "-o", out]) in (0, 1, 2, 3)
