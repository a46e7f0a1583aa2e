import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcdesign.bundle import load_bundle, parse_bundle, report_disagreement
from dcdesign.cli import main
from dcdesign.errors import DesignError, ParseError


@pytest.fixture
def bundle(tmp_path):
    out = tmp_path / "d.json"
    assert main(["generate", "--method", "c1", "--s", "2", "--q", "2", "--p", "2", "--seed", "3", "-o", str(out)]) == 0
    return json.loads(out.read_text())


def write(tmp_path, data):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    return path


def test_fractional_entry_is_rejected_not_truncated(bundle, tmp_path):
    bundle["d2"][0][0] += 0.9
    with pytest.raises(ParseError):
        parse_bundle(bundle)
    assert main(["verify", str(write(tmp_path, bundle))]) == 2


def test_boolean_entry_is_rejected(bundle, tmp_path):
    bundle["d1"][0][0] = bool(bundle["d1"][0][0])
    with pytest.raises(ParseError):
        parse_bundle(bundle)
    assert main(["verify", str(write(tmp_path, bundle))]) == 2


@pytest.mark.parametrize("s", [0, 1, -2, 2.0, True])
def test_level_count_below_two_or_not_integer_is_rejected(bundle, tmp_path, s):
    bundle["s"] = s
    with pytest.raises(ParseError):
        parse_bundle(bundle)
    assert main(["verify", str(write(tmp_path, bundle))]) == 2


def test_ragged_matrix_is_rejected(bundle):
    bundle["d2"][1] = bundle["d2"][1][:1]
    with pytest.raises(ParseError):
        parse_bundle(bundle)


def test_missing_stored_omega_reads_as_two_and_zero_stays_zero(bundle):
    design, data = parse_bundle(bundle)
    assert report_disagreement(data, design) is None
    del data["report"]["omega"]
    assert report_disagreement(data, design) is None
    # omega 0 checks no balance condition, so the stored True meets None;
    # reading 0 as "missing" would check order 2 and agree
    data["report"]["omega"] = 0
    assert report_disagreement(data, design) == "condition_a"


def test_load_rejects_disagreeing_stored_report(bundle, tmp_path):
    bundle["report"]["passed"] = False
    with pytest.raises(ParseError, match="passed"):
        load_bundle(write(tmp_path, bundle))


def test_tampered_witness_entry_is_rejected(bundle, tmp_path, capsys):
    bundle["witness"]["b"][0][0] += 1
    path = write(tmp_path, bundle)
    assert main(["verify", str(path)]) == 1
    assert "stored 'witness' disagrees" in capsys.readouterr().out
    with pytest.raises(ParseError, match="witness"):
        load_bundle(path)


def test_witness_of_wrong_shape_is_rejected(bundle, tmp_path):
    del bundle["witness"]["c"][0]
    path = write(tmp_path, bundle)
    assert main(["verify", str(path)]) == 1
    with pytest.raises(ParseError, match="witness"):
        load_bundle(path)


def test_witness_remainder_must_lie_below_s(bundle):
    # b - 1 and c + s satisfy collapse(d2, s) = s*b + c but are not the
    # quotient and remainder the certificate stands for
    design, data = parse_bundle(bundle)
    design.witness.b[0, 0] -= 1
    design.witness.c[0, 0] += design.s
    assert report_disagreement(data, design) == "witness"


@pytest.mark.parametrize("edit", ["no-factor", "s-above-n"])
def test_degenerate_qualitative_part_is_a_parse_error(bundle, tmp_path, edit):
    if edit == "no-factor":
        bundle["d1"] = [[] for _ in bundle["d1"]]
    else:
        bundle["s"] = len(bundle["d1"]) + 1
    with pytest.raises(ParseError):
        parse_bundle(bundle)
    assert main(["verify", str(write(tmp_path, bundle))]) == 2


def test_out_of_range_d2_entry_exits_two(tmp_path, capsys):
    out = tmp_path / "c1.json"
    assert main(["generate", "--method", "c1", "--s", "3", "--seed", "0", "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    data["d2"][0][0] = 10**6
    assert main(["verify", str(write(tmp_path, data))]) == 2
    assert "outside" in capsys.readouterr().err


FUZZ_BASES = (
    ("--method", "c1", "--s", "2", "--q", "2", "--p", "2", "--seed", "3"),
    ("--method", "c1", "--s", "3", "--p", "2", "--seed", "0"),
    ("--method", "c3-case2", "--s", "2", "--u", "3", "--seed", "1"),
)
ODD_VALUES = (-1, 0, 1, 2, 3, 4, 8, 9, 17, 10**6, 2**63, 10**30, 1.5, True, None, "x", [], [[]], {})
FIELDS = ("s", "format", "d1", "d2", "witness", "report", "report.omega", "report.passed", "report.condition_a")


@functools.lru_cache(maxsize=None)
def generated_bundle(args: tuple) -> str:
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        out = Path(tmp) / "b.json"
        assert main(["generate", *args, "-o", str(out)]) == 0
        return out.read_text()


def matrix_of(data, name):
    owner = data.get("witness") if name in ("b", "c") else data
    matrix = owner.get(name) if isinstance(owner, dict) else None
    ok = isinstance(matrix, list) and matrix and all(isinstance(row, list) and row for row in matrix)
    return matrix if ok else None


@st.composite
def mutated_bundles(draw):
    data = json.loads(generated_bundle(draw(st.sampled_from(FUZZ_BASES))))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["entry", "entry", "drop-row", "drop-column", "field"]))
        if kind == "field":
            path = draw(st.sampled_from(FIELDS)).split(".")
            owner = data if len(path) == 1 else data.get(path[0])
            if isinstance(owner, dict):
                value = draw(st.sampled_from(ODD_VALUES + ("delete",)))
                if value == "delete":
                    owner.pop(path[-1], None)
                else:
                    owner[path[-1]] = value
            continue
        matrix = matrix_of(data, draw(st.sampled_from(["d1", "d2", "b", "c"])))
        if matrix is None:
            continue
        row = draw(st.integers(0, len(matrix) - 1))
        col = draw(st.integers(0, len(matrix[row]) - 1))
        if kind == "entry":
            matrix[row][col] = draw(st.sampled_from(ODD_VALUES))
        elif kind == "drop-row":
            del matrix[row]
        elif draw(st.booleans()):
            del matrix[row][col]
        else:
            for r in matrix:
                del r[col:col + 1]
    return data


@settings(max_examples=200, deadline=None)
@given(mutated_bundles())
def test_verify_exits_with_a_documented_code_on_mutated_bundles(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.json"
        path.write_text(json.dumps(data))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["verify", str(path)])
            try:
                load_bundle(path)
            except DesignError:
                pass
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
