import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcdesign import bundle as bundle_module
from dcdesign.bundle import load_bundle, parse_bundle, report_disagreement, save_bundle
from dcdesign.cli import main
from dcdesign.errors import DesignError, ParseError

import oracles


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
    # omega 0 checks neither d1 nor a balance condition, so the stored True
    # meets None; reading 0 as "missing" would check order 2 and agree
    data["report"]["omega"] = 0
    assert report_disagreement(data, design) == "d1_is_oa"


def test_negative_stored_omega_is_a_parse_error(bundle, tmp_path):
    bundle["report"]["omega"] = -1
    with pytest.raises(ParseError, match="omega"):
        parse_bundle(bundle)
    assert main(["verify", str(write(tmp_path, bundle))]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ("--method", "c1", "--s", "3", "--lambda", "3", "--seed", "0"),
        ("--method", "c2", "--s", "3", "--lambda", "2", "--q", "2", "--p", "3", "--seed", "1"),
        ("--method", "c3-case1", "--s", "3", "--seed", "1"),
        ("--method", "c3-case2", "--s", "3", "--u", "3", "--seed", "1"),
    ],
    ids=["c1", "c2", "c3-case1", "c3-case2"],
)
def test_every_stored_summary_key_is_certified(args, tmp_path, capsys):
    data = json.loads(generated_bundle(args))
    flags = [key for key, value in data["report"].items() if type(value) is bool]
    assert {"passed", "d1_is_oa", "croa_partition", "witness_check"} <= set(flags)
    for key in flags:
        edited = json.loads(generated_bundle(args))
        edited["report"][key] = not edited["report"][key]
        path = write(tmp_path, edited)
        capsys.readouterr()
        assert main(["verify", str(path)]) == 1
        assert f"stored {key!r} disagrees" in capsys.readouterr().out
        with pytest.raises(ParseError, match=key):
            load_bundle(path)


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


ODD_INTS = (2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 10**30, -(10**30))
json_ints = st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70), st.sampled_from(ODD_INTS))
json_floats = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e300, 5e-324]),
    st.floats().map(np.float64),
)
json_scalars = st.one_of(st.none(), st.booleans(), json_ints, json_floats, st.text(max_size=4))
# matrices of ints with bools mixed in, including rows without columns (p=0)
int_matrices = st.lists(st.lists(st.one_of(json_ints, json_ints, st.booleans()), max_size=4), max_size=4)
# non-str keys are coerced by the encoder, and keys of mixed types fail to sort
json_keys = st.one_of(st.text(max_size=4), st.text(max_size=4), st.integers(-3, 3), st.floats(), st.booleans(), st.none())
json_values = st.recursive(
    st.one_of(json_scalars, int_matrices, st.just([[], []])),
    lambda children: st.one_of(st.lists(children, max_size=4), st.dictionaries(json_keys, children, max_size=4)),
    max_leaves=24,
)


def written_bytes(value):
    """The bytes `save_bundle` writes, or the type of what it raises."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "b.json"
        try:
            save_bundle(value, path)
        except Exception as exc:
            return type(exc)
        return path.read_bytes()


def encoded_bytes(value):
    try:
        return oracles.bundle_text(value).encode()
    except Exception as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(json_values)
def test_writer_matches_the_indenting_encoder(value):
    assert written_bytes(value) == encoded_bytes(value)


@pytest.mark.parametrize("value", [np.int64(3), [1, np.int64(3)], {"d2": [[0, np.int64(1)]]}])
def test_writer_refuses_numpy_ints_like_the_encoder(value):
    assert written_bytes(value) is encoded_bytes(value) is TypeError


I64 = np.iinfo(np.int64)
WRITER_MATRICES = {
    "fast": [[0, 5, 2], [7, 1, 3], [4, 8, 6]],
    "fast-tuples": [(0, 1), (3, 2)],
    "fast-ragged": [[0, 1, 2], [3], (4, 5)],
    "fast-single": [[0]],
    "negative": [[0, -1], [2, 3]],
    "at-2^16": [[2**16, 0]] + [[1, 2]] * 3,
    "past-int64": [[2**63, 0], [1, 2]],
    "above-entry-count": [[0, 4], [1, 2]],
    "bool": [[True, 0], [1, 2]],
    "np-int64": [[np.int64(1), 0], [1, 2]],
    "np-int64-row": [np.arange(2), [1, 2]],
    "empty-row": [[0, 1], [], [2, 3]],
    "empty-rows": [[], []],
    "float": [[0.0, 1], [2, 3]],
    "deeper": [[[0]], [1]],
    "str": [["0", 1], [2, 3]],
    "array-table": np.array([[0, 5, 2], [7, 1, 3], [4, 8, 6]]),
    "array-negative": np.array([[0, -1], [2, 3], [-1, 0]]),
    "array-at-2^16": np.array([[2**16, 0]] + [[1, 2]] * 3),
    "array-int64-extremes": np.array([[I64.min, I64.max], [0, 1]]),
    "array-int64-min-table": np.array([[I64.min, I64.min + 1], [I64.min + 1, I64.min]]),
    "array-p0": np.zeros((3, 0), dtype=int),
    "array-no-rows": np.zeros((0, 2), dtype=int),
    "array-int32": np.array([[0, 3], [2, 1], [1, 2]], dtype=np.int32),
    "array-uint8": np.array([[255, 0], [1, 2]], dtype=np.uint8),
}
REFUSED_ARRAYS = {
    "array-1d": np.arange(3),
    "array-bool": np.array([[True, False], [False, True]]),
    "array-float": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "array-3d": np.zeros((2, 2, 2), dtype=int),
}


@pytest.mark.parametrize("name", sorted(WRITER_MATRICES) + sorted(REFUSED_ARRAYS))
def test_writer_matrix_fast_path_and_its_fallback_match_the_encoder(name):
    """2-D integer ndarrays, of any dtype, are written as their lists, row
    by row through the decimal table or one str per entry; lists of rows
    take the general path and other ndarrays raise TypeError.  The bytes, or
    the exception type, are the encoder's either way, also inside a list."""
    rows = WRITER_MATRICES.get(name, REFUSED_ARRAYS.get(name))
    for value in (rows, {"d2": rows, "witness": {"b": rows, "c": [rows]}}):
        assert written_bytes(value) == encoded_bytes(value)
    if isinstance(rows, np.ndarray):
        assert (written_bytes(rows) is TypeError) == (name in REFUSED_ARRAYS)


fast_rows = st.lists(st.one_of(st.lists(st.integers(0, 9), min_size=1, max_size=4), st.tuples(st.integers(0, 9), st.integers(0, 9))), min_size=1, max_size=5)
odd_entries = st.one_of(st.integers(-3, -1), st.integers(2**16, 2**16 + 2), st.sampled_from(ODD_INTS), st.booleans(), st.just(np.int64(2)), st.floats())


@settings(max_examples=300, deadline=None)
@given(fast_rows, st.lists(st.tuples(st.integers(0, 99), st.one_of(odd_entries, st.just("drop-row"))), max_size=2))
def test_writer_matches_the_encoder_around_the_fast_path(rows, edits):
    rows = [list(row) if i % 2 else row for i, row in enumerate(rows)]
    for at, edit in edits:
        row = list(rows[at % len(rows)])
        if isinstance(edit, str):
            row = []
        elif row:
            row[at % len(row)] = edit
        rows[at % len(rows)] = row
    assert written_bytes(rows) == encoded_bytes(rows)
    assert written_bytes({"d1": rows}) == encoded_bytes({"d1": rows})


matrix_leaves = st.one_of(
    st.integers(-9, 9), st.sampled_from(ODD_INTS), st.booleans(), st.floats(), st.none(), st.text(max_size=2)
)
candidate_matrices = st.one_of(
    st.integers(0, 4).flatmap(lambda width: st.lists(st.lists(json_ints, min_size=width, max_size=width), max_size=4)),
    st.lists(st.lists(matrix_leaves, max_size=4), max_size=4),
    st.lists(st.lists(st.lists(json_ints, max_size=2), max_size=3), max_size=3),
    st.lists(st.one_of(st.lists(json_ints, max_size=2), json_ints), max_size=3),
    matrix_leaves,
    st.dictionaries(st.text(max_size=2), json_ints, max_size=2),
)


def read_matrix(fn, rows):
    """The array a matrix reader returns, or "rejected" for the errors
    `parse_bundle` reports as a ParseError."""
    try:
        m = fn(rows, "d2")
    except (ParseError, TypeError, ValueError, OverflowError):
        return "rejected"
    return m.dtype, m.shape, m.tolist()


@settings(max_examples=400, deadline=None)
@given(candidate_matrices)
def test_matrix_reader_accepts_what_the_per_entry_check_accepts(rows):
    got = read_matrix(bundle_module._int_matrix, rows)
    assert got == read_matrix(oracles.int_matrix, rows)
    if got == "rejected":
        with pytest.raises(ParseError):
            bundle_module._int_matrix(rows, "d2")
