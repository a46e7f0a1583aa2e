import json

import pytest

from dcdesign.bundle import load_bundle, parse_bundle, report_disagreement
from dcdesign.cli import main
from dcdesign.errors import ParseError


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
