"""Golden SHA-256 digests of written bundles.

Each case runs ``dcd`` in-process for seeds 0 and 1 and compares the bytes
of the bundle it writes.  The digests pin the map from seed to design,
including the plan digest and, for the optimize cases, the swap-cell order
and the score trajectory, so any change in how randomness is consumed
fails here.
"""

import hashlib

import pytest

from dcdesign.cli import main

CASES = {
    "c1": ["generate", "--method", "c1", "--s", "3", "--lambda", "3"],
    "c2": ["generate", "--method", "c2", "--s", "3", "--lambda", "4"],
    "c3-case1": ["generate", "--method", "c3-case1", "--s", "3"],
    "c3-case1-shuffle": ["generate", "--method", "c3-case1", "--s", "5", "--q", "2", "--shuffle-split"],
    "c3-case2": ["generate", "--method", "c3-case2", "--s", "3", "--u", "3"],
    "opt-c1-maximin": [
        "optimize", "--method", "c1", "--s", "3", "--lambda", "3",
        "--criterion", "maximin", "--swap-steps", "20", "--restarts", "2",
    ],
    "opt-c2-cl2": [
        "optimize", "--method", "c2", "--s", "3", "--lambda", "4",
        "--criterion", "cl2", "--swap-steps", "20", "--restarts", "2",
    ],
    "opt-c3-case2-maximin": [
        "optimize", "--method", "c3-case2", "--s", "3", "--u", "3",
        "--criterion", "maximin", "--swap-steps", "20", "--restarts", "2",
    ],
}

DIGESTS = {
    ("c1", 0): "f3a0fa5b1e627edcc309b3695a02e96c1cf2d59d123cf1d902a2b50cb769ff90",
    ("c1", 1): "455e808fc9c871de2abd376438c973445557b559561d77de4c11b4ebe37a0b5b",
    ("c2", 0): "208fea25bcbd7a68c977bd749403101b65acd37be00c1195dc9f987089f93315",
    ("c2", 1): "0362a6d14da15b7dfab7b96f69615e31ca4b13ce340707e7abab6d9c9444accf",
    ("c3-case1", 0): "4a3d0da3c052d16769e5b5b375fafb2cc350acbd9854c26c47171b911fe3c03e",
    ("c3-case1", 1): "5278cdd7c72ee6569ce0a49ddc449cb0454f762d280dd09c6bc23d9c935b7507",
    ("c3-case1-shuffle", 0): "fa121ff6b288a356e95999cb608c6d430a24fc15b0c8f3013a0b6780fc26f24e",
    ("c3-case1-shuffle", 1): "b5f99391c4e221fbeabc525c808229dae1d759d3f9e8fa5b106214074453312d",
    ("c3-case2", 0): "85241bca238aef4dfc448a8178db3008bda1df77e7e3460540bb481c51d6c4ab",
    ("c3-case2", 1): "56a9cf07fb617578a17feaadc04a745c8849ed23fb719297bc108bea69ababab",
    ("opt-c1-maximin", 0): "d358b5c9500284c6d3029e15ba17fff360d69eb67bdbe1a6c07166129655f773",
    ("opt-c1-maximin", 1): "52328e2f2bed86317523e876515bcce603bf9b9219648a7254ca85cb89162922",
    ("opt-c2-cl2", 0): "f90c323b1bf9deecfa1b0765b2fc454dfb8bfc10f425c27d0d27a1029f2a0473",
    ("opt-c2-cl2", 1): "3b279ca3594d8e6233b8577905b447e03be1d773b283cb8ecbeeb7becebdb7e0",
    ("opt-c3-case2-maximin", 0): "d2da50c686c28ed114aaacabda1297defae025d23a6b8aa29e9fb8445d2945e5",
    ("opt-c3-case2-maximin", 1): "8154d53b329361bf17701cf58bf01e3733e8462c9f516dbdcf6266535c01b23e",
}


@pytest.mark.parametrize("name,seed", sorted(DIGESTS))
def test_bundle_bytes_match_golden_digest(name, seed, tmp_path):
    out = tmp_path / "bundle.json"
    assert main([*CASES[name], "--seed", str(seed), "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name, seed]
