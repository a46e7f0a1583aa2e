"""The benchmark's workloads: which ``dcd`` calls make up one op.

Op k of a run with workload seed S passes ``--seed S+k``.  Every call goes
through ``dcdesign.cli.main(argv)`` in the benchmark's own process; no
workload passes ``--parallel`` (it would start a thread pool), so each run
is a closed loop with one client.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import oracle

# verify-corpus: (label, generate arguments).  Four methods, n = 125..625.
CORPUS = (
    ("c1-n125", ["--method", "c1", "--s", "5", "--lambda", "5"]),
    ("c2-n256", ["--method", "c2", "--s", "4", "--lambda", "16"]),
    ("c3case1-n343", ["--method", "c3-case1", "--s", "7", "--q", "3"]),
    ("c3case2-n625", ["--method", "c3-case2", "--s", "5", "--u", "4"]),
)


@dataclass(frozen=True)
class Call:
    argv: list[str]
    expected_rc: int
    output: Path | None = None  # bundle the call writes
    criterion: str | None = None  # set for optimize calls


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...] = ()  # dcd arguments before --seed/-o
    criterion: str | None = None

    @property
    def has_inputs(self) -> bool:
        return self.name == "verify-corpus"

    def calls(self, seed: int, out: Path, inputs: Path) -> list[Call]:
        if self.has_inputs:
            return [Call(["verify", str(path)], rc) for path, rc in corpus_files(inputs)]
        argv = [*self.args, "--seed", str(seed), "-o", str(out)]
        return [Call(argv, 0, out, self.criterion)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("generate-4096", ("generate", "--method", "c3-case2", "--s", "8", "--u", "4")),
        Workload("verify-corpus"),
        Workload(
            "search-swap",
            ("optimize", "--method", "c1", "--s", "5", "--lambda", "5", "--criterion", "maximin",
             "--restarts", "2", "--swap-steps", "100"),
            "maximin",
        ),
        Workload(
            "search-restarts",
            ("optimize", "--method", "c3-case2", "--s", "5", "--u", "4", "--criterion", "cl2", "--restarts", "8"),
            "cl2",
        ),
    )
}


def corpus_files(inputs: Path) -> list[tuple[Path, int]]:
    """(bundle path, expected `dcd verify` exit code) for the corpus."""
    files = []
    for label, _ in CORPUS:
        files.append((inputs / f"{label}.json", 0))
        files.append((inputs / f"{label}-tampered.json", 1))
    return files


def run_cli(argv) -> int:
    """``dcd ARGV`` in this process, its standard output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return importlib.import_module("dcdesign.cli").main(argv)


def prepare(workload: Workload, seed: int, inputs: Path) -> None:
    """Write the workload's inputs into `inputs` (only verify-corpus has
    any): each corpus bundle with ``dcd generate`` and a tampered copy."""
    if not workload.has_inputs:
        return
    inputs.mkdir(parents=True, exist_ok=True)
    for index, (label, args) in enumerate(CORPUS):
        path = inputs / f"{label}.json"
        rc = run_cli(["generate", *args, "--seed", str(seed + index), "-o", str(path)])
        if rc != 0:
            raise RuntimeError(f"dcd generate for corpus bundle {label} exited {rc}")
        tampered = oracle.tamper(json.loads(path.read_text()))
        (inputs / f"{label}-tampered.json").write_text(json.dumps(tampered, indent=2, sort_keys=True) + "\n")
