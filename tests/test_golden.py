"""Every CLI subcommand but verify against a committed golden artifact.

Each run below rewrites its files with FNLS_THREADS=1 and again with
FNLS_THREADS=2.  The two outputs must be byte-equal, and each must match
its golden in tests/golden/: the text exactly, every number to 1e-12
relative.  Numbers below 1e-12 in size (a mass drift, a flat slope) are
round-off and match to 1e-12 absolute, as tests/test_gate_numbers.py pins
them, so a host whose FFTs take other SIMD paths still passes.  The runs
together take about half a second.

A change that moves numbers on purpose re-records the goldens, from the
repository root, and logs the move in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import math
import os
import re
from pathlib import Path

import pytest

from fnls.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# (arguments, output flag -> golden file); unsorted scan points make the
# pool start the largest first
RUNS = (
    (["evolve"], {"--out": "evolve.csv", "--dump-state": "evolve-state.csv"}),
    (["picard"], {"--out": "picard.txt"}),
    (["scan-trilinear", "--n", "256,16,128,32,64"], {"--out": "scan-trilinear.csv"}),
    (["scan-remainder"], {"--out": "scan-remainder.csv"}),
    (
        ["scan-wavepacket", "--s=-0.25,0,0.25", "--m", "512,16,128,32,256,64"],
        {"--out": "scan-wavepacket.csv"},
    ),
    (["approx-error", "--t-final", "0.1"], {"--out": "approx-error.csv"}),
    (["illposed", "--t-internal", "8"], {"--out": "illposed.txt"}),
)

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")
REL, ROUND_OFF = 1e-12, 1e-12


def _run(args, files, directory: Path) -> dict:
    flags = [tok for flag, name in files.items() for tok in (flag, str(directory / name))]
    assert main(args + flags) == 0, args
    return {name: (directory / name).read_text() for name in files.values()}


def _same_artifact(got: str, want: str) -> bool:
    """Text equal outside the numbers, numbers within REL (or ROUND_OFF)."""
    if NUMBER.split(got) != NUMBER.split(want):
        return False
    return all(
        a == b or math.isclose(float(a), float(b), rel_tol=REL, abs_tol=ROUND_OFF)
        for a, b in zip(NUMBER.findall(got), NUMBER.findall(want))
    )


@pytest.mark.parametrize("args, files", RUNS, ids=[run[0][0] for run in RUNS])
def test_cli_artifact_matches_golden(tmp_path, monkeypatch, args, files):
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("FNLS_THREADS", threads)
        directory = tmp_path / threads
        directory.mkdir()
        outputs.append(_run(args, files, directory))
    assert outputs[0] == outputs[1], "output depends on FNLS_THREADS"
    for name, text in outputs[0].items():
        assert _same_artifact(text, (GOLDEN / name).read_text()), name


def test_artifact_comparison_is_strict_outside_round_off():
    want = "# mass_drift=2.3e-13\n1,0.5,x\n"
    assert _same_artifact("# mass_drift=9.1e-13\n1,0.50000000000000011,x\n", want)
    assert not _same_artifact("# mass_drift=2.3e-13\n1,0.5000000001,x\n", want)
    assert not _same_artifact("# mass_drift=2.3e-13\n1,0.5,y\n", want)
    assert not _same_artifact("# mass_drift=2.3e-13\n1,0.5,x\n2\n", want)


if __name__ == "__main__":
    os.environ["FNLS_THREADS"] = "1"
    GOLDEN.mkdir(exist_ok=True)
    for run_args, run_files in RUNS:
        _run(run_args, run_files, GOLDEN)
