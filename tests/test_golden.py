"""Byte-for-byte CLI output for the README commands and two multi-batch
`sample` runs.

Each file under tests/golden/ holds the stdout of one command; a change to
the printed numbers or to their formatting fails here.
"""

from pathlib import Path

import pytest

from guekit.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "wilson.csv": ["wilson", "--N", "8", "--t-min", "0", "--t-max", "4", "--steps", "81"],
    "wilson.json": ["wilson", "--N", "8", "--t-min", "0", "--t-max", "4", "--steps", "81",
                    "--format", "json"],
    "density.csv": ["density", "--N", "8", "--lambda-min", "-3", "--lambda-max", "3",
                    "--steps", "241"],
    "moments.csv": ["moments", "--N", "4", "--l-max", "8"],
    "rosettes.csv": ["rosettes", "--l", "6"],
    "harer-zagier.csv": ["harer-zagier", "--N", "3", "--p-max", "7"],
    "sample.csv": ["sample", "--N", "8", "--samples", "10000",
                   "--t", "0.5", "--t", "1.0", "--t", "2.0"],
    # several sampler batches each: 600 / 128 at N=32 and 300 / 32 at N=64
    "sample-n32.csv": ["sample", "--N", "32", "--samples", "600", "--seed", "7"],
    "sample-n64.csv": ["sample", "--N", "64", "--samples", "300", "--seed", "7"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name, capsys):
    assert main(COMMANDS[name]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / name).read_bytes()
