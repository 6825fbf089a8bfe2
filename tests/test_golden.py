"""Golden CLI output: stdout, stderr and exit code, compared byte for byte.

`tests/golden/index.json` maps each case name to its argv, exit code and
stderr; `tests/golden/<name>.out` holds its stdout.  Refactors must leave
every case unchanged.  After a deliberate change of output, record the
files again with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import pathlib
from unittest import mock

import pytest

from diffprod import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
INDEX = GOLDEN / "index.json"

VERBS = ["weights", "table", "decompose", "symmetric", "verify"]
SETS = {"quartic": "2 5 7 8", "paper": "3 8 12 15 17 18", "rational": "1/2 -3 7/3"}

CASES = {
    # the five commands of the README's CLI section
    "readme_weights": ["weights", "2 5 7 8"],
    "readme_table": ["table", "3 8 12 15 17 18", "--nmax", "6"],
    "readme_decompose": ["decompose", "1 2", "--n", "2"],
    "readme_symmetric": ["symmetric", "1 2 3", "--kmax", "4"],
    "readme_verify": ["verify", "1/2 -3 7/3", "--nmax", "9"],
    **{
        f"{verb}_{name}_{fmt}": [verb, text, "--format", fmt]
        + (["--n", "7"] if verb == "decompose" else [])
        for verb in VERBS
        for name, text in SETS.items()
        for fmt in ("text", "json")
    },
    "weights_negative_first_numerator": ["weights", "1/2 -3 7/3", "--n", "1"],
    "weights_gcd_two": ["weights", "1 3"],
    "weights_after_separator": ["weights", "--", "-1/2,3"],
    "help": ["--help"],
    **{f"help_{verb}": [verb, "--help"] for verb in VERBS},
    "error_bad_token": ["weights", "1 banana"],
    "error_duplicate": ["verify", "2 2 5"],
    "error_negative_exponent": ["table", "1 2", "--nmax", "-1"],
    "error_missing_nodes": ["weights"],
    # argv that the top-level parser must keep answering itself
    "error_extra_argument": ["weights", "1 2", "extra"],
    "error_unknown_option": ["table", "1 2", "--bogus"],
    "error_unknown_verb": ["frobnicate", "1 2"],
    "error_empty_argv": [],
    "error_separator_before_verb": ["--", "table", "1 2"],
    "error_bad_option_value": ["table", "1 2", "--nmax=x"],
    "table_abbreviated_option": ["table", "1 2", "--form", "json"],
    # a negative-first node list with a space, read without argparse
    "table_negative_first_json": ["table", "-3 1/2 2", "--format", "json"],
    # an option given twice, which argparse reads: the last value counts
    "table_repeated_option": ["table", "1 2", "--nmax", "3", "--nmax", "4"],
}


def run_cli(argv) -> dict:
    """Run the CLI in-process at a fixed help width of 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse: --help and usage errors
            code = exc.code
    return {"argv": argv, "exit": code, "stderr": err.getvalue(), "stdout": out.getvalue()}


def load(name: str) -> dict:
    case = json.loads(INDEX.read_text(encoding="utf-8"))[name]
    with open(GOLDEN / f"{name}.out", encoding="utf-8", newline="") as fh:
        return {**case, "stdout": fh.read()}


def test_index_lists_every_case():
    assert sorted(json.loads(INDEX.read_text(encoding="utf-8"))) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_unchanged(name):
    assert run_cli(CASES[name]) == load(name)


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    index = {}
    for name, argv in CASES.items():
        result = run_cli(argv)
        (GOLDEN / f"{name}.out").write_text(result.pop("stdout"), encoding="utf-8", newline="")
        index[name] = result
    INDEX.write_text(json.dumps(index, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
