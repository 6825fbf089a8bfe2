"""Acceptance suite: one test per criterion, all checks exact (tolerance 0).

The random instances are generated once per session from a fixed seed so
every criterion exercises the same batch.  Each test prints a single
PASS line on success (visible with `pytest -s` or in the captured output).
"""

import json
import subprocess
import sys
from fractions import Fraction as F

import pytest

from diffprod import (
    decompose,
    diff_products,
    diff_products_via_derivative,
    elementary_all,
    euler_sums,
    euler_sums_via_decomposition,
    homogeneous_brute_force,
    homogeneous_via_elementary,
    homogeneous_via_power_sums,
    newton_power_from_elementary,
    nodeset_new,
    power_sums,
    reconstruct,
)
from diffprod import cli
from .strategies import random_node_sets

SIX = nodeset_new([3, 8, 12, 15, 17, 18])
FOUR = nodeset_new([2, 5, 7, 8])


@pytest.fixture(scope="session")
def random_sets():
    return random_node_sets(200, seed=794)


def _report(n, text):
    print(f"criterion {n} ({text}): PASS")


def test_criterion_1_first_example():
    assert diff_products(FOUR) == [-90, 18, -10, 18]
    assert euler_sums(FOUR, 0)[0] == 0
    _report(1, "example {2,5,7,8}")


def test_criterion_2_second_example(capsys):
    products = diff_products(SIX)
    assert [abs(A) for A in products] == [113400, 12600, 3240, 1512, 1260, 2700]
    for n in range(5):
        assert euler_sums(SIX, n)[n] == 0
    assert euler_sums(SIX, 5)[5] == 1
    assert euler_sums(SIX, 6)[6] == 73
    # the paper's line, (1 - 9 + 35 - 75 + 90 - 42)/3150 = 0, off the CLI
    assert cli.run(["weights", "3 8 12 15 17 18", "--format", "json"]) == 0
    res = json.loads(capsys.readouterr().out)
    assert res["common_numerators"] == ["1", "-9", "35", "-75", "90", "-42"]
    assert res["common_denominator"] == "3150"
    assert res["scale"] == "36"
    _report(2, "example {3,8,12,15,17,18}")


def test_criterion_3_general_theorem(random_sets):
    assert len(random_sets) >= 200
    for ns in random_sets:
        m = ns.m
        for n in range(m - 1):
            assert euler_sums(ns, n)[n] == 0
        h = homogeneous_brute_force(ns, 6)
        for n in range(m - 1, m + 6):
            assert euler_sums(ns, n)[n] == h[n - m + 1]
    _report(3, "zero sums and closed forms on 200 random sets")


def test_criterion_4_demonstration_path(random_sets):
    for ns in random_sets:
        for n in range(ns.m + 6):
            assert euler_sums_via_decomposition(ns, n)[n] == euler_sums(ns, n)[n]
            assert reconstruct(decompose(n, ns))
    _report(4, "decomposition route and reconstruction")


def test_criterion_5_symmetric_agreement(random_sets):
    for ns in random_sets:
        e = elementary_all(ns, max(ns.m, 8))
        p = power_sums(ns, 8)
        h_e = homogeneous_via_elementary(ns, 8)
        h_p = homogeneous_via_power_sums(ns, 8)
        assert h_e == h_p
        assert h_e == homogeneous_brute_force(ns, 8)
        assert newton_power_from_elementary(ns, 8) == p
        P, Q, R, S, T = e[1], e[2], e[3], e[4], e[5]
        assert h_e[2] == P**2 - Q
        assert h_e[3] == P**3 - 2 * P * Q + R
        assert h_e[4] == P**4 - 3 * P**2 * Q + 2 * P * R + Q**2 - S
        assert h_e[5] == (
            P**5 - 4 * P**3 * Q + 3 * P**2 * R + 3 * P * Q**2
            - 2 * P * S - 2 * Q * R + T
        )
    _report(5, "homogeneous triple agreement, Newton round trip, expansions")


def test_criterion_6_derivative_route(random_sets):
    for ns in list(random_sets) + [FOUR, SIX]:
        assert diff_products_via_derivative(ns) == diff_products(ns)
    _report(6, "derivative route equals direct products")


def test_criterion_7_cli_conformance(random_sets, capsys):
    code = cli.run(["table", "3 8 12 15 17 18", "--nmax", "6", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    res = json.loads(out)
    assert res["nodes"] == ["3", "8", "12", "15", "17", "18"]
    expected = {0: F(0), 1: F(0), 2: F(0), 3: F(0), 4: F(0), 5: F(1), 6: F(73)}
    assert len(res["rows"]) == 7
    for row in res["rows"]:
        assert F(row["sum"]) == expected[row["n"]]
        assert F(row["expected"]) == expected[row["n"]]
        assert row["match"] is True

    for ns in random_sets[:10]:
        text = " ".join(cli.fmt(v) for v in ns.values)
        assert cli.run(["verify", text]) == 0
        capsys.readouterr()
    assert cli.run(["verify", "2 2 5"]) == 2
    capsys.readouterr()

    # same commands through the real entry point
    proc = subprocess.run(
        [sys.executable, "-m", "diffprod", "table", "3 8 12 15 17 18",
         "--nmax", "6", "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == res
    proc = subprocess.run(
        [sys.executable, "-m", "diffprod", "verify", "2 2 5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    _report(7, "CLI table JSON and verify exit codes")
