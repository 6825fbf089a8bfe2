import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from diffprod import cli, exactpoly, nodes, nodeset_new, partfrac, symmetric
from diffprod.cli import LimitExceeded, ParseError, fmt, fmt_poly, parse_nodes
from diffprod.exactpoly import derivative

from .test_golden import CASES, load, run_cli


class TestParseNodes:
    def test_comma_separated(self):
        ns = parse_nodes("3, 8, 12, 15, 17, 18")
        assert ns.values == (3, 8, 12, 15, 17, 18)

    def test_fractions_and_negatives(self):
        ns = parse_nodes("1/2 -3 7/3")
        assert ns.values == (F(-3), F(1, 2), F(7, 3))

    def test_duplicate_propagates(self):
        from diffprod import DuplicateNode

        with pytest.raises(DuplicateNode):
            parse_nodes("2 2 5")

    def test_bad_token(self):
        with pytest.raises(ParseError) as exc:
            parse_nodes("1 2 x 4")
        assert exc.value.token == "x"
        assert exc.value.position == 2

    def test_more_digits_than_int_converts(self):
        with pytest.raises(ParseError) as exc:
            parse_nodes("1 " + "7" * 5000)
        assert exc.value.position == 1

    def test_nul_in_file_name(self):
        with pytest.raises(ParseError) as exc:
            parse_nodes("@nodes\x00.txt")
        assert exc.value.position == 0

    def test_non_ascii_digits(self):
        # Arabic-Indic three and a fullwidth one are decimal digits to \d, not to the grammar.
        with pytest.raises(ParseError) as exc:
            parse_nodes("\u0663 \uff11")
        assert exc.value.position == 0

    def test_zero_denominator(self):
        with pytest.raises(ParseError) as exc:
            parse_nodes("1 1/0 2")
        assert exc.value.token == "1/0"
        assert exc.value.position == 1

    def test_limit_exceeded_keeps_its_fields(self):
        with pytest.raises(LimitExceeded) as exc:
            parse_nodes(" ".join(map(str, range(1001))))
        assert (exc.value.what, exc.value.limit) == ("node count 1001", 1000)
        assert str(exc.value) == "node count 1001 exceeds limit 1000"

    def test_at_file(self, tmp_path):
        f = tmp_path / "nodes.txt"
        f.write_text("2 5\n7, 8\n", encoding="utf-8")
        assert parse_nodes(f"@{f}").values == (2, 5, 7, 8)

    @given(st.booleans(), st.integers(0, 10**30), st.integers(1, 10**30),
           st.integers(0, 3), st.sampled_from(["", "+", "-"]))
    def test_token_value(self, integer, p, q, zeros, sign):
        tok = f"{sign}{p}" if integer else f"{sign}{p}/{'0' * zeros}{q}"
        assert parse_nodes(tok).values == (F(tok),)

    def test_more_digits_than_int_converts_in_a_denominator(self):
        with pytest.raises(ParseError) as exc:
            parse_nodes("1 1/" + "7" * 5000)
        assert exc.value.position == 1

    def test_round_trip(self):
        ns = nodeset_new([F(-3), F(1, 2), F(7, 3)])
        rendered = " ".join(fmt(v) for v in ns.values)
        assert parse_nodes(rendered) == ns


class TestFormatting:
    def test_integer_rational(self):
        assert fmt(F(73)) == "73"

    def test_proper_rational(self):
        assert fmt(F(-1, 90)) == "-1/90"

    def test_int(self):
        assert fmt(5) == "5"

    def test_poly_descending(self):
        assert fmt_poly(["2", "-3", "1"]) == "x^2 - 3*x + 2"
        assert fmt_poly(["-1/3", "0", "-1"]) == "-x^2 - 1/3"

    def test_poly_zero(self):
        assert fmt_poly([]) == "0"

    def test_poly_fractional_coeff(self):
        assert fmt_poly(["1/2", "1"]) == "x + 1/2"

    @given(
        L=st.integers(1, 10**6),
        X=st.lists(st.one_of(st.integers(-(10**30), 10**30), st.fractions(max_denominator=50)),
                   max_size=8),
        first=st.integers(-(10**6), 10**6).filter(bool),
    )
    @example(L=1, X=[0, 0], first=-3)
    @example(L=6, X=[-4, 12, F(51, 2)], first=-2)
    def test_scaled_values_print_as_their_fractions(self, L, X, first):
        # Residue pairs carry their sign in the denominator, and the
        # power-sum route keeps an h that k does not divide as a Fraction.
        expected = [fmt(F(x, first * L**k)) for k, x in enumerate(X)]
        assert cli._fmt_scaled(L, X, first) == expected


def run_json(capsys, argv):
    code = cli.run(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestVerbs:
    def test_weights_two_nodes(self, capsys):
        code, res = run_json(capsys, ["weights", "0 1"])
        assert code == 0
        assert res["nodes"] == ["0", "1"]
        assert res["m"] == 2
        assert res["products"] == ["-1", "1"]

    def test_weights_common_denominator(self, capsys):
        code, res = run_json(capsys, ["weights", "3 8 12 15 17 18"])
        assert code == 0
        assert res["common_numerators"] == ["1", "-9", "35", "-75", "90", "-42"]
        assert res["common_denominator"] == "3150"
        assert res["sum"] == "0"

    def test_weights_terms_carry_one_sign(self, capsys):
        # The display sign times a negative power is printed with one sign.
        assert cli.run(["weights", "--n", "1", "--", "-3 -1 2"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:5]
        assert [row.split()[-1] for row in rows] == ["-3/10", "+1/6", "+2/15"]

    def test_table_row(self, capsys):
        code, res = run_json(capsys, ["table", "3 8 12 15 17 18", "--nmax", "6"])
        assert code == 0
        assert res["rows"][5] == {
            "n": 5, "sum": "1", "expected": "1", "match": True,
        }

    def test_decompose(self, capsys):
        code, res = run_json(capsys, ["decompose", "1 2", "--n", "2"])
        assert code == 0
        dec = res["decomposition"]
        assert dec["polynomial_part"] == ["1"]
        assert dec["residues"] == ["-1", "4"]
        assert dec["reconstructed"] is True

    def test_symmetric(self, capsys):
        code, res = run_json(capsys, ["symmetric", "1 2 3", "--kmax", "3"])
        assert code == 0
        assert res["tables"]["e"] == ["1", "6", "11", "6"]
        assert res["tables"]["h_via_elementary"] == ["1", "6", "25", "90"]
        assert res["tables"]["h_via_elementary"] == res["tables"]["h_via_power_sums"]
        assert res["agreement"] == {"h_triple": True, "newton_round_trip": True}

    @pytest.mark.parametrize("nodes_text, kmax", [
        ("1/2 -3 7/3 5/4 -8/5 2/7 9 -1/6", 14),  # C(21, 14) = 116280 multisets at k = 14
        (" ".join(map(str, range(1, 448))), 2),  # C(448, 2) = 100128 at k = 2
    ], ids=["m8", "m447"])
    def test_brute_force_compares_every_k(self, nodes_text, kmax, capsys):
        # The oracle adds the nodes one at a time, m*k products, so every k
        # is compared however many multisets it has.
        argv = ["symmetric", nodes_text, "--kmax", str(kmax)]
        assert cli.run(argv) == 0
        line = capsys.readouterr().out.splitlines()[5]
        assert line.startswith("h (brute force):")
        assert len(line.split(":")[1].split()) == kmax + 1
        code, res = run_json(capsys, argv)
        assert code == 0
        assert res["tables"]["h_brute_force"] == res["tables"]["h_via_elementary"]

    def test_verify_ok(self, capsys):
        code, res = run_json(capsys, ["verify", "1/2 -3 7/3", "--nmax", "9"])
        assert code == 0
        assert res["all_identities_hold"] is True

    def test_verify_duplicate_exits_2(self, capsys):
        assert cli.run(["verify", "2 2 5"]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_parse_error_exits_2(self, capsys):
        assert cli.run(["weights", "1 banana"]) == 2
        assert "banana" in capsys.readouterr().err

    def test_negative_nmax_exits_2(self, capsys):
        for argv in (["table", "1 2", "--nmax", "-1"], ["weights", "1 2", "--n", "-1"]):
            assert cli.run(argv) == 2
            assert capsys.readouterr().err == (
                "error: exponent must be nonnegative, got -1\n"
            )

    def test_non_ascii_digits_exit_2(self, capsys):
        assert cli.run(["weights", "\u0663 \uff11"]) == 2
        assert "at position 0" in capsys.readouterr().err

    def test_leading_minus_after_separator(self, capsys):
        # Without "--", argparse reads "-1/2,3" as an option.
        assert cli.run(["weights", "--", "-1/2,3"]) == 0
        assert "(2 - 2)/7 = 0" in capsys.readouterr().out

    def test_zero_denominator_exits_2(self, capsys):
        assert cli.run(["table", "1 1/0 2"]) == 2
        assert "'1/0' at position 1" in capsys.readouterr().err

    def test_file_with_byte_order_mark(self, tmp_path, capsys):
        # A leading UTF-8 byte-order mark is not part of the node list; one
        # inside the text is a bad token like any other.
        plain, marked, inner, latin = (tmp_path / name for name in ("a", "b", "c", "d"))
        plain.write_bytes(b"1 2 3")
        marked.write_bytes(b"\xef\xbb\xbf1 2 3")
        inner.write_bytes(b"1 \xef\xbb\xbf2 3")
        latin.write_bytes(b"\xef\xbb\xbf1 2 \xe9")
        assert cli.run(["weights", f"@{plain}"]) == 0
        expected = capsys.readouterr()
        assert cli.run(["weights", f"@{marked}"]) == 0
        assert capsys.readouterr() == expected
        assert cli.run(["weights", f"@{inner}"]) == 2
        assert capsys.readouterr().err == "error: bad token '\\ufeff2' at position 1\n"
        assert cli.run(["weights", f"@{latin}"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        f = tmp_path / "nodes.txt"
        f.write_bytes(b"\xff\xfe1 2")
        assert cli.run(["weights", f"@{f}"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["weights", "1 2", "--n", "1001"],
        ["table", "1 2", "--nmax", "1001"],
        ["decompose", "1 2", "--n", "1001"],
        ["symmetric", "1 2", "--kmax", "1001"],
        ["verify", "1 2", "--nmax", "1001"],
    ])
    def test_exponent_past_limit_exits_2(self, argv, capsys):
        assert cli.run(argv) == 2
        assert capsys.readouterr().err == "error: exponent 1001 exceeds limit 1000\n"

    def test_exponent_at_limit_runs(self, capsys):
        assert cli.run(["decompose", "1 2", "--n", str(cli.MAX_EXPONENT)]) == 0
        assert "reconstruction check: ok" in capsys.readouterr().out

    def test_default_exponent_past_limit_exits_2(self, capsys):
        # m + 4 > MAX_EXPONENT once m > MAX_EXPONENT - 4
        nodes_text = " ".join(map(str, range(cli.MAX_EXPONENT - 3)))
        assert cli.run(["table", nodes_text]) == 2
        assert capsys.readouterr().err == "error: exponent 1001 exceeds limit 1000\n"

    def test_node_count_past_limit_exits_2(self, capsys):
        assert cli.run(["weights", " ".join(map(str, range(1001)))]) == 2
        assert capsys.readouterr().err == "error: node count 1001 exceeds limit 1000\n"

    def test_file_past_limit_exits_2(self, tmp_path, capsys):
        f = tmp_path / "nodes.txt"
        f.write_bytes(b"1 2" + b" " * (cli.MAX_FILE_BYTES - 2))
        assert cli.run(["weights", f"@{f}"]) == 2
        assert capsys.readouterr().err == (
            "error: @file size in bytes exceeds limit 1048576\n"
        )

    def test_file_at_limit_runs(self, tmp_path, capsys):
        f = tmp_path / "nodes.txt"
        f.write_bytes(b"1 2" + b" " * (cli.MAX_FILE_BYTES - 3))
        assert cli.run(["weights", f"@{f}"]) == 0

    def test_newton_round_trip_at_depth_zero(self, capsys):
        # e is printed only up to e_kmax; Newton's identities still need e_1.
        code, res = run_json(capsys, ["verify", "1 2 3", "--nmax", "0"])
        assert code == 0
        assert res["all_identities_hold"] is True
        assert cli.run(["symmetric", "5", "--kmax", "0"]) == 0
        assert "newton round trip: yes" in capsys.readouterr().out

    @pytest.mark.parametrize("verb", ["table", "verify"])
    def test_products_computed_once_per_node_set(self, verb, capsys, monkeypatch):
        seen = []
        original = nodes.diff_products

        def counting(ns):
            seen.append(ns)
            return original(ns)

        monkeypatch.setattr(nodes, "diff_products", counting)
        assert cli.run([verb, "1/2 -3 7/3 4", "--nmax", "9"]) == 0
        # verify's decomposition route takes the products of the first m-1
        # nodes as integer pairs, and builds no node set for them.
        assert [ns.m for ns in seen] == [4]

    def test_closed_forms_never_read_the_e_list(self, monkeypatch):
        # The node polynomial, and the e-list in it, feeds checks only: the
        # closed forms and the decompositions' parts take h from the
        # oracle's kernel.  reconstruct, a check, reads it.
        values = "1/2 -3 7/3 4 -5/6"

        def unread(*args):
            raise AssertionError("a closed form read the node polynomial")

        monkeypatch.setattr(nodes.NodeSet, "polynomial", property(unread))
        assert cli.run(["table", values, "--nmax", "12"]) == 0
        pfds = partfrac.decompositions(nodeset_new(values.split()), 12)
        monkeypatch.undo()
        assert partfrac.reconstruct(*pfds)

    @pytest.mark.parametrize("verb, builds", [
        ("verify", 1), ("symmetric", 1), ("decompose", 1), ("table", 0), ("weights", 0)])
    def test_node_polynomial_built_once_per_set(self, verb, builds, monkeypatch):
        # Every check that reads W reads the one NodeSet.polynomial; the
        # makers never read it, and verify's decomposition route builds no
        # node set.
        values, built = "1/2 -3 7/3 4", []
        true_node_polynomial = nodes.node_polynomial

        def counting(values):
            built.append(values)
            return true_node_polynomial(values)

        for module in (exactpoly, nodes, partfrac):
            monkeypatch.setattr(module, "node_polynomial", counting, raising=False)
        assert cli.run([verb, values, EXPONENT_OPTION[verb], "9"]) == 0
        assert built == [nodeset_new(values.split()).values] * builds

    @staticmethod
    def forbid_unscaling(monkeypatch):
        """Make `_unscale` raise at every module binding it has, and
        partfrac's Fraction too."""
        def unread(*args):
            raise AssertionError("a Fraction was built for a compared or printed value")

        for module in (symmetric, nodes, partfrac, cli):
            monkeypatch.setattr(module, "_unscale", unread, raising=False)
        monkeypatch.setattr(partfrac, "Fraction", unread)

    def test_verify_normalises_no_checked_value(self, capsys, monkeypatch):
        # verify compares the routes on their scaled integers: no route's
        # values are put over a Fraction, and partfrac builds no residue.
        self.forbid_unscaling(monkeypatch)
        code, res = run_json(capsys, ["verify", "1/2 -3 7/3 4 -5/6", "--nmax", "12"])
        assert code == 0
        assert res["checks"] and all(c["ok"] for c in res["checks"])

    @pytest.mark.parametrize("name", sorted(
        name for name in CASES
        if name.removeprefix("readme_").split("_")[0] in ("table", "symmetric", "decompose")))
    def test_printed_values_come_from_the_integers(self, name, monkeypatch):
        # table, symmetric and decompose print from the routes' scaled
        # integers, each value reduced by one gcd, with no Fraction.
        self.forbid_unscaling(monkeypatch)
        assert run_cli(CASES[name]) == load(name)

    @pytest.mark.parametrize("nmax, deepest", [(9, 8), (20, 17)])
    def test_verify_builds_the_h_ladder_once(self, nmax, deepest, capsys, monkeypatch):
        # verify runs each h ladder once, as deep as its deepest reader.
        # The e-recurrence, a check route only, serves the h checks (to
        # min(nmax, 8)) and the quotient in check (ii) of reconstruct (to
        # nmax - m).  The Horner kernel serves the closed forms (to
        # k = nmax - m + 1), the decompositions' parts (to nmax - m) and the
        # oracle check (to min(nmax, 8)).
        e_ladders, horner_depths = [], []
        h_elementary, complete_sums = symmetric._h_elementary, symmetric._complete_sums

        def counting_e(ns, kmax):
            e_ladders.append((ns.m, kmax))
            return h_elementary(ns, kmax)

        def counting_horner(xs, kmax):
            horner_depths.append(kmax)
            return complete_sums(xs, kmax)

        for module in (symmetric, partfrac, cli):
            monkeypatch.setattr(module, "_h_elementary", counting_e)
        monkeypatch.setattr(symmetric, "_complete_sums", counting_horner)
        code, res = run_json(capsys, ["verify", "1/2 -3 7/3 4", "--nmax", str(nmax)])
        assert code == 0 and res["all_identities_hold"]
        assert e_ladders == [(4, max(nmax - 4, min(nmax, 8)))]
        assert horner_depths == [deepest] == [max(nmax - 3, min(nmax, 8))]

    def test_closed_pipe_is_not_a_traceback(self):
        # Over a megabyte of JSON, so the writer is still blocked on the full
        # pipe when the reader goes away after the first line.
        proc = subprocess.Popen(
            [sys.executable, "-m", "diffprod", "table", "--format", "json",
             "3 8 12 15 17 18", "--nmax", "1000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert b"Traceback" not in err

    def test_json_matches_text_values(self, capsys):
        code, res = run_json(capsys, ["table", "2 5 7 8", "--nmax", "8"])
        assert code == 0
        from diffprod import euler_sums

        sums = euler_sums(nodeset_new([2, 5, 7, 8]), 8)
        for row in res["rows"]:
            assert F(row["sum"]) == sums[row["n"]]

    def test_text_mode_runs(self, capsys):
        assert cli.run(["weights", "2 5 7 8"]) == 0
        out = capsys.readouterr().out
        assert "-90" in out and "18" in out


@contextlib.contextmanager
def int_str_unlimited():
    """Lift CPython's 4300-digit int <-> str limit for the block, as `run`
    does for its own output."""
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:
        yield
        return
    old = limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class TestLargeOutput:
    """Exact values past CPython's 4300-digit int <-> str limit are printed,
    not a traceback.  On the nodes a = 100000, b = a + 1 every value has a
    closed form: A = (-1, 1), S_n = h_{n-1} = b^n - a^n.  The expected text
    is built from those forms, with the limit lifted only after the run."""

    A, B, N = 100000, 100001, 1000

    @staticmethod
    def output(capsys, argv):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code = cli.run(argv)
        # run is also called in-process, so it must restore the limit.
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        return out

    def test_table(self, capsys):
        out = self.output(capsys, ["table", f"{self.A} {self.B}", "--nmax", str(self.N)])
        with int_str_unlimited():
            sums = [str(self.B**n - self.A**n) for n in range(self.N + 1)]
            w = len(sums[-1])
            expected = [f"nodes (m=2): {self.A} {self.B}",
                        f"{'n':>3}  {'sum':>{w}}  {'expected':>{w}}  match"]
            expected += [f"{n:>3}  {s:>{w}}  {s:>{w}}  yes" for n, s in enumerate(sums)]
        assert out == "\n".join(expected) + "\n"

    def test_weights(self, capsys):
        out = self.output(capsys, ["weights", f"{self.A} {self.B}", "--n", str(self.N)])
        with int_str_unlimited():
            a, b = str(self.A**self.N), str(self.B**self.N)
            expected = [
                f"nodes (m=2): {self.A} {self.B}",
                "node  signed A  display term",
                f"100000          -1  +{a}",
                f"100001           1  -{b}",
                f"({a} - {b})/1 = {self.A**self.N - self.B**self.N}",
            ]
        assert out == "\n".join(expected) + "\n"

    def test_decompose(self, capsys):
        out = self.output(capsys, ["decompose", f"{self.A} {self.B}", "--n", str(self.N)])
        with int_str_unlimited():
            # polynomial part: x^(N-2) + h_1 x^(N-3) + ... + h_(N-2)
            part = f"x^{self.N - 2}"
            for k in range(1, self.N - 1):
                d = self.N - 2 - k
                x = "" if d == 0 else "*x" if d == 1 else f"*x^{d}"
                part += f" + {self.B**(k + 1) - self.A**(k + 1)}{x}"
            expected = [
                f"x^{self.N} / prod(x - a_i), nodes: {self.A} {self.B}",
                f"polynomial part: {part}",
                f"residue at {self.A}: {-self.A**self.N}",
                f"residue at {self.B}: {self.B**self.N}",
                "reconstruction check: ok",
            ]
        assert out == "\n".join(expected) + "\n"


class TestSharedParser:
    """One top-level parser per process reads every argv that `_read_plain`
    refuses, with the same output as a freshly built one; a plain argv
    builds none."""

    # All five verbs, both formats, explicit and default exponents: plain
    # argvs, read without a parser, and a decompose without its required
    # --n, which goes to the parser and exits 2.
    MIXED = [
        ["weights", "2 5 7 8"],
        ["weights", "1/2 -3 7/3", "--n", "1", "--format", "json"],
        ["table", "3 8 12 15 17 18", "--nmax", "6"],
        ["table", "1/2 -3 7/3", "--format", "json"],
        ["decompose", "1 2", "--n", "2", "--format", "json"],
        ["decompose", "1 2"],
        ["symmetric", "1 2 3", "--kmax", "4"],
        ["symmetric", "2 5 7 8", "--format", "json"],
        ["verify", "1/2 -3 7/3", "--nmax", "9", "--format", "json"],
        ["verify", "3 8 12 15 17 18"],
    ]

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    # "--form" is an abbreviation, which only argparse reads.
    PARSED = ["weights", "1 2 3", "--form", "text"]

    def test_later_runs_construct_no_parser(self, capsys, monkeypatch):
        cli.run(self.PARSED)
        built = []
        original = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for _ in range(10):
            assert cli.run(self.PARSED) == 0
            assert cli.run(["weights", "1 2 3"]) == 0
        assert built == []
        # The wrapper does see constructions: a cleared cache builds anew.
        cli.build_parser.cache_clear()
        assert cli.run(self.PARSED) == 0
        assert built

    def test_plain_argv_builds_no_parser(self, capsys):
        cli.build_parser.cache_clear()
        assert cli.run(["weights", "1 2 3"]) == 0
        assert cli.build_parser.cache_info().currsize == 0

    def test_same_output_on_every_run(self):
        first = [run_cli(argv) for argv in self.MIXED]
        assert [r["exit"] for r in first] == [0] * 5 + [2] + [0] * 4
        assert "--n" in first[5]["stderr"]
        assert [run_cli(argv) for argv in self.MIXED] == first
        cli.build_parser.cache_clear()
        assert [run_cli(argv) for argv in self.MIXED] == first

    def test_help_width_is_read_when_printed(self):
        cli.build_parser.cache_clear()
        try:
            with mock.patch.dict(os.environ, {"COLUMNS": "40"}):
                cli.build_parser()
            assert run_cli(["--help"]) == load("help")
        finally:
            cli.build_parser.cache_clear()


# Pieces of argv: verbs and near-verbs, options and their abbreviations,
# "--opt=v", "--" and help, option values (signed, Unicode and fullwidth
# digits, one past the int() digit limit), and node lists, negative-first
# ones with and without a space among them.
VERB_WORDS = ["weights", "table", "decompose", "symmetric", "verify", "tab", "frobnicate", ""]
OPTION_WORDS = ["--format", "--form", "--f", "--n", "--nm", "--nmax", "--kmax", "--k", "-n",
                "--format=json", "--n=3", "--nmax=4", "--", "-h", "--help", "---format"]
VALUE_WORDS = ["text", "json", "xml", "0", "3", "007", "-1", "+2", "1_0", " 4",
               "\u0663", "\uff13", "9" * 5000]
NODE_WORDS = ["1 2 3", "1/2 -3 7/3", "-3 1/2 2", "-1/2 3", "-1/2,3", "-1", "-h 2", "-x 2",
              "--1 2", "- 1 2", "-\u0663 2", "-\uff11 2", "-", "", "@nodes.txt"]


ALL_WORDS = VERB_WORDS + OPTION_WORDS + VALUE_WORDS + NODE_WORDS


@st.composite
def plain_like_argvs(draw):
    """A verb and some of its node list, --format and exponent option (at
    times another option word) with their values, in any order; then, at
    times, one word replaced by or one word added from ALL_WORDS."""
    verb = draw(st.sampled_from(VERB_WORDS[:5]))
    groups = [[draw(st.sampled_from(NODE_WORDS[:4]))],
              ["--format", draw(st.sampled_from(["text", "json"]))],
              [draw(st.sampled_from([cli._VERBS[verb].option] * 8 + OPTION_WORDS)),
               draw(st.sampled_from(["0", "3", "007"]))]]
    argv = [verb]
    for g in draw(st.permutations(range(3)))[:draw(st.integers(1, 3))]:
        argv += groups[g]
    change = draw(st.sampled_from(["none", "none", "replace", "insert"]))
    word = draw(st.sampled_from(ALL_WORDS))
    at = draw(st.integers(0, len(argv)))
    if change == "replace" and at < len(argv):
        argv[at] = word
    elif change == "insert":
        argv.insert(at, word)
    return argv


json_values = st.recursive(
    st.text() | st.booleans() | st.integers(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


class TestPlainArgv:
    """A plain argv is read off the verb table, without argparse, into the
    namespace the top-level parser gives; any other argv goes to that
    parser."""

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(
        plain_like_argvs(),
        plain_like_argvs(),  # twice, so that more argvs are plain
        st.lists(st.sampled_from(ALL_WORDS), max_size=7),
    ))
    def test_accepted_argv_parses_the_same_by_argparse(self, argv):
        plain = cli._read_plain(argv)
        if plain is not None:
            assert vars(cli.build_parser().parse_args(argv)) == vars(plain)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_golden_argv_runs_the_same_by_argparse(self, name):
        with mock.patch.object(cli, "_read_plain", return_value=None):
            assert run_cli(CASES[name]) == load(name)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(plain_like_argvs(), st.lists(st.sampled_from(ALL_WORDS), max_size=7)))
    def test_any_argv_runs_the_same_by_argparse(self, argv):
        # the exit code, stdout and stderr, whichever reader takes the argv
        first = run_cli(argv)
        with mock.patch.object(cli, "_read_plain", return_value=None):
            assert run_cli(argv) == first

    def test_plain_text_launch_imports_neither_argparse_nor_json(self):
        script = ("import sys\n"
                  "from diffprod import cli\n"
                  "code = cli.run(['weights', '1 2 3'])\n"
                  "print(sorted({'argparse', 'json'} & sys.modules.keys()), file=sys.stderr)\n"
                  "sys.exit(code)\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stderr) == (0, "[]\n")

    @pytest.mark.parametrize("argv", [
        ["weights", "1 2 3"],
        ["weights", "-1/2 3", "--format", "json"],
        ["table", "--format", "text", "-3 1/2 2", "--nmax", "007"],
        ["decompose", "--n", "0", "1/2 -3"],
        ["symmetric", "1 2", "--kmax", "4", "--format", "json"],
        ["verify", ""],
    ])
    def test_plain_argv_is_read_directly(self, argv):
        assert cli._read_plain(argv) is not None

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["weights", "--help"], ["weights"], ["decompose", "1 2"],
        ["weights", "--", "-1/2,3"], ["weights", "-1/2,3"], ["weights", "-h 2"],
        ["table", "1 2", "--form", "json"], ["table", "1 2", "--nmax=4"],
        ["table", "1 2", "--nmax", "3", "--nmax", "4"], ["table", "1 2", "--n", "3"],
        ["table", "1 2", "--nmax", "-1"], ["table", "1 2", "--nmax", "\uff13"],
        ["table", "1 2", "--nmax", "9" * 5000], ["table", "1 2", "--format", "xml"],
        ["weights", "1 2", "extra"], ["--", "table", "1 2"],
    ])
    def test_other_argv_goes_to_argparse(self, argv):
        assert cli._read_plain(argv) is None


class TestRenderJson:
    """render_json writes the bytes of json.dumps(indent=2) by its own
    joins, for the value types the verbs return."""

    @given(json_values)
    def test_matches_json_dumps(self, value):
        assert cli.render_json(value) == json.dumps(value, indent=2)

    def test_nested_values_match_json_dumps(self):
        value = {
            "text": ["caf\u00e9 \u2211 \U0001d400", 'say "hi"\\', "\x00\x1f\t\n\x7f"],
            "empty": [[], {}, ""],
            "flags": [True, 1, False, 0, -1],
            "nested": {"a": [{"b": {}}], "\u00e9": {"c": [True]}},
            "big": [10**5000, -(7**6000)],
        }
        with int_str_unlimited():
            assert cli.render_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [1.5, None, (1, 2), {"a": [1, 0.0]}, {1: "a"}])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            cli.render_json(value)


class TestVerifierIndependence:
    """A wrong cached node polynomial must make verify fail: ns.polynomial
    feeds only checks (the derivative route, the e-route, Newton and
    reconstruct), which compare it with values built without it: the
    products from the nodes' own numerators and denominators, the power
    sums, the power-sum route and the brute-force oracle from the values.
    Likewise for the per-set objects of the partial-fraction routes."""

    DERIVATIVE = "difference products match derivative route"
    RECONSTRUCT = "decompositions reconstruct exactly"
    # every check that reads W
    W_CHECKS = {DERIVATIVE, RECONSTRUCT, "homogeneous recurrences agree",
                "homogeneous recurrences match brute force", "newton round trip"}

    @pytest.mark.parametrize("corrupt, failed", [
        pytest.param(lambda L, b, W: (2 * L, b, W), W_CHECKS, id="wrong_scale"),
        pytest.param(lambda L, b, W: (L, b, tuple(2 * c for c in W)), W_CHECKS,
                     id="doubled_polynomial"),
        pytest.param(lambda L, b, W: (L, b, (W[0], W[1] + 1, *W[2:])), W_CHECKS,
                     id="linear_term"),
        # W_0 does not enter W'
        pytest.param(lambda L, b, W: (L, b, (W[0] + 1, *W[1:])), W_CHECKS - {DERIVATIVE},
                     id="constant_term"),
        # the e-list is W itself, so only the routes that evaluate at b fail
        pytest.param(lambda L, b, W: (L, (b[0] + 1, *b[1:]), W), {DERIVATIVE, RECONSTRUCT},
                     id="first_node"),
        pytest.param(lambda L, b, W: (L, (*b[:-1], b[-1] + 1), W), {DERIVATIVE, RECONSTRUCT},
                     id="wrong_node"),
    ])
    def test_wrong_scaled_form_fails_verify(self, corrupt, failed, capsys, monkeypatch):
        # table reads no W, so it prints as before; decompose fails its
        # reconstruction check only.  At n = 6 the quotient of z^6 by W
        # reads W_3 and W_2 alone, so under a wrong W_0 only reconstruct's
        # guard (W monic, of degree m, vanishing at every b_j) fails it.
        table = ["table", "1/2 -3 7/3 4", "--nmax", "9"]
        decompose = ["decompose", "1/2 -3 7/3 4", "--n", "6"]
        assert cli.run(table) == 0
        good_table = capsys.readouterr().out
        assert cli.run(decompose) == 0
        good = capsys.readouterr().out.splitlines()
        assert good[-1] == "reconstruction check: ok"

        true_polynomial = nodes.NodeSet.polynomial.func
        monkeypatch.setattr(nodes.NodeSet, "polynomial",
                            property(lambda ns: corrupt(*true_polynomial(ns))))
        code, res = run_json(capsys, ["verify", "1/2 -3 7/3 4", "--nmax", "9"])
        assert code == 1
        assert {c["name"] for c in res["checks"] if not c["ok"]} == failed
        assert cli.run(table) == 0
        assert capsys.readouterr().out == good_table
        assert cli.run(decompose) == 1
        assert capsys.readouterr().out.splitlines() == [*good[:-1], "reconstruction check: FAILED"]

    @staticmethod
    def wrong_cross_difference(monkeypatch):
        """Make diff_products' first row of cross-differences, that of the
        smallest node, have its first factor off by one.  Its first prod is
        Q, the product of the denominators."""
        true_prod = nodes.prod
        calls = []

        def wrong(factors):
            factors = list(factors)
            calls.append(factors)
            if len(calls) == 2:
                factors[0] += 1
            return true_prod(factors)

        monkeypatch.setattr(nodes, "prod", wrong)

    def test_wrong_cross_difference_fails_verify(self, capsys, monkeypatch):
        self.wrong_cross_difference(monkeypatch)
        self.verify_fails(capsys, "difference products match derivative route")

    def test_wrong_cross_difference_fails_table(self, capsys, monkeypatch):
        self.wrong_cross_difference(monkeypatch)
        assert cli.run(["table", "1/2 -3 7/3 4", "--nmax", "6"]) == 1
        assert capsys.readouterr().out.splitlines()[-1].split()[-1] == "NO"

    def test_zero_residue_pairs_fail_verify(self, capsys, monkeypatch):
        # A residue pair (0, 0) makes both sides of check (i) 0.
        true_decompositions = cli._scaled_decompositions

        def zeroed(*args):
            h, residues = true_decompositions(*args)
            return h, [(n, [0] * len(r), [0] * len(q)) for n, r, q in residues]

        monkeypatch.setattr(cli, "_scaled_decompositions", zeroed)
        code, res = run_json(capsys, ["verify", "1 2 3"])
        assert code == 1
        assert {c["name"] for c in res["checks"] if not c["ok"]} == {
            "decompositions reconstruct exactly"}

    @pytest.mark.parametrize("side", ["numerators", "denominators"])
    @pytest.mark.parametrize("start", [0, 1])
    def test_doubled_residues_fail_verify_and_decompose(self, side, start, capsys,
                                                       monkeypatch):
        # One side of every residue pair doubled from power `start` on: each
        # later pair is still the previous one times (t_j, u_j), so from the
        # first power on only check (i)'s cross-multiplication there sees
        # it, and after it only the induction's test of that side.
        true_decompositions = cli._scaled_decompositions

        def doubled(*args):
            h, residues = true_decompositions(*args)
            out = []
            for i, (n, nums, dens) in enumerate(residues):
                if i >= start and side == "numerators":
                    nums = [2 * r for r in nums]
                elif i >= start:
                    dens = [2 * q for q in dens]
                out.append((n, nums, dens))
            return h, out

        monkeypatch.setattr(cli, "_scaled_decompositions", doubled)
        code, res = run_json(capsys, ["verify", "1/2 -3 7/3 4", "--nmax", "9"])
        assert code == 1
        assert {c["name"] for c in res["checks"] if not c["ok"]} == {self.RECONSTRUCT}
        # decompose has one power, the first
        assert cli.run(["decompose", "1/2 -3 7/3 4", "--n", "6"]) == (1 if start == 0 else 0)
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == f"reconstruction check: {'FAILED' if start == 0 else 'ok'}"

    @staticmethod
    def verify_fails(capsys, *checks):
        code, res = run_json(capsys, ["verify", "1/2 -3 7/3 4", "--nmax", "9"])
        assert code == 1
        assert set(checks) <= {c["name"] for c in res["checks"] if not c["ok"]}

    @staticmethod
    def corrupt_node_polynomial(monkeypatch, corrupt):
        """Make node_polynomial, the one builder of NodeSet.polynomial,
        return corrupt(W)."""
        true_node_polynomial = nodes.node_polynomial

        def wrong(values):
            L, b, W = true_node_polynomial(values)
            return L, b, corrupt(W)

        monkeypatch.setattr(nodes, "node_polynomial", wrong)

    @pytest.mark.parametrize("corrupt", [
        lambda W: [W[0] + 1, *W[1:]],  # no longer divisible by each z - b_i
        lambda W: [2 * c for c in W],  # still divisible, but not monic
    ])
    def test_wrong_node_polynomial_fails_verify(self, corrupt, capsys, monkeypatch):
        # Every check that reads W fails; the derivative route only if the
        # corruption reaches W'.
        W = list(nodeset_new(["1/2", "-3", "7/3", "4"]).polynomial[2])
        failed = set(self.W_CHECKS)
        if derivative(corrupt(W)) == derivative(W):
            failed.remove(self.DERIVATIVE)
        self.corrupt_node_polynomial(monkeypatch, corrupt)
        code, res = run_json(capsys, ["verify", "1/2 -3 7/3 4", "--nmax", "9"])
        assert code == 1
        assert {c["name"] for c in res["checks"] if not c["ok"]} == failed

    def test_wrong_derivative_at_pole_fails_verify(self, capsys, monkeypatch):
        # verify computes each W'(b_j) once, for the w' route and check (i)
        # of reconstruct: the node polynomial has degree m = 4, so its
        # derivative is the polynomial of 4 coefficients evaluated.  A wrong
        # shared slope fails both; the products it is compared with never
        # read it.
        true_evaluate = nodes.evaluate
        slopes = []

        def wrong(coeffs, x):
            value = true_evaluate(coeffs, x)
            if len(coeffs) == 4:
                slopes.append(x)
                if len(slopes) == 1:  # only the first pole's
                    value += 1
            return value

        monkeypatch.setattr(nodes, "evaluate", wrong)
        code, res = run_json(capsys, ["verify", "1/2 -3 7/3 4", "--nmax", "9"])
        assert code == 1
        assert len(slopes) == 4
        assert {c["name"] for c in res["checks"] if not c["ok"]} == {
            self.DERIVATIVE, self.RECONSTRUCT}

    def test_wrong_node_polynomial_fails_decompose(self, capsys, monkeypatch):
        argv = ["decompose", "1/2 -3 7/3 4", "--n", "6"]
        assert cli.run(argv) == 0
        good = capsys.readouterr().out.splitlines()
        self.corrupt_node_polynomial(monkeypatch, lambda W: [W[0] + 1, *W[1:]])
        assert cli.run(argv) == 1
        bad = capsys.readouterr().out.splitlines()
        assert good[-1] == "reconstruction check: ok"
        assert bad == [*good[:-1], "reconstruction check: FAILED"]

    def test_wrong_residue_powers_fail_decompose(self, capsys, monkeypatch):
        # The residues' a_i^n come from partfrac._powers; reconstruct steps
        # its own t_j^n and u_j^n.  One step of k = 5 here, one power too many.
        true_powers = partfrac._powers
        monkeypatch.setattr(partfrac, "_powers", lambda xs, k: (
            true_powers(xs, k) if k == 1 else [pow(x, k + 1) for x in xs]))
        code, res = run_json(capsys, ["decompose", "1 2 3", "--n", "5"])
        assert code == 1
        assert res["decomposition"]["reconstructed"] is False

    def test_wrong_residue_step_fails_verify(self, capsys, monkeypatch):
        # verify steps the residues one power at a time, k = 1, here squared
        true_powers = partfrac._powers
        monkeypatch.setattr(partfrac, "_powers", lambda xs, k: (
            [x * x for x in xs] if k == 1 else true_powers(xs, k)))
        code, res = run_json(capsys, ["verify", "1 2 3 4", "--nmax", "9"])
        assert code == 1
        assert {c["name"] for c in res["checks"] if not c["ok"]} == {
            "decompositions reconstruct exactly"}

    @staticmethod
    def wrong_last_entry(monkeypatch, module, name):
        """Make `module`'s binding of the kernel `name`, which returns a
        scaled list (L, X, first), return X with its last entry off by one."""
        true_kernel = getattr(module, name)

        def wrong(*args):
            L, X, first = true_kernel(*args)
            return L, [*X[:-1], X[-1] + 1], first

        monkeypatch.setattr(module, name, wrong)

    def test_wrong_closed_form_fails_table(self, capsys, monkeypatch):
        self.wrong_last_entry(monkeypatch, nodes, "_h_brute_force")
        assert cli.run(["table", "1 2 3", "--nmax", "4"]) == 1
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split()[-1] for row in rows] == ["yes"] * 4 + ["NO"]
        # The row that fails shows its own sum, h_2(1, 2, 3) = 25, beside the
        # wrong closed form, not the closed form's string twice.
        assert rows[-1].split() == ["4", "25", "26", "NO"]

    def test_wrong_ladder_entry_fails_verify(self, capsys, monkeypatch):
        # verify slices the parts from its one oracle ladder; with the last
        # entry of the slice, the constant term of x^nmax's part, off by
        # one, only check (ii) of reconstruct sees it.
        true_decompositions = cli._scaled_decompositions

        def wrong(*args):
            (L, H, first), residues = true_decompositions(*args)
            return (L, [*H[:-1], H[-1] + 1], first), residues

        monkeypatch.setattr(cli, "_scaled_decompositions", wrong)
        code, res = run_json(capsys, ["verify", "1/2 -3 7/3 4", "--nmax", "9"])
        assert code == 1
        assert {c["name"] for c in res["checks"] if not c["ok"]} == {self.RECONSTRUCT}

    def test_wrong_power_sum_kernel_fails_closed_form(self, capsys, monkeypatch):
        # verify runs the weighted kernel once, for euler_sums; the
        # decomposition route is compared at its products and never reads
        # it, and the closed forms come from the h-ladder, which never
        # reads it either.  partfrac's binding serves only the public route.
        true_kernel = nodes._weighted_power_sums

        def wrong(weights, values, nmax):
            # the last sum one more, X[nmax] / (D L^nmax) + 1, in both routes
            L, X, D = true_kernel(weights, values, nmax)
            return L, [*X[:-1], X[-1] + D * L**nmax], D

        monkeypatch.setattr(nodes, "_weighted_power_sums", wrong)
        monkeypatch.setattr(partfrac, "_weighted_power_sums", wrong)
        code, res = run_json(capsys, ["verify", "1/2 -3 7/3 4", "--nmax", "9"])
        assert code == 1
        assert {c["name"] for c in res["checks"] if not c["ok"]} == {
            "sum matches closed form for n <= nmax"}

    @staticmethod
    def corrupt_route(monkeypatch, corrupt):
        """Make the route's product pairs, at partfrac's binding and the
        one verify reads, corrupt(pairs)."""
        true_route = partfrac._route_products
        for module in (partfrac, cli):
            monkeypatch.setattr(module, "_route_products", lambda ns: corrupt(true_route(ns)))

    @staticmethod
    def wrong_last_weight(monkeypatch):
        # the route's last pair is the last node's prod(x - a_i), the
        # reciprocal of its weight; here the product is halved
        TestVerifierIndependence.corrupt_route(
            monkeypatch, lambda pairs: [*pairs[:-1], (pairs[-1][0], 2 * pairs[-1][1])])

    @staticmethod
    def wrong_rest_products(monkeypatch):
        # partfrac's binding of the integer product pairs serves only the
        # route, for the first m-1 nodes; the last A'_i becomes A'_i + 1
        true_pairs = partfrac._product_pairs

        def wrong(values):
            *pairs, (U, V) = true_pairs(values)
            return [*pairs, (U + V, V)]

        monkeypatch.setattr(partfrac, "_product_pairs", wrong)

    @pytest.mark.parametrize("corrupt", [wrong_last_weight, wrong_rest_products])
    def test_wrong_route_input_fails_decomposition_route(self, corrupt, capsys, monkeypatch):
        corrupt(monkeypatch)
        code, res = run_json(capsys, ["verify", "1/2 -3 7/3 4", "--nmax", "9"])
        assert code == 1
        assert {c["name"] for c in res["checks"] if not c["ok"]} == {
            "decomposition route reproduces the sum"}

    @pytest.mark.parametrize("nmax", ["1", "2", "9"])
    def test_every_route_product_doubled_fails_at_every_nmax(self, nmax, capsys, monkeypatch):
        # Every weight halved leaves the sums 0 for n <= m - 2 = 2, so a
        # route compared at the sums would pass at nmax 1 and 2; compared
        # at the products it fails at every nmax.
        self.corrupt_route(monkeypatch, lambda pairs: [(2 * U, V) for U, V in pairs])
        code, res = run_json(capsys, ["verify", "1/2 -3 7/3 4", "--nmax", nmax])
        assert code == 1
        assert {c["name"] for c in res["checks"] if not c["ok"]} == {
            "decomposition route reproduces the sum"}

    @pytest.mark.parametrize("zero_numerator", [False, True])
    def test_zero_route_denominator_fails_without_traceback(self, zero_numerator, capsys,
                                                            monkeypatch):
        # A pair (U, 0) is no product: it fails the route check, and is never
        # divided by.  (0, 0) would make both sides of the cross-product 0.
        self.corrupt_route(monkeypatch, lambda pairs: [
            (0 if zero_numerator else pairs[0][0], 0), *pairs[1:]])
        code = cli.run(["verify", "1/2 -3 7/3 4", "--nmax", "9", "--format", "json"])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        assert {c["name"] for c in json.loads(out)["checks"] if not c["ok"]} == {
            "decomposition route reproduces the sum"}

    def test_verify_runs_the_weighted_kernel_once(self, capsys, monkeypatch):
        # The weighted kernel steps euler_sums only; the power ladder serves
        # it and the power sums, which the power-sum route shares.
        calls = []

        def counting(module, name):
            true_kernel = getattr(module, name)

            def counted(*args):
                calls.append(name)
                return true_kernel(*args)

            monkeypatch.setattr(module, name, counted)

        for module in (nodes, partfrac):
            counting(module, "_weighted_power_sums")
        for module in (symmetric, nodes):
            counting(module, "_power_ladder")
        code, res = run_json(capsys, ["verify", "1/2 -3 7/3 4", "--nmax", "9"])
        assert code == 0 and res["all_identities_hold"]
        assert sorted(calls) == ["_power_ladder"] * 2 + ["_weighted_power_sums"]

    @staticmethod
    def corrupt_scaled(monkeypatch, name, corrupt):
        """Make symmetric's integer helper `name` return (L, corrupt(list))."""
        true_helper = getattr(symmetric, name)

        def wrong(*args):
            L, scaled = true_helper(*args)
            return L, corrupt(scaled)

        monkeypatch.setattr(symmetric, name, wrong)

    def test_wrong_integer_e_list_fails_verify(self, capsys, monkeypatch):
        # The e-route and Newton read the same integers E_j = L^j e_j; the
        # power sums and the power-sum route never do.
        self.corrupt_scaled(monkeypatch, "_scaled_elementary",
                            lambda E: [*E[:-1], E[-1] + 1])
        self.verify_fails(capsys, "homogeneous recurrences agree", "newton round trip")

    def test_wrong_integer_e_list_fails_symmetric(self, capsys, monkeypatch):
        self.corrupt_scaled(monkeypatch, "_scaled_elementary",
                            lambda E: [*E[:-1], E[-1] + 1])
        assert cli.run(["symmetric", "1 2 3", "--kmax", "3"]) == 1
        out = capsys.readouterr().out
        assert "h paths agree: NO\n" in out
        assert "newton round trip: NO\n" in out

    def test_wrong_scaled_power_sums_fail_verify(self, capsys, monkeypatch):
        # symmetric's own binding of the power kernel: the power sums and
        # the power-sum route, not euler_sums
        self.corrupt_scaled(monkeypatch, "_power_ladder",
                            lambda P: [*P[:-1], P[-1] + 1])
        self.verify_fails(capsys, "homogeneous recurrences agree")

    def test_indivisible_power_sum_is_not_floored(self, capsys, monkeypatch):
        # On 1 2 3, P_2 = 14 -> 15 makes 2 H_2 = 6*6 + 15 = 51: floor division
        # would give back the true h_2 = 25 and a false "yes".  The kernel's
        # list starts at k = 0, so P_2 is its entry 2.
        self.corrupt_scaled(monkeypatch, "_power_ladder",
                            lambda P: [P[0], P[1], P[2] + 1, *P[3:]])
        assert cli.run(["symmetric", "1 2 3", "--kmax", "2"]) == 1
        out = capsys.readouterr().out
        assert "h (elementary recurrence): 1 6 25\n" in out
        assert "h (power-sum recurrence):  1 6 51/2\n" in out
        assert "h paths agree: NO\n" in out

    def test_wrong_power_kernel_at_every_binding_fails_verify(self, capsys, monkeypatch):
        # One kernel steps the powers of euler_sums, of the power sums and of
        # the power-sum route; the decomposition route is compared at its
        # products and never reads it.  Each is compared with a route that
        # never reads it: the h-ladder, the e-recurrence and Newton's
        # identities.
        self.corrupt_scaled(monkeypatch, "_power_ladder", lambda P: [*P[:-1], P[-1] + 1])
        monkeypatch.setattr(nodes, "_power_ladder", symmetric._power_ladder)
        code, res = run_json(capsys, ["verify", "1/2 -3 7/3 4", "--nmax", "9"])
        assert code == 1
        assert {c["name"] for c in res["checks"] if not c["ok"]} == {
            "sum matches closed form for n <= nmax",
            "homogeneous recurrences agree",
            "newton round trip"}

    @staticmethod
    def wrong_level_sum(monkeypatch, k=-1):
        # The oracle's integer kernel sums the products of each size's
        # multisets; size k, by default the top one, gets a wrong sum.
        true_complete_sums = symmetric._complete_sums

        def wrong(xs, kmax):
            sums = true_complete_sums(xs, kmax)
            sums[k] += 1
            return sums

        monkeypatch.setattr(symmetric, "_complete_sums", wrong)

    def test_wrong_level_sum_fails_brute_force_check(self, capsys, monkeypatch):
        # The kernel is also the source of the closed forms and of the
        # decompositions' parts, so their checks fail too: the sums come from
        # the power kernel, and reconstruct uses its own node polynomial.
        # verify runs the kernel once, to k = 8 here; size 5 = nmax - m, the
        # constant term of x^nmax's part, is the deepest that all three read.
        self.wrong_level_sum(monkeypatch, 5)
        code, res = run_json(capsys, ["verify", "1/2 -3 7/3 4", "--nmax", "9"])
        assert code == 1
        assert {c["name"] for c in res["checks"] if not c["ok"]} == {
            "sum matches closed form for n <= nmax",
            "decompositions reconstruct exactly",
            "homogeneous recurrences match brute force"}

    def test_wrong_e_route_fails_the_h_checks_and_reconstruct(self, capsys, monkeypatch):
        # Wherever it is bound, a wrong e-recurrence reaches no closed form
        # and no decomposition: it is compared, never used.  reconstruct
        # compares the parts with it, as the quotient of z^N by W.  verify
        # runs it once, to k = 8 here; H_5, the quotient's constant term at
        # nmax - m = 5, is the deepest entry that every reader reads.
        true_route = symmetric._h_elementary

        def wrong(ns, kmax):
            L, H, first = true_route(ns, kmax)
            return L, [*H[:5], H[5] + 1, *H[6:]], first

        for module in (symmetric, nodes, partfrac, cli):
            monkeypatch.setattr(module, "_h_elementary", wrong, raising=False)
        code, res = run_json(capsys, ["verify", "1/2 -3 7/3 4", "--nmax", "9"])
        assert code == 1
        assert {c["name"] for c in res["checks"] if not c["ok"]} == {
            "decompositions reconstruct exactly",
            "homogeneous recurrences agree",
            "homogeneous recurrences match brute force"}

    def test_wrong_level_sum_fails_symmetric(self, capsys, monkeypatch):
        self.wrong_level_sum(monkeypatch)
        assert cli.run(["symmetric", "1 2 3", "--kmax", "3"]) == 1
        out = capsys.readouterr().out
        assert "h paths agree: NO\n" in out
        assert "newton round trip: yes\n" in out
        # The recurrences print their own h_3 = 90, not the oracle's strings.
        assert "h (elementary recurrence): 1 6 25 90\n" in out
        assert "h (power-sum recurrence):  1 6 25 90\n" in out
        assert "h (brute force):           1 6 25 91\n" in out

    def test_brute_force_reads_only_node_values(self, monkeypatch):
        # The oracle never reads the recurrences' inputs: the node polynomial
        # and the power kernel.
        values = ["1/2", "-3", "7/3", "4", "-5/6"]
        expected = symmetric.homogeneous_via_elementary(nodeset_new(values), 9)

        def unread(*args):
            raise AssertionError("the oracle read a recurrence's input")

        monkeypatch.setattr(nodes.NodeSet, "polynomial", property(unread))
        monkeypatch.setattr(symmetric, "_power_ladder", unread)
        monkeypatch.setattr(nodes, "_power_ladder", unread)
        assert symmetric.homogeneous_brute_force(nodeset_new(values), 9) == expected


# --- the CLI contract over arbitrary input -------------------------------

EXPONENT_OPTION = {"weights": "--n", "table": "--nmax", "decompose": "--n",
                   "symmetric": "--kmax", "verify": "--nmax"}
VERBS = list(EXPONENT_OPTION)
OPTIONS = ["--n", "--nmax", "--kmax", "--format", "json", "text", "--help"]
JUNK = ["", "-", "--", "@", "@/", "@\x00", "@no such file", "x", "1/0", "0/5",
        "-3/4", "1e3", "1.5", "2 2", "\u0663", "\x00", "7" * 5000, "1001",
        "1000000", "-1"]
node_token = st.builds(
    lambda p, q: str(p) if q == 1 else f"{p}/{q}",
    st.integers(-9, 9), st.integers(1, 9),
)
node_text = st.lists(node_token, min_size=1, max_size=4).map(" ".join)
nodes_arg = st.one_of(node_text, st.just("@FILE"), st.sampled_from(JUNK))
option_token = st.one_of(
    st.sampled_from(OPTIONS + JUNK), st.integers(-3, 12).map(str), st.text(max_size=6),
)
any_token = st.one_of(st.sampled_from(VERBS), nodes_arg, option_token)
well_formed = st.builds(
    lambda verb, text, n, fmt: [verb, text, EXPONENT_OPTION[verb], str(n), "--format", fmt],
    st.sampled_from(VERBS), nodes_arg, st.integers(-2, 12), st.sampled_from(["json", "text"]),
)


def _failed_check_named(out: str) -> bool:
    """True iff an output, text or JSON, names a check that failed: a
    failed verify check, a symmetric agreement, a decomposition that does
    not reconstruct, or a table row that does not match."""
    try:
        res = json.loads(out)
    except ValueError:
        return any(line.startswith("FAIL") or line.endswith((" NO", "FAILED"))
                   for line in out.splitlines())
    return (any(not c["ok"] for c in res.get("checks", []))
            or not all(res.get("agreement", {}).values())
            or res.get("decomposition", {}).get("reconstructed") is False
            or any(r.get("match") is False for r in res.get("rows", [])))


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    argv=st.one_of(
        st.lists(any_token, max_size=6),
        st.tuples(st.sampled_from(VERBS), nodes_arg, st.lists(option_token, max_size=4))
        .map(lambda t: [t[0], t[1], *t[2]]),
        well_formed,
    ),
    file_bytes=st.one_of(st.binary(max_size=16), node_text.map(str.encode)),
)
def test_cli_contract_holds_for_any_input(tmp_path, argv, file_bytes):
    path = tmp_path / "nodes.bin"
    path.write_bytes(file_bytes)
    argv = [f"@{path}" if a == "@FILE" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert _failed_check_named(out.getvalue())


# Nodes of 6 or 7 digits and exponents up to the limit: values past CPython's
# 4300-digit int <-> str limit.  Rational nodes with large denominators are
# left out, because at these exponents they take tens of seconds per call.
big_node = st.one_of(st.integers(10**5, 10**6), st.integers(-(10**6), -(10**5)))


@settings(max_examples=15, deadline=None)
@given(
    values=st.lists(big_node, min_size=2, max_size=4, unique=True),
    verb=st.sampled_from(["table", "weights", "decompose"]),
    exponent=st.integers(700, 1000),
)
@example(values=[-(10**6), 999_999, 10**6], verb="table", exponent=1000)
@example(values=[-(10**6), 999_999, 10**6], verb="weights", exponent=1000)
@example(values=[-(10**6), 999_999, 10**6], verb="decompose", exponent=1000)
def test_cli_contract_holds_for_large_output(values, verb, exponent):
    argv = [verb, EXPONENT_OPTION[verb], str(exponent), "--", " ".join(map(str, values))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code == 0
    assert "Traceback" not in err.getvalue()
