import json
from fractions import Fraction as F

import pytest

from diffprod import cli, nodes, nodeset_new
from diffprod.cli import ParseError, fmt, fmt_poly, parse_nodes


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

    def test_zero_denominator(self):
        with pytest.raises(ParseError) as exc:
            parse_nodes("1 1/0 2")
        assert exc.value.token == "1/0"
        assert exc.value.position == 1

    def test_at_file(self, tmp_path):
        f = tmp_path / "nodes.txt"
        f.write_text("2 5\n7, 8\n", encoding="utf-8")
        assert parse_nodes(f"@{f}").values == (2, 5, 7, 8)

    def test_round_trip(self):
        ns = nodeset_new([F(-3), F(1, 2), F(7, 3)])
        rendered = " ".join(fmt(v) for v in ns.values)
        assert parse_nodes(rendered) == ns


class TestFormatting:
    def test_integer_rational(self):
        assert fmt(F(73)) == "73"

    def test_proper_rational(self):
        assert fmt(F(-1, 90)) == "-1/90"

    def test_poly_descending(self):
        assert fmt_poly([F(2), F(-3), F(1)]) == "x^2 - 3*x + 2"

    def test_poly_zero(self):
        assert fmt_poly([]) == "0"

    def test_poly_fractional_coeff(self):
        assert fmt_poly([F(1, 2), F(1)]) == "x + 1/2"


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

    def test_zero_denominator_exits_2(self, capsys):
        assert cli.run(["table", "1 1/0 2"]) == 2
        assert "'1/0' at position 1" in capsys.readouterr().err

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        f = tmp_path / "nodes.txt"
        f.write_bytes(b"\xff\xfe1 2")
        assert cli.run(["weights", f"@{f}"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

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
        # verify also decomposes over a fresh set of the first m-1 nodes per n.
        assert len({id(ns) for ns in seen}) == len(seen)
        assert sum(ns.m == 4 for ns in seen) == 1

    def test_json_matches_text_values(self, capsys):
        code, res = run_json(capsys, ["table", "2 5 7 8", "--nmax", "8"])
        assert code == 0
        from diffprod import euler_sum

        ns = nodeset_new([2, 5, 7, 8])
        for row in res["rows"]:
            assert F(row["sum"]) == euler_sum(ns, row["n"])

    def test_text_mode_runs(self, capsys):
        assert cli.run(["weights", "2 5 7 8"]) == 0
        out = capsys.readouterr().out
        assert "-90" in out and "18" in out
