import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lowerq import cli, lucas_binom
from lowerq.cli import main
from lowerq.serialize import canonical_json

S1_SPEC_NO_TABLE = {
    "p": 2,
    "dim_g": 1,
    "generator": {"name": "x", "degree_a": 2, "degree_b": 0},
}

# x_0 * x_0 = x_1 obeys the degree law (0 + 0 + dim_g + 1 = 1), but its
# sign exponent 0 * 0 + dim_g + 1 is odd, so the entry must vanish
VIOLATING_SIGNS_SPEC = {
    "p": 3,
    "dim_g": 0,
    "generator": {"name": "x", "degree_a": 1, "degree_b": 0},
    "product_table": [{"a": 0, "b": 0, "terms": [[1, 1]]}],
}

# x_a * x_b lies in degree 2a + 2b + 1, which holds no generator, so every
# product is forced to zero; the check over the rectangle (6, 1) of the
# solve at degree 6 needs x_1 * x_3 = 0, which lies past that bound
FORCED_ZERO_MODULE = {
    "algebra": {"p": 2, "dim_g": 0, "generator": {"name": "x", "degree_a": 2, "degree_b": 0}},
    "action_table": {"max_op": 9, "max_gen": 9, "entries": [
        {"op": 1, "gen": 0, "terms": [[1, 1]]},
        {"op": 1, "gen": 1, "terms": [[1, 3]]},
        {"op": 3, "gen": 0, "terms": [[1, 2]]},
    ]},
}

# the circle family with an empty product table and an action tabulated,
# all zero, only for op <= 2
NO_PRODUCTS_MODULE = {
    "algebra": {"p": 2, "dim_g": 1, "generator": {"name": "x", "degree_a": 2, "degree_b": 0},
                "product_table": []},
    "action_table": {"max_op": 2, "max_gen": 4, "entries": []},
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_base_case(self, capsys):
        code, out, _ = run(capsys, "compute", "--module", "s1_p2", "--word", "0", "--gen", "0")
        assert code == 0
        assert out == "x_1\n"

    def test_vanishing(self, capsys):
        code, out, _ = run(capsys, "compute", "--module", "s1_p2", "--word", "2", "--gen", "1")
        assert code == 0
        assert out == "0\n"

    def test_empty_word(self, capsys):
        code, out, _ = run(capsys, "compute", "--module", "s1_p2", "--word", "", "--gen", "3")
        assert code == 0
        assert out == "x_3\n"

    def test_word_order_leftmost_last(self, capsys):
        code, out, _ = run(capsys, "compute", "--module", "s1_p2", "--word", "0,0", "--gen", "0")
        assert code == 0
        assert out == "x_3\n"

    def test_bad_word_syntax(self, capsys):
        code, _, err = run(capsys, "compute", "--module", "s1_p2", "--word", "2;1", "--gen", "0")
        assert code == 2
        assert "bad word syntax" in err

    def test_negative_word_index(self, capsys):
        code, _, err = run(capsys, "compute", "--module", "s1_p2", "--word", "-3", "--gen", "0")
        assert code == 2
        for argv in (
            ("verify", "adem", "--module", "s1_p2", "--max-index", "-3", "--max-gen", "2"),
            ("verify", "adem", "--module", "s1_p2", "--max-index", "3", "--max-gen", "-2"),
            ("verify", "cartan", "--module", "s1_p2", "--max-n", "2", "--max-gen", "-2"),
            ("verify", "cartan", "--module", "s1_p2", "--max-n", "-1", "--max-gen", "2"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == "" and err.startswith("usage error:")

    def test_unknown_module(self, capsys):
        code, _, err = run(capsys, "compute", "--module", "missing", "--word", "0", "--gen", "0")
        assert code == 2
        assert "unknown module" in err

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--module", "s1_p2", "--word", "0", "--gen", "0",
            "--format", "json",
        )
        assert code == 0
        assert canonical_json(json.loads(out)) == out

    def test_builtin_name_shadowed_by_file_warns(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s1_p2").write_text("{}")
        code, out, err = run(capsys, "compute", "--module", "s1_p2", "--word", "0", "--gen", "0")
        assert code == 0
        assert out == "x_1\n"
        assert "warning" in err


class TestTable:
    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "table", "--module", "s1_p2", "--max-op", "4", "--max-gen", "1",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "gen,0,1,2,3,4"
        assert lines[1] == "0,1,0,1,0,1"
        assert lines[2] == "1,1,0,0,0,1"

    def test_csv_bytes(self, capsys):
        # csv.writer's default dialect: comma-separated cells, \r\n line ends
        code, out, _ = run(
            capsys, "table", "--module", "s1_p2", "--max-op", "4", "--max-gen", "1",
            "--format", "csv",
        )
        assert code == 0
        assert out == "gen,0,1,2,3,4\r\n0,1,0,1,0,1\r\n1,1,0,0,0,1\r\n"

    def test_text_matrix(self, capsys):
        code, out, _ = run(capsys, "table", "--module", "s1_p2", "--max-op", "2", "--max-gen", "1")
        assert code == 0
        assert out.splitlines()[0].startswith("gen\\op")

    def test_json_cells(self, capsys):
        code, out, _ = run(
            capsys, "table", "--module", "s1_p2", "--max-op", "4", "--max-gen", "1",
            "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert {"op": 4, "gen": 1, "coeff": 1, "target": 5} in obj["cells"]
        assert canonical_json(obj) == out

    def test_csv_rejected_elsewhere(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--module", "s1_p2", "--word", "0", "--gen", "0", "--format", "csv"])
        assert exc.value.code == 2


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (["solve", "--module", "s1_p2", "--max-degree", "abc"],
         "argument --max-degree: invalid int value: 'abc'"),
        (["verify", "adem", "--module", "s1_p2", "--max-index", "3"],
         "the following arguments are required: --max-gen"),
    ])
    def test_argparse_error_is_one_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert (captured.out, captured.err) == ("", f"usage error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (["compute", "--module", "s1_p2", "--word", "0", "--gen", "-1"],
         "--gen must be an unsigned decimal"),
        (["table", "--module", "s1_p2", "--max-op", "-1", "--max-gen", "2"],
         "table bounds must be unsigned decimals"),
        (["solve", "--module", "s1_p2", "--max-degree", "-1"],
         "--max-degree must be an unsigned decimal"),
    ])
    def test_negative_bound_is_one_line(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"usage error: {message}\n")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert "--max-degree" in capsys.readouterr().out


class TestVerifyCommands:
    def test_adem_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "adem", "--module", "s1_p2", "--max-index", "10",
            "--max-gen", "5",
        )
        assert code == 0
        assert "0 failures" in out
        assert "PASS" in out
        assert "\x1b[" not in out  # no ANSI styling when not a tty

    def test_adem_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "verify", "adem", "--module", "s1_p2", "--max-index", "8",
            "--max-gen", "4", "--format", "json",
        )
        assert code == 0
        assert canonical_json(json.loads(out)) == out

    def test_adem_with_override_relations(self, capsys, tmp_path):
        # wrong relation for (4, 0): claims Q_4 Q_0 = 0, but Q_4 Q_0 x_0 = x_5
        doc = [{"r": 4, "s": 0, "terms": []}]
        path = tmp_path / "override.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, "verify", "adem", "--module", "s1_p2", "--max-index", "4",
            "--max-gen", "2", "--relations", str(path),
        )
        assert code == 1
        assert "FAIL" in out

    def test_cyclic_override_is_data_error(self, capsys, tmp_path):
        # Q_2 Q_0 -> Q_2 Q_0 is rejected when the pair is first expanded
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps([{"r": 2, "s": 0, "terms": [[1, 2, 0]]}]))
        code, out, err = run(
            capsys, "verify", "adem", "--module", "s1_p2", "--max-index", "6",
            "--max-gen", "3", "--relations", str(path),
        )
        assert code == 3
        assert out == ""
        assert err == "data error: relation override for (2, 0) yields (2, 0) again\n"

    def test_two_cycle_override_is_data_error(self, capsys, tmp_path):
        # Q_3 Q_1 -> Q_5 Q_0 -> Q_3 Q_1 never reaches an admissible word; the
        # cycle is found when (3, 1) is first expanded, not by the budget
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps([
            {"r": 3, "s": 1, "terms": [[1, 5, 0]]},
            {"r": 5, "s": 0, "terms": [[1, 3, 1]]},
        ]))
        code, out, err = run(
            capsys, "verify", "adem", "--module", "s1_p2", "--max-index", "6",
            "--max-gen", "3", "--relations", str(path),
        )
        assert code == 3
        assert out == ""
        assert err == "data error: relation override for (3, 1) yields (3, 1) again through (5, 0)\n"

    @pytest.mark.parametrize("term, message", [
        ([["binom", 3], 1, 0], 'binomial coefficient must be ["binom", n, k]'),
        ([["binom", [0, 1], [0, 0]], [0, 1], 2], "relation term has unbounded summation range"),
    ])
    def test_malformed_override_term_is_data_error(self, capsys, tmp_path, term, message):
        path = tmp_path / "override.json"
        path.write_text(json.dumps([{"r": 4, "s": 0, "terms": [term]}]))
        assert run(
            capsys, "verify", "adem", "--module", "s1_p2", "--max-index", "6",
            "--max-gen", "2", "--relations", str(path),
        ) == (3, "", f"data error: {message}\n")

    def test_empty_summation_range_is_an_empty_sum(self, capsys, tmp_path):
        # k = -1 for every w: the override claims Q_4 Q_0 = 0, which fails
        # where C(g + 2, 2) is odd
        path = tmp_path / "override.json"
        path.write_text(json.dumps(
            [{"r": 4, "s": 0, "terms": [[["binom", [0, 1], -1], [0, 1], 2]]}]
        ))
        code, out, err = run(
            capsys, "verify", "adem", "--module", "s1_p2", "--max-index", "6",
            "--max-gen", "2", "--relations", str(path),
        )
        assert (code, err) == (1, "")
        assert "63 instances, 2 failures" in out
        assert "FAIL adem relation mismatch [r=4, s=0, gen=0]: x_5 != 0" in out
        assert "FAIL adem relation mismatch [r=4, s=0, gen=2]: x_13 != 0" in out

    def test_cartan_with_candidate_table(self, capsys):
        code, out, _ = run(
            capsys, "verify", "cartan", "--module", "s1_p2", "--max-n", "6",
            "--max-gen", "3", "--table", "ones",
        )
        assert code == 0

    def test_cartan_binomial_table_reports_failures(self, capsys):
        code, out, _ = run(
            capsys, "verify", "cartan", "--module", "s1_p2", "--max-n", "6",
            "--max-gen", "3", "--table", "binomial",
        )
        assert code == 1

    def test_cartan_without_table_is_data_error(self, capsys):
        code, _, err = run(
            capsys, "verify", "cartan", "--module", "s1_p2", "--max-n", "4", "--max-gen", "2",
        )
        assert code == 3
        assert "product undefined for pair (0, 0)" in err

    def test_cartan_raises_the_first_error_of_the_loop(self, capsys, tmp_path):
        # the pair sweep reaches the action cell (3, 0), outside the table's
        # rectangle, before any product; the loop over (n, a, b) needs
        # x_0 * x_0, undefined, first
        path = tmp_path / "mod.json"
        path.write_text(json.dumps(NO_PRODUCTS_MODULE))
        assert run(
            capsys, "verify", "cartan", "--module", str(path), "--max-n", "4", "--max-gen", "1",
        ) == (3, "", "data error: product undefined for pair (0, 0)\n")

    def test_signs_violation(self, capsys, tmp_path):
        path = tmp_path / "p3_dimg0.json"
        path.write_text(json.dumps(VIOLATING_SIGNS_SPEC))
        code, out, _ = run(capsys, "verify", "signs", "--spec", str(path))
        assert code == 1
        assert "forced-zero diagonal" in out

    def test_product_table_breaking_the_degree_law_is_data_error(self, capsys, tmp_path):
        # x_0 * x_0 lies in degree 0 + 0 + dim_g + 1 = 2, the degree of x_1, not x_5
        spec = dict(S1_SPEC_NO_TABLE, product_table=[{"a": 0, "b": 0, "terms": [[1, 5]]}])
        message = (
            "data error: algebra spec: product table entry (0, 0) -> index 5 "
            "breaks the degree law\n"
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert run(capsys, "verify", "signs", "--spec", str(path)) == (3, "", message)
        path = tmp_path / "mod.json"
        path.write_text(json.dumps({"algebra": spec, "action": "s1_p2"}))
        code, out, err = run(
            capsys, "verify", "cartan", "--module", str(path), "--max-n", "4", "--max-gen", "1",
        )
        assert (code, out, err) == (3, "", message)

    def test_signs_clean(self, capsys, tmp_path):
        spec = dict(VIOLATING_SIGNS_SPEC, product_table=[{"a": 0, "b": 0, "terms": []}])
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run(capsys, "verify", "signs", "--spec", str(path))
        assert code == 0

    def test_signs_bad_json_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify", "signs", "--spec", str(path))
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "signs", "--spec"),
            ("verify", "adem", "--module", "s1_p2", "--max-index", "4", "--max-gen", "2",
             "--relations"),
            ("compute", "--word", "0", "--gen", "0", "--module"),
        ],
    )
    def test_deeply_nested_json_is_data_error(self, capsys, tmp_path, argv):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        code, out, err = run(capsys, *argv, str(path))
        assert code == 3
        assert out == ""
        assert err == f"data error: {path} is nested too deeply to parse\n"


class TestSolve:
    def test_no_constraints(self, capsys):
        code, out, _ = run(capsys, "solve", "--module", "s1_p2", "--max-degree", "0")
        assert code == 0
        assert "no constraints generated" in out

    def test_summary_and_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "solve", "--module", "s1_p2", "--max-degree", "16")
        assert code == 0
        assert "rank:" in out
        code, out, _ = run(
            capsys, "solve", "--module", "s1_p2", "--max-degree", "16", "--format", "json",
        )
        assert code == 0
        assert canonical_json(json.loads(out)) == out

    def test_check_flag(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--module", "s1_p2", "--max-degree", "16", "--check",
        )
        assert code == 0
        assert "check zero: ok" in out

    def test_check_defines_forced_zero_pairs_past_the_bound(self, capsys, tmp_path):
        path = tmp_path / "forced_zero.json"
        path.write_text(json.dumps(FORCED_ZERO_MODULE))
        code, out, err = run(
            capsys, "solve", "--module", str(path), "--max-degree", "6", "--check",
            "--format", "json",
        )
        assert (code, err) == (0, "")
        obj = json.loads(out)
        assert obj["cartan_rectangle"] == {"max_n": 6, "max_gen": 1}
        assert obj["checks"] == {"zero": True}

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        solve = cli.solve_product_table

        def solve_with_binomial_basis(module, max_degree):
            # the binomial candidate C(a + b + 1, a) breaks the Cartan formula
            result = solve(module, max_degree)
            result.basis[0] = {(a, b): lucas_binom(a + b + 1, a, 2) for a, b in result.slots}
            return result

        monkeypatch.setattr(cli, "solve_product_table", solve_with_binomial_basis)
        argv = ("solve", "--module", "s1_p2", "--max-degree", "24", "--check")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        assert "check zero: ok\n" in out
        assert "check basis[0]: FAIL\n" in out
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (1, "")
        checks = json.loads(out)["checks"]
        assert checks["zero"] is True and checks["basis[0]"] is False


class TestFileModules:
    def test_module_json_file(self, capsys, tmp_path):
        module_obj = {"algebra": S1_SPEC_NO_TABLE, "action": "s1_p2"}
        path = tmp_path / "mod.json"
        path.write_text(json.dumps(module_obj))
        code, out, _ = run(capsys, "compute", "--module", str(path), "--word", "4", "--gen", "1")
        assert code == 0
        assert out == "x_5\n"

    def test_table_flag_rejected_for_file_modules(self, capsys, tmp_path):
        module_obj = {"algebra": S1_SPEC_NO_TABLE, "action": "s1_p2"}
        path = tmp_path / "mod.json"
        path.write_text(json.dumps(module_obj))
        code, _, err = run(
            capsys, "verify", "cartan", "--module", str(path), "--max-n", "2",
            "--max-gen", "1", "--table", "ones",
        )
        assert code == 2

    def test_malformed_module_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "mod.json"
        path.write_text(json.dumps({"algebra": S1_SPEC_NO_TABLE}))
        code, _, err = run(capsys, "compute", "--module", str(path), "--word", "0", "--gen", "0")
        assert code == 3

    @pytest.mark.parametrize(
        "kind, bad",
        [
            ("product_terms", ["1", 1]),
            ("product_terms", [1.5, 1]),
            ("product_terms", [1, "1"]),
            ("max_index", "9"),
            ("action_terms", [1.5, 1]),
            ("action_terms", [1, "1"]),
            ("action_terms", [True, 1]),
        ],
    )
    def test_non_integer_is_data_error(self, capsys, tmp_path, kind, bad):
        path = tmp_path / "doc.json"
        if kind == "action_terms":
            table = {"max_op": 2, "max_gen": 2, "entries": [{"op": 0, "gen": 0, "terms": [bad]}]}
            path.write_text(json.dumps({"algebra": S1_SPEC_NO_TABLE, "action_table": table}))
            argv = ("compute", "--module", str(path), "--word", "0", "--gen", "0")
        else:
            spec = dict(S1_SPEC_NO_TABLE, product_table=[{"a": 0, "b": 0, "terms": [[1, 1]]}])
            if kind == "max_index":
                spec["generator"] = dict(spec["generator"], max_index=bad)
            else:
                spec["product_table"] = [{"a": 0, "b": 0, "terms": [bad]}]
            path.write_text(json.dumps(spec))
            argv = ("verify", "signs", "--spec", str(path))
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("data error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "doc, argv, message",
        [
            (dict(S1_SPEC_NO_TABLE, product_table=[5]), ("verify", "signs", "--spec"),
             "product table entry: expected a JSON object"),
            ({"algebra": S1_SPEC_NO_TABLE,
              "action_table": {"max_op": 2, "max_gen": 2, "entries": ["op"]}},
             ("compute", "--word", "0", "--gen", "0", "--module"),
             "action table entry: expected a JSON object"),
            ({"algebra": S1_SPEC_NO_TABLE,
              "action_table": {"max_op": 2, "max_gen": 2, "entries": [
                  {"op": 0, "gen": 0, "terms": [[1, 1]]}, {"op": 0, "gen": 0, "terms": []}]}},
             ("compute", "--word", "0", "--gen", "0", "--module"),
             "duplicate action table entry (0, 0)"),
            ({"algebra": dict(S1_SPEC_NO_TABLE,
                              generator={"name": "x", "degree_a": -1, "degree_b": 0}),
              "action": "s1_p2"},
             ("compute", "--word", "0", "--gen", "0", "--module"),
             "algebra spec: degree_a must be a nonnegative integer, got -1"),
            ({"algebra": dict(S1_SPEC_NO_TABLE, dim_g=-1), "action": "s1_p2"},
             ("compute", "--word", "0", "--gen", "0", "--module"),
             "algebra spec: dim_g must be a nonnegative integer, got -1"),
            (dict(S1_SPEC_NO_TABLE, generator={"name": "x", "degree_a": 1, "degree_b": -2}),
             ("verify", "signs", "--spec"),
             "algebra spec: degree_b must be a nonnegative integer, got -2"),
            ({"algebra": dict(S1_SPEC_NO_TABLE, generator=dict(
                S1_SPEC_NO_TABLE["generator"], max_index=-1)),
              "action_table": {"max_op": 4, "max_gen": 4, "entries": []}},
             ("compute", "--word", "0", "--gen", "0", "--module"),
             "algebra spec: max_index must be a nonnegative integer, got -1"),
        ],
    )
    def test_malformed_entry_is_data_error(self, capsys, tmp_path, doc, argv, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, *argv, str(path))
        assert code == 3
        assert out == ""
        assert err == f"data error: {message}\n"

    @pytest.mark.parametrize(
        "generator, action, argv",
        [
            ({"max_index": 3}, "s1_p2", ("compute", "--word", "0,0", "--gen", "1")),
            ({"max_index": 3}, "s1_p2", ("solve", "--max-degree", "20")),
            ({"degree_a": 0}, None, ("solve", "--max-degree", "4")),
        ],
    )
    def test_value_error_is_data_error(self, capsys, tmp_path, generator, action, argv):
        algebra = dict(S1_SPEC_NO_TABLE, generator=dict(S1_SPEC_NO_TABLE["generator"], **generator))
        if action is None:
            module_obj = {"algebra": dict(algebra, p=3, dim_g=0),
                          "action_table": {"max_op": 2, "max_gen": 2, "entries": []}}
        else:
            module_obj = {"algebra": algebra, "action": action}
        path = tmp_path / "mod.json"
        path.write_text(json.dumps(module_obj))
        code, out, err = run(capsys, argv[0], "--module", str(path), *argv[1:])
        assert code == 3
        assert out == ""
        assert err.startswith("data error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "action, argv, index",
        [
            # Q_0(x_2) = x_5 is reached before x_4 is needed
            ("s1_p2", ("verify", "adem", "--max-index", "4"), 5),
            ("s1_p2", ("verify", "cartan", "--max-n", "4"), 5),
            # a zero action: the sweep itself reaches x_4 first
            (None, ("verify", "adem", "--max-index", "4"), 4),
            (None, ("verify", "cartan", "--max-n", "4"), 4),
        ],
    )
    def test_verify_past_family_bound_is_data_error(self, capsys, tmp_path, action, argv, index):
        generator = dict(S1_SPEC_NO_TABLE["generator"], max_index=3)
        table = [{"a": a, "b": b, "terms": [[1, a + b + 1]] if a + b < 3 else []}
                 for a in range(4) for b in range(a, 4)]
        module_obj = {"algebra": dict(S1_SPEC_NO_TABLE, generator=generator, product_table=table)}
        if action is None:
            module_obj["action_table"] = {"max_op": 10, "max_gen": 10, "entries": []}
        else:
            module_obj["action"] = action
        path = tmp_path / "mod.json"
        path.write_text(json.dumps(module_obj))
        code, out, err = run(capsys, *argv[:2], "--module", str(path), *argv[2:], "--max-gen", "6")
        assert code == 3
        assert out == ""
        assert err == f"data error: generator index {index} out of range for family x\n"

    def test_module_naming_a_directory_is_data_error(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "compute", "--module", str(tmp_path), "--word", "0", "--gen", "0",
        )
        assert (code, out) == (3, "")
        assert err.startswith(f"data error: cannot read {tmp_path}") and err.count("\n") == 1

    def test_builtin_action_under_renamed_family(self, capsys, tmp_path):
        algebra = dict(S1_SPEC_NO_TABLE, generator={"name": "y", "degree_a": 2, "degree_b": 0})
        path = tmp_path / "mod.json"
        path.write_text(json.dumps({"algebra": algebra, "action": "s1_p2"}))
        code, out, _ = run(capsys, "compute", "--module", str(path), "--word", "0", "--gen", "0")
        assert code == 0
        assert out == "y_1\n"


# --- fuzzed documents ----------------------------------------------------

# Any JSON value. Ints stay small: check_prime trial-divides, so a huge p
# is slow by design.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 40) | st.floats(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def mostly(draw, strategy):
    """The strategy, or one time in 32 any JSON value in its place."""
    return draw(strategy if draw(st.integers(0, 31)) else json_values)


@st.composite
def objects(draw, fields):
    """A JSON object with the given fields, each left out one time in 32."""
    return {key: draw(value) for key, value in fields.items() if draw(st.integers(0, 31))}


small = st.integers(-1, 12)
term = mostly(st.lists(small, min_size=2, max_size=2))
pair = st.lists(small, min_size=2, max_size=2).map(sorted) | st.tuples(small, small)
product_entry = mostly(pair.flatmap(lambda ab: objects({
    "a": mostly(st.just(ab[0])), "b": mostly(st.just(ab[1])),
    "terms": mostly(st.lists(term, max_size=3)),
})))
algebra = objects({
    "p": mostly(st.sampled_from([2, 3, 5, 4])),
    "dim_g": mostly(st.integers(0, 2)),
    "generator": mostly(objects({
        "name": mostly(st.sampled_from(["x", "e", "", "x\ny", "\u2028"])),
        "degree_a": mostly(st.integers(0, 3)),
        "degree_b": mostly(st.integers(0, 2)),
        "max_index": st.none() | st.integers(-1, 6),
    })),
    "product_table": st.none() | mostly(st.lists(product_entry, max_size=6)),
})
# the circle module's algebra, so that the builtin action accepts it
circle_algebra = st.builds(
    lambda table: dict(S1_SPEC_NO_TABLE, product_table=table),
    st.none() | st.lists(product_entry, max_size=6),
)
action_table = objects({
    "max_op": mostly(small),
    "max_gen": mostly(small),
    "entries": mostly(st.lists(mostly(objects({
        "op": mostly(small), "gen": mostly(small), "terms": mostly(st.lists(term, max_size=2)),
    })), max_size=6)),
})
module = st.one_of(
    objects({"algebra": mostly(circle_algebra | algebra), "action": mostly(st.just("s1_p2"))}),
    objects({"algebra": mostly(algebra), "action_table": mostly(action_table)}),
)
expr = mostly(small | st.lists(st.integers(-3, 3), min_size=2, max_size=2))
coeff = mostly(st.integers(-2, 3) | st.tuples(st.just("binom"), expr, expr).map(list))
relations = mostly(st.lists(mostly(st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(
    lambda rs: objects({
        "r": mostly(st.just(max(rs))),
        "s": mostly(st.just(min(rs))),
        "terms": mostly(st.lists(mostly(st.tuples(coeff, expr, expr).map(list)), max_size=3)),
    })
)), max_size=3))
word = st.lists(st.integers(0, 6), max_size=3).map(lambda ix: ",".join(map(str, ix)))


@st.composite
def lawful_algebra(draw):
    """An algebra spec whose table terms obey the degree law, so that it
    parses and its sign law is checked: at odd p, a nonzero diagonal entry
    with odd sign exponent breaks that law."""
    p, dim_g = draw(st.sampled_from([3, 5, 2])), draw(st.integers(0, 2))
    degree_a, degree_b = draw(st.sampled_from([1, 3, 2])), draw(st.integers(0, 2))
    table = {}
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.integers(0, 4))
        b = draw(st.integers(a, 6)) if draw(st.booleans()) else a
        q, r = divmod(degree_a * (a + b) + degree_b + dim_g + 1, degree_a)
        coeffs = [] if r else draw(st.lists(st.sampled_from([1, 2, -1, 4]), min_size=1, max_size=2))
        table[(a, b)] = {"a": a, "b": b, "terms": [[c, q] for c in coeffs]}
    generator = {"name": "x", "degree_a": degree_a, "degree_b": degree_b}
    return {"p": p, "dim_g": dim_g, "generator": generator, "product_table": list(table.values())}


@st.composite
def lawful_circle_module(draw, max_pair_sum):
    """The circle module with a 0/1 product table that obeys the degree law
    on every pair a <= b with a + b <= max_pair_sum, as the candidate tables
    of verify cartan --table cover it; its Cartan sweep runs to a verdict."""
    table = [
        {"a": a, "b": b, "terms": [[draw(st.integers(0, 1)), a + b + 1]]}
        for a in range(max_pair_sum + 1) for b in range(a, max_pair_sum - a + 1)
    ]
    return {"algebra": dict(S1_SPEC_NO_TABLE, product_table=table), "action": "s1_p2"}


@st.composite
def command_lines(draw):
    """argv, with "{doc}" and "{relations}" standing for the files of the
    drawn documents, and the documents by name."""
    fmt = ("--format", draw(st.sampled_from(["text", "json"])))
    kind = draw(st.sampled_from(["signs", "compute", "adem", "cartan", "solve"]))
    if kind == "signs":
        doc = draw(lawful_algebra() if draw(st.booleans()) else algebra)
        return ["verify", "signs", "--spec", "{doc}", *fmt], {"doc": doc}
    if kind == "compute":
        argv = ["compute", "--module", "{doc}", "--word", draw(word),
                "--gen", str(draw(st.integers(0, 6))), *fmt]
        return argv, {"doc": draw(module)}
    if kind == "adem":
        docs = {"relations": draw(relations)}
        if draw(st.booleans()):
            docs["doc"] = draw(module)
        argv = ["verify", "adem", "--module", "{doc}" if "doc" in docs else "s1_p2",
                "--max-index", str(draw(st.integers(0, 6))),
                "--max-gen", str(draw(st.integers(0, 4))), "--relations", "{relations}", *fmt]
        return argv, docs
    if kind == "cartan":
        max_n, max_gen = draw(st.integers(0, 8)), draw(st.integers(0, 3))
        bounds = ["--max-n", str(max_n), "--max-gen", str(max_gen), *fmt]
        source = draw(st.sampled_from(["table", "lawful", "any"]))
        if source == "table":
            table = draw(st.sampled_from(["ones", "binomial", "zero"]))
            return ["verify", "cartan", "--module", "s1_p2", "--table", table, *bounds], {}
        size = 4 * max_gen + max_n // 2 + 2  # the size of the --table candidates
        doc = draw(lawful_circle_module(size) if source == "lawful" else module)
        return ["verify", "cartan", "--module", "{doc}", *bounds], {"doc": doc}
    argv = ["solve", "--module", "{doc}", "--max-degree", str(draw(st.integers(0, 12))), *fmt]
    if draw(st.booleans()):
        argv.append("--check")
    return argv, {"doc": draw(module)}


def run_documents(argv, docs):
    """main(argv) with each document written to its file; the exit code,
    stdout and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in docs.items():
            paths["{%s}" % name] = os.path.join(tmp, f"{name}.json")
            with open(paths["{%s}" % name], "w") as fh:
                json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([paths.get(arg, arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


class TestFuzzedDocuments:
    @given(command_lines())
    @settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_exit_codes_and_one_line_errors(self, case):
        """Every drawn document ends in exit 0-3 with no traceback, and a
        usage or data error writes exactly one line to stderr."""
        code, _, err = run_documents(*case)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        if code in (2, 3):
            assert err.endswith("\n") and len(err.splitlines()) == 1, err

    @pytest.mark.parametrize("name, shown", [("x\ny", "x\\ny"), ("\u2028", "\\u2028")])
    def test_line_break_in_a_name_is_escaped(self, name, shown):
        generator = {"name": name, "degree_a": 1, "degree_b": 0, "max_index": 0}
        doc = {"p": 3, "dim_g": 0, "generator": generator, "product_table": [{"a": 0, "b": 1, "terms": []}]}
        code, out, err = run_documents(["verify", "signs", "--spec", "{doc}"], {"doc": doc})
        assert (code, out) == (3, "")
        assert err == f"data error: algebra spec: generator index 1 out of range for family {shown}\n"
