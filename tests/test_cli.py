import json
import subprocess
import sys

import pytest

import sunflower as sf
from sunflower import bounds, scan_to_csv, conjecture_scan
from sunflower.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDetectCommands:
    def test_sets_found(self, capsys):
        code, out, _ = run(capsys, "detect", "sets", "--inline", "1;2;3")
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] is True
        assert payload["witness"]["members"] == [0, 1, 2]
        assert payload["detector"] == "fast"

    def test_sets_absent(self, capsys):
        code, out, _ = run(capsys, "detect", "sets", "--inline", "1 2;2 3;1 3")
        assert code == 0
        assert json.loads(out) == {
            "detector": "fast",
            "found": False,
            "t": 3,
            "witness": None,
        }

    def test_sets_naive_flag(self, capsys):
        # --t alone picks the detector; both return the lex-first witness
        code, out, err = run(capsys, "detect", "sets", "--inline", "1;2;3", "--naive")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --naive" in err

    def test_sets_t_two(self, capsys):
        code, out, _ = run(capsys, "detect", "sets", "--inline", "1 2;3 4", "--t", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["t"] == 2
        assert payload["found"] is True

    def test_vectors(self, capsys):
        code, out, _ = run(
            capsys, "detect", "vectors", "--moduli", "3,3", "--inline", "0,0;1,1;2,2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] is True
        assert payload["witness"]["coordinate_classes"] == [
            "all-distinct",
            "all-distinct",
        ]

    def test_ap(self, capsys):
        code, out, _ = run(
            capsys, "detect", "ap", "--moduli", "5", "--inline", "0;1;2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] is True
        assert payload["witness"]["members"] == [0, 1, 2]
        assert payload["witness"]["is_sunflower"] is True

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("1 2\n2 3\n")
        code, out, _ = run(capsys, "detect", "sets", "--in", str(path))
        assert code == 0
        assert json.loads(out)["found"] is False


class TestBoundsCommand:
    def test_uniform_context_json(self, capsys):
        code, out, _ = run(capsys, "bounds", "--k", "2", "--M", "6")
        assert code == 0
        reports = json.loads(out)
        names = [r["name"] for r in reports]
        assert "erdos-rado-threshold" in names
        assert "main-bound" in names

    def test_vector_context_table(self, capsys):
        code, out, _ = run(capsys, "bounds", "--moduli", "3,3", "--format", "table")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert any("generalized-ns" in l for l in lines)

    def test_large_k_prints_without_the_threshold(self, capsys):
        # the threshold's "p/q" would pass Python's 4,300-digit limit
        code, out, err = run(capsys, "bounds", "--k", "1424", "--M", "1425")
        assert code == 0 and "Traceback" not in err
        names = [r["name"] for r in json.loads(out)]
        assert names == ["kostochka", "main-bound"]

    def test_j_subcommand(self, capsys):
        code, out, _ = run(capsys, "bounds", "j", "--q", "3")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["j"] - 0.9184) < 5e-5
        assert payload["exactness"] == "float"

    def test_j_subcommand_past_the_grid(self, capsys):
        # the minimizer of q = 2048 lies past 256/257, beyond a 256-point grid;
        # 0.8415814688892821 is mp_j_constant(2048) of tests/oracles.py
        code, out, _ = run(capsys, "bounds", "j", "--q", "2048")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["j"] - 0.8415814688892821) <= payload["radius"]
        assert round(payload["j"], 5) == 0.84158

    def test_j_subcommand_near_one(self, capsys):
        # 0.8414343723436019 is mp_j_constant(10**12) of tests/oracles.py
        code, out, _ = run(capsys, "bounds", "j", "--q", "1000000000000")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["j"] - 0.8414343723436019) <= payload["radius"] <= 1e-6

    @pytest.mark.parametrize("q", ["5", "2048"])
    def test_j_tol_above_the_relative_rule_changes_nothing(self, capsys, monkeypatch, q):
        # the bracket also stops only within 1e-6 of s <= 1.5, which binds first
        # here, so absolute stop widths of 1e-3 and 1e-6 print the same bytes
        monkeypatch.setattr(bounds, "_J_ABS_TOL", 1e-3)
        _, coarse, _ = run(capsys, "bounds", "j", "--q", q)
        monkeypatch.setattr(bounds, "_J_ABS_TOL", 1e-6)
        _, fine, _ = run(capsys, "bounds", "j", "--q", q)
        assert coarse == fine

    def test_j_subcommand_beyond_double_precision(self, capsys):
        code, out, err = run(capsys, "bounds", "j", "--q", "10000000000000000")
        assert code == 1 and "Traceback" not in err
        assert json.loads(out)["error"] == "DomainError"

    @pytest.mark.parametrize("tol", ["1e-6", "nan"])
    def test_j_tol_flag_is_a_usage_error(self, capsys, tol):
        code, out, err = run(capsys, "bounds", "j", "--q", "3", "--tol", tol)
        assert code == 2 and out == ""
        assert "unrecognized arguments: --tol" in err

    def test_missing_context_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bounds")
        assert code == 2
        assert "error" in err


class TestReduceCommand:
    def test_pipeline_derandomized(self, capsys):
        code, out, _ = run(capsys, "reduce", "pipeline", "--inline", "1 2;3 4;1 3;2 4")
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "derandomized"
        assert all(payload["certificates"].values())

    def test_pipeline_seeded_deterministic(self, capsys):
        argv = ["reduce", "pipeline", "--inline", "1 2;3 4;1 3;2 4", "--seed", "7"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["seed"] == 7

    def test_pipeline_sunflower_input_fails_with_witness(self, capsys):
        code, out, _ = run(capsys, "reduce", "pipeline", "--inline", "1 2;1 3;1 4")
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "InputHasSunflower"
        assert payload["witness"]["members"] == [0, 1, 2]

    @pytest.mark.parametrize("rounds", ["0", "3"])
    @pytest.mark.parametrize("mode", [()], ids=["default"])
    def test_rounds_without_seed_is_usage_error(self, capsys, rounds, mode):
        code, out, err = run(capsys, "reduce", "pipeline", "--inline", "1 2;3 4", *mode,
                             "--rounds", rounds)
        assert code == 2 and out == ""
        assert "error: --rounds needs --seed" in err

    def test_seeded_rounds_unchanged(self, capsys):
        argv = ["reduce", "pipeline", "--inline", "1 2;3 4;1 3;2 4", "--seed", "3"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["rounds"] == 1
        assert run(capsys, *argv, "--rounds", "1")[:2] == (0, out)
        code, out, _ = run(capsys, *argv, "--rounds", "3")
        assert code == 0 and json.loads(out)["rounds"] == 3
        code, out, _ = run(capsys, *argv, "--rounds", "0")
        assert code == 1 and json.loads(out)["error"] == "DomainError"

    def test_blank_member_error_names_no_option(self, capsys):
        # pipeline has no way to accept an empty member, so the error offers none
        code, out, _ = run(capsys, "reduce", "pipeline", "--inline", ";1 2")
        assert code == 1
        payload = json.loads(out)
        assert payload == {"error": "EmptySet", "message": "line 1: empty member"}

    def test_seed_conflicts_with_derandomize(self, capsys):
        # derandomized is the mode without --seed, so there is no flag for it
        code, out, err = run(capsys, "reduce", "pipeline", "--inline", "1 2", "--seed", "3",
                             "--derandomize")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --derandomize" in err


class TestSearchCommands:
    def test_vectors(self, capsys):
        code, out, _ = run(capsys, "search", "vectors", "--moduli", "3,3")
        assert code == 0
        payload = json.loads(out)
        assert payload["maximum"] == 4
        assert payload["optimal"] is True
        assert payload["witness"] == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_uniform(self, capsys):
        code, out, _ = run(capsys, "search", "uniform", "--k", "2", "--m", "6")
        assert code == 0
        assert json.loads(out)["maximum"] == 6

    def test_no_anchor(self, capsys):
        # every search with a point is anchored; the walk without it finds the same answer
        code, out, err = run(capsys, "search", "vectors", "--moduli", "3,3", "--no-anchor")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --no-anchor" in err
        code, out, _ = run(capsys, "search", "vectors", "--moduli", "3,3")
        assert code == 0 and json.loads(out)["stats"]["anchored"] is True

    def test_budget_marks_non_optimal(self, capsys):
        code, out, _ = run(
            capsys,
            "search",
            "vectors",
            "--moduli",
            "3,3,3",
            "--budget-nodes",
            "3",
        )
        assert code == 0
        assert json.loads(out)["optimal"] is False

    @pytest.mark.parametrize(
        "argv,points",
        [
            pytest.param(("vectors", "--moduli", ",".join(["2"] * 17)), 131072, id="vectors"),
            pytest.param(("uniform", "--k", "3", "--m", "75"), 67525, id="uniform"),
        ],
    )
    def test_point_ceiling_is_too_large(self, capsys, argv, points):
        # the ceiling is the constant 2^16 points
        code, out, _ = run(capsys, "search", *argv)
        assert code == 1
        assert json.loads(out) == {
            "error": "TooLarge",
            "message": f"instance has {points} points, ceiling is 65536",
        }


    @pytest.mark.parametrize(
        "argv,message",
        [
            (("vectors", "--moduli", "3,3", "--budget-nodes", "-3"), "max_nodes"),
            (("vectors", "--moduli", "3,3", "--time-limit", "nan"), "time_limit"),
            (("uniform", "--k", "2", "--m", "5", "--time-limit", "-1"), "time_limit"),
        ],
    )
    def test_bad_budgets_are_domain_errors(self, capsys, argv, message):
        code, out, _ = run(capsys, "search", *argv)
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "DomainError" and message in payload["message"]


class TestCnfCommands:
    def test_export_stdout_dimacs(self, capsys):
        code, out, _ = run(capsys, "cnf", "export", "--moduli", "3", "--size", "2")
        assert code == 0
        assert out.startswith("c ")
        assert "p cnf 9 13" in out

    def test_export_via_search_alias(self, capsys):
        # the alias is gone: only `cnf export` exports
        code, out, err = run(capsys, "search", "cnf", "--moduli", "3", "--size", "2")
        assert code == 2 and out == ""
        assert "invalid choice: 'cnf'" in err
        assert run(capsys, "cnf", "export", "--moduli", "3", "--size", "2")[0] == 0

    def test_export_to_file(self, capsys, tmp_path):
        target = tmp_path / "inst.cnf"
        code, out, _ = run(
            capsys,
            "cnf",
            "export",
            "--k",
            "2",
            "--m",
            "4",
            "--size",
            "3",
            "--out",
            str(target),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["written"] == str(target)
        text = target.read_text()
        assert f"p cnf {summary['num_vars']} {summary['num_clauses']}" in text

    def test_check_satisfiable_boundary(self, capsys):
        code, out, _ = run(capsys, "cnf", "check", "--k", "2", "--m", "6", "--size", "6")
        assert code == 0
        assert json.loads(out)["satisfiable"] is True
        code, out, _ = run(capsys, "cnf", "check", "--k", "2", "--m", "6", "--size", "7")
        assert code == 0
        assert json.loads(out)["satisfiable"] is False

    def test_check_target_above_the_point_count(self, capsys):
        # answered from the 9 point variables, with no counter over the target
        code, out, _ = run(capsys, "cnf", "check", "--moduli", "3,3", "--size", "1000000000")
        assert code == 0
        assert json.loads(out) == {
            "num_clauses": 15, "num_vars": 9, "satisfiable": False, "size": 10**9,
        }

    @pytest.mark.parametrize(
        "flags",
        [
            ("--moduli", "3,3"),
            ("--moduli", "2,2,3"),
            ("--k", "2", "--m", "5"),
            ("--moduli", "3,5"),
            ("--k", "3", "--m", "5"),
            ("--k", "3", "--m", "2"),  # no points
        ],
    )
    def test_anchored_check_agrees_with_the_search_maximum(self, capsys, flags):
        _, out, _ = run(capsys, "search", "uniform" if "--k" in flags else "vectors", *flags)
        maximum = json.loads(out)["maximum"]
        for size in range(maximum + 2):
            _, out, _ = run(capsys, "cnf", "check", *flags, "--size", str(size))
            assert json.loads(out)["satisfiable"] is (size <= maximum)

    @pytest.mark.parametrize(
        "flags",
        [
            ("--moduli", "3,3", "--size", "5"),
            ("--moduli", "2,3", "--size", "1"),
            ("--k", "2", "--m", "5", "--size", "0"),
            ("--k", "3", "--m", "2", "--size", "2"),  # no points
        ],
    )
    def test_check_counts_the_exported_clauses(self, capsys, tmp_path, flags):
        _, out, _ = run(capsys, "cnf", "check", *flags)
        checked = json.loads(out)
        _, out, _ = run(capsys, "cnf", "export", *flags, "--out", str(tmp_path / "f.cnf"))
        exported = json.loads(out)
        assert checked["num_clauses"] == exported["num_clauses"]
        assert checked["num_vars"] == exported["num_vars"]

    def test_check_deeper_than_the_recursion_limit(self, capsys):
        # 2,673 variables, and DPLL makes more nested decisions than Python's
        # default recursion limit allows frames
        code, out, _ = run(capsys, "cnf", "check", "--moduli", "3,3,3,3,3", "--size", "10")
        assert code == 0
        payload = json.loads(out)
        assert payload["num_vars"] == 2673
        assert payload["satisfiable"] is True

    def test_moduli_and_uniform_flags_conflict(self, capsys):
        code, _, err = run(
            capsys,
            "cnf",
            "export",
            "--moduli",
            "3",
            "--k",
            "2",
            "--m",
            "4",
            "--size",
            "1",
        )
        assert code == 2

    def test_uniform_needs_both_flags(self, capsys):
        code, _, err = run(capsys, "cnf", "export", "--k", "2", "--size", "1")
        assert code == 2

    @pytest.mark.parametrize("command", ["export", "check"])
    def test_no_instance_flags_names_both_forms(self, capsys, command):
        code, out, err = run(capsys, "cnf", command, "--size", "1")
        assert (code, out) == (2, "")
        assert err == "error: give --moduli or both --k and --m\n"


class TestConjectureCommand:
    def test_scan_json(self, capsys):
        code, out, _ = run(capsys, "conjecture", "scan", "--k", "2", "--m", "4..6")
        assert code == 0
        rows = json.loads(out)
        assert [r["max_union"] for r in rows] == [4, 5, 6]

    def test_scan_csv_file(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, _, _ = run(
            capsys,
            "conjecture",
            "scan",
            "--k",
            "2",
            "--m",
            "4..5",
            "--csv",
            str(target),
        )
        assert code == 0
        assert target.read_text() == scan_to_csv(conjecture_scan([2], [4, 5]))

    @pytest.mark.parametrize("flag,value", [("--budget-nodes", "-1"), ("--time-limit", "nan")])
    def test_bad_budgets_are_domain_errors(self, capsys, flag, value):
        code, out, _ = run(capsys, "conjecture", "scan", "--k", "2", "--m", "4", flag, value)
        assert code == 1
        assert json.loads(out)["error"] == "DomainError"

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "conjecture", "scan", "--k", "x", "--m", "4")
        assert code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("search", "vectors", "--moduli", "3,x"), "bad moduli list '3,x'"),
            (("conjecture", "scan", "--k", "1..x", "--m", "4"), "bad range '1..x'"),
            (("conjecture", "scan", "--k", "3..1", "--m", "4"), "empty range '3..1'"),
        ],
    )
    def test_bad_lists_and_ranges_exit_2_with_empty_stdout(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert message in err


class TestCliContract:
    def test_unknown_command_is_usage_error(self, capsys):
        assert run(capsys, "nonsense")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_missing_input_is_usage_error(self, capsys):
        code, _, err = run(capsys, "detect", "sets")
        assert code == 2
        assert "provide --in FILE or --inline TEXT" in err

    def test_both_inputs_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1 2\n")
        code, _, _ = run(
            capsys, "detect", "sets", "--in", str(path), "--inline", "1 2"
        )
        assert code == 2

    @pytest.mark.parametrize("content", [None, b"1 2\n\xff 3\n"], ids=["missing", "not-utf-8"])
    def test_missing_file_is_usage_error(self, capsys, tmp_path, content):
        path = tmp_path / "family.txt"
        if content is not None:
            path.write_bytes(content)
        code, _, err = run(capsys, "detect", "sets", "--in", str(path))
        assert code == 2
        assert f"error: cannot read {path}: " in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("cnf", "export", "--moduli", "3,3", "--size", "4", "--out"),
            ("conjecture", "scan", "--k", "2", "--m", "4", "--csv"),
        ],
        ids=["cnf-out", "scan-csv"],
    )
    def test_unwritable_output_file_is_usage_error(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run(capsys, *argv, str(target))
        assert code == 2 and out == ""
        assert f"error: cannot write {target}: " in err and "Traceback" not in err

    def test_domain_errors_emit_json_on_stdout(self, capsys):
        code, out, _ = run(capsys, "detect", "sets", "--inline", "1 2;2 1")
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "DuplicateMember"
        assert "message" in payload

    def test_calls_in_a_row_match_fresh_processes(self, capsys):
        # main reuses one parser; a call after a parse failure or after
        # --help must print what a fresh process prints
        argvs = [
            ["detect", "sets", "--inline", "1;2;3"],
            ["search", "uniform", "--k", "2", "--m", "bogus"],
            ["bounds", "--k", "2", "--M", "6"],
            ["reduce", "pipeline", "--help"],
            ["reduce", "pipeline", "--inline", "1 2;3 4", "--seed", "3"],
            ["detect", "sets", "--inline", "1;2;3", "--t", "2"],
        ]
        codes = []
        for argv in argvs:
            code, out, _ = run(capsys, *argv)
            proc = subprocess.run([sys.executable, "-m", "sunflower", *argv],
                                  capture_output=True)
            assert (code, out.encode()) == (proc.returncode, proc.stdout), argv
            codes.append(code)
        assert codes == [0, 2, 0, 0, 0, 0]

    def test_repeat_invocations_byte_identical(self, capsys):
        argv = ["search", "uniform", "--k", "2", "--m", "5"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_threads_flag_does_not_change_output(self, capsys):
        base = ["conjecture", "scan", "--k", "2", "--m", "4..5"]
        _, out1, _ = run(capsys, *base, "--threads", "1")
        _, out2, _ = run(capsys, *base, "--threads", "4")
        assert out1 == out2

    def test_threads_env_var(self, capsys, monkeypatch):
        # SUNFLOWER_THREADS is not read: no exit code or output depends on it
        argvs = [
            ["conjecture", "scan", "--k", "2", "--m", "4"],
            ["search", "uniform", "--k", "2", "--m", "4"],
            ["search", "vectors", "--moduli", "3,3", "--threads", "0"],
        ]
        for argv in argvs:
            monkeypatch.delenv("SUNFLOWER_THREADS", raising=False)
            expected = run(capsys, *argv)
            for env in ("4", "0", "bogus"):
                monkeypatch.setenv("SUNFLOWER_THREADS", env)
                assert run(capsys, *argv) == expected, (argv, env)

    def test_invalid_threads_value(self, capsys):
        code, out, err = run(
            capsys, "search", "vectors", "--moduli", "3,3", "--threads", "0"
        )
        assert code == 2 and out == ""
        assert "thread count must be at least 1" in err

    @pytest.mark.parametrize("seed", [(), ("--seed", "7")], ids=["derandomized", "seeded"])
    def test_pipeline_checks_threads_with_or_without_seed(self, capsys, seed):
        # reduce pipeline takes no --threads, so any count is an unknown argument
        argv = ["reduce", "pipeline", "--inline", "1 2;3 4", *seed]
        code, out, err = run(capsys, *argv, "--threads", "0")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --threads 0" in err

    @pytest.mark.parametrize("seed", [(), ("--seed", "7")], ids=["derandomized", "seeded"])
    def test_pipeline_checks_threads_env_var_with_or_without_seed(
        self, capsys, monkeypatch, seed
    ):
        # the variable is not read: a bogus value changes no exit code or byte
        argv = ["reduce", "pipeline", "--inline", "1 2;3 4", *seed]
        expected = run(capsys, *argv)
        monkeypatch.setenv("SUNFLOWER_THREADS", "bogus")
        assert run(capsys, *argv) == expected and expected[0] == 0

    def test_commands_without_threads_ignore_the_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("SUNFLOWER_THREADS", "bogus")
        code, out, _ = run(capsys, "detect", "sets", "--inline", "1;2;3")
        assert code == 0 and json.loads(out)["found"] is True


class TestHelpLayout:
    SUBPARSERS = (
        [],
        ["detect"],
        ["detect", "sets"],
        ["bounds"],
        ["bounds", "j"],
        ["reduce", "pipeline"],
        ["search", "vectors"],
        ["search", "uniform"],
        ["cnf", "export"],
        ["conjecture", "scan"],
    )

    @pytest.mark.parametrize("path", SUBPARSERS, ids=lambda p: "-".join(p) or "root")
    def test_help_renders_within_pinned_width(self, capsys, path):
        code, out, _ = run(capsys, *path, "--help")
        assert code == 0
        assert out.startswith("usage: sunflower")
        assert all(len(line) <= 96 for line in out.splitlines())

    def test_help_render_is_stable(self, capsys):
        _, out1, _ = run(capsys, "--help")
        _, out2, _ = run(capsys, "--help")
        assert out1 == out2
        for word in ("detect", "bounds", "reduce", "search", "conjecture", "cnf"):
            assert word in out1

    def test_parser_builds_without_side_effects(self):
        p1 = build_parser()
        p2 = build_parser()
        assert p1.format_help() == p2.format_help()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sunflower", "bounds", "--k", "2", "--M", "6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[0]["name"]


_FAMILY = "1 2\n3 4\n1 3\n2 4\n"


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: sf.pipeline(sf.parse_set_family(_FAMILY), mode="seeded", seed=7),
                     id="pipeline-mode"),
        pytest.param(lambda: sf.pipeline(sf.parse_set_family(_FAMILY), threads=1),
                     id="pipeline-threads"),
        pytest.param(lambda: sf.max_sunflower_free_vectors((3, 3), threads=1),
                     id="max_sunflower_free_vectors-threads"),
        pytest.param(lambda: sf.max_sunflower_free_uniform(2, 4, threads=1),
                     id="max_sunflower_free_uniform-threads"),
        pytest.param(["search", "uniform", "--k", "2", "--m", "4", "--threads", "1"],
                     id="search-uniform--threads"),
        pytest.param(["reduce", "pipeline", "--inline", "1 2;3 4", "--threads", "1"],
                     id="reduce-pipeline--threads"),
        pytest.param(lambda: sf.max_sunflower_free_vectors((3, 3), point_ceiling=10**5),
                     id="max_sunflower_free_vectors-point_ceiling"),
        pytest.param(lambda: sf.max_sunflower_free_uniform(2, 4, point_ceiling=10**5),
                     id="max_sunflower_free_uniform-point_ceiling"),
        pytest.param(["search", "vectors", "--moduli", "3,3", "--point-ceiling", "100000"],
                     id="search-vectors--point-ceiling"),
        pytest.param(["search", "uniform", "--k", "2", "--m", "4", "--point-ceiling", "100000"],
                     id="search-uniform--point-ceiling"),
        pytest.param(["reduce", "pipeline", "--inline", "1 2;3 4", "--allow-empty"],
                     id="reduce-pipeline--allow-empty"),
        pytest.param(["reduce", "pipeline", "--inline", "1 2;3 4", "--json", "out.json"],
                     id="reduce-pipeline--json"),
        pytest.param(lambda: sf.ek_partition(sf.parse_set_family(_FAMILY), k=2),
                     id="ek_partition-k"),
        pytest.param(lambda: sf.kostochka_value(20, alpha=2.0), id="kostochka_value-alpha"),
        pytest.param(lambda: sf.kostochka_value(20, constant=1.0),
                     id="kostochka_value-constant"),
    ],
)
def test_removed_option_is_refused(capsys, call):
    """Each deleted keyword raises TypeError; each deleted flag exits 2 with empty stdout."""
    if callable(call):
        with pytest.raises(TypeError):
            call()
        return
    code, out, err = run(capsys, *call)
    assert code == 2 and out == ""
    flag = max(i for i, a in enumerate(call) if a.startswith("--"))  # the removed flag is last
    assert f"unrecognized arguments: {' '.join(call[flag:])}" in err
