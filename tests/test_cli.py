"""Command line interface output and exit codes."""

import csv
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from fresh_python import run_python
from sliceobs import cli, report
from sliceobs.cli import build_parser, main


def run_optimized_cli(args, timeout):
    """Run the CLI in a fresh interpreter under -O, which strips asserts."""
    return run_python(["-O", "-m", "sliceobs.cli", *args], timeout)


class TestObstructCommand:
    def test_plain_report(self, capsys):
        assert main(["obstruct", "--n", "11"]) == 0
        out = capsys.readouterr().out
        assert "n=11 chi+" in out
        assert "n=11 chi-" in out
        assert "factor degrees: [2, 2, 3, 3, 8]" in out
        assert "factor degrees: [4, 14]" in out
        assert "verdict: not slice" in out
        assert "MISMATCH" not in out

    def test_json_output(self, capsys):
        assert main(["obstruct", "--n", "11", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        assert {r["sign"] for r in rows} == {"+", "-"}
        assert rows[0]["verdict"] == "not slice"

    def test_csv_output(self, capsys):
        assert main(["obstruct", "--n", "11", "--csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["n", "sign", "s", "theta", "degree_sequence"]
        assert rows[1] == ["11", "+", "23", "2", "2 2 3 3 8"]
        assert rows[2] == ["11", "-", "23", "2", "4 14"]

    def test_explicit_witness(self, capsys):
        assert main(["obstruct", "--n", "5", "--s", "11"]) == 0
        out = capsys.readouterr().out
        assert "verdict: inconclusive" in out
        assert "norm obstructed: NO" in out

    def test_exhaustive_flag(self, capsys):
        assert main(["obstruct", "--n", "11", "--exhaustive"]) == 0
        assert "characters checked: 12" in capsys.readouterr().out

    def test_closed_stdout_ends_quietly(self):
        # a reader gone before the first write, as `| head -1` may be:
        # every write fails with a broken pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_python(["-m", "sliceobs.cli", "obstruct", "--n", "11",
                               "--json"], 120, stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == 1


class TestVerifyTableCommand:
    def test_single_row(self, capsys):
        assert main(["verify-table", "--n", "11"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] n=11 chi+" in out
        assert "[PASS] n=11 chi-" in out
        assert "2/2 rows verified" in out

    def test_json_exit_code(self, capsys):
        assert main(["verify-table", "--n", "11", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert all(r["ok"] for r in rows)

    def test_full_table(self, capsys):
        assert main(["verify-table", "--n", "all"]) == 0
        assert "6/6 rows verified" in capsys.readouterr().out

    # -O cannot change what the package does (tests/test_source.py), so
    # this twin of test_full_table runs with the scale checks
    @pytest.mark.scale
    def test_full_table_under_optimize(self):
        # the acceptance rows with every assert stripped
        proc = run_optimized_cli(["verify-table", "--n", "all"], 120)
        assert proc.returncode == 0, proc.stderr
        assert "6/6 rows verified" in proc.stdout


class TestHomologyCommand:
    def test_triple_cover(self, capsys):
        assert main(["homology", "--n", "11"]) == 0
        out = capsys.readouterr().out
        assert "Z/11 x Z/11 x Z/11 x Z/11" in out
        assert "order: 14641" in out

    def test_figure_eight_double_cover(self, capsys):
        assert main(["homology", "--n", "2", "--q", "2"]) == 0
        out = capsys.readouterr().out
        assert "Z/5" in out and "order: 5" in out


class TestLinkingCommand:
    def test_matrix_and_sign(self, capsys):
        assert main(["linking", "--n", "11"]) == 0
        out = capsys.readouterr().out
        assert "basis (a, ta, b, tb)" in out
        assert "matches closed form with global sign" in out
        # k/n = 5/11 shows up off the diagonal
        assert "5/11" in out


class TestMetabolizersCommand:
    def test_counts_and_orbits(self, capsys):
        assert main(["metabolizers", "--n", "11"]) == 0
        out = capsys.readouterr().out
        assert "12 metabolizers" in out
        assert "orbit sizes [1, 11]" in out
        assert "fixed: generated by" in out
        assert "orbit of 11" in out

    def test_shares_the_census_with_obstruct(self, monkeypatch, capsys):
        forms = []
        linking_form = report.linking_form

        def counted(n):
            forms.append(n)
            return linking_form(n)

        monkeypatch.setattr(report, "linking_form", counted)
        report.census.cache_clear()
        try:
            assert main(["metabolizers", "--n", "17"]) == 0
            assert main(["obstruct", "--n", "17"]) == 0
        finally:
            report.census.cache_clear()
        assert forms == [17]
        assert "18 metabolizers" in capsys.readouterr().out


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ["obstruct", "--n", "7"],
        ["obstruct", "--n", "12"],
        ["obstruct", "--n", "11", "--s", "24"],
        ["obstruct", "--n", "11", "--theta", "5"],
        ["homology", "--n", "3"],
        ["homology", "--n", "11", "--q", "0"],
        ["homology", "--n", "11", "--q", "-2"],
        ["verify-table", "--n", "29"],
        ["verify-table", "--n", "5"],
        ["linking", "--n", "3"],
        ["linking", "--n", "4"],
        ["homology", "--n", "11", "--q", "1001"],
        ["homology", "--n", "501"],
        ["linking", "--n", "100003"],
        ["metabolizers", "--n", "503"],
        ["obstruct", "--n", "503", "--s", "4024"],
        ["obstruct", "--n", "11", "--s", str(10 ** 25 + 1)],
        ["obstruct", "--n", "x"],
        ["verify-table", "--n", "11,17"],
        ["obstruct", "--n", "11", "--json", "--csv"],
        ["obstruct", "--n", "11", "--s", "111"],
    ])
    def test_one_line_error_and_exit_code_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("sliceobs: error: ")

    def test_theta_is_used_as_typed_or_refused(self, capsys):
        # 25 = 2 mod 23 has order 11; reducing it would report a theta
        # that was not typed
        argv = ["obstruct", "--n", "11", "--s", "23", "--csv"]
        assert main(argv + ["--theta", "25"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("sliceobs: error: theta=25 is outside "
                                "[0, 23); its residue mod 23 is 2\n")
        assert main(argv + ["--theta", "2"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["2", "2"]

    @pytest.mark.parametrize("argv", [["homology", "--n", "3", "--q", "2"],
                                      ["linking", "--n", "3"]])
    def test_link_member_is_named(self, argv, capsys):
        # n = 3 closes to the Borromean rings, whose double cover has H_1
        # of order 16: neither "infinite" nor a root of unity of Delta
        # applies
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "sliceobs: error: the closure for n=3 is a 3-component link, "
            "not a knot\n")

    def test_verify_table_names_the_table_rows(self, capsys):
        assert main(["verify-table", "--n", "29"]) == 2
        err = capsys.readouterr().err
        assert "11, 17, 23" in err
        assert "pass s" not in err

    @pytest.mark.parametrize("command", ("obstruct", "verify-table"))
    def test_non_integer_n_names_the_option(self, command, capsys):
        assert main([command, "--n", "x"]) == 2
        assert capsys.readouterr().err == (
            "sliceobs: error: --n takes an integer or 'all', not 'x'\n")

    def test_two_output_formats_are_refused_before_any_work(self,
                                                            monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("obstruct ran")
        monkeypatch.setattr(cli, "obstruct", no_work)
        assert main(["obstruct", "--n", "all", "--csv", "--json"]) == 2

    @pytest.mark.parametrize("n", ["499", "497"])
    def test_metabolizers_refuses_the_class_before_the_linking_form(
            self, monkeypatch, n, capsys):
        def linking_form(n):
            pytest.fail(f"linking_form({n}) ran before the refusal")

        monkeypatch.setattr(cli, "linking_form", linking_form)
        assert main(["metabolizers", "--n", n]) == 2
        assert capsys.readouterr().err == (
            "sliceobs: error: classification needs a prime n = 5 mod 6\n")

    # the twin of test_one_line_error_and_exit_code_2 at --s 111, which
    # runs with the scale checks, as -O cannot change the package
    @pytest.mark.scale
    def test_composite_s_fails_fast_under_optimize(self):
        # input checks must not be asserts, which -O strips
        proc = run_optimized_cli(["obstruct", "--n", "11", "--s", "111"], 60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("sliceobs: error: ")


@st.composite
def small_argv(draw):
    """An argument list for one of the five subcommands, with n <= 40,
    q <= 6 and s, theta < 200, so that no large job starts."""
    n = draw(st.integers(-3, 40))
    command = draw(st.sampled_from(
        ("obstruct", "verify-table", "homology", "linking", "metabolizers")))
    if command in ("obstruct", "verify-table"):
        text = draw(st.sampled_from((str(n), "all", "x", "")))
        argv = [command, "--n", text]
    else:
        argv = [command, "--n", str(n)]
    if command == "obstruct":
        for flag in ("--s", "--theta"):
            if draw(st.booleans()):
                argv += [flag, str(draw(st.integers(-3, 199)))]
        argv += draw(st.sampled_from(([], ["--exhaustive"])))
        argv += draw(st.sampled_from(([], ["--json"], ["--csv"])))
    elif command == "verify-table":
        argv += draw(st.sampled_from(([], ["--json"])))
    elif command == "homology" and draw(st.booleans()):
        argv += ["--q", str(draw(st.integers(-2, 6)))]
    return argv


@settings(max_examples=80, deadline=None)
@given(small_argv())
def test_small_inputs_answer_or_refuse_in_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, code, err.getvalue())
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, (argv, lines)
        assert lines[0].startswith("sliceobs: error: "), (argv, lines)
        assert out.getvalue() == "", argv


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_prog_name(self):
        assert build_parser().prog == "sliceobs"
