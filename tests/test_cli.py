"""Command line behavior: determinism, formats, exit codes."""

import subprocess
import sys

import pytest

from antinef import cli, degree_function, parse_scenario, selfcheck
from antinef.cli import main

CUSP_SCENARIO = """\
[cluster CUSP]
point = free parent=0 param=0
point = satellite parent=1 other=0

[divisor E2 on CUSP]
coeffs = 0 0 1

[element CURVE]
poly = y^2 - x^3

[filtration FAM]
kind = qdivisorial
divisor = E2

[task]
kind = value_vector
cluster = CUSP
element = CURVE

[task]
kind = multiplicity_limit
filtration = FAM
nmax = 12
"""


def run_cli(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    return code, out.read_bytes()


class TestExample42:
    def test_csv_deterministic_and_contains_headline_values(self, tmp_path):
        code1, bytes1 = run_cli(["example42", "--nmax", "10", "--format", "csv"], tmp_path, "a.csv")
        code2, bytes2 = run_cli(["example42", "--nmax", "10", "--format", "csv"], tmp_path, "b.csv")
        assert code1 == code2 == 0
        assert bytes1 == bytes2
        text = bytes1.decode()
        assert "\n1,10,10,4\n" in text  # n=1 row: e_I1 = 10
        assert "commute=false" in text
        assert "sum_of_lims=1" in text

    def test_table_format(self, tmp_path):
        code, data = run_cli(["example42", "--nmax", "3", "--format", "table"], tmp_path)
        assert code == 0
        assert b"e_In" in data and b"," not in data.split(b"\n")[1]

    def test_parallel_is_refused(self, tmp_path, capsys):
        scenario = tmp_path / "s.scn"
        scenario.write_text(CUSP_SCENARIO)
        for argv in (
            ["example42", "--parallel"],
            ["run", "--scenario", str(scenario), "--parallel"],
        ):
            assert exit_code(argv) == 2
            assert capsys.readouterr().out == ""

    def test_bad_nmax(self, capsys):
        assert main(["example42", "--nmax", "0"]) == 2


def exit_code(argv) -> int:
    """``main``'s status, whether it returns it or argparse exits with it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestIntegerOptions:
    """Integer options are read like a ``nat`` of the scenario grammar."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["example42", "--nmax", "1_0"],
            ["example42", "--nmax", "+5"],
            ["example42", "--nmax", "\u0665"],  # ARABIC-INDIC DIGIT FIVE
            ["selftest", "--trials", "0"],
            ["selftest", "--trials", "-5"],
        ],
    )
    def test_rejected_with_exit_2_and_no_output(self, argv, capsys):
        assert exit_code(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv, option",
        [(["example42", "--nmax", "-3"], "nmax"), (["selftest", "--trials", "-5"], "trials")],
    )
    def test_nonpositive_count_message(self, argv, option, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: --{option} must be positive\n"

    @pytest.mark.parametrize("command", ["example42", "run"])
    def test_nmax_above_the_limit(self, command, tmp_path, capsys):
        scn = tmp_path / "s.scn"
        scn.write_text(CUSP_SCENARIO)
        argv = [command, "--nmax", "1001"] + (["--scenario", str(scn)] if command == "run" else [])
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: --nmax must be at most 1000\n")

    def test_scenario_nmax_above_the_limit(self, tmp_path, capsys):
        scn = tmp_path / "s.scn"
        scn.write_text(CUSP_SCENARIO.replace("nmax = 12", "nmax = 1001"))
        assert main(["run", "--scenario", str(scn)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "nmax must be at most 1000" in err


BIG = "7" * 5000  # past the interpreter's 4300-digit limit on reading an int


class TestOversizedLiterals:
    """A literal above the digit cap is refused with a message of its own,
    not the interpreter's, and is not echoed back."""

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("poly = y^2 - x^3", f"poly = y^2 - {BIG}*x^3",
             "line 9: bad polynomial: a numerator of 5000 digits exceeds the digit cap 4300 "
             "(at position 6)"),
            ("poly = y^2 - x^3", f"poly = y^2 - 1/{BIG}*x^3",
             "line 9: bad polynomial: a denominator of 5000 digits exceeds the digit cap 4300 "
             "(at position 8)"),
            ("poly = y^2 - x^3", f"poly = y^{BIG} - x^3",
             "line 9: bad polynomial: an exponent of 5000 digits exceeds the digit cap 4300 "
             "(at position 2)"),
            ("param=0", f"param={BIG}", "line 2: param of 5000 digits exceeds the digit cap 4300"),
            ("coeffs = 0 0 1", f"coeffs = 0 0 {BIG}",
             "line 6: coefficient of 5000 digits exceeds the digit cap 4300"),
            ("nmax = 12", f"nmax = {BIG}",
             "line 23: nmax of 5000 digits exceeds the digit cap 4300"),
            ("kind = multiplicity_limit\nfiltration = FAM\nnmax = 12",
             f"kind = degree_limits\nfiltration = FAM\nnmax = 12\nlabels = v0 v{BIG}",
             "line 24: label of 5000 digits exceeds the digit cap 4300"),
        ],
        ids=["numerator", "denominator", "exponent", "param", "coeffs", "nmax", "label"],
    )
    def test_in_a_scenario(self, old, new, message, tmp_path, capsys):
        scn = tmp_path / "s.scn"
        scn.write_text(CUSP_SCENARIO.replace(old, new, 1))
        assert main(["run", "--scenario", str(scn)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["example42", "run"])
    def test_nmax_option(self, command, tmp_path, capsys):
        scn = tmp_path / "s.scn"
        scn.write_text(CUSP_SCENARIO)
        argv = [command, "--nmax", BIG] + (["--scenario", str(scn)] if command == "run" else [])
        assert exit_code(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --nmax: integer of 5000 digits exceeds the digit cap 4300" in err
        assert BIG not in err and "set_int_max_str_digits" not in err


class TestRun:
    def test_scenario_roundtrip(self, tmp_path):
        scn = tmp_path / "cusp.scn"
        scn.write_text(CUSP_SCENARIO)
        code, data = run_cli(["run", "--scenario", str(scn), "--format", "csv"], tmp_path)
        assert code == 0
        text = data.decode()
        assert "i,m_i,v_i" in text
        assert "2,1,6" in text  # point 2 of the cusp: m=1, v=6
        assert "closed_form=1/6" in text

    def test_determinism(self, tmp_path):
        scn = tmp_path / "cusp.scn"
        scn.write_text(CUSP_SCENARIO)
        _, b1 = run_cli(["run", "--scenario", str(scn), "--format", "csv"], tmp_path, "1.csv")
        _, b2 = run_cli(["run", "--scenario", str(scn), "--format", "csv"], tmp_path, "2.csv")
        assert b1 == b2

    def test_nmax_override(self, tmp_path):
        scn = tmp_path / "cusp.scn"
        scn.write_text(CUSP_SCENARIO)
        code, data = run_cli(
            ["run", "--scenario", str(scn), "--format", "csv", "--nmax", "3"], tmp_path
        )
        assert code == 0
        assert b"nmax=3" in data
        assert b"\n4," not in data.split(b"# task 2")[1]

    def test_parse_error_exit_2(self, tmp_path, capsys):
        scn = tmp_path / "bad.scn"
        scn.write_text("[task]\nkind = unload\ndivisor = NOPE\n")
        assert main(["run", "--scenario", str(scn)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_polynomial_above_the_degree_cap(self, tmp_path, capsys):
        scn = tmp_path / "s.scn"
        scn.write_text(CUSP_SCENARIO.replace("poly = y^2 - x^3", "poly = y^100000"))
        assert main(["run", "--scenario", str(scn)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "exponent 100000 exceeds the degree cap 1000" in err

    @pytest.mark.parametrize(
        "poly, message",
        [
            ("(2^999)^999", "power coefficient bits 999000 exceeds the bit cap 10000"),
            ("(1+x+y)^1000", "power box 1002001 exceeds the box cap 20000"),
        ],
    )
    def test_polynomial_above_the_bit_and_box_caps(self, poly, message, tmp_path, capsys):
        scn = tmp_path / "s.scn"
        scn.write_text(CUSP_SCENARIO.replace("poly = y^2 - x^3", f"poly = {poly}"))
        assert main(["run", "--scenario", str(scn)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err

    def test_missing_file_exit_2(self, capsys):
        assert main(["run", "--scenario", "/nonexistent/file.scn"]) == 2

    def test_task_failure_exit_1(self, tmp_path, capsys):
        # commutation needs coordinates; this cluster has a bare free point
        scn = tmp_path / "fail.scn"
        scn.write_text(
            """
[cluster C]
point = free parent=0

[element F]
poly = x + y

[filtration G]
kind = qdivisorial
cluster = C
delta = 0 1

[task]
kind = commutation
filtration = G
element = F
nmax = 4
"""
        )
        code, data = run_cli(["run", "--scenario", str(scn)], tmp_path)
        assert code == 1
        assert b"ERROR" in data and b"parameter" in data

    def test_empty_scenario_warns_and_succeeds(self, tmp_path, capsys):
        scn = tmp_path / "empty.scn"
        scn.write_text("# nothing here\n")
        assert main(["run", "--scenario", str(scn)]) == 0
        assert "no tasks" in capsys.readouterr().err


class TestUnusableFiles:
    """An output that cannot be written or a scenario that cannot be read
    ends in one error line and exit 2, before any task runs."""

    @pytest.fixture
    def task_runs(self, monkeypatch):
        runs = []
        monkeypatch.setattr(cli, "run_scenario", lambda *args: runs.append(args) or 0)
        return runs

    @pytest.mark.parametrize("command", [["example42", "--nmax", "2"], ["run"]])
    @pytest.mark.parametrize("where", ["missing/out.txt", "."])
    def test_unwritable_output(self, tmp_path, capsys, task_runs, command, where):
        scn = tmp_path / "cusp.scn"
        scn.write_text(CUSP_SCENARIO)
        if command == ["run"]:
            command = ["run", "--scenario", str(scn)]
        assert main(command + ["--output", str(tmp_path / where)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cannot write output: ")
        assert err.count("\n") == 1 and task_runs == []

    def test_scenario_not_utf8(self, tmp_path, capsys, task_runs):
        scn = tmp_path / "latin1.scn"
        scn.write_bytes("# caf\u00e9\n".encode("latin-1") + CUSP_SCENARIO.encode())
        assert main(["run", "--scenario", str(scn)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cannot read scenario: ")
        assert err.count("\n") == 1 and task_runs == []


ALL_TASKS_SCENARIO = """\
[cluster CUSP]
point = free parent=0 param=0
point = satellite parent=1 other=0

[divisor E2 on CUSP]
coeffs = 0 0 1

[divisor POINT on CUSP]
coeffs = 1 1 2

[element CURVE]
poly = y^2 - x^3

[filtration FAM]
kind = qdivisorial
divisor = E2

[task]
kind = intersection_matrix
cluster = CUSP

[task]
kind = degree_function
divisor = POINT
element = CURVE

[task]
kind = unload
divisor = E2

[task]
kind = multiplicity
divisor = POINT

[task]
kind = degree_coefficients
divisor = POINT

[task]
kind = rees_valuations
divisor = E2

[task]
kind = rees_union
filtration = FAM
nmax = 60

[task]
kind = commutation
filtration = FAM
element = CURVE
nmax = 12
"""


class TestAllTaskKinds:
    def test_every_task_kind_executes(self, tmp_path):
        scn = tmp_path / "all.scn"
        scn.write_text(ALL_TASKS_SCENARIO)
        code, data = run_cli(["run", "--scenario", str(scn), "--format", "csv"], tmp_path)
        assert code == 0
        text = data.decode()
        assert "0,-3,0,1" in text                       # intersection matrix row 0
        assert "degree=2" in text                       # ord of the cusp curve
        assert "e=1" in text                            # multiplicity of the point ideal
        assert "rees=v0\n" in text
        assert "union=v0 v1 v2 stabilized=true" in text
        # cusp curve values (2,3,6) against limits (0,0,1/6): both sides 1
        assert "commute=true lim_of_sums->1 sum_of_lims=1" in text

    def test_stdout_output(self, tmp_path, capsys):
        scn = tmp_path / "all.scn"
        scn.write_text(ALL_TASKS_SCENARIO)
        assert main(["run", "--scenario", str(scn), "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "degree=2" in out and "," not in out.splitlines()[1]


NOT_SQUAREFREE_SCENARIO = """\
[cluster LINE]
point = free parent=0 param=1

[divisor D on LINE]
coeffs = 1 2

[element SQUARE]
poly = (y - x)^2

[task]
kind = degree_function
divisor = D
element = SQUARE
"""


def test_degree_function_task_takes_a_non_squarefree_element(tmp_path):
    """The task, like the library function, runs no squarefree check."""
    scn = tmp_path / "square.scn"
    scn.write_text(NOT_SQUAREFREE_SCENARIO)
    code, data = run_cli(["run", "--scenario", str(scn)], tmp_path)
    assert code == 0
    assert data.decode().splitlines()[-2] == "degree=4"
    sc = parse_scenario(NOT_SQUAREFREE_SCENARIO)
    assert degree_function(sc.divisors["D"], sc.elements["SQUARE"]) == 4


class TestSelftest:
    def test_passes_with_small_trials(self, capsys):
        assert main(["selftest", "--seed", "5", "--trials", "15"]) == 0
        out = capsys.readouterr().out
        assert "unloading_closure_laws: PASS" in out
        assert "nef_envelope_laws: PASS" in out

    def test_a_failing_law_gives_a_fail_row_and_exit_1(self, capsys, monkeypatch):
        def law(rng, cluster, d):
            raise AssertionError("closure is not monotone")

        name, offset, max_points, generate, _ = selfcheck._SUITES[0]
        monkeypatch.setattr(
            selfcheck, "_SUITES", ((name, offset, max_points, generate, law), selfcheck._SUITES[1])
        )
        assert selfcheck.run_selftest(0, 3)[0] == (name, False, "closure is not monotone")
        assert main(["selftest", "--seed", "0", "--trials", "3"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == [
            f"{name}: FAIL (closure is not monotone)", "nef_envelope_laws: PASS (3 instances)"
        ]


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "antinef.cli", "example42", "--nmax", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "e_In" in proc.stdout
