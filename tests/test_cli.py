import collections
import json
import subprocess
import sys
from pathlib import Path

import pytest

from cli_sweep import WORKSPACES as SWEEP
from gcdeform import algebroid, cli, deformation, scalar
from gcdeform.algebroid import IsotropicSubbundle, Splitting
from gcdeform.cli import (
    KODAIRA_WORKSPACE,
    ParseError,
    build_workspace,
    parse_workspace,
    render_workspace,
    run_pipeline,
)
from gcdeform.frame import ExteriorForm, FrameAlgebra, kodaira_preset

GOLDEN = Path(__file__).parent / "golden" / "kodaira_report.txt"
CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "gcdeform.cli", *args],
        capture_output=True,
        text=True,
    )


def test_preset_parses_and_matches_builtin():
    spec = parse_workspace(KODAIRA_WORKSPACE)
    ws = build_workspace(spec)
    g, J = kodaira_preset()
    assert ws.algebra == g
    assert ws.jop is not None and ws.jop.matrix == J.matrix
    assert ws.frame.algebra.basis == ("T", "W", "Tbar", "Wbar")


def test_round_trip_canonical_render():
    spec = parse_workspace(KODAIRA_WORKSPACE)
    assert parse_workspace(render_workspace(spec)) == spec
    symplectic = "basis X Y U V\nbracket X Y = U\nsymplectic X U = 2\nsymplectic Y V = 2\n"
    spec2 = parse_workspace(symplectic)
    assert parse_workspace(render_workspace(spec2)) == spec2
    subbundle = (
        "basis X Y U V\nbracket X Y = U\n"
        "generator U\ngenerator V\ngenerator X*\ngenerator Y*\n"
    )
    spec3 = parse_workspace(subbundle)
    assert parse_workspace(render_workspace(spec3)) == spec3


def test_report_matches_golden_file():
    result = run_cli("report", "--preset", "kodaira")
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout == GOLDEN.read_text(encoding="utf-8")


def test_report_deterministic():
    first = run_cli("report", "--preset", "kodaira")
    second = run_cli("report", "--preset", "kodaira")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_family_section_content():
    result = run_cli("family", "--preset", "kodaira")
    assert result.returncode == 0
    assert "reduced family: 4 free parameters" in result.stdout
    assert "t32 -> Tbar*^Wbar*" in result.stdout
    assert "t11 -> -Tbar*^omega*" in result.stdout
    assert "t22 -> -Wbar*^rho*" in result.stdout
    assert "t14 -> omega*^rho*" in result.stdout
    assert "dropped: t12 (maurer-cartan)" in result.stdout
    assert "dropped: t21 (gauge)" in result.stdout


def test_type_command_outputs():
    result = run_cli("type", "--preset", "kodaira", "--at", "t14=0,t32=1,t11=0,t22=0")
    assert result.returncode == 0
    assert result.stdout == "k = 2 (complex type, non-classical)\n"
    result = run_cli("type", "--preset", "kodaira", "--at", "t14=1,t32=0,t11=0,t22=0")
    assert result.stdout == "k = 0 (symplectic type)\n"
    result = run_cli("type", "--preset", "kodaira", "--at", "t14=0,t32=0,t11=0,t22=0")
    assert result.stdout == "k = 2 (classical complex)\n"


def test_type_command_requires_complete_bindings():
    result = run_cli("type", "--preset", "kodaira", "--at", "t14=1")
    assert result.returncode == 1
    assert "unbound" in result.stderr


def test_type_command_rejects_a_parameter_bound_twice(capsys):
    at = "t11=0,t22=0,t14=0,t32=0,t32=1"
    assert cli.main(["type", "--preset", "kodaira", "--at", at]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1: t32 bound twice\n"


def test_non_utf8_input_is_an_input_error(tmp_path, capsys):
    ws = tmp_path / "bad.ws"
    ws.write_bytes(b"\xff\xfe basis X\n")
    assert cli.main(["report", "--input", str(ws)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {ws}: not UTF-8 text\n"


def test_strata_command():
    result = run_cli("strata", "--preset", "kodaira")
    assert result.returncode == 0
    assert "t14 != 0: k = 0 (symplectic type)" in result.stdout
    assert "t14 = 0: k = 2 (complex type)" in result.stdout
    assert "t32 = 0: classical complex" in result.stdout
    assert "t32 != 0: complex type, non-classical" in result.stdout


def test_mc_on_abelian_algebra(tmp_path):
    ws = tmp_path / "abelian.ws"
    ws.write_text(
        "basis X Y U V\nJ X = Y\nJ Y = -X\nJ U = V\nJ V = -U\n", encoding="utf-8"
    )
    result = run_cli("mc", "--input", str(ws))
    assert result.returncode == 0
    assert "MC system: empty (all deformations unobstructed at this level)" in result.stdout


def test_machine_format_is_json():
    result = run_cli("report", "--preset", "kodaira", "--format", "machine")
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert list(data) == [
        "validation",
        "eigenframe",
        "bracket table",
        "mc system",
        "gauge basis",
        "reduced family",
        "type strata",
    ]
    assert data["reduced family"]["free"] == ["t32", "t11", "t22", "t14"]
    assert data["gauge basis"]["dimension"] == 1
    strata = data["type strata"]["strata"]
    assert [s["k"] for s in strata] == [0, 2]


def test_parse_error_positions(tmp_path):
    ws = tmp_path / "bad.ws"
    ws.write_text("basis X Y U V\nbracket X Y = Q\nJ X = Y\n", encoding="utf-8")
    result = run_cli("validate", "--input", str(ws))
    assert result.returncode == 1
    assert "line 2" in result.stderr and "Q" in result.stderr


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "basis X Y U\nbracket X Y = U\nbracket Y X = U\nJ X = Y\n",
            "line 3: bracket [X, Y] conflicts with line 2",
        ),
        # a repeated entry that agrees is no conflict
        (
            "basis X Y U V\nbracket X Y = U\nsymplectic X U = 1\nsymplectic Y V = 1\n"
            "symplectic U X = -1\nsymplectic U X = 2\n",
            "line 6: symplectic [X, U] conflicts with line 3",
        ),
    ],
    ids=["bracket", "symplectic"],
)
def test_conflicting_bracket_error(tmp_path, capsys, text, message):
    ws = tmp_path / "bad.ws"
    ws.write_text(text, encoding="utf-8")
    assert cli.main(["validate", "--input", str(ws)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_malformed_rational_error(tmp_path):
    ws = tmp_path / "bad.ws"
    ws.write_text("basis X Y\nbracket X Y = 1//2*X\nJ X = Y\nJ Y = -X\n", encoding="utf-8")
    result = run_cli("validate", "--input", str(ws))
    assert result.returncode == 1
    assert "line 2" in result.stderr


def test_jacobi_failure_exit_code(tmp_path):
    ws = tmp_path / "bad.ws"
    ws.write_text(
        "basis X Y U V\nbracket X Y = U\nbracket X U = X\n"
        "J X = Y\nJ Y = -X\nJ U = V\nJ V = -U\n",
        encoding="utf-8",
    )
    result = run_cli("validate", "--input", str(ws))
    assert result.returncode == 2
    assert "jacobi" in result.stderr


def test_non_closed_symplectic_exit_code(tmp_path):
    ws = tmp_path / "bad.ws"
    ws.write_text(
        "basis X Y U V\nbracket X Y = U\nsymplectic X Y = 1\nsymplectic U V = 1\n",
        encoding="utf-8",
    )
    result = run_cli("validate", "--input", str(ws))
    assert result.returncode == 2
    assert "not involutive" in result.stderr


def test_subbundle_workspace(tmp_path):
    # the eigenbundle of the standard complex structure written out by hand
    ws = tmp_path / "sub.ws"
    ws.write_text(
        "basis X Y U V\nbracket X Y = U\n"
        "generator X + i*Y\ngenerator U + i*V\n"
        "generator X* + i*Y*\ngenerator U* + i*V*\n",
        encoding="utf-8",
    )
    result = run_cli("family", "--input", str(ws))
    assert result.returncode == 0
    assert "reduced family: 4 free parameters" in result.stdout


def test_subbundle_real_span_rejected(tmp_path):
    ws = tmp_path / "bad.ws"
    ws.write_text(
        "basis X Y U V\nbracket X Y = U\n"
        "generator X\ngenerator Y\ngenerator U*\ngenerator V*\n",
        encoding="utf-8",
    )
    result = run_cli("validate", "--input", str(ws))
    assert result.returncode == 2


NON_CLOSED_SYMPLECTIC = (
    "basis X Y U V\nbracket X Y = U\nsymplectic X Y = 1\nsymplectic U V = 1\n"
)


@pytest.mark.parametrize(
    "text, message",
    [
        ("basis X Y\ngenerator X\ngenerator X\n", "generators are linearly dependent"),
        (
            "basis X Y\ngenerator X\ngenerator Y\n",
            "L and its conjugate intersect (real index not zero)",
        ),
        # dependent as well: isotropy is checked before independence
        (
            "basis X Y\ngenerator X + i*X*\ngenerator X + i*X*\n",
            "not isotropic: <G1, G1> = i",
        ),
        (NON_CLOSED_SYMPLECTIC, "not involutive: [LX, LY] = U"),
    ],
    ids=["dependent", "intersect", "not-isotropic", "not-involutive"],
)
def test_subbundle_refusals_exit_2(tmp_path, capsys, text, message):
    ws = tmp_path / "bad.ws"
    ws.write_text(text, encoding="utf-8")
    assert cli.main(["validate", "--input", str(ws)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["foo", "--preset", "kodaira"], "argument command: invalid choice: 'foo'"),
        (["report", "--preset", "nope"], "argument --preset: invalid choice: 'nope'"),
        (
            ["report", "--preset", "kodaira", "--format", "xml"],
            "argument --format: invalid choice: 'xml'",
        ),
        (
            ["report", "--preset", "kodaira", "--input", "my.ws"],
            "argument --input: not allowed with argument --preset",
        ),
        (
            ["report", "--preset", "kodaira", "--at", "t14=1"],
            "argument --at: only the type command takes bindings",
        ),
        (["report"], "one of the arguments --preset --input is required"),
    ],
    ids=["command", "preset", "format", "preset-and-input", "at-without-type", "no-source"],
)
def test_usage_errors_exit_1(capsys, argv, reason):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: gcdeform ")
    assert f"gcdeform: error: {reason}" in captured.err


def test_missing_structure_rejected():
    with pytest.raises(ParseError, match="exactly one structure"):
        parse_workspace("basis X Y\n")


def test_param_prefix_override(tmp_path):
    ws = tmp_path / "s.ws"
    ws.write_text(KODAIRA_WORKSPACE.replace("names params t", "names params s"))
    result = run_cli("family", "--input", str(ws))
    assert result.returncode == 0
    assert "s32 -> Tbar*^Wbar*" in result.stdout


def test_constrain_map_names_its_parameters_by_prefix():
    """``constrain_map(sub, "s")`` is the pencil of a ``names params s``
    workspace, and the default pencil with every t renamed to s."""
    sub = build_workspace(parse_workspace(KODAIRA_WORKSPACE)).sub
    pencil, report = deformation.constrain_map(sub, "s")
    s_text = KODAIRA_WORKSPACE.replace("names params t", "names params s")
    via_cli, cli_report = build_workspace(parse_workspace(s_text)).pencil
    t_pencil, t_report = deformation.constrain_map(sub)
    rename = {p: scalar.PolyScalar.of(scalar.parameter("s" + p.name[1:])) for p in t_report.free}

    assert [p.name for p in report.free] == [p.name for p in cli_report.free] == [
        "s" + p.name[1:] for p in t_report.free
    ]
    assert len(report.eliminated) == len(cli_report.eliminated) == len(t_report.eliminated) == 10
    assert {p.name: v for p, v in report.eliminated.items()} == {
        "s" + p.name[1:]: v.substitute(rename) for p, v in t_report.eliminated.items()
    }
    assert pencil.entries == via_cli.entries == t_pencil.substitute(rename).entries
    assert pencil.parameters == via_cli.parameters == tuple(report.free)


def test_run_pipeline_in_process():
    spec = parse_workspace(KODAIRA_WORKSPACE)
    out = run_pipeline(spec, "gauge")
    assert out == "gauge image dimension: 1\nTbar*^rho*\n"


def test_type_without_at_is_input_error():
    result = run_cli("type", "--preset", "kodaira")
    assert result.returncode == 1
    assert "--at" in result.stderr


@pytest.mark.parametrize("at", [[], ["--at", ""]])
def test_type_on_a_family_without_parameters_needs_no_bindings(tmp_path, capsys, at):
    # the reduced family of the two-dimensional non-abelian algebra with its
    # area form has no free parameter: its one direction t11 is gauge
    ws = tmp_path / "r2.ws"
    ws.write_text("basis X Y\nbracket X Y = Y\nsymplectic X Y = 1\n", encoding="utf-8")
    assert cli.main(["family", "--input", str(ws)]) == 0
    assert capsys.readouterr().out == (
        "reduced family: 0 free parameters\ndropped: t11 (gauge)\n"
    )
    assert cli.main(["type", "--input", str(ws), *at]) == 0
    captured = capsys.readouterr()
    assert captured.out == "k = 0 (symplectic type)\n"
    assert captured.err == ""
    # a family with parameters still asks for them, with --at empty too
    assert cli.main(["type", "--preset", "kodaira", *at]) == 1
    assert capsys.readouterr().err == "error: line 1: type needs --at name=value,...\n"


@pytest.mark.parametrize("at", [[], ["--at", "t11=0"]])
def test_type_on_a_blocked_family_is_a_mathematical_failure(tmp_path, capsys, at):
    # no binding can help where the reduction itself is blocked: the error
    # names the constraints that block it, with or without --at
    ws = tmp_path / "iwasawa.ws"
    ws.write_text(SWEEP["iwasawa.ws"], encoding="utf-8")
    assert cli.main(["type", "--input", str(ws), *at]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: nonlinear constraints block reduction: -t11*t22 + t12*t21 - t33\n"
    )


def test_machine_format_single_command():
    result = run_cli("gauge", "--preset", "kodaira", "--format", "machine")
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert data == {"dimension": 1, "basis": ["Tbar*^rho*"]}


def test_validate_abelian_shows_no_brackets(tmp_path):
    ws = tmp_path / "a.ws"
    ws.write_text("basis X Y\nJ X = Y\nJ Y = -X\n", encoding="utf-8")
    result = run_cli("validate", "--input", str(ws))
    assert result.returncode == 0
    assert "none (abelian)" in result.stdout


def test_names_eigen_wrong_count(tmp_path):
    ws = tmp_path / "a.ws"
    ws.write_text(
        "basis X Y U V\nJ X = Y\nJ Y = -X\nJ U = V\nJ V = -U\nnames eigen T\n",
        encoding="utf-8",
    )
    result = run_cli("validate", "--input", str(ws))
    assert result.returncode == 1
    assert "line 6" in result.stderr


KODAIRA_J = "basis X Y U V\nbracket X Y = U\nJ X = Y\nJ Y = -X\nJ U = V\nJ V = -U\n"


@pytest.mark.parametrize(
    "text, line",
    [
        # repeated eigenframe name (the frame check would exit 2)
        (KODAIRA_J + "names eigen T T\n", 7),
        # J must be real (the frame split would exit 2)
        ("basis X Y U V\nbracket X Y = U\nJ X = i*X\nJ Y = -X\nJ U = V\nJ V = -U\n", 3),
        # bracket coefficients must be real (the engine conjugates the real
        # algebra; this one would report a family of 4 free parameters)
        ("basis X Y U V\nbracket X Y = i*U\nsymplectic X U = 1\nsymplectic Y V = 1\n", 2),
        # a symplectic form must be real (the real-index check would exit 2)
        ("basis X Y U V\nbracket X Y = U\nsymplectic X Y = 1\nsymplectic X U = i\n", 4),
        # co-frame names equal to basis names make the printed X* ambiguous
        (KODAIRA_J + "names duals X Y\n", 7),
        # a wrong count cites the names line, not line 1
        (KODAIRA_J + "names duals omega\n# trailing comment\n", 7),
        # eigenframe names equal to the default co-frame names z1 z2
        (KODAIRA_J + "names eigen z1 z2\n", 7),
        # co-frame names equal to the default eigenframe names Z1 Z2
        (KODAIRA_J + "names params s\nnames duals Z1 Z2\n", 8),
        # a repeated names line would silently keep the last one
        ("basis X Y\nJ X = Y\nJ Y = -X\nnames eigen A\nnames eigen B\n", 5),
        # a symplectic structure has no eigenframe to name
        ("basis X Y U V\nbracket X Y = U\nsymplectic X U = 1\nsymplectic Y V = 1\n"
         "names eigen A B\n", 5),
    ],
    ids=[
        "eigen-repeat",
        "j-not-real",
        "bracket-not-real",
        "symplectic-not-real",
        "duals-clash",
        "duals-count",
        "eigen-default-duals",
        "duals-default-eigen",
        "names-repeat",
        "eigen-symplectic",
    ],
)
def test_input_errors_cite_their_line(tmp_path, capsys, text, line):
    ws = tmp_path / "bad.ws"
    ws.write_text(text, encoding="utf-8")
    assert cli.main(["validate", "--input", str(ws)]) == 1
    assert capsys.readouterr().err.startswith(f"error: line {line}: ")


def test_names_lines_are_single_and_frame_names_need_j(tmp_path, capsys):
    ws = tmp_path / "ws.ws"
    generators = "basis X Y\ngenerator X + i*Y*\ngenerator Y - i*X*\n"
    for text, message in (
        (KODAIRA_J + "names params s\nnames params u\n", "line 8: duplicate names params line"),
        (generators + "names duals a\n", "line 4: names duals applies only to a "
         "complex structure (J lines)"),
    ):
        ws.write_text(text, encoding="utf-8")
        assert cli.main(["validate", "--input", str(ws)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    # the parameter prefix applies to every structure
    ws.write_text(generators + "names params s\n", encoding="utf-8")
    assert cli.main(["mc", "--input", str(ws), "--format", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["free_after_compatibility"][0].startswith("s")


SIX_DIM = (
    "basis X Y U V P Q\n"
    "bracket X Y = U\n"
    "J X = Y\nJ Y = -X\nJ U = V\nJ V = -U\nJ P = Q\nJ Q = -P\n"
)


def test_mc_reports_unsolved_nonlinear_constraints(tmp_path):
    ws = tmp_path / "six.ws"
    ws.write_text(SIX_DIM, encoding="utf-8")
    result = run_cli("mc", "--input", str(ws))
    assert result.returncode == 0
    assert "solution: t12 = 0" in result.stdout
    assert "unsolved:" in result.stdout


def test_family_blocks_on_nonlinear_residual(tmp_path):
    ws = tmp_path / "six.ws"
    ws.write_text(SIX_DIM, encoding="utf-8")
    result = run_cli("family", "--input", str(ws))
    assert result.returncode == 2
    assert "nonlinear constraints block reduction" in result.stderr


def test_gauge_prints_where_family_blocks():
    out = run_pipeline(parse_workspace(SIX_DIM), "gauge")
    assert out == "gauge image dimension: 1\nZ1bar*^z2*\n"


ABELIAN8_SYMPLECTIC = "basis X1 Y1 X2 Y2 X3 Y3 X4 Y4\n" + "".join(
    f"symplectic X{i} Y{i} = 1\n" for i in range(1, 5)
)


def test_strata_symplectic_abelian8_refuses_with_generic_rank(tmp_path, capsys):
    # an 8x8 tangent projection of full rank at the origin, which certifies
    # the generic rank; its 28 family parameters refuse the descent
    ws = tmp_path / "abelian8.ws"
    ws.write_text(ABELIAN8_SYMPLECTIC, encoding="utf-8")
    assert cli.main(["strata", "--format", "machine", "--input", str(ws)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["generic_rank"] == 8
    assert data["refused"] == "too many parameters"


KODAIRA_SYMPLECTIC = "basis X Y U V\nbracket X Y = U\nsymplectic X U = 1\nsymplectic Y V = 1\n"
ABELIAN6_SYMPLECTIC = "basis X1 Y1 X2 Y2 X3 Y3\n" + "".join(
    f"symplectic X{i} Y{i} = 1\n" for i in range(1, 4)
)
ABELIAN4_COMPLEX = "basis X Y U V\nJ X = Y\nJ Y = -X\nJ U = V\nJ V = -U\n"
ABELIAN4_SYMPLECTIC = "basis X Y U V\nsymplectic X Y = 1\nsymplectic U V = 1\n"
ABELIAN6_COMPLEX = "basis X1 Y1 X2 Y2 X3 Y3\n" + "".join(
    f"J X{i} = Y{i}\nJ Y{i} = -X{i}\n" for i in range(1, 4)
)
# Kodaira symplectic entered as subbundle generators X - i*w(X)
KODAIRA_SYMPLECTIC_GENERATORS = (
    "basis X Y U V\nbracket X Y = U\n"
    "generator X - i*U*\ngenerator Y - i*V*\n"
    "generator U + i*X*\ngenerator V + i*Y*\n"
)


@pytest.mark.parametrize(
    "command, text, golden",
    [
        ("report", KODAIRA_SYMPLECTIC, "kodaira_symplectic_report.json"),
        # the 15-term rank boundary renders every coefficient
        ("strata", KODAIRA_SYMPLECTIC, "kodaira_symplectic_strata.json"),
        # generic rank 6 and a refusal
        ("strata", ABELIAN6_SYMPLECTIC, "abelian6_symplectic_strata.json"),
        ("report", ABELIAN4_COMPLEX, "abelian4_complex_report.json"),
        ("report", ABELIAN4_SYMPLECTIC, "abelian4_symplectic_report.json"),
        # 15 family parameters: the strata section refuses
        ("report", ABELIAN6_COMPLEX, "abelian6_complex_report.json"),
        ("report", KODAIRA_SYMPLECTIC_GENERATORS, "kodaira_symplectic_generators_report.json"),
    ],
    ids=[
        "kodaira-symplectic-report",
        "kodaira-symplectic-strata",
        "abelian6-symplectic-strata",
        "abelian4-complex-report",
        "abelian4-symplectic-report",
        "abelian6-complex-report",
        "kodaira-symplectic-generators-report",
    ],
)
def test_machine_output_matches_golden_file(tmp_path, capsys, command, text, golden):
    ws = tmp_path / "ws.ws"
    ws.write_text(text, encoding="utf-8")
    assert cli.main([command, "--format", "machine", "--input", str(ws)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN.parent / golden).read_text(encoding="utf-8")


def test_symplectic_form_whose_compatibility_solve_rereduces_a_pivot(tmp_path, capsys):
    # solving the compatibility constraint of this form substitutes a later
    # pivot back into an earlier one; the family is the Kodaira one, b2 = 4
    ws = tmp_path / "ws.ws"
    ws.write_text(KODAIRA_SYMPLECTIC + "symplectic X V = 1/2\n", encoding="utf-8")
    assert cli.main(["family", "--input", str(ws)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        "reduced family: 4 free parameters\n"
        "t11 -> -2*i*LX*^LU* - i*LX*^LV*\n"
        "t21 -> -2*i*LX*^LV*\n"
        "t12 -> -2*i*LY*^LU* - i*LY*^LV*\n"
        "t22 -> -2*i*LY*^LV*\n"
        "dropped: t14 (maurer-cartan)\n"
        "dropped: t31 (gauge)\n"
    )


def test_gauge_drop_keeps_the_family_off_the_gauge_span(tmp_path, capsys):
    # t22 and t32 both touch the gauge element's leading slot LX*^LY*, but
    # t32's direction is parallel to it: dropping t22, the first-named one
    # touching that slot, would leave the family meeting the gauge span
    ws = tmp_path / "ws.ws"
    ws.write_text(
        "basis X Y U V\nbracket X Y = U\n"
        "symplectic X Y = 1\nsymplectic X U = 2\nsymplectic Y V = -1/3\n",
        encoding="utf-8",
    )
    assert cli.main(["family", "--input", str(ws)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        "reduced family: 4 free parameters\n"
        "t22 -> -2*i*LX*^LY* + 2/3*i*LY*^LV*\n"
        "t11 -> -4*i*LX*^LU*\n"
        "t21 -> 2/3*i*LX*^LV*\n"
        "t12 -> -4*i*LY*^LU*\n"
        "dropped: t14 (maurer-cartan)\n"
        "dropped: t32 (gauge)\n"
    )


def _counted(counts, key, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_report_runs_each_stage_once(monkeypatch, capsys):
    counts = collections.Counter()
    for name in ("constrain_map", "mc_residual", "reduce_family", "gauge_image"):
        for module in (cli, deformation):
            monkeypatch.setattr(module, name, _counted(counts, name, getattr(module, name)))
    for cls, attr in ((Splitting, "duals"), (IsotropicSubbundle, "dual_algebroid")):
        cached = cls.__dict__[attr]
        monkeypatch.setattr(cached, "func", _counted(counts, attr, cached.func))
    # the complexes built, so that an rref of a degree-1 d_L matrix is told apart
    complexes = []
    cochains = IsotropicSubbundle.__dict__["cochains"]
    build = cochains.func

    def kept(sub):
        complexes.append(build(sub))
        return complexes[-1]

    monkeypatch.setattr(cochains, "func", _counted(counts, "cochains", kept))

    def rref(matrix):
        if any(matrix is cx.d1 for cx in complexes):
            counts["mat_rref(d1)"] += 1
        return scalar.mat_rref(matrix)

    for module in (algebroid, deformation):
        monkeypatch.setattr(module, "mat_rref", rref)
    bracket = IsotropicSubbundle.schouten_bracket
    monkeypatch.setattr(
        IsotropicSubbundle, "schouten_bracket", _counted(counts, "schouten_bracket", bracket)
    )
    from_entries = deformation.DeformationMap.from_entries
    monkeypatch.setattr(
        deformation.DeformationMap,
        "from_entries",
        staticmethod(_counted(counts, "from_entries", from_entries)),
    )

    per_call, outputs = [], []
    for _ in range(2):
        counts.clear()
        assert cli.main(["report", "--preset", "kodaira"]) == 0
        outputs.append(capsys.readouterr().out)
        per_call.append(dict(counts))

    # one pencil, one reduction, one set of theta-inverse vectors (the duals
    # of the splitting), one L* algebra (the Schouten table) and one constant
    # cochain complex; the gauge section builds the gauge image once, the reduction exchanges
    # on the echelon rows behind it, and the rref of the degree-1 d_L matrix
    # runs once, kept on the complex; mc_residual runs for the pencil and for the reduced-family
    # certificate, both read off the complex; schouten_bracket and
    # from_entries, absent here, are called 0 times: no Schouten bracket of
    # forms and no map rebuilt from its entries
    assert per_call[0] == {
        "constrain_map": 1,
        "mc_residual": 2,
        "reduce_family": 1,
        "gauge_image": 1,
        "mat_rref(d1)": 1,
        "duals": 1,
        "dual_algebroid": 1,
        "cochains": 1,
    }
    # a second call recomputes everything: nothing is cached across calls
    assert per_call[1] == per_call[0]
    assert outputs[0] == outputs[1] == GOLDEN.read_text(encoding="utf-8")

    # positive control: the same counters see direct calls
    counts.clear()
    ws = build_workspace(parse_workspace(KODAIRA_WORKSPACE))
    pencil = ws.pencil[0]
    ws.sub.schouten_bracket(pencil.form, pencil.form)
    deformation.DeformationMap.from_entries(ws.sub, pencil.entries, pencil.parameters)
    assert ws.sub.cochains is ws.sub.cochains
    assert ws.sub.cochains.gauge is ws.sub.cochains.gauge
    assert counts == {
        "constrain_map": 1,
        "duals": 1,
        "dual_algebroid": 1,
        "schouten_bracket": 1,
        "from_entries": 1,
        "cochains": 1,
        "mat_rref(d1)": 1,
    }


def test_strata_builds_no_exterior_form(monkeypatch, capsys):
    """``strata`` reads the constant complex and the family's direction
    vectors, so it builds no ``ExteriorForm``; ``family`` prints one form per
    free parameter and builds exactly those."""
    counts = collections.Counter()
    monkeypatch.setattr(ExteriorForm, "build", staticmethod(_counted(counts, "build", ExteriorForm.build)))
    abelian6 = Path(__file__).resolve().parent.parent / "bench" / "corpus" / "abelian6_complex.ws"
    for source in (["--preset", "kodaira"], ["--input", str(abelian6)]):
        assert cli.main(["strata", *source, "--format", "machine"]) == 0
    capsys.readouterr()
    assert counts == {}
    # positive control: the four reduced directions of the preset's family
    assert cli.main(["family", "--preset", "kodaira"]) == 0
    assert capsys.readouterr().out.startswith("reduced family: 4 free parameters\n")
    assert counts == {"build": 4}


def test_map_views_are_built_only_when_read(monkeypatch, capsys):
    """A report and a strata read a map's columns and tangent rows, never its
    form; a classify evaluates the tangent rows, built once per map, and
    builds no deformed generator on all 2n slots."""
    counts = collections.Counter()
    for cls, attr in (
        (deformation.DeformationMap, "form"),
        (deformation.DeformationMap, "vectors"),
        (deformation.DeformationMap, "projection"),
        (deformation.DeformedStructure, "splitting"),
    ):
        cached = cls.__dict__[attr]
        monkeypatch.setattr(cached, "func", _counted(counts, attr, cached.func))

    assert cli.main(["report", "--preset", "kodaira"]) == 0
    assert cli.main(["strata", "--preset", "kodaira"]) == 0
    capsys.readouterr()
    assert set(counts) == {"projection"}

    counts.clear()
    red = build_workspace(parse_workspace(KODAIRA_WORKSPACE)).family.reduced_map
    one = scalar.GaussianRational.of(1)
    points = [{p: one if p.name == name else scalar.GR_ZERO for p in red.parameters}
              for name in ("t14", "t32")]
    assert [deformation.classify(red, point) for point in points] == [
        (0, deformation.SYMPLECTIC), (2, deformation.COMPLEX_NONCLASSICAL)]
    assert counts == {"projection": 1}

    # positive controls: a first read builds each view once, a second none
    assert red.form is red.form
    assert counts == {"projection": 1, "form": 1}
    structures = [deformation.deform_subbundle(red, point) for point in points]
    assert structures[0].involutive and structures[0].involutive
    assert counts == {"projection": 1, "form": 1, "vectors": 1, "splitting": 1}
    assert structures[1].involutive
    assert counts == {"projection": 1, "form": 1, "vectors": 1, "splitting": 2}


def test_cli_sweep_matches_golden():
    """Every exit code, stdout and stderr of ``tests/cli_sweep.py``, byte for byte."""
    here = Path(__file__).resolve().parent
    sweep = subprocess.run(
        [sys.executable, str(here / "cli_sweep.py"), str(here.parent / "src")],
        capture_output=True,
    )
    assert sweep.returncode == 0 and sweep.stderr == b""
    assert sweep.stdout == (here / "golden" / "cli_sweep.txt").read_bytes()


def test_internal_consistency_failure_exit_code(monkeypatch, capsys):
    # break the reduced-family certificate, mc_residual(reduced).is_trivial()
    monkeypatch.setattr(deformation.MCSystem, "is_trivial", lambda self: False)
    assert cli.main(["family", "--preset", "kodaira"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: internal: reduced family fails its own constraint system\n"
    )


@pytest.mark.parametrize(
    "text",
    [SWEEP["refuse_involutive.ws"], (CORPUS / "kodaira_symplectic.ws").read_text(encoding="utf-8")],
    ids=["not-closed", "closed"],
)
def test_symplectic_closedness_disagreeing_with_involutivity_exit_code(
    tmp_path, monkeypatch, capsys, text
):
    # report every 2-form closed that is not, and the reverse: the bracket
    # check of the eigenbundle build no longer agrees
    ce_differential = FrameAlgebra.ce_differential

    def flipped(self, form):
        return form if ce_differential(self, form).is_zero() else ExteriorForm.zero(form.names)

    monkeypatch.setattr(FrameAlgebra, "ce_differential", flipped)
    ws = tmp_path / "symplectic.ws"
    ws.write_text(text, encoding="utf-8")
    assert cli.main(["validate", "--input", str(ws)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: internal: involutivity of the symplectic eigenbundle disagrees with closedness\n"
    )
