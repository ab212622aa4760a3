"""Every renderer of a linear combination, pinned to its exact text.

Polynomials, exterior forms, Jacobi defects, sections and workspace
combinations all print sums of coefficient-times-label terms; these cases fix
the coefficient forms (1, -1, i/2, a complex number, a polynomial), the
degree-0 form term and the empty sum.
"""

from fractions import Fraction

import pytest

from gcdeform import cli
from gcdeform.courant import GenSection
from gcdeform.frame import ComplexFrame, ExteriorForm, FrameAlgebra, JacobiViolation
from gcdeform.scalar import GaussianRational, PolyScalar, parameter, poly

GR = GaussianRational.of
HALF_I = GR(0, Fraction(1, 2))
ONE_I = GR(1, 1)
S, T = poly(parameter("s")), poly(parameter("t"))
NAMES = ("a", "b", "c")
BASIS = ("X", "Y", "U", "V")
FRAME = ComplexFrame.complexified(FrameAlgebra.build(BASIS, {}))


@pytest.mark.parametrize(
    "value, text",
    [
        (PolyScalar.zero(), "0"),
        (PolyScalar.const(1), "1"),
        (PolyScalar.const(-1), "-1"),
        (PolyScalar.const(HALF_I), "1/2*i"),
        (PolyScalar.const(ONE_I), "(1 + i)"),
        (T, "t"),
        (-T, "-t"),
        (T.scale(HALF_I), "1/2*i*t"),
        (T.scale(ONE_I), "(1 + i)*t"),
        (
            1 - T + S.scale(ONE_I) + (S * T).scale(HALF_I) + (S * S).scale(-ONE_I),
            "1 + (1 + i)*s + (-1 - i)*s^2 + 1/2*i*s*t - t",
        ),
    ],
)
def test_polynomial_rendering(value, text):
    assert str(value) == text


@pytest.mark.parametrize(
    "data, text",
    [
        ({}, "0"),
        (
            {
                (): PolyScalar.const(ONE_I),
                (0,): 1,
                (1,): -1,
                (2,): -T,
                (0, 1): PolyScalar.const(HALF_I),
                (0, 2): T - S,
                (1, 2): PolyScalar.const(ONE_I),
            },
            "(1 + i) + a - b - t*c + 1/2*i*a^b + (-s + t)*a^c + (1 + i)*b^c",
        ),
        ({(): S + T, (1, 0): T}, "(s + t) - t*a^b"),
        ({(): -1, (2,): T.scale(ONE_I)}, "-1 + (1 + i)*t*c"),
        # a sum outside the parentheses of its complex coefficient
        ({(0,): S.scale(ONE_I) - T}, "((1 + i)*s - t)*a"),
    ],
)
def test_exterior_form_rendering(data, text):
    assert str(ExteriorForm.build(NAMES, data)) == text


@pytest.mark.parametrize(
    "defect, text",
    [
        ((GR(-1), GR(1), HALF_I, ONE_I), "-X + Y + 1/2*i*U + (1 + i)*V"),
        ((GR(0), GR(2), GR(0), -ONE_I), "2*Y + (-1 - i)*V"),
    ],
)
def test_jacobi_defect_rendering(defect, text):
    violation = JacobiViolation(("X", "Y", "U"), defect, BASIS)
    assert str(violation) == f"jacobi defect at (X, Y, U): {text}"


def test_jacobi_failure_message(tmp_path, capsys):
    ws = tmp_path / "bad.ws"
    ws.write_text(
        "basis X Y U V\nbracket X Y = U\nbracket X U = X\n"
        "bracket Y V = 1/2*Y - 1/3*U\nJ X = Y\nJ Y = -X\nJ U = V\nJ V = -U\n",
        encoding="utf-8",
    )
    assert cli.main(["validate", "--input", str(ws)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: jacobi identity fails: jacobi defect at (X, Y, U): -U; "
        "jacobi defect at (X, Y, V): 1/3*X - 1/2*U\n"
    )


@pytest.mark.parametrize(
    "entries, text",
    [
        ({}, "0"),
        (
            {
                "X": 1,
                "Y": -1,
                "U": PolyScalar.const(HALF_I),
                "V": PolyScalar.const(ONE_I),
                "X*": T - S,
                "Y*": T.scale(-2),
                "V*": S.scale(HALF_I),
            },
            "X - Y + 1/2*i*U + (1 + i)*V + (-s + t)*X* - 2*t*Y* + 1/2*i*s*V*",
        ),
        ({"Y": -1, "U*": PolyScalar.const(ONE_I)}, "-Y + (1 + i)*U*"),
    ],
)
def test_section_rendering(entries, text):
    assert str(GenSection.make(FRAME, entries)) == text


def test_generator_lines_parenthesise_a_complex_coefficient_once(tmp_path):
    # a constant complex coefficient renders as "(1 + i)"; it is not a sum
    # outside its parentheses, so a section coefficient adds none
    ws = (
        "basis X Y U V\n"
        "generator X + (1+i)*Y*\ngenerator Y - (1+i)*X*\n"
        "generator U + i*V*\ngenerator V - i*U*\n"
    )
    frame = cli.section_frame(cli.build_workspace(cli.parse_workspace(ws)))
    assert frame["subbundle"] == [
        "G1 = X + (1 + i)*Y*",
        "G2 = Y + (-1 - i)*X*",
        "G3 = U + i*V*",
        "G4 = V - i*U*",
    ]


@pytest.mark.parametrize(
    "combo, text",
    [
        ({}, "0"),
        ({"V": ONE_I, "U": HALF_I, "Y": GR(-1), "X": GR(1)}, "X - Y + 1/2*i*U + (1 + i)*V"),
        ({"V": -ONE_I, "Y": GR(-1), "U": GR(Fraction(-2, 3))}, "-Y - 2/3*U + (-1 - i)*V"),
    ],
)
def test_workspace_combination_rendering(combo, text):
    assert cli._render_combo(combo, BASIS) == text
