"""Frontend: grammar, diagnostics, determinism, round trips."""

import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpsynt import synthesize
from fpsynt.cli import main
from fpsynt.core import NodeKind
from fpsynt.errors import ParseError, ValidationError
from fpsynt.parser import (KEYWORDS, MAX_DIGITS, MAX_EXPONENT, MAX_NESTING, Bindings, Token,
                           literal_over_bound, parse_spec, pretty_print, tokenize,
                           validate_formats)

from conftest import FIR4_SRC
from test_golden import GOLDEN


def kinds(dfg):
    out = {}
    for n in dfg.nodes:
        out.setdefault(n.kind, []).append(n.id)
    return out


def test_fir4_structure(fir4):
    dfg, bindings = fir4
    by_kind = kinds(dfg)
    assert len(by_kind[NodeKind.INPUT]) == 4
    assert len(by_kind[NodeKind.CONST]) == 4
    assert len(by_kind[NodeKind.MUL]) == 4
    assert len(by_kind[NodeKind.ADD]) == 3
    assert by_kind[NodeKind.OUTPUT] == ["y"]
    assert bindings.outputs == ("y",)
    assert bindings.consts["w0"] == Fraction(15, 100)
    assert bindings.inputs["x0"] == (1, 0, 15)
    # left-associative: root add's right operand is the last product
    root = dfg.node(dfg.node("y").operands[0])
    right = dfg.node(root.operands[1])
    assert right.kind is NodeKind.MUL
    assert set(right.operands) == {"w3", "x3"}


def test_passthrough_is_two_nodes():
    dfg, _ = parse_spec("input x : sif(1/0/15);\noutput y = x;\n")
    assert len(dfg.nodes) == 2


def test_constants_parse_as_exact_decimals():
    _, b = parse_spec("const c = 0.15;\nconst d = -0.5;\nconst e = 1e-3;\n"
                      "input x : sif(1/0/7);\noutput y = x;\n")
    assert b.consts["c"] == Fraction(3, 20)       # not the double 0.1499999...
    assert b.consts["d"] == Fraction(-1, 2)
    assert b.consts["e"] == Fraction(1, 1000)


def test_precedence_and_parens():
    dfg, _ = parse_spec("input a : sif(1/0/7);\ninput b : sif(1/0/7);\n"
                        "input c : sif(1/0/7);\noutput y = a + b * c;\n")
    root = dfg.node(dfg.node("y").operands[0])
    assert root.kind is NodeKind.ADD
    assert dfg.node(root.operands[1]).kind is NodeKind.MUL

    dfg2, _ = parse_spec("input a : sif(1/0/7);\ninput b : sif(1/0/7);\n"
                         "input c : sif(1/0/7);\noutput y = (a + b) * c;\n")
    root2 = dfg2.node(dfg2.node("y").operands[0])
    assert root2.kind is NodeKind.MUL
    assert dfg2.node(root2.operands[0]).kind is NodeKind.ADD


def test_subtraction_lowers_to_negated_add():
    dfg, _ = parse_spec("input a : sif(1/0/7);\ninput b : sif(1/0/7);\n"
                        "output y = a - b;\n")
    root = dfg.node(dfg.node("y").operands[0])
    assert root.kind is NodeKind.ADD
    assert root.negate == (False, True)


def test_numeric_literal_factor():
    dfg, _ = parse_spec("input x : sif(1/0/7);\noutput y = x * 0.5;\n")
    root = dfg.node(dfg.node("y").operands[0])
    lit = dfg.node(root.operands[1])
    assert lit.kind is NodeKind.CONST and lit.value == Fraction(1, 2)


def test_comments_are_ignored():
    dfg, _ = parse_spec("# leading comment\ninput x : sif(1/0/7); # trailing\noutput y = x;\n")
    assert len(dfg.nodes) == 2


@pytest.mark.parametrize("src,needle", [
    ("output y = a*b;", "undeclared identifier 'a'"),
    ("input x : sif(1/0/7);\ninput x : sif(1/0/7);\noutput y = x;", "duplicate declaration"),
    ("input x : sif(1/0/7);", "no outputs"),
    ("input x : sif(1/0/7)\noutput y = x;", "expected ';'"),
    ("input x : sif(1.5/0/7);\noutput y = x;", "expected an integer"),
    ("input x : sif(1/0/7);\noutput y = x +;", "expected an operand"),
    ("input x : sif(1/0/7);\noutput y = x;\noutput z = y;", "cannot be used"),
    ("input x : sif(1/0/7);\ny = x;", "expected a declaration"),
    ("input x : sif(1/0/7);\noutput y = x @ x;", "unexpected character '@'"),
])
def test_parse_errors(src, needle):
    with pytest.raises(ParseError) as exc:
        parse_spec(src)
    assert needle in str(exc.value)


def test_error_position_points_at_reference_site():
    with pytest.raises(ParseError) as exc:
        parse_spec("input x : sif(1/0/7);\noutput y = x * bogus;\n")
    assert exc.value.line == 2
    assert exc.value.col == 16


def test_a_byte_order_mark_is_dropped():
    """A leading U+FEFF gives the graph of the text without it; line 1's
    columns count from after the mark."""
    src = "input x : sif(1/0/7);\noutput y = 0.5*x;\n"
    assert parse_spec("\ufeff" + src) == parse_spec(src)
    with pytest.raises(ParseError) as exc:
        parse_spec("\ufeffinput x : sif(1/0/7) @")
    assert (exc.value.line, exc.value.col) == (1, 22)


def _nested(levels):
    return "input x : sif(1/0/7);\noutput y = " + "(" * levels + "x" + ")" * levels + ";\n"


def test_parenthesis_nesting_limit(tmp_path, capsys):
    dfg, _ = parse_spec(_nested(MAX_NESTING))
    assert dfg.node("y").operands == ("x",)
    with pytest.raises(ParseError) as exc:
        parse_spec(_nested(400))
    assert "nested deeper than" in str(exc.value)
    # points at the first parenthesis past the limit
    col = len("output y = ") + MAX_NESTING + 1
    assert (exc.value.line, exc.value.col) == (2, col)
    # the CLI reports it as a spec error, not a traceback
    spec = tmp_path / "deep.fps"
    spec.write_text(_nested(400))
    assert main(["synth", str(spec), "-o", str(tmp_path / "out")]) == 1
    assert f"2:{col}: parentheses nested" in capsys.readouterr().err


def test_literal_exponent_limit(tmp_path, capsys):
    """A literal whose decimal exponent is past ``MAX_EXPONENT`` is a
    positioned ParseError, raised before any Fraction expands 10**e: without
    the limit, 1e-99999999 does not parse within minutes."""
    _, bindings = parse_spec(f"const c = 1e-{MAX_EXPONENT};\noutput y = c + 1e{MAX_EXPONENT};")
    assert bindings.consts["c"] == Fraction(1, 10 ** MAX_EXPONENT)
    for literal in ("1e-99999999", "1e9999999", "-2.5E+0001000", f"1e{MAX_EXPONENT + 1}"):
        src = f"input x : sif(1/0/15);\nconst c = {literal};\noutput y = c*x;\n"
        with pytest.raises(ParseError) as exc:
            parse_spec(src)
        assert "exceeds 999" in str(exc.value)
        col = len("const c = ") + 1 + literal.startswith("-")  # the literal, past its sign
        assert (exc.value.line, exc.value.col) == (2, col)
    # the same in an expression, and through the CLI as a spec error
    spec = tmp_path / "exp.fps"
    spec.write_text("input x : sif(1/0/15);\noutput y = x * 1e-99999999;\n")
    assert main(["synth", str(spec), "-o", str(tmp_path / "out")]) == 1
    assert "2:16: exponent of '1e-99999999' exceeds 999" in capsys.readouterr().err


def test_literal_digit_limit(tmp_path, capsys):
    """A literal with more than ``MAX_DIGITS`` digits before its exponent is
    a positioned ParseError: past 4300 digits, ``Fraction`` raises a
    ValueError that used to end the CLI in a traceback."""
    zeros = "0" * 5000
    specs = {f"const c = 0.{zeros}1;\noutput y = c*x;\n": (2, 11),
             f"output y = x * 0.{zeros}1;\n": (2, 16),
             f"const c = 1{zeros};\noutput y = c*x;\n": (2, 11)}
    for k, (body, pos) in enumerate(specs.items()):
        src = "input x : sif(1/0/15);\n" + body
        with pytest.raises(ParseError) as exc:
            parse_spec(src)
        assert f"has over {MAX_DIGITS} digits" in str(exc.value)
        assert (exc.value.line, exc.value.col) == pos
        spec = tmp_path / f"long{k}.fps"
        spec.write_text(src)
        assert main(["synth", str(spec), "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"{pos[0]}:{pos[1]}: '" in err and "Traceback" not in err
    # 999 zeros still parse and synthesize, to a constant of 0
    small = "0." + "0" * 999 + "1"
    _, bindings = parse_spec(f"input x : sif(1/0/15);\nconst c = {small};\noutput y = c*x;\n")
    assert bindings.consts["c"] == Fraction(1, 10 ** 1000)
    plan = synthesize(f"input x : sif(1/0/15);\nconst c = {small};\n"
                      f"output y = c*x + 1{'0' * 999}e-999 * x;\n")
    assert plan.const_raws["c"] == 0


def test_tiny_constant_quantizes_to_zero():
    plan = synthesize("input x : sif(1/0/15);\nconst c = 1e-400;\noutput y = c*x + x;\n")
    assert plan.const_raws["c"] == 0


def test_parse_is_deterministic():
    a, _ = parse_spec(FIR4_SRC)
    b, _ = parse_spec(FIR4_SRC)
    assert [(n.id, n.kind, n.operands) for n in a.nodes] == \
           [(n.id, n.kind, n.operands) for n in b.nodes]


def test_validate_formats_ok():
    _, b = parse_spec(FIR4_SRC)
    assert validate_formats(b, 16) == []


def test_validate_formats_collects_all_diagnostics():
    _, b = parse_spec("input a : sif(0/4/4);\ninput b : sif(2/3/8);\n"
                      "output y = a + b;\n")
    diags = validate_formats(b, 8)
    assert len(diags) == 2
    assert any("sign bits must be >= 1" in str(d) and d.kind == "invalid" for d in diags)
    assert any("13 exceeds word width 8" in str(d) and d.kind == "cannot-fit" for d in diags)
    # a Bindings built through the API can hold what the grammar cannot
    diags = validate_formats(Bindings({**b.inputs, "c": (1, -1, 4)}, {}, ("y",)), 8)
    assert len(diags) == 3
    assert any(str(d) == "input 'c': negative field width" and d.kind == "invalid" for d in diags)
    # synthesize raises on an invalid format before any search
    with pytest.raises(ValidationError, match="input 'x': sign bits must be >= 1"):
        synthesize("input x : sif(0/0/7);\noutput y = x;\n")


def test_huge_declared_width_is_shown_shortened(tmp_path, capsys):
    """A width of 2,000 digits is reported by its first 40, through the API
    and the CLI; a small width keeps its exact message."""
    src = "input x : sif(1/0/" + "9" * 1999 + ");\noutput y = x;\n"
    _, b = parse_spec(src)
    [diag] = validate_formats(b, 16)
    assert diag.kind == "cannot-fit"
    assert str(diag) == f"input 'x': declared width 1{'0' * 39}... exceeds word width 16"
    _, b = parse_spec("input x : sif(1/0/20);\noutput y = x;\n")
    assert [str(d) for d in validate_formats(b, 16)] == \
        ["input 'x': declared width 21 exceeds word width 16"]
    spec = tmp_path / "wide.fps"
    spec.write_text(src)
    assert main(["synth", str(spec), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "declared width 1000" in err and "Traceback" not in err and len(err) < 200


def _shape(dfg, nid, names):
    node = dfg.node(nid)
    if node.kind in (NodeKind.INPUT, NodeKind.CONST):
        return names.get(nid, ("lit", node.value))
    return (node.kind.value, node.negate,
            tuple(_shape(dfg, op, names) for op in node.operands))


def _canonical(dfg, bindings):
    names = {n: n for n in list(bindings.inputs) + list(bindings.consts)}
    return {o: _shape(dfg, dfg.node(o).operands[0], names) for o in bindings.outputs}


# specs that declare a name the parser would otherwise make up: the product
# of an output named t0, an input t0 declared after a t0 was made, and the
# literal of an output named lit0
DECLARED_MADE_UP_NAMES = [
    "input a : sif(1/0/7);\ninput b : sif(1/0/7);\noutput t0 = a*b;\n",
    "input a : sif(1/0/7);\noutput y = a*a;\ninput t0 : sif(1/0/7);\noutput z = t0 + a;\n",
    "input a : sif(1/0/7);\noutput lit0 = a*0.5;\n",
]


@pytest.mark.parametrize("src", DECLARED_MADE_UP_NAMES, ids=["output_t0", "input_t0", "lit0"])
def test_made_up_names_skip_declared_ones(src, tmp_path, capsys):
    dfg, b = parse_spec(src)
    assert [n.id for n in dfg.nodes if n.kind is NodeKind.OUTPUT] == list(b.outputs)
    assert [n.id for n in dfg.nodes if n.kind is NodeKind.INPUT] == list(b.inputs)
    plan = synthesize(src)
    assert plan.output_ids == b.outputs
    spec = tmp_path / "names.fps"
    spec.write_text(src)
    assert main(["synth", str(spec), "-o", str(tmp_path / "out")]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("src", [
    FIR4_SRC,
    "input x : sif(1/0/7);\noutput y = x;\n",
    "input a : sif(1/0/7);\ninput b : sif(2/1/5);\nconst k = -0.25;\n"
    "output y = (a - b) * k + a * 0.125;\n",
    "input a : sif(1/0/7);\noutput s = a + a + a;\noutput p = a * a;\n",
    "const c = 2;\nconst d = -3;\ninput a : sif(1/0/7);\noutput y = c * a + d;\n",
    *DECLARED_MADE_UP_NAMES,
])
def test_pretty_print_round_trip(src):
    dfg1, b1 = parse_spec(src)
    text = pretty_print(dfg1, b1)
    dfg2, b2 = parse_spec(text)
    assert b1.inputs == b2.inputs
    assert b1.consts == b2.consts
    assert b1.outputs == b2.outputs
    assert _canonical(dfg1, b1) == _canonical(dfg2, b2)


# ---------------------------------------------------------------------------
# the one-pass tokenizer against the position loop it replaced

_REFERENCE_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>(?P<digits>\d+(\.\d+)?)([eE](?P<exp>[+-]?\d+))?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[():;=+\-*/])
    """,
    re.VERBOSE,
)


def reference_tokenize(text: str) -> list[Token]:
    """The tokenizer as a loop over match positions, counting columns by lexeme length."""
    tokens = []
    pos, line, col = 0, 1, 1
    while pos < len(text):
        m = _REFERENCE_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        group = m.lastgroup
        if group == "number":
            over = literal_over_bound(m.group("digits"), m.group("exp"))
            if over == "exponent":
                raise ParseError(f"exponent of {lexeme[:40]!r} exceeds {MAX_EXPONENT}", line, col)
            if over == "digits":
                raise ParseError(f"{lexeme[:40]!r}... has over {MAX_DIGITS} digits", line, col)
            tokens.append(Token("number", lexeme, line, col))
        elif group == "ident":
            kind = lexeme if lexeme in KEYWORDS else "ident"
            tokens.append(Token(kind, lexeme, line, col))
        elif group == "punct":
            tokens.append(Token(lexeme, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


def lexed(tokenize_text, text):
    """The (kind, text, line, col) of every token, or the ParseError's message and position."""
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize_text(text)]
    except ParseError as e:
        return ("error", e.message, e.line, e.col)


_SPECS = sorted((Path(__file__).resolve().parent.parent / "demos" / "specs").glob("*.fps"))
LEXER_TEXTS = {
    **{path.name: path.read_text() for path in _SPECS},
    **{f"golden_{name}": source for name, (source, *_) in GOLDEN.items()},
    "crlf_tabs_comments": "# head\r\ninput\tx : sif(1/0/7);\r\n\t# note\r\n"
                          "output y = 0.5*x; # tail\r\n",
    "no_final_newline": "input x : sif(1/0/7);\noutput y = x",
    "comment_at_end": "input x : sif(1/0/7);\noutput y = x; # no newline",
    "empty": "",
    "bad_after_newlines": "input x : sif(1/0/7);\n\n\t  output y = x @ x;\n",
    "bad_first": "\u00e9",
    "vertical_tab": "input x\x0b: sif(1/0/7);",
    "huge_exponent": "const c = 1e99999;",
    "many_digits": "const c = " + "1" * (MAX_DIGITS + 1) + ";",
}


@pytest.mark.parametrize("name", list(LEXER_TEXTS))
def test_tokenize_matches_the_reference_loop(name):
    text = LEXER_TEXTS[name]
    assert lexed(tokenize, text) == lexed(reference_tokenize, text)


_FRAGMENTS = sorted(KEYWORDS) + [
    "x", "y0", "_k", "e", "E", "0", "7", "15", "0.5", "1e3", "2E-4", "1e99999",
    *"():;=+-*/", " ", "\t", "\n", "\r", "\r\n", "#", "# note", ".", "@", "\x0b", "\u00e9"]


@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join))
@settings(max_examples=300)
@example(text="input x : sif(1/0/7);\r\n\toutput y = x;")
def test_tokenize_matches_the_reference_loop_on_any_text(text):
    assert lexed(tokenize, text) == lexed(reference_tokenize, text)
