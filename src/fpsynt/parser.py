"""Frontend for the .fps dataflow DSL.

Grammar (comments run from '#' to end of line):

    spec    := { decl }
    decl    := "input" ident ":" "sif" "(" int "/" int "/" int ")" ";"
             | "const" ident "=" ["-"] number ";"
             | "output" ident "=" expr ";"
    expr    := term { ("+" | "-") term }
    term    := factor { "*" factor }
    factor  := ident | number | "(" expr ")"

Numeric literals are parsed as exact decimal-scaled rationals, so a
coefficient like 0.15 reaches quantization uncorrupted by a binary-float
detour. Subtraction becomes an ADD node with a negate flag on the second
operand; unparenthesized sums associate to the left. The parser never
re-associates and never folds constants; it reproduces the source tree
exactly. Parentheses nest at most ``MAX_NESTING`` levels deep, and a
numeric literal has at most ``MAX_DIGITS`` digits before its decimal
exponent (and as many in it), which is at most ``MAX_EXPONENT`` in size.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .core import Dfg, Node, NodeKind, SifFormat, render_infix
from .errors import ParseError

KEYWORDS = {"input", "const", "output", "sif"}

# Deepest parenthesis nesting the parser accepts. Each level costs three
# Python frames in the recursive descent, so a deeper input would otherwise
# end in RecursionError; past the limit it is a positioned ParseError.
MAX_NESTING = 200

# Largest size of a literal's decimal exponent: a Fraction expands 10**e in
# full, so 1e-99999999 would take minutes. 1e999 and 1e-999 already lie far
# outside any word of up to 64 bits (such a constant does not fit, or is 0).
MAX_EXPONENT = 999

# Most digits of a literal before its exponent: a Fraction reads them with
# int(), which refuses strings of more than 4300 digits with a ValueError.
MAX_DIGITS = 2000


def literal_over_bound(digits: str, exp: str | None) -> str | None:
    """The bound a decimal breaks, given its digits (with any point) and its
    exponent's digits (with any sign): "exponent" when that is over
    MAX_EXPONENT in size, else "digits" when either has over MAX_DIGITS
    digits, else None. Spec literals and vector file cells share these bounds."""
    size = (exp or "").lstrip("+-0")
    if len(size) > len(str(MAX_EXPONENT)) or int(size or 0) > MAX_EXPONENT:
        return "exponent"
    # int() reads the exponent with its leading zeros, so they count too
    if len(digits) - digits.count(".") > MAX_DIGITS or len(exp or "") > MAX_DIGITS:
        return "digits"
    return None


# one token, or one comment, after the whitespace before it
_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]*
    (?:
      (?P<comment>\#[^\n]*)
    | (?P<number>(?P<digits>\d+(\.\d+)?)([eE](?P<exp>[+-]?\d+))?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>[():;=+\-*/])
    | (?P<bad>[^ \t\r\n])
    )
    """,
    re.VERBOSE,
)


@dataclass(slots=True, unsafe_hash=True)
class Token:
    """One lexeme and its 1-based position; slotted, never assigned after construction."""

    kind: str  # 'number' | 'ident' | keyword text | punct text | 'eof'
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    append = tokens.append
    # line_start: offset of the current line's first character; nl: of the next newline
    line, line_start, nl = 1, 0, text.find("\n")
    for m in _TOKEN_RE.finditer(text):
        group = m.lastgroup
        if group == "comment":  # a comment makes no token
            continue
        at, end = m.span(group)
        while 0 <= nl < at:
            line, line_start = line + 1, nl + 1
            nl = text.find("\n", line_start)
        lexeme, col = text[at:end], at - line_start + 1
        if group == "ident":
            append(Token(lexeme if lexeme in KEYWORDS else "ident", lexeme, line, col))
        elif group == "punct":
            append(Token(lexeme, lexeme, line, col))
        elif group == "number":
            # a literal of at most 5 characters is within both bounds
            over = literal_over_bound(m.group("digits"), m.group("exp")) \
                if end - at > 5 else None
            if over == "exponent":
                raise ParseError(f"exponent of {lexeme[:40]!r} exceeds {MAX_EXPONENT}", line, col)
            if over == "digits":
                raise ParseError(f"{lexeme[:40]!r}... has over {MAX_DIGITS} digits", line, col)
            append(Token("number", lexeme, line, col))
        else:
            raise ParseError(f"unexpected character {lexeme!r}", line, col)
    while nl >= 0:
        line, line_start = line + 1, nl + 1
        nl = text.find("\n", line_start)
    append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


@dataclass(frozen=True)
class Bindings:
    """Declared names of a spec.

    ``inputs`` maps each input to its declared (s, i, f) triple; the triple
    is kept raw so validate_formats can report invalid declarations instead
    of the parser crashing on them.
    """

    inputs: dict[str, tuple[int, int, int]]
    consts: dict[str, Fraction]
    outputs: tuple[str, ...]

    def input_format(self, name: str) -> SifFormat:
        s, i, f = self.inputs[name]
        return SifFormat(s, i, f)


@dataclass(frozen=True)
class Diagnostic:
    kind: str  # 'invalid' | 'cannot-fit'
    message: str

    def __str__(self):
        return self.message


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.cur = tokens[0]
        self.nodes: list[Node] = []
        self.inputs: dict[str, tuple[int, int, int]] = {}
        self.consts: dict[str, Fraction] = {}
        self.outputs: list[str] = []
        self._declared: set[str] = set()
        # every name the spec declares, also further on: no generated name takes one
        self._reserved = {name.text for decl, name in zip(tokens, tokens[1:])
                          if decl.kind in ("input", "const", "output")}
        self._gen = 0
        self._depth = 0

    # token plumbing: ``cur`` is ``tokens[pos]``, the next token to read

    def advance(self) -> Token:
        tok = self.cur
        self.pos += 1
        self.cur = self.tokens[self.pos]  # the eof token is never read past
        return tok

    def expect(self, kind: str) -> Token:
        if self.cur.kind != kind:
            raise ParseError(f"expected {kind!r}, found {self.cur.text or 'end of file'!r}",
                             self.cur.line, self.cur.col)
        return self.advance()

    def fresh_id(self, prefix: str) -> str:
        while True:
            name = f"{prefix}{self._gen}"
            self._gen += 1
            if name not in self._reserved:
                return name

    # declarations

    def parse(self) -> tuple[Dfg, Bindings]:
        while self.cur.kind != "eof":
            if self.cur.kind == "input":
                self.input_decl()
            elif self.cur.kind == "const":
                self.const_decl()
            elif self.cur.kind == "output":
                self.output_decl()
            else:
                raise ParseError(f"expected a declaration, found {self.cur.text!r}",
                                 self.cur.line, self.cur.col)
        if not self.outputs:
            raise ParseError("spec declares no outputs", self.cur.line, self.cur.col)
        return Dfg(tuple(self.nodes)), Bindings(dict(self.inputs), dict(self.consts),
                                                tuple(self.outputs))

    def declare(self, tok: Token) -> str:
        if tok.text in self._declared:
            raise ParseError(f"duplicate declaration of '{tok.text}'", tok.line, tok.col)
        self._declared.add(tok.text)
        return tok.text

    def int_field(self) -> int:
        tok = self.expect("number")
        if not tok.text.isdigit():
            raise ParseError(f"expected an integer, found {tok.text!r}", tok.line, tok.col)
        return int(tok.text)

    def input_decl(self):
        self.advance()
        name = self.declare(self.expect("ident"))
        self.expect(":")
        self.expect("sif")
        self.expect("(")
        s = self.int_field()
        self.expect("/")
        i = self.int_field()
        self.expect("/")
        f = self.int_field()
        self.expect(")")
        self.expect(";")
        self.inputs[name] = (s, i, f)
        self.nodes.append(Node(name, NodeKind.INPUT))

    def const_decl(self):
        self.advance()
        name = self.declare(self.expect("ident"))
        self.expect("=")
        sign = 1
        if self.cur.kind == "-":
            self.advance()
            sign = -1
        tok = self.expect("number")
        self.expect(";")
        value = sign * Fraction(tok.text)
        self.consts[name] = value
        self.nodes.append(Node(name, NodeKind.CONST, value=value))

    def output_decl(self):
        self.advance()
        name_tok = self.expect("ident")
        self.expect("=")
        root = self.expr()
        self.expect(";")
        name = self.declare(name_tok)
        self.outputs.append(name)
        self.nodes.append(Node(name, NodeKind.OUTPUT, operands=(root,)))

    # expressions

    def expr(self) -> str:
        left = self.term()
        while self.cur.kind in ("+", "-"):
            op = self.advance()
            right = self.term()
            node_id = self.fresh_id("t")
            self.nodes.append(Node(node_id, NodeKind.ADD, operands=(left, right),
                                   negate=(False, op.kind == "-")))
            left = node_id
        return left

    def term(self) -> str:
        left = self.factor()
        while self.cur.kind == "*":
            self.advance()
            right = self.factor()
            node_id = self.fresh_id("t")
            self.nodes.append(Node(node_id, NodeKind.MUL, operands=(left, right)))
            left = node_id
        return left

    def factor(self) -> str:
        if self.cur.kind == "ident":
            tok = self.advance()
            if tok.text in self.inputs or tok.text in self.consts:
                return tok.text
            if tok.text in self.outputs:
                raise ParseError(f"output '{tok.text}' cannot be used in an expression",
                                 tok.line, tok.col)
            raise ParseError(f"undeclared identifier '{tok.text}'", tok.line, tok.col)
        if self.cur.kind == "number":
            tok = self.advance()
            node_id = self.fresh_id("lit")
            self.nodes.append(Node(node_id, NodeKind.CONST, value=Fraction(tok.text)))
            return node_id
        if self.cur.kind == "(":
            tok = self.advance()
            self._depth += 1
            if self._depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING} levels",
                                 tok.line, tok.col)
            inner = self.expr()
            self.expect(")")
            self._depth -= 1
            return inner
        raise ParseError(f"expected an operand, found {self.cur.text or 'end of file'!r}",
                         self.cur.line, self.cur.col)


def parse_spec(text: str) -> tuple[Dfg, Bindings]:
    """Parse .fps source, after any leading byte-order mark, into a graph and its bindings."""
    return _Parser(tokenize(text.removeprefix("\ufeff"))).parse()


def validate_formats(bindings: Bindings, width: int) -> list[Diagnostic]:
    """Check every declared format against the word width. Collects all
    violations instead of stopping at the first one; an empty list means ok.
    """
    diags: list[Diagnostic] = []
    for name, (s, i, f) in bindings.inputs.items():
        if s < 1:
            diags.append(Diagnostic("invalid", f"input '{name}': sign bits must be >= 1"))
            continue
        if i < 0 or f < 0:
            diags.append(Diagnostic("invalid", f"input '{name}': negative field width"))
            continue
        if s + i + f > width:
            w = str(s + i + f)  # a width of 2000 digits is shown as its first 40
            w = w if len(w) <= 40 else f"{w[:40]}..."
            diags.append(Diagnostic(
                "cannot-fit",
                f"input '{name}': declared width {w} exceeds word width {width}"))
    return diags


def _frac_to_decimal(x: Fraction) -> str:
    """Exact decimal rendering; only called for values with 2^a*5^b denominators."""
    num, den = x.numerator, x.denominator
    sign = "-" if num < 0 else ""
    num = abs(num)
    scale = 0
    while den % 2 == 0:
        den //= 2
        num *= 5
        scale += 1
    while den % 5 == 0:
        den //= 5
        num *= 2
        scale += 1
    if den != 1:
        raise ValueError(f"{x} has no finite decimal form")
    digits = str(num).rjust(scale + 1, "0")
    if scale:
        return f"{sign}{digits[:-scale]}.{digits[-scale:]}"
    return f"{sign}{digits}"


def pretty_print(dfg: Dfg, bindings: Bindings) -> str:
    """Render a parsed spec back to .fps text with explicit parentheses.

    Re-parsing the result yields a structurally identical graph. Every
    product and every addition gets its own pair of parentheses, except an
    addition that is the left operand of another: the parser associates
    sums to the left anyway, so a sum of any length parses back. ADD nodes
    with a negated first operand (which only re-association produces) render
    with swapped operand order.
    """
    lines = []
    for name, (s, i, f) in bindings.inputs.items():
        lines.append(f"input {name} : sif({s}/{i}/{f});")
    for name, value in bindings.consts.items():
        lines.append(f"const {name} = {_frac_to_decimal(value)};")

    def leaf(node) -> str:
        if node.kind is NodeKind.CONST and node.id not in bindings.consts:
            return _frac_to_decimal(node.value)
        return node.id

    def shift(node):
        raise ValueError(f"cannot render node kind {node.kind} in source form")

    for name in bindings.outputs:
        root = dfg.node(name).operands[0]
        text = render_infix(dfg, root, leaf, shift, bare_left_sums=True)
        lines.append(f"output {name} = {text};")
    return "\n".join(lines) + "\n"
