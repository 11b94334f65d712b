"""A small arithmetic-expression grammar for interval-map ingestion.

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := '-' factor | power
    power    := atom ('^' factor)?          (right associative)
    atom     := NUMBER | 'x' | '(' expr ')'
              | 'piecewise' '(' cond ':' expr ',' expr ')'
    cond     := 'x' ('<=' | '<') NUMBER

piecewise(c: a, b) evaluates a where the condition holds and b elsewhere.
Parsing and evaluation recurse along the nesting, so an expression nested
or chained deeper than MAX_DEPTH levels is a parse error.
"""

from __future__ import annotations

import re

from .order import InternalCheckFailed

MAX_DEPTH = 100  # well inside Python's recursion limit for parser and evaluator frames


class ParseError(ValueError):
    def __init__(self, position: int, expected: str):
        self.position = position
        self.expected = expected
        super().__init__(f"parse error at position {position}: expected {expected}")


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|[-+*/^()<:,]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(len(text) - len(stripped), "a number, name, or operator")
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


class Expr:
    """A parsed expression; call it with a float x."""

    def __init__(self, node, text: str):
        self._node = node
        self.text = text

    def __call__(self, x: float) -> float:
        return _eval(self._node, x)

    def __repr__(self):
        return f"Expr({self.text!r})"


def _eval(node, x):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "x":
        return x
    if kind == "neg":
        return -_eval(node[1], x)
    if kind == "+":
        return _eval(node[1], x) + _eval(node[2], x)
    if kind == "-":
        return _eval(node[1], x) - _eval(node[2], x)
    if kind == "*":
        return _eval(node[1], x) * _eval(node[2], x)
    if kind == "/":
        return _eval(node[1], x) / _eval(node[2], x)
    if kind == "^":
        return _eval(node[1], x) ** _eval(node[2], x)
    if kind == "piecewise":
        _, strict, c, a, b = node
        holds = x < c if strict else x <= c
        return _eval(a, x) if holds else _eval(b, x)
    raise InternalCheckFailed(f"unknown node {kind}")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.next()
        if tok is None or tok[0] != "op" or tok[1] != op:
            raise ParseError(tok[2] if tok else len(self.text), f"'{op}'")
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(tok[2], "end of input")
        return node

    def expr(self):
        return self.chain("+-", self.term)

    def term(self):
        return self.chain("*/", self.factor)

    def chain(self, ops: str, operand):
        """operand ((one of ops) operand)*, left associative."""
        node = operand()
        while True:
            tok = self.peek()
            if not (tok and tok[0] == "op" and tok[1] in ops):
                return node
            self.next()
            node = (tok[1], node, operand())

    def factor(self):
        # every recursion of the grammar passes through here
        tok = self.peek()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(tok[2] if tok else len(self.text), f"at most {MAX_DEPTH} levels of nesting")
        if tok and tok[0] == "op" and tok[1] == "-":
            self.next()
            node = ("neg", self.factor())
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self):
        node = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.next()
            return ("^", node, self.factor())
        return node

    def atom(self):
        tok = self.next()
        if tok is None:
            raise ParseError(len(self.text), "a number, 'x', '(' or 'piecewise'")
        kind, value, pos = tok
        if kind == "num":
            return ("num", value)
        if kind == "name" and value == "x":
            return ("x",)
        if kind == "name" and value == "piecewise":
            self.expect_op("(")
            strict, c = self.cond()
            self.expect_op(":")
            a = self.expr()
            self.expect_op(",")
            b = self.expr()
            self.expect_op(")")
            return ("piecewise", strict, c, a, b)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(pos, "a number, 'x', '(' or 'piecewise'")

    def cond(self):
        tok = self.next()
        if tok is None or tok[0] != "name" or tok[1] != "x":
            raise ParseError(tok[2] if tok else len(self.text), "'x' in a condition")
        tok = self.next()
        if tok is None or tok[0] != "op" or tok[1] not in ("<", "<="):
            raise ParseError(tok[2] if tok else len(self.text), "'<' or '<='")
        strict = tok[1] == "<"
        c = self.signed_number()
        return strict, c

    def signed_number(self):
        tok = self.next()
        neg = False
        if tok and tok[0] == "op" and tok[1] == "-":
            neg = True
            tok = self.next()
        if tok is None or tok[0] != "num":
            raise ParseError(tok[2] if tok else len(self.text), "a number")
        return -tok[1] if neg else tok[1]


def _height(node) -> int:
    """Levels of the tree below and including node, counted without recursion."""
    height = 0
    level = [node]
    while level:
        height += 1
        level = [child for n in level for child in n[1:] if isinstance(child, tuple)]
    return height


def parse(text: str) -> Expr:
    node = _Parser(text).parse()
    # a long chain of binary operators nests its first operand deep
    if _height(node) > MAX_DEPTH:
        raise ParseError(0, f"at most {MAX_DEPTH} levels of nesting")
    return Expr(node, text)
