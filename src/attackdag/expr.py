"""Parser and renderer for the attack-expression DSL.

Grammar (lowest precedence first):

    expr   := term ("+" term)*          union of alternative step sequences
    term   := factor ("." factor)*      concatenation (temporal order)
    factor := atom "*"?                 star marks a repeatable step
    atom   := block | "(" expr ")"
    block  := "bb" "_" ident "(" balanced-text ")"

Whitespace between tokens is ignored.  The text inside a block's
parentheses is kept verbatim (any characters, parentheses balanced,
non-blank); the identifier after "bb_" is positional noise and is
discarded.  Blocks are matched by description, never by identifier.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import AttackExpr, Block, Concat, Star, UnionExpr, star


class ExpressionSyntaxError(ValueError):
    """Malformed expression text.

    position is a 0-based character offset into the source; expected lists
    the token kinds that would have been legal there.
    """

    def __init__(self, message: str, position: int, expected: frozenset[str] = frozenset()):
        super().__init__(f"{message} at offset {position}")
        self.position = position
        self.expected = expected


class UnbalancedParens(ExpressionSyntaxError):
    def __init__(self, message: str, position: int):
        super().__init__(message, position, frozenset({")"}))


class EmptyBlockDescription(ExpressionSyntaxError):
    def __init__(self, position: int):
        super().__init__("block description is blank", position, frozenset({"text"}))


BLOCK_OPEN = "bb_"
IDENT = "ident"
LPAREN = "("
RPAREN = ")"
STAR = "*"
PLUS = "+"
DOT = "."

# Each group costs the recursive-descent parser four frames, so nesting is
# capped well inside the interpreter's recursion limit.
MAX_GROUP_DEPTH = 100


class ExprToken(NamedTuple):
    kind: str
    text: str
    start: int
    end: int


def line_col(src: str, position: int) -> tuple[int, int]:
    """1-based (line, column) for a character offset."""
    prefix = src[:position]
    line = prefix.count("\n") + 1
    col = position - (prefix.rfind("\n") + 1) + 1
    return line, col


def tokenize(src: str) -> list[ExprToken]:
    """Scan source text into tokens.

    A whole block, "bb_" ident "(" text ")", is one BLOCK_OPEN token whose
    text is the description: the scanner runs from "(" to the matching
    close paren, so operator characters inside descriptions stay literal.
    """
    tokens: list[ExprToken] = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if src.startswith(BLOCK_OPEN, i):
            start = i
            i += 3
            j = i
            while j < n and src[j].isalnum():
                j += 1
            if j == i:
                raise ExpressionSyntaxError("expected block identifier", i, frozenset({IDENT}))
            i = j
            while i < n and src[i].isspace():
                i += 1
            if i >= n or src[i] != "(":
                raise ExpressionSyntaxError("expected '(' after block identifier", i, frozenset({LPAREN}))
            open_pos = i
            i += 1
            # The matching ")" is the first one by which the "(" seen so far
            # are all closed: jump from ")" to ")" and count the "(" between.
            depth = 0
            j = i
            while True:
                close = src.find(")", j)
                if close < 0:
                    raise UnbalancedParens("unclosed block description", open_pos)
                depth += src.count("(", j, close)
                if depth == 0:
                    break
                depth -= 1
                j = close + 1
            if not src[i:close].strip():
                raise EmptyBlockDescription(i)
            tokens.append(ExprToken(BLOCK_OPEN, src[i:close], start, close + 1))
            i = close + 1
            continue
        if ch not in "()*+.":  # LPAREN, RPAREN, STAR, PLUS, DOT: each kind is its character
            raise ExpressionSyntaxError(
                f"unexpected character {ch!r}", i, frozenset({BLOCK_OPEN, LPAREN})
            )
        tokens.append(ExprToken(ch, ch, i, i + 1))
        i += 1
    return tokens


class _Parser:
    def __init__(self, src: str, tokens: list[ExprToken]):
        self.src = src
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> ExprToken | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _offset(self) -> int:
        tok = self.peek()
        return tok.start if tok else len(self.src)

    def fail(self, message: str, expected: frozenset[str]) -> ExpressionSyntaxError:
        return ExpressionSyntaxError(message, self._offset(), expected)

    def parse(self) -> AttackExpr:
        result = self.expr()
        tok = self.peek()
        if tok is not None:
            if tok.kind == RPAREN:
                raise UnbalancedParens("unmatched ')'", tok.start)
            raise self.fail(f"unexpected {tok.kind!r}", frozenset({PLUS, DOT, STAR}))
        return result

    def expr(self) -> AttackExpr:
        node = self.term()
        while (tok := self.peek()) is not None and tok.kind == PLUS:
            self.pos += 1
            node = UnionExpr(node, self.term())
        return node

    def term(self) -> AttackExpr:
        node = self.factor()
        while (tok := self.peek()) is not None and tok.kind == DOT:
            self.pos += 1
            node = Concat(node, self.factor())
        return node

    def factor(self) -> AttackExpr:
        node = self.atom()
        if (tok := self.peek()) is not None and tok.kind == STAR:
            self.pos += 1
            node = star(node)
        return node

    def atom(self) -> AttackExpr:
        tok = self.peek()
        if tok is None:
            raise self.fail("expected a block or '('", frozenset({BLOCK_OPEN, LPAREN}))
        if tok.kind == BLOCK_OPEN:
            # The tokenizer has checked what block() would: the text is not
            # blank and its parentheses balance.
            self.pos += 1
            return Block(tok.text)
        if tok.kind == LPAREN:
            open_tok = tok
            if self.depth == MAX_GROUP_DEPTH:
                raise ExpressionSyntaxError(
                    f"groups nested deeper than {MAX_GROUP_DEPTH}", tok.start)
            self.pos += 1
            self.depth += 1
            node = self.expr()
            self.depth -= 1
            closing = self.peek()
            if closing is None or closing.kind != RPAREN:
                raise UnbalancedParens("unclosed group", open_tok.start)
            self.pos += 1
            return node
        raise self.fail(f"unexpected {tok.kind!r}", frozenset({BLOCK_OPEN, LPAREN}))


def parse_expression(src: str) -> AttackExpr:
    return _Parser(src, tokenize(src)).parse()


# Rendering uses minimal parentheses.  Right-nested unions/concats are
# parenthesized so that parse(render(ast)) reproduces the ast exactly
# (the parser is left-associative).
_PREC = {UnionExpr: 0, Concat: 1, Star: 2, Block: 3}


def render_expression(expr: AttackExpr) -> str:
    # An explicit stack of pending nodes (with the precedence their position
    # demands) and literal text, popped left to right, so blocks are numbered
    # in text order and chains of any length render without recursion.
    pieces: list[str] = []
    count = 0
    stack: list[str | tuple[AttackExpr, int]] = [(expr, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            pieces.append(item)
            continue
        node, min_prec = item
        if isinstance(node, Block):
            count += 1
            parts: list[str | tuple[AttackExpr, int]] = [f"bb_{count}({node.description})"]
        elif isinstance(node, Star):
            parts = [(node.inner, 3), "*"]
        elif isinstance(node, Concat):
            parts = [(node.left, 1), ".", (node.right, 2)]
        else:
            parts = [(node.left, 0), "+", (node.right, 1)]
        if _PREC[type(node)] < min_prec:
            parts = ["(", *parts, ")"]
        stack.extend(reversed(parts))
    return "".join(pieces)
