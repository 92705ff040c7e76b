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

    def __init__(self, message: str, position: int, expected: frozenset[str]):
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

_ATOM_START = frozenset({BLOCK_OPEN, LPAREN})


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


def parse_expression(src: str) -> AttackExpr:
    """The expression tree of source text, read in one pass over its tokens.

    The pass keeps an explicit stack of open groups, each entry the union
    and the term read so far around the group and the group's "(" token,
    so groups nest to any depth without recursion.
    """
    tokens = tokenize(src)
    end = len(tokens)
    groups: list[tuple[AttackExpr | None, AttackExpr | None, ExprToken]] = []
    union: AttackExpr | None = None  # the innermost open group's union so far
    term: AttackExpr | None = None  # and the term it is reading
    i = 0
    while True:
        # An atom is due: a block, or the "(" of a group.
        if i == end:
            raise ExpressionSyntaxError("expected a block or '('", len(src), _ATOM_START)
        tok = tokens[i]
        i += 1
        if tok.kind == LPAREN:
            groups.append((union, term, tok))
            union = term = None
            continue
        if tok.kind != BLOCK_OPEN:
            raise ExpressionSyntaxError(f"unexpected {tok.kind!r}", tok.start, _ATOM_START)
        # The tokenizer has checked what block() would: the text is not
        # blank and its parentheses balance.
        node: AttackExpr = Block(tok.text)
        # End the factor, then the term unless a "." follows, then the union
        # unless a "+" follows; a ")" then closes a group, whose union is a
        # factor of the group around it.
        while True:
            if i < end and tokens[i].kind == STAR:
                node = star(node)
                i += 1
            term = node if term is None else Concat(term, node)
            kind = tokens[i].kind if i < end else None
            if kind == DOT:
                break
            union = term if union is None else UnionExpr(union, term)
            term = None
            if kind == PLUS:
                break
            if not groups:
                if kind is None:
                    return union
                if kind == RPAREN:
                    raise UnbalancedParens("unmatched ')'", tokens[i].start)
                raise ExpressionSyntaxError(
                    f"unexpected {kind!r}", tokens[i].start, frozenset({PLUS, DOT, STAR}))
            node = union
            union, term, open_tok = groups.pop()
            if kind != RPAREN:
                raise UnbalancedParens("unclosed group", open_tok.start)
            i += 1
        i += 1  # past the "." or "+"


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
