import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from attackdag.expr import (
    EmptyBlockDescription,
    ExpressionSyntaxError,
    UnbalancedParens,
    line_col,
    parse_expression,
    render_expression,
    tokenize,
)
from attackdag.model import Block, Concat, Star, UnionExpr, block, star

from oracles import parse_expression_recursive, render_expression_recursive, tokenize_by_character


class TestTokenize:
    def test_operators_inside_description_are_literal(self):
        toks = tokenize("bb_i(a + b.c * d)")
        assert [(t.kind, t.text, t.start, t.end) for t in toks] == [
            ("bb_", "a + b.c * d", 0, 17),
        ]

    def test_nested_parens_in_description(self):
        toks = tokenize("bb_i(call f(x) twice)")
        assert [(t.kind, t.text) for t in toks] == [("bb_", "call f(x) twice")]

    def test_whitespace_between_tokens_ignored(self):
        assert [(t.kind, t.text, t.start, t.end) for t in tokenize(" bb_i ( x ) * ")] == [
            ("bb_", " x ", 1, 11), ("*", "*", 12, 13),
        ]

    def test_missing_ident(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            tokenize("bb_(x)")
        assert "ident" in exc.value.expected

    def test_unclosed_description(self):
        with pytest.raises(UnbalancedParens):
            tokenize("bb_i(never closed")

    def test_blank_description(self):
        with pytest.raises(EmptyBlockDescription):
            tokenize("bb_i(   )")

    def test_stray_character(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            tokenize("bb_i(x) & bb_j(y)")
        assert exc.value.position == 8


class TestParse:
    def test_single_block(self):
        assert parse_expression("bb_i(weak password)") == Block("weak password")

    def test_precedence_union_lowest(self):
        ast = parse_expression("bb_i(a).bb_j(b)+bb_k(c)")
        assert isinstance(ast, UnionExpr)
        assert isinstance(ast.left, Concat)

    def test_star_binds_tightest(self):
        ast = parse_expression("bb_i(a).bb_j(b)*")
        assert ast == Concat(block("a"), star(block("b")))

    def test_group_star(self):
        ast = parse_expression("(bb_i(a).bb_j(b))*")
        assert ast == star(Concat(block("a"), block("b")))

    def test_left_associative(self):
        ast = parse_expression("bb_i(a).bb_j(b).bb_k(c)")
        assert ast == Concat(Concat(block("a"), block("b")), block("c"))
        ast = parse_expression("bb_i(a)+bb_j(b)+bb_k(c)")
        assert ast == UnionExpr(UnionExpr(block("a"), block("b")), block("c"))

    def test_identifier_is_discarded(self):
        assert parse_expression("bb_alpha(x)") == parse_expression("bb_9(x)")

    def test_unmatched_close(self):
        with pytest.raises(UnbalancedParens):
            parse_expression("bb_i(a))")

    def test_unclosed_group(self):
        with pytest.raises(UnbalancedParens):
            parse_expression("(bb_i(a)")

    def test_trailing_operator(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("bb_i(a).")

    def test_leading_operator(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("+bb_i(a)")

    def test_empty_source(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("   ")

    def test_double_star_rejected(self):
        # factor takes at most one star; repetition of a starred atom needs
        # an explicit group: (bb_i(a)*)*.
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("bb_i(a)**")
        assert parse_expression("(bb_i(a)*)*") == star(block("a"))

    def test_error_position_points_at_failure(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression("bb_i(a).+bb_j(b)")
        assert exc.value.position == 8

    def test_groups_nest_to_any_depth(self):
        deepest = "(" * 100_000 + "bb_i(a)" + ")" * 100_000
        assert parse_expression(deepest) == Block("a")
        with pytest.raises(UnbalancedParens) as exc:
            parse_expression("(" + deepest)
        assert exc.value.position == 0


class TestRender:
    def test_explicit_dots_and_sequential_ids(self):
        ast = Concat(Concat(block("a"), block("b")), block("c"))
        assert render_expression(ast) == "bb_1(a).bb_2(b).bb_3(c)"

    def test_union_inside_concat_parenthesized(self):
        ast = Concat(UnionExpr(block("a"), block("b")), block("c"))
        assert render_expression(ast) == "(bb_1(a)+bb_2(b)).bb_3(c)"

    def test_union_inside_star_parenthesized(self):
        ast = star(UnionExpr(block("a"), block("b")))
        assert render_expression(ast) == "(bb_1(a)+bb_2(b))*"

    def test_concat_inside_star_parenthesized(self):
        ast = star(Concat(block("a"), block("b")))
        assert render_expression(ast) == "(bb_1(a).bb_2(b))*"

    def test_no_redundant_parens(self):
        ast = UnionExpr(Concat(block("a"), star(block("b"))), block("c"))
        assert render_expression(ast) == "bb_1(a).bb_2(b)*+bb_3(c)"

    def test_right_nested_concat_keeps_parens(self):
        # concat(a, concat(b, c)) must not render as a.b.c, which would
        # re-parse left-associatively into a different tree.
        ast = Concat(block("a"), Concat(block("b"), block("c")))
        rendered = render_expression(ast)
        assert parse_expression(rendered) == ast

    def test_right_nested_union_keeps_parens(self):
        ast = UnionExpr(block("a"), UnionExpr(block("b"), block("c")))
        rendered = render_expression(ast)
        assert parse_expression(rendered) == ast


def random_ast(rng: random.Random, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return block(rng.choice(["alpha", "beta b", "gamma (x)", "d.e+f*", "weak password"]))
    if roll < 0.55:
        return star(random_ast(rng, depth - 1))
    left = random_ast(rng, depth - 1)
    right = random_ast(rng, depth - 1)
    return Concat(left, right) if roll < 0.8 else UnionExpr(left, right)


class TestRoundTrip:
    def test_parse_render_parse_random(self):
        rng = random.Random(20260819)
        for _ in range(1000):
            ast = random_ast(rng, rng.randint(0, 8))
            rendered = render_expression(ast)
            assert parse_expression(rendered) == ast

    def test_long_chain_compares_hashes_and_prints(self):
        src = ".".join(f"bb_{i}(step {i})" for i in range(3000))
        chain, again = parse_expression(src), parse_expression(src)
        assert chain == again and chain is not again
        assert hash(chain) == hash(again)
        other = parse_expression(src.replace("step 0)", "step zero)"))
        assert chain != other and hash(chain) != hash(other)
        assert repr(chain).startswith("Concat(left=Concat(left=Concat(")
        assert repr(chain).endswith(", right=Block(description='step 2999'))")

    def test_eq_hash_repr_match_generated_dataclass_methods(self):
        # The same tree built from plain frozen dataclasses, whose generated
        # methods recurse, is the reference at depths that recursion handles.
        plain = {cls: dataclasses.make_dataclass(cls.__name__, cls.__match_args__, frozen=True)
                 for cls in (Block, Star, Concat, UnionExpr)}

        def rebuilt(node):
            if isinstance(node, Block):
                return plain[Block](node.description)
            return plain[type(node)](*(rebuilt(getattr(node, f)) for f in node.__match_args__))

        rng = random.Random(5)
        asts = [random_ast(rng, rng.randint(0, 6)) for _ in range(300)]
        for a, b in zip(asts, asts[1:] + asts[:1]):
            assert repr(a) == repr(rebuilt(a))
            assert (a == b) == (rebuilt(a) == rebuilt(b))
            if a == b:
                assert hash(a) == hash(b)
        assert Block("x") != "x" and Block("x") != Star(Block("x"))

    def test_render_parse_render_idempotent(self):
        rng = random.Random(7)
        for _ in range(200):
            ast = random_ast(rng, 6)
            once = render_expression(ast)
            again = render_expression(parse_expression(once))
            assert again == once

    def test_render_matches_recursive_reference(self):
        rng = random.Random(41)
        for _ in range(1000):
            ast = random_ast(rng, rng.randint(0, 8))
            assert render_expression(ast) == render_expression_recursive(ast)

    def test_long_chain_renders_and_reparses(self):
        src = ".".join(f"bb_{i}(step {i})" for i in range(1, 3001))
        rendered = render_expression(parse_expression(src))
        assert rendered == src
        assert render_expression(parse_expression(rendered)) == rendered

    def test_bundled_corpus_round_trips(self, corpus_expressions):
        for _, expression in corpus_expressions:
            rendered = render_expression(expression)
            assert parse_expression(rendered) == expression


class TestLineCol:
    def test_first_line(self):
        assert line_col("abc", 1) == (1, 2)

    def test_after_newline(self):
        assert line_col("ab\ncd", 3) == (2, 1)
        assert line_col("ab\ncd", 4) == (2, 2)


# Source text built from the DSL's own pieces, so most draws reach the parser,
# with blocks whose descriptions nest parentheses, balanced or not.
DSL_PIECES = st.sampled_from(["bb_", "bb_x", "(", ")", "*", "+", ".", " ", "\n", "a", "(x)",
                              "\u00e9", "&", "_", "\t"])
DSL_BLOCKS = st.builds("bb_{}{}({})".format, st.sampled_from(["x", "1", ""]),
                       st.sampled_from(["", " "]), st.text(st.sampled_from("()a .+*"), max_size=8))
DSL_SOURCES = st.lists(DSL_BLOCKS | DSL_PIECES, max_size=12).map("".join) | st.text()


def outcome(scan, src):
    """The tokens a scanner gives, or the type, message, position and expected set it raises."""
    try:
        return scan(src)
    except ExpressionSyntaxError as exc:
        return type(exc), str(exc), exc.position, exc.expected


@settings(max_examples=500, deadline=None)
@given(src=DSL_SOURCES)
def test_block_token_text_passes_block_checks(src):
    """The parser builds a Block from a "bb_" token's text unchecked, as the
    tokenizer has made every check ``block()`` makes."""
    try:
        tokens = tokenize(src)
    except ExpressionSyntaxError:
        return
    for tok in tokens:
        if tok.kind == "bb_":
            assert block(tok.text) == Block(tok.text)


@settings(max_examples=500, deadline=None)
@given(src=DSL_SOURCES)
def test_parse_expression_fuzz(src):
    """Every string parses or raises the typed parse error; tokens and errors match
    the character-at-a-time scanner's."""
    assert outcome(tokenize, src) == outcome(tokenize_by_character, src)
    try:
        ast = parse_expression(src)
    except ExpressionSyntaxError:
        return
    assert parse_expression(render_expression(ast)) == ast


@st.composite
def nested_sources(draw):
    """Expression text whose groups nest up to 99 deep, well formed or with one
    piece dropped, inserted or replaced, so it nests at most 100 deep."""
    limit = draw(st.integers(0, 99))
    pieces: list[str] = []
    depth = 0
    for remaining in reversed(range(draw(st.integers(1, 8)))):
        opens = draw(st.integers(0, limit - depth))
        pieces += ["("] * opens + [draw(st.sampled_from(["bb_i(a)", "bb_j(b c)", "bb_k((x))"]))]
        depth += opens
        if draw(st.booleans()):
            pieces.append("*")
        closes = depth if not remaining else draw(st.integers(0, depth))
        for _ in range(closes):
            pieces += [")"] + (["*"] if draw(st.integers(0, 3)) == 0 else [])
        depth -= closes
        if remaining:
            pieces.append(draw(st.sampled_from(".+")))
    edit = draw(st.sampled_from(["none", "drop", "insert", "replace"]))
    if edit != "none":
        at = draw(st.integers(0, len(pieces) - (edit != "insert")))
        piece = draw(st.sampled_from(["bb_z(q)", "(", ")", "*", "+", "."]))
        pieces[at:at + (edit != "insert")] = [] if edit == "drop" else [piece]
    return draw(st.sampled_from(["", " "])).join(pieces)


@settings(max_examples=500, deadline=None)
@given(src=DSL_SOURCES | nested_sources())
def test_parse_matches_recursive_descent(src):
    """The one-pass parser gives the recursive-descent parser's tree, or raises
    its error with the same type, message, position and expected set."""
    assert outcome(parse_expression, src) == outcome(parse_expression_recursive, src)
