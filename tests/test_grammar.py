"""The tokenizer against a character walk and against the scanner it
replaced (`reference_tokenizer.py`), and a pinned corpus of
parses and parse errors whose expected values were recorded with the
recursive-descent parser that the precedence-climbing one replaced."""

import hashlib
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from cassure import ParseError, SourceSpan, parse_model, parse_properties
from cassure.parsing import tokenize
from reference_tokenizer import reference_tokens

CASE_STUDY = Path(__file__).resolve().parent.parent / "case_study"

# ---- spans: the tokenizer against a naive character walk ----

TOKENS = st.sampled_from([
    ("ident", "x"), ("ident", "loc_2"), ("ident", "P"), ("int", "7"),
    ("int", "120"), ("real", "0.5"), ("real", ".25"), ("real", "1e-05"),
    ("real", "2.5E+3"), ("string", '"r"'), ("string", '"two\nlines"'),
    ("string", '"a\\"b"'), ("op", "<="), ("op", "->"), ("op", "=?"),
    ("op", ".."), ("op", "!"), ("op", "("), ("op", "]"), ("op", "'"),
    ("op", "/"),
])
# Every separator starts with white space, so that neighbouring tokens
# cannot merge, not even '/' with a comment; a comment ends its line.
SEPARATORS = st.lists(st.sampled_from([
    " ", "  ", "\t", "\n", "\r\n", "\n\n", " // note\n", "\t//\n", "\n// a b // c\r\n",
]), min_size=1, max_size=3).map("".join)
STREAMS = st.tuples(st.one_of(st.just(""), SEPARATORS),
                    st.lists(st.tuples(TOKENS, SEPARATORS), max_size=25),
                    st.sampled_from(["", "\n", "// end", "\r\n\n"]))


def assemble(stream):
    """The text of a stream and its tokens' (kind, text, offset)."""
    lead, pairs, tail = stream
    text, tokens = lead, []
    for (kind, lexeme), sep in pairs:
        tokens.append((kind, lexeme, len(text)))
        text += lexeme + sep
    return text + tail, tokens


def places(text):
    """The (line, column) of every offset of ``text`` and of its end."""
    out, line, column = [], 1, 1
    for ch in text:
        out.append((line, column))
        if ch == "\n":
            line, column = line + 1, 1
        else:
            column += 1
    out.append((line, column))
    return out


@given(STREAMS)
def test_token_spans_match_a_character_walk(stream):
    text, expected = assemble(stream)
    at = places(text)
    tokens = tokenize(text, "s.props")
    spans = map(tokens.span, range(len(tokens.texts)))
    got = [(kind, lexeme, s.file, s.line, s.column, s.length)
           for kind, lexeme, s in zip(tokens.kinds, tokens.texts, spans)]
    want = [(kind, lexeme, "s.props", *at[pos], len(lexeme))
            for kind, lexeme, pos in expected]
    assert got == want + [("eof", "", "s.props", *at[len(text)], 0)]
    # A deferred span equals, and hashes as, the span made from its fields.
    assert all(tokens.span(i) == SourceSpan(*row[2:]) and
               hash(tokens.span(i)) == hash(SourceSpan(*row[2:]))
               for i, row in enumerate(got))


@given(STREAMS, st.sampled_from("#@$%`~\\."), st.data())
def test_unexpected_character_is_placed_by_a_character_walk(stream, bad, data):
    lead, pairs, tail = stream
    cut = data.draw(st.integers(0, len(pairs)))
    before, _ = assemble((lead, pairs[:cut], ""))
    text = before + bad + " " + assemble(("", pairs[cut:], tail))[0]
    line, column = places(text)[len(before)]
    with pytest.raises(ParseError) as exc:
        tokenize(text, "s.props")
    assert str(exc.value) == \
        f"s.props:{line}:{column}: error: unexpected character {bad!r}"


# Characters of every kind of token and of none, in any order: letters,
# ASCII and other decimal digits, '.', 'e', signs, operators, quotes,
# backslashes, comment slashes, white space, and characters that start no
# token, among them a superscript digit, which is no decimal digit.
CHARACTERS = st.text(st.sampled_from(list(
    "aZ_e9\u0663.+-*/=<>!&|()[]{}:;,'?\"\\ \t\n\r#@$\u00e9\u00b2")), max_size=30)


@given(st.one_of(CHARACTERS, STREAMS.map(lambda stream: assemble(stream)[0])))
def test_tokens_match_the_reference_scanner(text):
    try:
        want = reference_tokens(text, "s.props")
    except ParseError as e:
        with pytest.raises(ParseError) as exc:
            tokenize(text, "s.props")
        assert str(exc.value) == str(e)
        return
    tokens = tokenize(text, "s.props")
    assert list(zip(tokens.kinds, tokens.texts, tokens.offsets)) == want


# ---- the pinned corpus ----

def _prop(expr):
    return "p", f"P=? [ F {expr} ]"


def _guard(guard):
    return "m", f"dtmc\nmodule m\n  x : [0..1] init 0;\n  [] {guard} -> (x'=1);\nendmodule\n"


CASES = {
    "not-binds-looser": _prop("!x=1 & y"),
    "comparison-non-assoc": _prop("a = b = c"),
    "not-under-plus": _prop("x + !y"),
    "minus-binds-tight": _prop("-x*y"),
    "implies-right-assoc": _prop("a -> b -> c"),
    "not-chain": _prop("!!a | b & !c < 2"),
    "not-after-compare": _prop("a = !b"),
    "mixed": _prop("a + b * c - d / -e >= 2 | f & g -> h"),
    "guard-then-arrow": _guard("x=0 & !b"),
    "guard-paren-implies": _guard("(a -> b) | x=1"),
    "guard-bare-implies": _guard("a -> b"),
    **{f"{shape}-{k}": _prop(text) for k in (50, 51) for shape, text in (
        ("parens", "(" * k + "a" + ")" * k),
        ("not", "!" * k + "a"),
        ("minus", "-" * k + "a"),
        ("implies", " -> ".join(["a"] * (k + 1))),
        ("sum", " + ".join(["a"] * k)),
    )},
    "bad-char": ("p", "// note\n  P=? [ F x=1 ] # \n"),
    "string-newline-bad-char": ("p", '"a\nb": P=? [ F x=1 ] @'),
    "eof": ("p", "P=? [ F x=1 // open\n"),
    "two-lines": ("p", '"a": P=? [ F x=1 ];\n  "b": P>=0.5 [ y<2 U x=1 ]\n'),
    "two-lines-error": ("p", '"a": P=? [ F x=1 ];\n\t"b": P>=0.5 [ y<2 U ]\n'),
    "P-without-relation": ("p", "P [ F x=1 ]"),
    "P-bound-by-name": ("p", "P>=x [ F x=1 ]"),
    "step-bound-by-name": ("p", "P=? [ F<=x x=1 ]"),
    "reward-name-unquoted": ("p", "R{r}=? [ F x=1 ]"),
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def answer(kind, text):
    """("repr", the AST's repr), ("sha256", a digest of a long repr) or
    ("error", the message with its place).  The AST is a property's target,
    a model's command guards, or the whole property list."""
    try:
        if kind == "p":
            out = parse_properties(text, "c.props")
            if len(out) == 1:
                out = out[0].path.target
        else:
            out = [c.guard for c in parse_model(text, "c.prism").modules[0].commands]
    except ParseError as e:
        return "error", str(e)
    r = repr(out)
    return ("sha256", _sha(r)) if len(r) > 1200 else ("repr", r)


def _span(file, line, column):
    return f"span=SourceSpan(file='{file}', line={line}, column={column}, length=1)"


def _p(line, column):
    return _span("c.props", line, column)


def _m(line, column):
    return _span("c.prism", line, column)


EXPECTED = {
    "not-binds-looser": ("repr",
        f"Binary(op='&', left=Unary(op='!', operand=Binary(op='=', left=Name(ident='x', "
        f"{_p(1, 10)}), right=Lit(value=1))), right=Name(ident='y', {_p(1, 16)}))"),
    "comparison-non-assoc": ("error", "c.props:1:15: error: expected ']', found '='"),
    "not-under-plus": ("error", "c.props:1:13: error: expected expression, found '!'"),
    "minus-binds-tight": ("repr",
        f"Binary(op='*', left=Unary(op='-', operand=Name(ident='x', {_p(1, 10)})), "
        f"right=Name(ident='y', {_p(1, 12)}))"),
    "implies-right-assoc": ("repr",
        f"Binary(op='->', left=Name(ident='a', {_p(1, 9)}), right=Binary(op='->', "
        f"left=Name(ident='b', {_p(1, 14)}), right=Name(ident='c', {_p(1, 19)})))"),
    "not-chain": ("repr",
        f"Binary(op='|', left=Unary(op='!', operand=Unary(op='!', operand=Name(ident='a', "
        f"{_p(1, 11)}))), right=Binary(op='&', left=Name(ident='b', {_p(1, 15)}), "
        f"right=Unary(op='!', operand=Binary(op='<', left=Name(ident='c', {_p(1, 20)}), "
        f"right=Lit(value=2)))))"),
    "not-after-compare": ("error", "c.props:1:13: error: expected expression, found '!'"),
    "mixed": ("repr",
        f"Binary(op='->', left=Binary(op='|', left=Binary(op='>=', left=Binary(op='-', "
        f"left=Binary(op='+', left=Name(ident='a', {_p(1, 9)}), right=Binary(op='*', "
        f"left=Name(ident='b', {_p(1, 13)}), right=Name(ident='c', {_p(1, 17)}))), "
        f"right=Binary(op='/', left=Name(ident='d', {_p(1, 21)}), right=Unary(op='-', "
        f"operand=Name(ident='e', {_p(1, 26)})))), right=Lit(value=2)), right=Binary("
        f"op='&', left=Name(ident='f', {_p(1, 35)}), right=Name(ident='g', {_p(1, 39)}))), "
        f"right=Name(ident='h', {_p(1, 44)}))"),
    "guard-then-arrow": ("repr",
        f"[Binary(op='&', left=Binary(op='=', left=Name(ident='x', {_m(4, 6)}), "
        f"right=Lit(value=0)), right=Unary(op='!', operand=Name(ident='b', {_m(4, 13)})))]"),
    "guard-paren-implies": ("repr",
        f"[Binary(op='|', left=Binary(op='->', left=Name(ident='a', {_m(4, 7)}), "
        f"right=Name(ident='b', {_m(4, 12)})), right=Binary(op='=', left=Name(ident='x', "
        f"{_m(4, 17)}), right=Lit(value=1)))]"),
    "guard-bare-implies": ("error", "c.prism:4:18: error: expected ')', found \"'\""),
    "parens-50": ("repr", f"Name(ident='a', {_p(1, 59)})"),
    "not-50": ("error", "c.props:1:9: error: expression deeper than 50 levels"),
    "minus-50": ("error", "c.props:1:9: error: expression deeper than 50 levels"),
    "implies-50": ("error", "c.props:1:9: error: expression deeper than 50 levels"),
    "sum-50": ("sha256", "f4101905aa0c9631"),
    "parens-51": ("error", "c.props:1:60: error: expression nested deeper than 50 levels"),
    "not-51": ("error", "c.props:1:60: error: expression nested deeper than 50 levels"),
    "minus-51": ("error", "c.props:1:60: error: expression nested deeper than 50 levels"),
    "implies-51": ("error", "c.props:1:264: error: expression nested deeper than 50 levels"),
    "sum-51": ("error", "c.props:1:9: error: expression deeper than 50 levels"),
    "bad-char": ("error", "c.props:2:17: error: unexpected character '#'"),
    "string-newline-bad-char": ("error", "c.props:2:19: error: unexpected character '@'"),
    "eof": ("error", "c.props:2:1: error: expected ']', found ''"),
    "two-lines": ("repr",
        "[PropertySpec(name='a', kind='P_query', path=PathFormula(kind='F', target="
        f"Binary(op='=', left=Name(ident='x', {_p(1, 14)}), right=Lit(value=1)), "
        "constraint=None, bound=None), bound_op=None, bound=None, reward=None, "
        "source_text='P =? [ F x = 1 ]', span=SourceSpan(file='c.props', line=1, "
        "column=1, length=3)), PropertySpec(name='b', kind='P_bound', path=PathFormula("
        f"kind='U', target=Binary(op='=', left=Name(ident='x', {_p(2, 23)}), "
        "right=Lit(value=1)), constraint=Binary(op='<', left=Name(ident='y', "
        f"{_p(2, 17)}), right=Lit(value=2)), bound=None), bound_op='>=', bound=0.5, "
        "reward=None, source_text='P >= 0.5 [ y < 2 U x = 1 ]', span=SourceSpan("
        "file='c.props', line=2, column=3, length=3))]"),
    "two-lines-error": ("error", "c.props:2:22: error: expected expression, found ']'"),
    "P-without-relation": ("error",
        "c.props:1:3: error: expected '=?', '>=' or '<=' after 'P'"),
    "P-bound-by-name": ("error", "c.props:1:4: error: expected number, found 'x'"),
    "step-bound-by-name": ("error",
        "c.props:1:10: error: expected integer step bound after 'F<='"),
    "reward-name-unquoted": ("error",
        "c.props:1:3: error: expected reward structure name string"),
}


@pytest.mark.parametrize("name", CASES)
def test_pinned_parse(name):
    assert answer(*CASES[name]) == EXPECTED[name]


def test_pinned_case_study():
    props_text = (CASE_STUDY / "nuclear.props").read_text()
    props = parse_properties(props_text, "nuclear.props")
    # source_text feeds the result fingerprints and the .gsn text.
    assert [p.source_text for p in props] == [
        'P =? [ F loc = 4 ]',
        'P =? [ F loc = 5 ]',
        'P =? [ G loc != 5 ]',
        'P =? [ ( loc != 5 ) U ( loc = 4 ) ]',
        'P =? [ F batt < batt_threshold ]',
        'P =? [ F <= 5 loc = 4 ]',
        'P =? [ G ( loc != 5 & loc != 6 & batt >= batt_threshold ) ]',
        'R { "dose" } =? [ F ( loc = 4 | loc = 5 | loc = 6 ) ]',
        'R { "moves" } =? [ F ( loc = 4 | loc = 5 | loc = 6 ) ]',
        'R { "time_in_cm" } =? [ F ( loc = 4 | loc = 5 | loc = 6 ) ]',
        'R { "time_stopped" } =? [ F ( loc = 4 | loc = 5 | loc = 6 ) ]',
        'P >= 1 [ F ( rad = 1 & sw = 1 ) ]',
        'P >= 1 [ F ( rad = 2 & sw = 2 ) ]',
        'P >= 1 [ G ( sw = 0 -> vel = 2 ) ]',
        'P >= 1 [ G ( sw = 1 -> vel = 1 ) ]',
        'P >= 1 [ G ( sw = 2 -> vel = 0 ) ]',
        'P <= 0 [ F ( sw != 0 & op_used ) ]',
    ]
    # Every span of both files, through the reprs.
    assert _sha(repr(props)) == "d1b32e683d14065b"
    model = parse_model((CASE_STUDY / "nuclear.prism").read_text(), "nuclear.prism")
    assert _sha(repr(model)) == "15f09d01dc848699"
