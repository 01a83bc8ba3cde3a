"""The JSON Lines reader of result records and monitor events
(`cassure.diagnostics.read_json_lines`) against the line-by-line readers it
replaced (`reference_results_reader.py`): the same records, or the same
error naming the same line.  The one intended difference is that a line ends
at "\\n" only, not at the other line breaks of `str.splitlines`."""

import json

from hypothesis import example, given, settings, strategies as st

from cassure import CassureError, VerificationResult, parse_results
from cassure.lifecycle import parse_monitor_events
from reference_results_reader import reference_events, reference_results

# What str.splitlines ends a line at besides "\n" (and the "\r" of "\r\n"):
# characters JSON forbids raw in a string, and characters it allows there.
CONTROL_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"
RAW_IN_STRINGS = "\x85\u2028\u2029"


def outcome(read, text):
    """The records `read` returns, or the type and text of its error."""
    try:
        return read(text)
    except CassureError as e:
        return type(e), str(e)


def same_lines(text):
    """Whether splitlines and a split at "\\n" see the same lines."""
    lines = text.split("\n")
    if text.endswith("\n"):
        lines.pop()
    return text.splitlines() == [l.removesuffix("\r") for l in lines]


_text = st.text(max_size=6)
_value = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), _text,
                   st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from([[], {}, "probability", "boolean", "reward"]))

RESULTS = st.one_of(
    st.builds(VerificationResult, _text, st.just("probability"), st.floats(0, 1),
              stats=st.dictionaries(_text, _value, max_size=2),
              model_fingerprint=_text),
    st.builds(VerificationResult, _text, st.just("boolean"), st.floats(0, 1) | st.none(),
              verdict=st.booleans(), marginal=st.booleans()),
    st.builds(VerificationResult, _text, st.just("reward"), st.floats(0, 1e6)),
    st.builds(VerificationResult, _text, st.just("reward"), infinite=st.just(True)),
).map(vars)

EVENTS = st.fixed_dictionaries(
    {"timestamp": _text, "monitor_id": _text,
     "kind": st.sampled_from(["violation", "confidence"])},
    optional={"value": st.floats(0, 1), "detail": _text, "payload": _text})


@st.composite
def mutated(draw, records):
    """A record as written, or with one field dropped or given any value."""
    rec = dict(draw(records))
    how = draw(st.sampled_from(["keep", "keep", "keep", "drop", "set"]))
    key = draw(st.sampled_from(sorted(rec) + ["stats", "kind", "value"]))
    if how == "drop":
        rec.pop(key, None)
    elif how == "set":
        rec[key] = draw(_value)
    return rec


FRAGMENTS = st.sampled_from(["", " ", "\t", "\r", "[", "]", "],[", "{", "}", "NaN",
                             "-Infinity", "[1]", '"s"', "null", "7", "# note",
                             "\ufeff{}", "{} {}", "1e999"])


@st.composite
def files(draw, records):
    """JSON Lines text: records, each written with or without escapes,
    split across lines or sharing one, among fragments of JSON."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["record"] * 4 + ["fragment", "two", "split"]))
        dump = lambda: json.dumps(draw(mutated(records)), ensure_ascii=draw(st.booleans()))
        if kind == "record":
            lines.append(draw(st.sampled_from(["", " ", "\t"])) + dump())
        elif kind == "fragment":
            lines.append(draw(FRAGMENTS))
        elif kind == "two":
            lines.append(dump() + draw(st.sampled_from(["", " ", ","])) + dump())
        else:
            text = dump()
            cut = draw(st.integers(0, len(text)))
            lines += [text[:cut], text[cut:]]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n", "\n\n"]))


# Three lines whose brackets mesh when joined into one array, though the
# first is no JSON value alone: an array of lines does not keep them apart.
_REC = '"property": "p", "kind": "probability", "value": 0.5'
MESHING = "\n".join(['{' + _REC + ', "x": [[1', '2]]}', '{' + _REC + '}],[{' + _REC + '}'])


@settings(max_examples=300, deadline=None)
@given(files(RESULTS))
@example(MESHING)
@example('{"property": "p", "kind": "reward", "value": 1e999}\n')
@example(json.dumps(vars(VerificationResult("r", "reward", float("inf")))) + "\n")
@example(json.dumps(vars(VerificationResult("r", "reward", 1.0))).replace("1.0", "1e999"))
def test_results_read_as_the_line_by_line_reader_read_them(text):
    got = outcome(parse_results, text)
    if same_lines(text):
        assert got == outcome(reference_results, text)
    elif isinstance(got, tuple):
        assert got[1].startswith("malformed result record on line ")


@settings(max_examples=200, deadline=None)
@given(files(EVENTS))
def test_events_read_as_the_line_by_line_reader_read_them(text):
    got = outcome(parse_monitor_events, text)
    if same_lines(text):
        assert got == outcome(reference_events, text)


@settings(max_examples=100, deadline=None)
@given(st.lists(RESULTS, max_size=4), st.sampled_from(RAW_IN_STRINGS))
def test_a_raw_line_break_in_a_string_reads_as_its_escape(records, brk):
    records = [dict(r, property=r["property"] + brk) for r in records]
    raw = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
    escaped = "".join(json.dumps(r) + "\n" for r in records)
    assert brk in raw or not records
    assert parse_results(raw) == parse_results(escaped) == reference_results(escaped)


def test_only_a_newline_ends_a_record():
    rec = '{"property": "p", "kind": "probability", "value": 0.5}'
    for brk in CONTROL_BREAKS + RAW_IN_STRINGS:
        text = rec + brk + rec + "\n"
        got = outcome(parse_results, text)
        assert got[0] is CassureError
        assert got[1].startswith("malformed result record on line 1: Extra data")
    # A control character is no more allowed raw in a string than before; the
    # error names the line that holds it.
    text = rec + "\n" + rec.replace('"p"', '"p\x0cq"') + "\n"
    assert outcome(parse_results, text)[1].startswith(
        "malformed result record on line 2: Invalid control character")
