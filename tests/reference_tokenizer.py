"""The scanner that `cassure.parsing.tokenize` replaced, kept as an oracle:
one anchored match per token, with a named group per kind.  Whitespace and
comments are skipped inside each match, and the empty `eof` group ends the
scan at the end of the text or at a character that starts no token."""

import re

from cassure import Diagnostic, ParseError, SourceSpan

_TOKEN_RE = re.compile(r"""(?:\s+|//[^\n]*)*(?:
    (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|!=|->|\.\.|=\?|[-+*/=<>!&|()\[\]{}:;,'?])
  | (?P<real>(?:\d+\.\d+|\.\d+)(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)
  | (?P<int>\d+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<eof>)
)""", re.VERBOSE)
_KINDS = {index: kind for kind, index in _TOKEN_RE.groupindex.items()}


def reference_tokens(text, file="<string>"):
    """The (kind, text, offset) of each token of ``text``, ending with one
    ``eof`` token; a character that starts no token raises the ParseError
    that names it and its place."""
    tokens = [(_KINDS[m.lastindex], m[m.lastindex], m.start(m.lastindex))
              for m in iter(_TOKEN_RE.scanner(text).match, None)]
    if len(tokens) > 1 and tokens[-2][0] == "eof":
        tokens.pop()
    end = tokens[-1][2]
    if end < len(text):
        line = text.count("\n", 0, end) + 1
        column = end - text.rfind("\n", 0, end)
        raise ParseError([Diagnostic("error", f"unexpected character {text[end]!r}",
                                     SourceSpan(file, line, column))])
    return tokens
