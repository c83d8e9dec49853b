"""Reference tokenizer for the table language, independent of the one-regex tokenizer.

It walks the text one match at a time, tracking the line and column of each
token as it goes, and names each token by the regex group that matched it.
"""

import re

from dadecheck.tabledsl import TableSyntaxError

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<arrow>->)
  | (?P<ne>!=)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^(){}\[\]:,=])
    """,
    re.VERBOSE,
)


def tokenize(text):
    """Tokens as (kind, value, line, col), ending with ("eof", "", line, col)."""
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise TableSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        val = m.group()
        if kind != "ws":
            toks.append((kind, val, line, col))
        nl = val.count("\n")
        if nl:
            line += nl
            col = len(val) - val.rfind("\n")
        else:
            col += len(val)
        pos = m.end()
    toks.append(("eof", "", line, col))
    return toks
