"""Lexer for the CM-task specification language (Fig. 3).

The language fragment implemented here covers the constructs of the
paper's example specification: ``const`` and ``type`` declarations, basic
M-task interface declarations, and a ``cmmain`` composed task whose
module expression uses ``seq``, ``par``, ``for``, ``parfor``, ``while``
and task activations with (possibly indexed) variable arguments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

__all__ = ["Token", "LexError", "tokenize", "KEYWORDS"]

KEYWORDS = frozenset(
    ["const", "type", "task", "cmmain", "var", "seq", "par", "for", "parfor", "while"]
)

_SYMBOLS = [
    "<=",
    ">=",
    "==",
    "!=",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ":",
    ";",
    "=",
    ",",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
]


class LexError(ValueError):
    """Raised on malformed input."""


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position."""
    kind: str  #: ``"ident"``, ``"int"``, ``"keyword"``, ``"symbol"``, ``"eof"``
    text: str
    line: int
    col: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Token({self.kind} {self.text!r} @{self.line}:{self.col})"


#: one alternative per lexical class, tried in this order at every
#: position; comments precede the symbols because ``/`` is one.  The
#: ASCII classes are the fast path -- a non-ASCII digit or letter is
#: picked up below with ``str.isdigit`` / ``str.isalpha``, which no
#: regex class spells exactly.
_MASTER = re.compile(
    r"(?P<space>[ \t\r]+)"
    r"|(?P<word>[A-Za-z_]\w*)"
    r"|(?P<int>[0-9]+)"
    r"|(?P<newline>\n)"
    r"|(?P<line_comment>//[^\n]*)"
    r"|(?P<block_comment>/\*.*?\*/)"
    r"|(?P<open_comment>/\*)"
    r"|(?P<symbol>" + "|".join(re.escape(sym) for sym in _SYMBOLS) + ")",
    re.DOTALL,
)
_WORD_TAIL = re.compile(r"\w*")


def tokenize(source: str) -> List[Token]:
    """Turn a specification program into a token list (ending with EOF)."""
    tokens: List[Token] = []
    i, line, col = 0, 1, 1
    n = len(source)
    match = _MASTER.match

    def error(msg: str) -> LexError:
        """Build a ``LexError`` pointing at the current position."""
        return LexError(f"line {line}, column {col}: {msg}")

    while i < n:
        m = match(source, i)
        if m is not None:
            kind, j = m.lastgroup, m.end()
        elif source[i].isdigit():
            kind, j = "int", i + 1
        elif source[i].isalpha():
            kind, j = "word", _WORD_TAIL.match(source, i + 1).end()
        else:
            raise error(f"unexpected character {source[i]!r}")
        if kind == "space":
            col += j - i
        elif kind == "newline":
            line += 1
            col = 1
        elif kind == "line_comment":
            pass  # runs to the line end; the newline resets the column
        elif kind == "block_comment":
            skipped = source[i:j]
            line += skipped.count("\n")
            if "\n" in skipped:
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
        elif kind == "open_comment":
            raise error("unterminated block comment")
        else:
            if kind == "int":
                while j < n and source[j].isdigit():
                    j += 1
            text = source[i:j]
            if kind == "word":
                kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, col))
            col += j - i
        i = j
    tokens.append(Token("eof", "", line, col))
    return tokens
