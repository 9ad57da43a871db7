"""Lexical analysis for the guard expression language."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Union

from repro.exceptions import TokenizeError


def _is_ascii_digit(ch: str) -> bool:
    """ASCII-only digit test: unicode digits like '²' pass str.isdigit()
    but are not valid number characters in this language."""
    return "0" <= ch <= "9"


class TokenType(enum.Enum):
    """Kinds of lexical tokens the parser understands."""

    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    BOOLEAN = "boolean"
    NULL = "null"
    AND = "and"
    OR = "or"
    NOT = "not"
    IN = "in"
    LPAREN = "("
    RPAREN = ")"
    COMMA = ","
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    EQ = "="
    NEQ = "!="
    LT = "<"
    LTE = "<="
    GT = ">"
    GTE = ">="
    DOT = "."
    EOF = "eof"


#: Keywords are case-insensitive, matching the paper's informal notation
#: (guards are written both as ``NOT near(...)`` and ``not near(...)``).
_KEYWORDS = {
    "and": TokenType.AND,
    "or": TokenType.OR,
    "not": TokenType.NOT,
    "in": TokenType.IN,
    "true": TokenType.BOOLEAN,
    "false": TokenType.BOOLEAN,
    "null": TokenType.NULL,
}

_SINGLE_CHAR = {
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    ",": TokenType.COMMA,
    "+": TokenType.PLUS,
    "-": TokenType.MINUS,
    "*": TokenType.STAR,
    "/": TokenType.SLASH,
    "%": TokenType.PERCENT,
    "=": TokenType.EQ,
}


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    ``value`` holds the decoded payload: a ``str`` for identifiers and
    strings, ``int``/``float`` for numbers, ``bool`` for booleans and
    ``None`` for the null literal.
    """

    type: TokenType
    value: Union[str, int, float, bool, None]
    position: int

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.type.name}, {self.value!r}, pos={self.position})"


def _read_string(text: str, start: int) -> "tuple[Token, int]":
    quote = text[start]
    i = start + 1
    chunks: List[str] = []
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if i + 1 >= len(text):
                raise TokenizeError("unterminated escape in string", i)
            nxt = text[i + 1]
            escapes = {"n": "\n", "t": "\t", "\\": "\\", quote: quote}
            if nxt not in escapes:
                raise TokenizeError(f"invalid escape \\{nxt}", i)
            chunks.append(escapes[nxt])
            i += 2
        elif ch == quote:
            return Token(TokenType.STRING, "".join(chunks), start), i + 1
        else:
            chunks.append(ch)
            i += 1
    raise TokenizeError("unterminated string literal", start)


def _read_number(text: str, start: int) -> "tuple[Token, int]":
    i = start
    seen_dot = False
    while i < len(text) and (_is_ascii_digit(text[i]) or text[i] == "."):
        if text[i] == ".":
            # A second dot ends the number (e.g. would be a path expression,
            # which this language does not support inside numbers).
            if seen_dot:
                break
            # Only treat the dot as part of the number if a digit follows.
            if i + 1 >= len(text) or not _is_ascii_digit(text[i + 1]):
                break
            seen_dot = True
        i += 1
    seen_exponent = False
    if i < len(text) and text[i] in "eE":
        # Scientific notation: e[+-]?digits, only if digits actually follow.
        j = i + 1
        if j < len(text) and text[j] in "+-":
            j += 1
        if j < len(text) and _is_ascii_digit(text[j]):
            while j < len(text) and _is_ascii_digit(text[j]):
                j += 1
            i = j
            seen_exponent = True
    raw = text[start:i]
    value: Union[int, float] = (
        float(raw) if (seen_dot or seen_exponent) else int(raw)
    )
    return Token(TokenType.NUMBER, value, start), i


def _read_ident(text: str, start: int) -> "tuple[Token, int]":
    i = start
    while i < len(text) and (text[i].isalnum() or text[i] == "_"):
        i += 1
    raw = text[start:i]
    lowered = raw.lower()
    if lowered in _KEYWORDS:
        ttype = _KEYWORDS[lowered]
        if ttype is TokenType.BOOLEAN:
            return Token(ttype, lowered == "true", start), i
        if ttype is TokenType.NULL:
            return Token(ttype, None, start), i
        return Token(ttype, lowered, start), i
    return Token(TokenType.IDENT, raw, start), i


def tokenize(text: str) -> List[Token]:
    """Split ``text`` into a token list terminated by an EOF token.

    Raises :class:`~repro.exceptions.TokenizeError` on any character that
    does not belong to the language.
    """
    tokens: List[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "'\"":
            token, i = _read_string(text, i)
            tokens.append(token)
            continue
        if _is_ascii_digit(ch):
            token, i = _read_number(text, i)
            tokens.append(token)
            continue
        if ch.isalpha() or ch == "_":
            token, i = _read_ident(text, i)
            tokens.append(token)
            continue
        if ch == "!" and i + 1 < n and text[i + 1] == "=":
            tokens.append(Token(TokenType.NEQ, "!=", i))
            i += 2
            continue
        if ch == "<":
            if i + 1 < n and text[i + 1] == "=":
                tokens.append(Token(TokenType.LTE, "<=", i))
                i += 2
            elif i + 1 < n and text[i + 1] == ">":
                tokens.append(Token(TokenType.NEQ, "<>", i))
                i += 2
            else:
                tokens.append(Token(TokenType.LT, "<", i))
                i += 1
            continue
        if ch == ">":
            if i + 1 < n and text[i + 1] == "=":
                tokens.append(Token(TokenType.GTE, ">=", i))
                i += 2
            else:
                tokens.append(Token(TokenType.GT, ">", i))
                i += 1
            continue
        if ch == "=" and i + 1 < n and text[i + 1] == "=":
            tokens.append(Token(TokenType.EQ, "==", i))
            i += 2
            continue
        if ch == "&" and i + 1 < n and text[i + 1] == "&":
            tokens.append(Token(TokenType.AND, "&&", i))
            i += 2
            continue
        if ch == "|" and i + 1 < n and text[i + 1] == "|":
            tokens.append(Token(TokenType.OR, "||", i))
            i += 2
            continue
        if ch == ".":
            tokens.append(Token(TokenType.DOT, ".", i))
            i += 1
            continue
        if ch in _SINGLE_CHAR:
            tokens.append(Token(_SINGLE_CHAR[ch], ch, i))
            i += 1
            continue
        raise TokenizeError(f"unexpected character {ch!r}", i)
    tokens.append(Token(TokenType.EOF, None, n))
    return tokens
