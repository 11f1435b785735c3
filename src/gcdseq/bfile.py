"""OEIS b-file reading and writing.

A b-file is plain ASCII: optional comment lines starting with '#', then one
"<index> <value>" pair per line with strictly increasing indices. Blank
lines are tolerated on input and never produced on output. A field is an
optional '-' and ASCII digits; a data line with anything else ('+19', '1_1',
a non-ASCII byte) is a parse error naming its line and quoting it, cut to
its first 80 characters when longer; an index not above the previous one
is cut the same way.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from .errors import BFileParseError


class BFile(NamedTuple):
    entries: tuple[tuple[int, int], ...]
    comments: tuple[str, ...]


_QUOTE_LIMIT = 80  # characters of a data line that a parse error quotes


def _quote(raw: str, show=repr) -> str:
    """``raw`` shown for an error: whole up to ``_QUOTE_LIMIT`` characters,
    else its first ``_QUOTE_LIMIT`` and its length."""
    if len(raw) <= _QUOTE_LIMIT:
        return show(raw)
    return f"{show(raw[:_QUOTE_LIMIT])}... ({len(raw)} characters)"


class _DigitLimitError(ValueError):
    """An integer with more digits than ``sys.get_int_max_str_digits()``."""


def read_int(text: str) -> int:
    """An optional '-' and ASCII digits as an int; '+3', '1_0', ' 3' are
    ValueErrors, and so is a number past Python's input limit, whose error
    names the limit."""
    digits = text.removeprefix("-")
    if not (text.isascii() and digits.isdigit()):
        raise ValueError(f"invalid int value: {text!r}")
    limit = sys.get_int_max_str_digits()
    if limit and len(digits) > limit:
        raise _DigitLimitError(f"Exceeds the limit ({limit} digits) of an integer "
                               f"read: value has {len(digits)} digits")
    return int(text)


def parse_bfile(text: str) -> BFile:
    entries: list[tuple[int, int]] = []
    comments: list[str] = []
    last_index = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(raw)
            continue
        fields = line.split()
        if len(fields) != 2:
            raise BFileParseError(
                f"expected '<index> <value>', got {_quote(raw)}", line_no
            )
        try:
            index, value = map(read_int, fields)
        except _DigitLimitError as exc:
            raise BFileParseError(f"{exc}, in {_quote(raw)}", line_no) from None
        except ValueError:
            raise BFileParseError(f"non-integer field in {_quote(raw)}", line_no) from None
        if last_index is not None and index <= last_index:
            raise BFileParseError(
                f"index {_quote(str(index), str)} not above previous "
                f"{_quote(str(last_index), str)}", line_no
            )
        last_index = index
        entries.append((index, value))
    return BFile(tuple(entries), tuple(comments))


def read_bfile(path) -> BFile:
    # a non-ASCII byte decodes to U+FFFD, which no field accepts
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return parse_bfile(fh.read())


def format_bfile(entries) -> str:
    return "".join(f"{index} {value}\n" for index, value in entries)
