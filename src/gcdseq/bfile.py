"""OEIS b-file reading and writing.

A b-file is plain ASCII: optional comment lines starting with '#', then one
"<index> <value>" pair per line with strictly increasing indices. Blank
lines are tolerated on input and never produced on output. A field is an
optional '-' and ASCII digits; a data line with anything else ('+19', '1_1',
a non-ASCII byte) is a parse error naming its line.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BFileParseError


@dataclass(frozen=True)
class BFile:
    entries: tuple[tuple[int, int], ...]
    comments: tuple[str, ...]


def read_int(text: str) -> int:
    """An optional '-' and ASCII digits as an int; '+3', '1_0', ' 3' are ValueErrors."""
    if text.isascii() and text.removeprefix("-").isdigit():
        return int(text)
    raise ValueError(f"invalid int value: {text!r}")


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
                f"expected '<index> <value>', got {raw!r}", line_no
            )
        try:
            index, value = map(read_int, fields)
        except ValueError:
            raise BFileParseError(f"non-integer field in {raw!r}", line_no) from None
        if last_index is not None and index <= last_index:
            raise BFileParseError(
                f"index {index} not above previous {last_index}", line_no
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
