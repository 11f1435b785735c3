import pytest

from gcdseq.bfile import BFile, format_bfile, parse_bfile
from gcdseq.errors import BFileParseError


def test_parse_simple():
    data = parse_bfile("3 5\n4 11\n5 19\n")
    assert data.entries == ((3, 5), (4, 11), (5, 19))
    assert data.comments == ()


def test_parse_comments_and_blanks():
    text = "# A356247 terms\n\n1 5\n2 11\n\n# trailing note\n3 19\n"
    data = parse_bfile(text)
    assert data.entries == ((1, 5), (2, 11), (3, 19))
    assert len(data.comments) == 2


def test_parse_negative_values():
    assert parse_bfile("0 -1\n1 -2\n").entries == ((0, -1), (1, -2))


def test_parse_truncated_line():
    with pytest.raises(BFileParseError) as exc:
        parse_bfile("3 5\n12\n")
    assert exc.value.line_no == 2
    assert str(exc.value) == "line 2: expected '<index> <value>', got '12'"
    # a line longer than 80 characters is quoted as its first 80 and its length
    line = "4 5 " + "7" * 5000
    with pytest.raises(BFileParseError) as exc:
        parse_bfile(f"3 5\n{line}\n")
    assert str(exc.value) == (f"line 2: expected '<index> <value>', got {line[:80]!r}"
                              f"... (5004 characters)")


def test_parse_non_integer():
    with pytest.raises(BFileParseError) as exc:
        parse_bfile("3 five\n")
    assert exc.value.line_no == 1
    # int() accepts each of these; a b-file field is '-'? then ASCII digits
    for line in ("4 1_1", "5 +19", "4 \u0661\u0661", "4 11\ufffd", "4 " + "7" * 5000 + "x"):
        with pytest.raises(BFileParseError) as exc:
            parse_bfile(f"3 5\n{line}\n")
        assert exc.value.line_no == 2 and len(str(exc.value)) < 150


def test_parse_non_increasing_indices():
    with pytest.raises(BFileParseError) as exc:
        parse_bfile("3 5\n3 11\n")
    assert exc.value.line_no == 2
    with pytest.raises(BFileParseError):
        parse_bfile("3 5\n2 11\n")


def test_parse_empty():
    assert parse_bfile("") == BFile((), ())
    assert parse_bfile("# only a comment\n").entries == ()


def test_format_and_roundtrip():
    entries = ((3, 5), (4, 11), (5, 19))
    text = format_bfile(entries)
    assert text == "3 5\n4 11\n5 19\n"
    assert parse_bfile(text).entries == entries


def test_format_empty():
    assert format_bfile(()) == ""


def test_parse_non_increasing_long_indices_are_cut():
    # indices of 4,300 and 4,299 digits: the error shows the first 80 of each
    # and their lengths, as a quoted line is cut
    with pytest.raises(BFileParseError) as exc:
        parse_bfile(f"{10**4299} 5\n{10**4298} 11\n")
    assert exc.value.line_no == 2
    head = "1" + "0" * 79
    assert (f"index {head}... (4299 characters) not above previous "
            f"{head}... (4300 characters)") in str(exc.value)
    assert len(str(exc.value)) < 250
