"""Fuzzing the file parsers: malformed input fails only with ParseError."""
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codebounds.codes import parse_code
from codebounds.errors import ParseError
from codebounds.fileio import packaged_text
from codebounds.nets import parse_gh, parse_net

# fragments of the three formats, so drawn texts often get past the header
TOKENS = ["0", "1", "2", "3", "4", "8", "-1", "10", " ", " ", "\n", "\n", "#", "x",
          "cyclic:", "klein4", "table"]
EDIT_CHARS = "0123489 -\n#x:"


def noise():
    return st.lists(st.sampled_from(TOKENS), max_size=60).map("".join)


def small_header_then_noise():
    head = st.lists(st.integers(-2, 9), min_size=1, max_size=4)
    return st.tuples(head, st.just("") | noise()).map(
        lambda t: " ".join(map(str, t[0])) + "\n" + t[1]
    )


def edits_of(text):
    """Texts made from a valid file by a few insertions, deletions and
    replacements of single characters."""
    edit = st.tuples(
        st.integers(0, len(text)), st.sampled_from("idr"), st.sampled_from(EDIT_CHARS)
    )

    def apply(edits):
        s = text
        for pos, op, ch in edits:
            pos = min(pos, len(s))
            if op == "i":
                s = s[:pos] + ch + s[pos:]
            elif op == "d":
                s = s[:pos] + s[pos + 1 :]
            else:
                s = s[:pos] + ch + s[pos + 1 :]
        return s

    return st.lists(edit, min_size=1, max_size=4).map(apply)


def texts(valid):
    return st.one_of(
        st.text(max_size=80), noise(), small_header_then_noise(), edits_of(valid)
    )


def parses_or_raises_parse_error(parse, text):
    try:
        parse(text)
    except ParseError:
        pass


FUZZ = settings(max_examples=400, deadline=None, derandomize=True, database=None)


@FUZZ
@given(texts(packaged_text("code_3_2_3.code")))
def test_parse_code_raises_only_parse_error(text):
    parses_or_raises_parse_error(parse_code, text)


@FUZZ
@given(texts(packaged_text("net_1_3.net")))
@example("0 7\n")
@example("1 -3\n" + "100100100\n" * 9)
def test_parse_net_raises_only_parse_error(text):
    parses_or_raises_parse_error(parse_net, text)


@FUZZ
@given(texts(packaged_text("gh8_klein4.gh")))
@example("0 0\ncyclic:0\n")
@example("2 2\ntable\n0 1\n0 1\n0 0\n0 1\n")
@example("2 2\ncyclic:2\n0 2\n0 1\n")
def test_parse_gh_raises_only_parse_error(text):
    parses_or_raises_parse_error(parse_gh, text)
