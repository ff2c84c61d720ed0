"""Canonical form: brute-force oracle agreement, orbit invariance, idempotence."""
import functools
import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from codebounds.canonical import canonical_form, is_canonical
from codebounds.codes import (
    Code,
    EquivalenceMap,
    apply_equivalence,
    parse_code,
    random_equivalence,
)
from codebounds.fileio import packaged_text
from codebounds.nets import gh_expand, net_to_code, parse_gh
from codebounds.search import EnumerationTask, enumerate_codes


def brute_force_canonical(code: Code) -> Code:
    """Least row-sorted matrix over the whole group, by full enumeration.

    Independent oracle: feasible only for tiny n and q.
    """
    q, n = code.params.q, code.params.n
    best = None
    for cols in itertools.permutations(range(n)):
        for sps in itertools.product(itertools.permutations(range(q)), repeat=n):
            emap = EquivalenceMap(cols, tuple(tuple(sp) for sp in sps))
            ws = tuple(sorted(emap.apply_word(w) for w in code.words))
            if best is None or ws < best:
                best = ws
    return Code(code.params, best)


def random_code(rng, q, n, max_size):
    words = set()
    target = rng.randint(1, max_size)
    while len(words) < min(q**n, target):
        words.add(tuple(rng.randrange(q) for _ in range(n)))
    return Code.from_words(words, q=q, n=n, d=1, check_distance=False)


def test_matches_brute_force_oracle():
    rng = random.Random(23)
    for _ in range(120):
        q = rng.randint(2, 3)
        n = rng.randint(1, 3)
        c = random_code(rng, q, n, 5)
        assert canonical_form(c).words == brute_force_canonical(c).words


def test_two_word_swap_example():
    # {12, 21} and {11, 22} written over symbols {1,2} differ only by
    # renaming within each column
    a = Code.from_words([(0, 1), (1, 0)], q=2, n=2)
    b = Code.from_words([(0, 0), (1, 1)], q=2, n=2)
    assert canonical_form(a).words == canonical_form(b).words == ((0, 0), (1, 1))


def test_idempotent_and_orbit_constant():
    rng = random.Random(29)
    for _ in range(60):
        q = rng.randint(2, 4)
        n = rng.randint(2, 5)
        c = random_code(rng, q, n, 7)
        cf = canonical_form(c)
        assert canonical_form(cf).words == cf.words
        assert is_canonical(cf)
        for _ in range(4):
            e = random_equivalence(n, q, rng)
            assert canonical_form(apply_equivalence(c, e)).words == cf.words


def test_is_canonical_agrees_with_form():
    rng = random.Random(31)
    for _ in range(80):
        q = rng.randint(2, 3)
        n = rng.randint(1, 4)
        c = random_code(rng, q, n, 6)
        assert is_canonical(c) == (canonical_form(c).words == c.words)


def test_canonical_first_row_is_zero():
    rng = random.Random(37)
    for _ in range(40):
        q = rng.randint(2, 4)
        n = rng.randint(1, 5)
        c = random_code(rng, q, n, 6)
        cf = canonical_form(c)
        assert cf.words[0] == (0,) * n


def test_empty_and_singleton():
    empty = Code(Code.from_words([(0,)], q=2, n=1).params, ())
    assert canonical_form(empty).words == ()
    single = Code.from_words([(3, 1, 2)], q=4, n=3)
    assert canonical_form(single).words == ((0, 0, 0),)
    assert not is_canonical(single)
    assert is_canonical(Code.from_words([(0, 0, 0)], q=4, n=3))


@functools.lru_cache(maxsize=None)
def symmetric_codes():
    """Codes with large automorphism groups, out of the brute-force
    oracle's reach: full spaces, the Latin-square code, the (7,6)_4
    classes of size 8 and the size-32 (8,6)_4 code."""
    codes = [
        Code.from_words(itertools.product(range(q), repeat=n), q, n)
        for q, n in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2), (4, 3)]
    ]
    codes.append(parse_code(packaged_text("code_3_2_3.code")))
    codes.extend(enumerate_codes(EnumerationTask(4, 7, 6, 8)))
    codes.append(net_to_code(gh_expand(parse_gh(packaged_text("gh8_klein4.gh")))))
    return tuple(codes)


@st.composite
def equivalences(draw, n, q):
    cols = draw(st.permutations(range(n)))
    sps = tuple(tuple(draw(st.permutations(range(q)))) for _ in range(n))
    return EquivalenceMap(tuple(cols), sps)


def check_form_properties(code, data):
    p = code.params
    x = apply_equivalence(code, data.draw(equivalences(p.n, p.q)))
    y = apply_equivalence(code, data.draw(equivalences(p.n, p.q)))
    form = canonical_form(x)
    assert canonical_form(y) == form
    assert canonical_form(form) == form
    assert is_canonical(form)
    assert is_canonical(x) == (x == form)
    assert is_canonical(y) == (y == form)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_form_properties_on_symmetric_codes(data):
    check_form_properties(data.draw(st.sampled_from(symmetric_codes())), data)


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_form_properties_on_a_31_word_deletion(data):
    form = canonical_form(symmetric_codes()[-1])
    check_form_properties(Code(form.params, form.words[1:]), data)
