"""End-to-end acceptance checks.

One test per shipped claim: classification counts, frozen tables,
certified pipelines, net round trips, extension recovery, and the
randomized invariant suite. Each prints a single criterion line.
"""
import functools
import hashlib
import random

import pytest

from codebounds.bounds import divisibility_bound, h_table, irregular_budget_audit
from codebounds.canonical import canonical_form
from codebounds.codes import (
    Code,
    apply_equivalence,
    hamming_distance,
    parse_code,
    random_equivalence,
)
from codebounds.fileio import packaged_text
from codebounds.nets import (
    code_to_net,
    gh_expand,
    gram_check,
    net_to_code,
    parse_gh,
    verify_net_axioms,
)
from codebounds.pipelines import run_pipeline, verify_inequality_17
from codebounds.search import (
    EnumerationTask,
    alpha_stats,
    candidate_count,
    classify,
    codes_by_deletion,
    enumerate_codes,
    extend_deficient,
)

NEW_BOUNDS_COLUMN = [65, 325, 1625, 8125, 120, 480, 60, 240, 29]


def criterion(number):
    """Print one pass/fail line per acceptance criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL")
                raise
            print(f"criterion {number}: PASS")

        return run

    return wrap


@pytest.fixture(scope="module")
def kirkman_classes():
    return classify(5, 7, 6, 15)


@pytest.fixture(scope="module")
def latin_code():
    return parse_code(packaged_text("code_3_2_3.code"))


@pytest.fixture(scope="module")
def net32_code():
    return net_to_code(gh_expand(parse_gh(packaged_text("gh8_klein4.gh"))))


@pytest.fixture(scope="module")
def certificates():
    ids = ("a5_8_6", "a3_16_11", "a4_9_6", "divisibility_family")
    return {tid: run_pipeline(tid, workers=1) for tid in ids}


@criterion(1)
def test_criterion_01_enumeration_of_size_15_codes(kirkman_classes):
    assert len(kirkman_classes) == 7
    threaded = enumerate_codes(EnumerationTask(5, 7, 6, 15), workers=2)
    assert len(threaded) == 7
    assert {c.words for c in threaded} == {c.words for c in kirkman_classes}


@criterion(2)
def test_criterion_02_h_table_exact():
    expected = {15: 0, 14: 0, 13: 1, 12: 3, 11: 6, 10: 10, 9: 8, 8: 7, 7: 7, 6: 8, 5: 10}
    assert {k: h_table(5, 7, 6, k) for k in range(15, 4, -1)} == expected


@criterion(3)
def test_criterion_03_alpha_caps_exhaustive(kirkman_classes):
    for c in kirkman_classes:
        st = alpha_stats(c)
        assert st.count_eq(0) == 0
        assert st.count_eq(1) <= 21
        assert st.count_eq(2) == 0
    size14 = codes_by_deletion(kirkman_classes)
    assert len(size14) == 20
    for c in size14:
        st = alpha_stats(c)
        assert st.count_eq(0) <= 8
        assert st.count_le(1) <= 39


@criterion(4)
def test_criterion_04_profile_inequality_full_quantification():
    step = verify_inequality_17()
    assert step.ok
    assert step.data["profiles"] == 30
    assert step.data["ordered_pairs"] == 900
    assert step.data["violations"] == []


@criterion(5)
def test_criterion_05_pipelines_verify_and_reproduce_table(certificates):
    for tid, cert in certificates.items():
        assert cert.exit_code == 0, tid
        assert cert.verdict == "verified", tid
    family = certificates["divisibility_family"]
    table = next(s for s in family.steps if s.op == "table_check")
    rows = table.data["rows"]
    assert [row["bound"] for row in rows] == NEW_BOUNDS_COLUMN
    assert all(row["bound"] == row["claimed"] for row in rows)


# sha256 of to_json() and to_text() at workers=1; any change to the
# certified computation, its order or its wording moves them
CERTIFICATE_SHA256 = {
    "a5_8_6": (
        "baeb309b463c36bb313d77d70a24b4c3ea42e4db32e7537c459535e182348b4b",
        "d45676eae1871b0de34e950f038b70b7c78a2e6c5ea0df46af7ebe830f2f05ca",
    ),
    "a3_16_11": (
        "9c9b83fa5856fc2891e5f96958225462ac2acbb314f0b37da3cf36a342440bf4",
        "9bdb830db8d65c236c862270f903f75bfad1075c914ac0d2c4474c3c045430cf",
    ),
    "a4_9_6": (
        "02b7cf1067d188fae05883631a3f9f17acecb9cce7fb19de388678dac24db9ca",
        "b800ab560b055d2d10e3ab50febd22574edeb81553f09a5d58484b2b8d461568",
    ),
    "divisibility_family": (
        "5d80550ebc6f64accbeca41ae308a548600fe6bd323070e5416f2ef3ce1dadc2",
        "40ac602052f5f5cab4bf030fa9e566a778ac66a472d8da769f16169215210bd4",
    ),
}


def test_certificates_are_pinned(certificates):
    got = {
        tid: tuple(hashlib.sha256(s.encode()).hexdigest() for s in (c.to_json(), c.to_text()))
        for tid, c in certificates.items()
    }
    assert got == CERTIFICATE_SHA256


@criterion(6)
def test_criterion_06_divisibility_values():
    cert = divisibility_bound(5, 8, 6)
    assert cert.applicable and cert.bound == 70
    assert dict(cert.phi_table)[4] == -98

    cert = divisibility_bound(4, 11, 8)
    assert cert.applicable and cert.bound == 60
    assert dict(cert.phi_table)[3] == -16

    cert = divisibility_bound(3, 6, 4)
    assert not cert.applicable and cert.bound is None


@criterion(7)
def test_criterion_07_net_round_trips(latin_code, net32_code):
    for code in (latin_code, net32_code):
        back = net_to_code(code_to_net(code))
        assert canonical_form(back) == canonical_form(code)
    net = gh_expand(parse_gh(packaged_text("gh8_klein4.gh")))
    assert verify_net_axioms(net).ok
    assert gram_check(net)


@criterion(8)
def test_criterion_08_extension_recovers_parent(
    kirkman_classes, latin_code, net32_code
):
    parents = [latin_code, *kirkman_classes, net32_code]
    for parent in parents:
        p = parent.params
        for w in parent.words:
            child = Code.from_words(
                [u for u in parent.words if u != w], p.q, p.n, d=p.d
            )
            # the balanced completion is unique, so the deleted word and
            # with it the parent itself is recovered exactly
            assert extend_deficient(child).words == parent.words


@criterion(9)
def test_criterion_09_candidate_counts_capped(net32_code, certificates):
    canon = canonical_form(net32_code)
    counts = [candidate_count(canon, 5)]
    counts += [candidate_count(c, 5) for c in codes_by_deletion((canon,))]
    assert all(count <= 25 for count in counts)
    step = next(s for s in certificates["a4_9_6"].steps if s.op == "candidate_count")
    assert step.data["max_count"] == max(counts) == 25


@criterion(10)
def test_criterion_10_randomized_invariants(
    kirkman_classes, latin_code, net32_code
):
    rng = random.Random(0xACCE97)

    # metric axioms on sampled triples
    for _ in range(10_000):
        n = rng.randint(1, 8)
        q = rng.randint(2, 5)
        u, v, w = (tuple(rng.randrange(q) for _ in range(n)) for _ in range(3))
        assert hamming_distance(u, u) == 0
        assert hamming_distance(u, v) == hamming_distance(v, u)
        assert hamming_distance(u, w) <= hamming_distance(u, v) + hamming_distance(v, w)
        assert (hamming_distance(u, v) == 0) == (u == v)

    # pairwise distance multisets survive random equivalences
    def distance_multiset(code):
        ws = code.words
        return sorted(
            hamming_distance(ws[i], ws[j])
            for i in range(len(ws))
            for j in range(i + 1, len(ws))
        )

    bases = [latin_code, kirkman_classes[0]] + [
        random_valid_code(rng) for _ in range(8)
    ]
    for i in range(1_000):
        base = bases[i % len(bases)]
        mapped = apply_equivalence(
            base, random_equivalence(base.params.n, base.params.q, rng)
        )
        assert distance_multiset(mapped) == distance_multiset(base)

    # pair-count audits hold on every enumerated and random code
    audited = [latin_code, net32_code]
    audited += list(kirkman_classes)
    audited += list(codes_by_deletion(kirkman_classes))
    audited += [random_valid_code(rng) for _ in range(1_000)]
    for code in audited:
        audit = irregular_budget_audit(code)
        assert audit.ok
        assert audit.irregular <= audit.ne_d


def random_valid_code(rng):
    q = rng.randint(2, 4)
    n = rng.randint(2, 6)
    words = set()
    while len(words) < min(q**n, rng.randint(2, 9)):
        words.add(tuple(rng.randrange(q) for _ in range(n)))
    return Code.from_words(words, q=q, n=n)  # d = actual minimum distance
