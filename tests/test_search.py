"""Orderly enumeration, deletion/extension, and far-word statistics."""
import itertools
import random

import numpy as np
import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from codebounds.bounds import pair_count_bounds
from codebounds.canonical import _canonize, _least_image, canonical_form, is_canonical
from codebounds.codes import (
    Code,
    CodeParams,
    EquivalenceMap,
    apply_equivalence,
    hamming_distance,
    min_distance,
    min_distance_of,
)
from codebounds.errors import BudgetError, ExtensionError, ScaleError
from codebounds.fileio import packaged_text
from codebounds.nets import gh_expand, net_to_code, parse_gh
from codebounds.search import (
    SPLIT_JOBS,
    AlphaStats,
    EnumerationTask,
    all_words,
    alpha_stats,
    candidate_count,
    codes_by_deletion,
    enumerate_codes,
    extend_classes,
    extend_deficient,
)
from codebounds import canonical, search
from codebounds.search import _codes_by_deletion, _orbit_representatives

LATIN_SQUARE_CODE = (
    (0, 0, 0), (0, 1, 1), (0, 2, 2),
    (1, 0, 1), (1, 1, 2), (1, 2, 0),
    (2, 0, 2), (2, 1, 0), (2, 2, 1),
)


def brute_force_classes(q, n, d, size):
    """Reference classification by filtering all word subsets."""
    classes = set()
    for sub in itertools.combinations(itertools.product(range(q), repeat=n), size):
        if min_distance_of(sub) >= d:
            code = Code.from_words(sub, q, n, d=d, check_distance=False)
            classes.add(canonical_form(code))
    return classes


def test_task_validation():
    with pytest.raises(ValueError):
        EnumerationTask(3, 3, 2, 0)
    with pytest.raises(ValueError):
        EnumerationTask(3, 3, 4, 9)  # d > n


def test_all_words_grid():
    grid = all_words(3, 2)
    assert grid.shape == (9, 2)
    assert [tuple(r) for r in grid[:4]] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert not grid.flags.writeable


def test_enumerate_latin_square_class():
    res = enumerate_codes(EnumerationTask(3, 3, 2, 9))
    assert len(res) == 1
    assert res[0].words == LATIN_SQUARE_CODE
    assert min_distance(res[0]) == 2


def test_enumerate_two_word_binary():
    res = enumerate_codes(EnumerationTask(2, 2, 2, 2))
    assert len(res) == 1
    assert res[0].words == ((0, 0), (1, 1))


@pytest.mark.parametrize("q,n,d,size", [(2, 3, 2, 4), (2, 4, 2, 6), (2, 4, 3, 2)])
def test_enumerate_matches_brute_force(q, n, d, size):
    expected = brute_force_classes(q, n, d, size)
    got = enumerate_codes(EnumerationTask(q, n, d, size))
    assert set(got) == expected
    for code in got:
        assert is_canonical(code)
        assert min_distance(code) >= d
    # one orderly step from every class a word smaller
    parents = enumerate_codes(EnumerationTask(q, n, d, size - 1))
    for workers in (1, 2):
        assert extend_classes(parents, workers) == got


def orbit_size(code):
    """Number of distinct word sets among the images of the code under all
    n!(q!)^n column permutations and per-column symbol renamings."""
    q, n = code.params.q, code.params.n
    images = set()
    for cols in itertools.permutations(range(n)):
        for sps in itertools.product(itertools.permutations(range(q)), repeat=n):
            images.add(
                frozenset(tuple(sps[j][w[cols[j]]] for j in range(n)) for w in code.words)
            )
    return len(images)


def labelled_count(q, n, d, size):
    """Number of word subsets of the given size with minimum distance d."""
    space = itertools.product(range(q), repeat=n)
    return sum(min_distance_of(sub) >= d for sub in itertools.combinations(space, size))


@pytest.mark.parametrize(
    "params,classes,labelled",
    [
        ((2, 3, 2, 4), 1, 2),
        ((2, 4, 2, 6), 2, 56),
        ((2, 4, 3, 2), 2, 40),
        ((3, 3, 2, 4), 8, 3_078),
        ((2, 5, 3, 4), 1, 120),
    ],
)
def test_labelled_double_count(params, classes, labelled):
    # the orbits of the classes partition the labelled codes; neither
    # side uses the canonical search
    q, n, d, size = params
    assert labelled_count(*params) == labelled
    direct = enumerate_codes(EnumerationTask(*params))
    extended = extend_classes(enumerate_codes(EnumerationTask(q, n, d, size - 1)))
    for route in (direct, extended):
        assert len(route) == classes
        assert sum(orbit_size(c) for c in route) == labelled


def test_latin_square_class_is_every_latin_square():
    # the one (3,3,2,9) class, by either route, has the 12 Latin squares
    # of order 3 as its orbit
    latin = enumerate_codes(EnumerationTask(3, 3, 2, 9))
    assert extend_classes(enumerate_codes(EnumerationTask(3, 3, 2, 8))) == latin
    assert [orbit_size(c) for c in latin] == [12]


def test_extend_classes_refuses_what_it_cannot_extend():
    latin = Code.from_words(LATIN_SQUARE_CODE, 3, 3)
    assert extend_classes([]) == ()
    # not canonical: deleting the first word leaves no 0^n row
    with pytest.raises(ValueError, match="canonical"):
        extend_classes([Code(latin.params, latin.words[1:])])
    pair = enumerate_codes(EnumerationTask(3, 3, 2, 2))
    with pytest.raises(ValueError, match="one size"):
        extend_classes([*pair, latin])
    looser = Code.from_words(pair[0].words, 3, 3, d=1)
    with pytest.raises(ValueError, match="one size"):
        extend_classes([pair[0], looser])


def test_enumerate_output_is_sorted_and_canonical():
    got = enumerate_codes(EnumerationTask(2, 4, 2, 6))
    assert list(got) == sorted(got, key=lambda c: c.words)
    assert all(canonical_form(c) == c for c in got)


def test_worker_determinism():
    task = EnumerationTask(2, 4, 2, 6)
    assert enumerate_codes(task, workers=2) == enumerate_codes(task, workers=1)
    single = EnumerationTask(3, 3, 2, 9)
    assert enumerate_codes(single, workers=3) == enumerate_codes(single)
    # seven final jobs, so workers=2 runs them in a pool
    split = EnumerationTask(4, 7, 6, 8)
    assert enumerate_codes(split, workers=2) == enumerate_codes(split)


def without_profile_rule(monkeypatch):
    monkeypatch.setattr(search._Searcher, "feasible", lambda self, chosen, cand: True)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("params", [(4, 7, 6, 8), (3, 3, 2, 9), (3, 4, 3, 9), (2, 5, 2, 8)])
def test_profile_rule_keeps_every_class(monkeypatch, params, workers):
    task = EnumerationTask(*params)
    pruned = enumerate_codes(task, workers)
    without_profile_rule(monkeypatch)
    assert enumerate_codes(task, workers) == pruned


def test_profile_rule_prunes_before_deciding(monkeypatch):
    decisions, checks = [], []
    decide, feasible = search._decide_words, search._Searcher.feasible

    def counting_decide(words, n, q):
        decisions.append(len(words))
        return decide(words, n, q)

    def counting_feasible(self, chosen, cand):
        checks.append(feasible(self, chosen, cand))
        return checks[-1]

    monkeypatch.setattr(search, "_decide_words", counting_decide)
    monkeypatch.setattr(search._Searcher, "feasible", counting_feasible)
    task = EnumerationTask(4, 7, 6, 8)
    pruned = enumerate_codes(task)
    with_rule = len(decisions)
    # 314 of the 462 checks prune here; the brute-force case (2,4,2,6)
    # prunes 2 of its 19
    assert checks.count(False) > checks.count(True)
    decisions.clear()
    without_profile_rule(monkeypatch)
    assert enumerate_codes(task) == pruned
    assert with_rule < len(decisions)


def test_infeasible_pair_budget_is_empty():
    # 16 words of a (7,6)_5 code would need a negative irregular budget
    assert pair_count_bounds(5, 7, 6, 16).budget < 0
    assert enumerate_codes(EnumerationTask(5, 7, 6, 16)) == ()
    # the one size-4 class of (5,3)_2 codes fails the size-5 filters
    # itself, so it is dropped before any child is tried
    assert pair_count_bounds(2, 5, 3, 5).budget >= 0
    assert extend_classes(enumerate_codes(EnumerationTask(2, 5, 3, 4))) == ()


def test_budget_error_carries_partial_state():
    with pytest.raises(BudgetError) as err:
        enumerate_codes(EnumerationTask(5, 7, 6, 15, node_budget=500))
    assert err.value.nodes > 500
    assert isinstance(err.value.partial, tuple)


@pytest.mark.parametrize(
    "params,budget",
    [
        ((2, 4, 2, 6), 30),  # every job fits; the summed nodes do not
        ((2, 5, 2, 8), 60),  # one final job spends its budget
    ],
)
def test_budget_error_does_not_depend_on_workers(params, budget):
    caught = []
    for workers in (1, 2, 3):
        with pytest.raises(BudgetError) as err:
            enumerate_codes(EnumerationTask(*params, node_budget=budget), workers)
        caught.append((err.value.nodes, err.value.partial))
    assert caught[0] == caught[1] == caught[2]
    nodes, partial = caught[0]
    assert nodes > budget
    assert partial and set(partial) <= set(enumerate_codes(EnumerationTask(*params)))
    assert list(partial) == sorted(partial, key=lambda c: c.words)


@pytest.mark.parametrize("workers", [1, 2])
def test_zero_time_limit_raises(workers):
    task = EnumerationTask(4, 7, 6, 8, time_limit=0.0)
    with pytest.raises(BudgetError, match="time limit"):
        enumerate_codes(task, workers)


def test_scale_guard_requires_explicit_budget():
    with pytest.raises(ScaleError):
        enumerate_codes(EnumerationTask(5, 8, 6, 65))
    # an explicit budget overrides the guard but still fails loudly
    with pytest.raises(BudgetError):
        enumerate_codes(EnumerationTask(5, 8, 6, 65, node_budget=200))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("params,total", [((2, 5, 2, 8), 458), ((4, 7, 6, 8), 23_721)])
def test_node_totals_are_pinned(params, total, workers):
    # a budget one short of the search's node total fails with exactly
    # that total; a budget of the total itself succeeds
    with pytest.raises(BudgetError) as err:
        enumerate_codes(EnumerationTask(*params, node_budget=total - 1), workers)
    assert err.value.nodes == total
    full = enumerate_codes(EnumerationTask(*params, node_budget=total), workers)
    assert full == enumerate_codes(EnumerationTask(*params))


def brute_force_state(q, n, d, cap, budget, chosen):
    """The candidates, their pair counts and the prefix's pair count of a
    prefix, recomputed from every word of the space after its last word."""
    assert list(chosen) == sorted(set(chosen))
    last = sum(s * q ** (n - 1 - j) for j, s in enumerate(chosen[-1])) if chosen else -1
    grid = all_words(q, n)[last + 1 :]
    words = np.array(chosen, dtype=np.uint8).reshape(len(chosen), n)
    dist = np.count_nonzero(grid[:, None, :] != words[None, :, :], axis=2)
    counts = np.zeros((n, q), dtype=int)
    for w in chosen:
        counts[np.arange(n), list(w)] += 1
    assert (counts <= cap).all()
    within_cap = (counts[np.arange(n), grid] + 1 <= cap).all(axis=1)
    nond = (dist != d).sum(axis=1)
    prefix_nond = sum(
        hamming_distance(u, v) != d for u, v in itertools.combinations(chosen, 2)
    )
    keep = (dist >= d).all(axis=1) & within_cap & (prefix_nond + nond <= budget)
    return grid[keep], nond[keep], prefix_nond


@pytest.mark.parametrize("params", [(2, 5, 2, 8), (4, 7, 6, 8), (5, 7, 6, 15)])
def test_job_states_match_brute_force(monkeypatch, params):
    states = []
    expand_job = search._expand_job

    def capturing(args):
        states.append(args[2])
        return expand_job(args)

    monkeypatch.setattr(search, "_expand_job", capturing)
    task = EnumerationTask(*params)
    enumerate_codes(task)
    q, n, d, target = params
    cap = search._Searcher(task, None).cap
    budget = pair_count_bounds(q, n, d, target).budget
    assert len(states) > SPLIT_JOBS
    for chosen, cand, nond, prefix_nond in states:
        want_cand, want_nond, want_prefix = brute_force_state(
            q, n, d, cap, budget, chosen
        )
        assert cand.tolist() == want_cand.tolist()
        assert nond.tolist() == want_nond.tolist()
        assert prefix_nond == want_prefix


def test_codes_by_deletion_trivial():
    parent = enumerate_codes(EnumerationTask(2, 2, 2, 2))
    children = codes_by_deletion(parent)
    assert len(children) == 1
    assert children[0].words == ((0, 0),)


def test_codes_by_deletion_latin_square():
    parent = Code.from_words(LATIN_SQUARE_CODE, 3, 3)
    children = codes_by_deletion([parent])
    # the symmetry group is word-transitive, so one class remains
    assert len(children) == 1
    assert children[0].size == 8


def brute_force_deletion(parents):
    """Canonical form of every one-word deletion, deduplicated and sorted."""
    forms = set()
    for parent in parents:
        for i in range(parent.size):
            rest = parent.words[:i] + parent.words[i + 1 :]
            forms.add(canonical_form(Code(parent.params, rest)))
    return tuple(sorted(forms, key=lambda c: c.words))


def code32():
    """The size-32 (8,6)_4 code of the bundled generalized Hadamard matrix."""
    return net_to_code(gh_expand(parse_gh(packaged_text("gh8_klein4.gh"))))


def random_codes(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        q, n = rng.choice([(2, 4), (3, 3), (3, 4), (4, 3)])
        words = set()
        while len(words) < rng.randint(2, 8):
            words.add(tuple(rng.randrange(q) for _ in range(n)))
        out.append(Code.from_words(words, q, n, d=1, check_distance=False))
    return out


@pytest.mark.parametrize(
    "q,n,d,size", [(2, 2, 2, 2), (3, 3, 2, 9), (2, 3, 2, 4), (2, 4, 2, 6), (2, 4, 3, 2)]
)
def test_deletion_orbits_match_brute_force(q, n, d, size):
    parents = enumerate_codes(EnumerationTask(q, n, d, size))
    assert codes_by_deletion(parents) == brute_force_deletion(parents)


def test_deletion_orbits_match_brute_force_on_other_inputs():
    latin = Code.from_words(LATIN_SQUARE_CODE, 3, 3)
    assert codes_by_deletion([latin]) == brute_force_deletion([latin])
    # parents that are not canonical forms, one at a time and together
    parents = random_codes(0xD1E7, 40)
    for parent in parents:
        assert codes_by_deletion([parent]) == brute_force_deletion([parent])
    for params in {p.params for p in parents}:
        group = [p for p in parents if p.params == params]
        assert codes_by_deletion(group) == brute_force_deletion(group)


def test_deletion_keeps_parents_with_different_params_apart():
    rng = random.Random(0x3A4)
    parents = []
    for q in (3, 4):
        for _ in range(10):
            words = {tuple(rng.randrange(q) for _ in range(3)) for _ in range(5)}
            parents.append(Code.from_words(words, q, 3, d=1, check_distance=False))
    got = codes_by_deletion(parents)
    assert set(got) == set(brute_force_deletion(parents))
    assert {c.params.q for c in got} == {3, 4}


def test_canonize_generators_are_automorphisms():
    for code in [Code.from_words(LATIN_SQUARE_CODE, 3, 3), *random_codes(7, 60)]:
        form, gens = _canonize(code)
        assert form == canonical_form(code)
        for g in gens:
            assert apply_equivalence(form, g) == form


def test_corrupted_generator_is_dropped():
    form, gens = _canonize(Code.from_words(LATIN_SQUARE_CODE, 3, 3))
    assert _orbit_representatives(form, gens) == [0]
    # swapping symbols 0 and 1 in the first column alone maps (0,0,0) to
    # (1,0,0), which is not a word of the form
    bad = EquivalenceMap((0, 1, 2), ((1, 0, 2), (0, 1, 2), (0, 1, 2)))
    assert apply_equivalence(form, bad) != form
    assert _orbit_representatives(form, [bad]) == list(range(form.size))
    assert _orbit_representatives(form, [bad, *gens]) == [0]


def test_deletion_of_code32_is_one_orbit_one_class():
    parent = code32()
    form, gens = _canonize(parent)
    for g in gens:
        assert apply_equivalence(form, g) == form
    # checked automorphisms joining all 32 words into one orbit prove
    # that every deletion lies in one class; one deletion made from the
    # uncanonized code confirms which class that is
    assert _orbit_representatives(form, gens) == [0]
    classes = codes_by_deletion([parent])
    assert len(classes) == 1
    # the cache is keyed on canonical forms, so the form itself hits
    hits = _codes_by_deletion.cache_info().hits
    assert codes_by_deletion([form]) == classes
    assert _codes_by_deletion.cache_info().hits == hits + 1
    assert classes == (canonical_form(Code(parent.params, parent.words[:-1])),)


def row_group_order(form, generators):
    """Order of the group the generators induce on the form's words."""
    index = {w: i for i, w in enumerate(form.words)}
    perms = [Permutation([index[g.apply_word(w)] for w in form.words]) for g in generators]
    return PermutationGroup([Permutation(form.size - 1), *perms]).order()


def brute_force_row_group_order(code):
    """Distinct permutations of the words induced by every equivalence
    that maps the word set onto itself; feasible for n, q <= 3."""
    q, n = code.params.q, code.params.n
    index = {w: i for i, w in enumerate(code.words)}
    seen = set()
    for cols in itertools.permutations(range(n)):
        for sps in itertools.product(itertools.permutations(range(q)), repeat=n):
            g = EquivalenceMap(cols, sps)
            image = tuple(index.get(g.apply_word(w)) for w in code.words)
            if None not in image:
                seen.add(image)
    return len(seen)


def test_canonize_generators_span_the_whole_group():
    rng = random.Random(0x6A0)
    codes = [Code.from_words(LATIN_SQUARE_CODE, 3, 3)]
    for q, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        codes.append(Code.from_words(itertools.product(range(q), repeat=n), q, n))
    for _ in range(40):
        q, n = rng.choice([(2, 3), (3, 2), (3, 3)])
        words = {tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randint(2, 9))}
        codes.append(Code.from_words(words, q, n, d=1, check_distance=False))
    for code in codes:
        form, gens = _canonize(code)
        assert row_group_order(form, gens) == brute_force_row_group_order(form)


def test_code32_group_from_few_generators():
    form, gens = _canonize(code32())
    assert row_group_order(form, gens) == 5376
    assert len(gens) <= 4
    last = Code(form.params, form.words[:-1])
    form31, gens31 = _canonize(last)
    assert row_group_order(form31, gens31) == 168
    assert len(gens31) <= 2


def test_canonical_search_node_counts():
    # the node counts are deterministic; these bounds keep the pruning
    # from going slack unnoticed, and the exact counts pin the search
    parent = code32()
    form = canonical_form(parent)
    p = parent.params
    for words, bound, exact in [
        (parent.words, 1_000, 270),
        (form.words[1:], 15_000, 11_876),
        (form.words[:-1], 15_000, 3_036),
    ]:
        _, eng = _least_image(words, p.n, p.q, 10**8)
        assert eng.nodes <= bound
        assert eng.nodes == exact


def test_decision_nodes_are_pinned(monkeypatch):
    # every decision of serial (4,7,6,8) that runs the search, with its
    # node count; each must agree with the canonical form, which covers
    # the equidistant partial codes that random codes do not reach
    ticks, searched = [0], []
    tick, decide = canonical._Engine.tick, search._decide_words

    def counting_tick(self):
        ticks[0] += 1
        tick(self)

    def recording_decide(words, n, q):
        before = ticks[0]
        accepted = decide(words, n, q)
        if ticks[0] > before:
            searched.append((words, accepted))
        return accepted

    monkeypatch.setattr(canonical._Engine, "tick", counting_tick)
    monkeypatch.setattr(search, "_decide_words", recording_decide)
    enumerate_codes(EnumerationTask(4, 7, 6, 8))
    assert ticks[0] == 9_482
    assert searched
    params = CodeParams(4, 7, 6)
    for words, accepted in searched:
        code = Code(params, words)
        assert is_canonical(code) == accepted == (canonical_form(code) == code)


def test_extend_deficient_roundtrip():
    parent = Code.from_words(LATIN_SQUARE_CODE, 3, 3)
    target = canonical_form(parent)
    for i in range(parent.size):
        child = Code(parent.params, parent.words[:i] + parent.words[i + 1 :])
        back = extend_deficient(child)
        assert min_distance(back) >= 2
        assert canonical_form(back) == target


def test_extend_deficient_errors():
    full = Code.from_words(LATIN_SQUARE_CODE, 3, 3)
    with pytest.raises(ExtensionError) as err:
        extend_deficient(full)
    assert err.value.kind == "size"

    # two symbols short by one in column 0
    bad = Code.from_words([(0, 0), (0, 1), (0, 2), (1, 0), (2, 1)], 3, 2, d=1)
    with pytest.raises(ExtensionError) as err:
        extend_deficient(bad)
    assert err.value.kind == "profile"

    # balanced columns, but the completion lands below the declared d
    close = Code.from_words(
        [(0, 0, 0), (0, 1, 1), (1, 1, 0)], 2, 3, d=3, check_distance=False
    )
    with pytest.raises(ExtensionError) as err:
        extend_deficient(close)
    assert err.value.kind == "distance"


def test_alpha_stats_empty_code():
    empty = Code.from_words([], 2, 3, d=2)
    st = alpha_stats(empty)
    assert st.total == 8
    assert st.counts == ((0, 8),)


def test_alpha_stats_matches_direct_scan():
    rng = random.Random(0x5EED)
    for _ in range(20):
        q, n = rng.choice([(2, 5), (3, 4), (4, 3)])
        words = set()
        while len(words) < 4:
            words.add(tuple(rng.randrange(q) for _ in range(n)))
        d = min_distance_of(tuple(words))
        code = Code.from_words(words, q, n, d=d)
        thr = rng.randrange(d + 1)
        st = alpha_stats(code, threshold=thr)
        hist = {}
        for u in itertools.product(range(q), repeat=n):
            if all(hamming_distance(u, w) >= thr for w in code.words):
                a = sum(hamming_distance(u, w) == d for w in code.words)
                hist[a] = hist.get(a, 0) + 1
        assert dict(st.counts) == hist
        assert st.total == sum(hist.values())


def test_alpha_stats_histogram_consistency():
    code = Code.from_words(LATIN_SQUARE_CODE, 3, 3)
    st = alpha_stats(code)
    assert st.threshold == 1
    assert st.total == st.count_le(max(a for a, _ in st.counts))
    assert st.count_le(-1) == 0


def test_candidate_count_basics():
    empty = Code.from_words([], 3, 3, d=2)
    assert candidate_count(empty, 0) == 27
    code = Code.from_words(LATIN_SQUARE_CODE, 3, 3)
    assert candidate_count(code, 0) == 27
    # thresholds are monotone
    counts = [candidate_count(code, t) for t in range(4)]
    assert counts == sorted(counts, reverse=True)
    assert counts[3] == 0  # nothing is at distance 3 from all nine words


def test_scan_cap():
    big = Code.from_words([(0,) * 11], 4, 11, d=8)
    with pytest.raises(ScaleError):
        alpha_stats(big)
