"""Exhaustive classification of codes with given parameters and size.

Enumeration is orderly: words are appended in strictly increasing
lexicographic order and a partial code survives only if it is the
canonical representative of its own equivalence class, so exactly one
representative of every class of the target size is emitted.  Deleting
the lexicographically last row of a canonical code leaves a canonical
code, which makes the rule complete.

Pruning is sound for any instance: pairwise distance at least d, column
symbol counts capped by the Plotkin bound of the column projection (and
by the forced balanced profile when the pair-count budget vanishes), and
a running count of pairs at distance other than d against that budget.

The cap also works from below.  The words of a size-M code holding symbol
s in column j, with that column deleted, form an (n-1,d)_q code, so s
occurs at most cap <= A_q(n-1,d) times there; the q counts of a column
sum to M, so each is at least M - (q-1)*cap.  A partial code with column
counts c[j,s], whose remaining words must come from candidates holding s
in column j a[j,s] times, can therefore grow by at most
sum_s min(cap - c[j,s], a[j,s]) words in column j, and it is dropped when
that falls short of the words still needed in any column.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import lru_cache
from multiprocessing import Pool

import numpy as np

from .bounds import pair_count_bounds, plotkin_bound
from .canonical import _canonize, _decide_words, canonical_form
from .codes import Code, CodeParams, Word, hamming_distance
from .errors import BudgetError, ExtensionError, ScaleError

__all__ = [
    "EnumerationTask",
    "enumerate_codes",
    "classify",
    "codes_by_deletion",
    "extend_deficient",
    "AlphaStats",
    "alpha_stats",
    "candidate_count",
    "all_words",
]

DEFAULT_NODE_BUDGET = 10**9
DEFAULT_TIME_LIMIT = 600.0
SCALE_CAP = 200_000
SCAN_CAP = 2_000_000
# canonical prefixes to reach before the jobs run to the target size
SPLIT_JOBS = 16
# parents of at least this many words build each child state, and check
# its column profile, before deciding it
CHECK_FIRST_WORDS = 4


@dataclass(frozen=True)
class EnumerationTask:
    """Parameters and budgets of one classification run.

    A node budget of None means the default, and instances with q**n
    beyond desk scale are refused unless a budget is given explicitly.
    """

    q: int
    n: int
    d: int
    target_size: int
    node_budget: int | None = None
    time_limit: float | None = DEFAULT_TIME_LIMIT

    def __post_init__(self):
        CodeParams(self.q, self.n, self.d)
        if self.target_size < 1:
            raise ValueError("target size must be positive")


@lru_cache(maxsize=32)
def all_words(q: int, n: int) -> np.ndarray:
    """All q**n words in lexicographic order as a read-only array."""
    grid = np.array(list(itertools.product(range(q), repeat=n)), dtype=np.uint8)
    grid.flags.writeable = False
    return grid


class _Searcher:
    def __init__(self, task: EnumerationTask, deadline: float | None):
        self.q, self.n, self.d = task.q, task.n, task.d
        self.target = task.target_size
        self.node_budget = (
            task.node_budget if task.node_budget is not None else DEFAULT_NODE_BUDGET
        )
        self.time_limit = task.time_limit
        self.deadline = deadline
        self.nodes = 0
        pc = pair_count_bounds(self.q, self.n, self.d, self.target)
        self.budget = pc.budget
        cap = self.target
        if self.n - 1 < self.d:
            cap = 1
        else:
            pb = plotkin_bound(self.q, self.n - 1, self.d)
            if pb is not None:
                cap = min(cap, pb)
        if pc.budget == 0:
            cap = min(cap, pc.m)
        self.cap = cap
        self.counts = np.zeros((self.n, self.q), dtype=np.int32)
        self.col_idx = np.arange(self.n)
        self.col_offsets = self.col_idx * self.q
        self.found: list[tuple] = []

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise BudgetError(f"enumeration node budget {self.node_budget} exhausted")
        # the clock is read at each job's first node, then every 256 nodes
        if self.deadline is not None and self.nodes % 256 == 1:
            if time.monotonic() >= self.deadline:
                raise BudgetError(
                    f"enumeration time limit {self.time_limit}s exhausted"
                )

    def child_state(self, words, cand, nond, prefix_nond, i):
        """State of ``words``, which end in candidate i; counts are updated
        in place and must be rolled back by the caller."""
        w = cand[i]
        rest = cand[i + 1 :]
        restnond = nond[i + 1 :]
        dist = (rest != w).sum(axis=1)
        self.counts[self.col_idx, w] += 1
        sel = dist >= self.d
        if self.cap < self.target:
            sel &= (self.counts[self.col_idx[None, :], rest] + 1 <= self.cap).all(
                axis=1
            )
        new_prefix_nond = prefix_nond + int(nond[i])
        new_nond = restnond + (dist != self.d)
        sel &= new_prefix_nond + new_nond <= self.budget
        return words, rest[sel], new_nond[sel], new_prefix_nond

    def feasible(self, chosen, cand):
        """Whether the candidates can still complete every column.

        With counts already updated for ``chosen``, symbol s can gain at
        most min(cap - c[j,s], a[j,s]) more words in column j, a[j,s]
        being its count among the candidates; the gains of one column
        must sum to the words still needed."""
        a = np.bincount(
            (cand + self.col_offsets).ravel(), minlength=self.n * self.q
        ).reshape(self.n, self.q)
        room = np.minimum(self.cap - self.counts, a).sum(axis=1)
        return int(room.min()) >= self.target - len(chosen)

    def rollback(self, word):
        self.counts[self.col_idx, np.asarray(word, dtype=np.uint8)] -= 1

    def expand(self, chosen, cand, nond, prefix_nond, stop_size):
        """Depth-first orderly expansion up to stop_size words, recording
        the state of each code of that size.

        The loop leaves room for target words, not stop_size ones, so
        expanding a level at a time visits the nodes of one undivided
        search."""
        k = len(chosen)
        if k == stop_size:
            self.found.append((chosen, cand, nond, prefix_nond))
            return
        need = self.target - k
        # Deciding a child of up to 4 words is an early return or about 4
        # engine nodes, less than a child state costs while thousands of
        # candidates remain (3,840 after 3 words of (5,7,6,15), whose
        # 3-word parents take 0.3 s deciding first and 1.0 s checking
        # first).  Deeper, most dead children are pruned undecided:
        # deciding first everywhere makes that serial run 14.6 s, not 5.3 s.
        check_first = k >= CHECK_FIRST_WORDS
        for i in range(len(cand) - need + 1):
            self._tick()
            if prefix_nond + int(nond[i]) > self.budget:
                continue
            wt = tuple(cand[i].tolist())
            words = chosen + (wt,)
            if not check_first and not _decide_words(words, self.n, self.q):
                continue
            st = self.child_state(words, cand, nond, prefix_nond, i)
            if self.feasible(st[0], st[1]) and (
                not check_first or _decide_words(words, self.n, self.q)
            ):
                self.expand(*st, stop_size)
            self.rollback(wt)


def _expand_job(args):
    """Expand one canonical prefix's search state to stop_size words.

    Returns (found, nodes, exhausted): the states reached, and the message
    of a spent budget or deadline, None when the job ran to its end."""
    task, deadline, state, stop_size = args
    s = _Searcher(task, deadline)
    for w in state[0]:
        s.counts[s.col_idx, w] += 1
    try:
        s.expand(*state, stop_size)
    except BudgetError as exc:
        return s.found, s.nodes, str(exc)
    return s.found, s.nodes, None


def enumerate_codes(task: EnumerationTask, workers: int = 1) -> tuple[Code, ...]:
    """All equivalence classes of (n,d)_q codes of the target size, as
    canonical representatives in sorted order.

    The search runs as jobs, one per canonical prefix: prefixes grow a
    word at a time in-process until there are at least SPLIT_JOBS of them
    or the next size is the target, then each is expanded to the target,
    by a pool of ``workers`` processes when there is more than one.  A job
    carries its prefix's search state, the words after the prefix's last
    one that may still join it and their pair counts, as the parent job
    left it, so only the column counts are rebuilt.  The
    result, the node count and the partial result of a BudgetError do
    not depend on ``workers``.  Each job may spend the whole node budget;
    the jobs' summed nodes are checked against it once, at the end, and
    one deadline holds for every job.
    """
    q, n, d, target = task.q, task.n, task.d, task.target_size
    if q**n > SCALE_CAP and task.node_budget is None:
        raise ScaleError(
            f"q**n = {q**n} exceeds desk scale {SCALE_CAP}; "
            "pass an explicit node budget to force the attempt"
        )
    if target > q**n or pair_count_bounds(q, n, d, target).budget < 0:
        return ()
    params = CodeParams(q, n, d)
    deadline = None if task.time_limit is None else time.monotonic() + task.time_limit
    node_budget = DEFAULT_NODE_BUDGET if task.node_budget is None else task.node_budget

    root = ((), all_words(q, n), np.zeros(q**n, dtype=np.int32), 0)
    found, size, nodes = [root], 0, 0
    while True:
        final = len(found) >= SPLIT_JOBS or size + 1 == target
        stop = target if final else size + 1
        jobs = [(task, deadline, state, stop) for state in found]
        if final and workers > 1 and len(jobs) > 1:
            with Pool(min(workers, len(jobs))) as pool:
                results = list(pool.imap_unordered(_expand_job, jobs))
        else:
            results = list(map(_expand_job, jobs))
        found = sorted((st for r in results for st in r[0]), key=lambda st: st[0])
        nodes += sum(job_nodes for _, job_nodes, _ in results)
        exhausted = [msg for _, _, msg in results if msg]
        if final or exhausted:
            break
        size = stop
    codes = tuple(Code(params, st[0]) for st in found) if final else ()
    if not exhausted and nodes > node_budget:
        exhausted = [f"enumeration node budget {node_budget} exhausted"]
    if exhausted:
        raise BudgetError(exhausted[0], nodes, codes)
    return codes


@lru_cache(maxsize=None)
def classify(q: int, n: int, d: int, target_size: int) -> tuple[Code, ...]:
    """Memoized full classification with default budgets."""
    return enumerate_codes(EnumerationTask(q, n, d, target_size))


def codes_by_deletion(parents) -> tuple[Code, ...]:
    """All classes obtained by deleting one word from the given codes,
    deduplicated by canonical form and sorted.

    Deleting two words of one automorphism orbit gives equivalent codes,
    so only one word per orbit of each parent is deleted.  A parent given
    as a ``_Canonized`` is not canonized again.
    """
    canonized = (
        p if isinstance(p, _Canonized) else _Canonized(*_canonize(p)) for p in parents
    )
    return _codes_by_deletion(tuple(canonized))


@dataclass(frozen=True)
class _Canonized:
    """A canonical form with automorphisms of it; equal and hashed by the
    form alone, so equivalent parents share one cache entry."""

    form: Code
    automorphisms: tuple = field(compare=False)


def _orbit_representatives(code: Code, generators) -> list[int]:
    """Least word index of each orbit of the group the generators span.

    A generator that does not map the word set onto itself is dropped;
    the orbits are then finer than the true ones, never wrong.
    """
    index = {w: i for i, w in enumerate(code.words)}
    root = list(range(code.size))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for g in generators:
        images = [index.get(g.apply_word(w)) for w in code.words]
        if None in images:
            continue
        for i, j in enumerate(images):
            a, b = find(i), find(j)
            if a != b:
                root[max(a, b)] = min(a, b)
    return [i for i in range(code.size) if find(i) == i]


@lru_cache(maxsize=None)
def _codes_by_deletion(parents: tuple[_Canonized, ...]) -> tuple[Code, ...]:
    seen: dict[tuple[CodeParams, tuple[Word, ...]], Code] = {}
    for parent in parents:
        words = parent.form.words
        for i in _orbit_representatives(parent.form, parent.automorphisms):
            rest = words[:i] + words[i + 1 :]
            child = canonical_form(Code(parent.form.params, rest))
            seen.setdefault((child.params, child.words), child)
    return tuple(seen[k] for k in sorted(seen))


def extend_deficient(code: Code) -> Code:
    """Append the unique word whose symbols complete every column to a
    balanced profile.

    Requires |C| + 1 divisible by q and, in every column, exactly one
    symbol occurring (|C|+1)/q - 1 times with the others at (|C|+1)/q.
    The appended word must respect the minimum distance; each failure is
    a distinct error.
    """
    q, n, d = code.params.q, code.params.n, code.params.d
    total = code.size + 1
    if total % q != 0:
        raise ExtensionError(
            "size", f"size {code.size} is not one below a multiple of q={q}"
        )
    cap = total // q
    beta = []
    for j in range(n):
        counts = [0] * q
        for w in code.words:
            counts[w[j]] += 1
        deficient = [s for s in range(q) if counts[s] == cap - 1]
        full = [s for s in range(q) if counts[s] == cap]
        if len(deficient) != 1 or len(full) != q - 1:
            raise ExtensionError(
                "profile",
                f"column {j} has counts {counts}, not one symbol at {cap - 1} "
                f"with the rest at {cap}",
            )
        beta.append(deficient[0])
    u = tuple(beta)
    for w in code.words:
        if hamming_distance(w, u) < d:
            raise ExtensionError(
                "distance", f"appended word {u} is at distance < {d} from {w}"
            )
    return Code(code.params, tuple(sorted(code.words + (u,))))


@dataclass(frozen=True)
class AlphaStats:
    """Distance-d neighbour statistics of the far-word set of a code.

    S holds every word of the ambient space at distance at least
    ``threshold`` from all code words; ``counts`` maps alpha, the number
    of code words at distance exactly d, to how many members of S attain
    it.
    """

    q: int
    n: int
    d: int
    threshold: int
    code_size: int
    counts: tuple[tuple[int, int], ...]

    @property
    def total(self) -> int:
        return sum(c for _, c in self.counts)

    def count_eq(self, alpha: int) -> int:
        return dict(self.counts).get(alpha, 0)

    def count_le(self, alpha: int) -> int:
        return sum(c for a, c in self.counts if a <= alpha)


def alpha_stats(code: Code, threshold: int | None = None) -> AlphaStats:
    """Full-space scan; refuses instances with q**n beyond the scan cap."""
    q, n, d = code.params.q, code.params.n, code.params.d
    if threshold is None:
        threshold = d - 1
    if q**n > SCAN_CAP:
        raise ScaleError(f"q**n = {q**n} exceeds scan cap {SCAN_CAP}")
    grid = all_words(q, n)
    mask = np.ones(len(grid), dtype=bool)
    alpha = np.zeros(len(grid), dtype=np.int32)
    for w in code.words:
        dw = (grid != np.asarray(w, dtype=np.uint8)).sum(axis=1)
        mask &= dw >= threshold
        alpha += dw == d
    hist = np.bincount(alpha[mask])
    counts = tuple((a, int(c)) for a, c in enumerate(hist) if c)
    return AlphaStats(q, n, d, threshold, code.size, counts)


def candidate_count(code: Code, threshold: int) -> int:
    """Number of ambient words at distance >= threshold from every word."""
    return alpha_stats(code, threshold=threshold).total
