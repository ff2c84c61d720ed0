"""Canonical representatives for code equivalence.

The canonical form of a code is the lexicographically least row-sorted
symbol matrix reachable by permuting columns and renaming symbols
independently within columns, rows compared as one concatenated tuple.

The search builds the target matrix one row at a time.  Committing to a
source row forces the cheapest extension of the partial column order and
partial symbol renamings, tracked as an ordered partition of columns
(cells of columns not yet distinguished) plus one partial symbol map per
column.  Columns in one cell always carry the same number of assigned
symbols, so the tentative value of an unassigned symbol is uniform per
cell.  Only rows achieving the minimal next image are branched on, and
branches whose partial image exceeds the best known matrix are pruned.
A leaf whose matrix ties the best one yields an automorphism, mapping
the best leaf's rows onto its own.  Two rules of McKay and Piperno
("Practical graph isomorphism, II", 2014) prune with them.  The search
jumps back to the level where the two paths first part: there the
automorphism maps the fully searched best branch onto the current one.
A sibling is skipped, just before its turn, when an automorphism fixing
the committed rows maps an already searched sibling onto it, since its
subtree is then that sibling's image.  ``_canonize`` returns these
automorphisms as equivalences of the form onto itself.

Deciding whether a code already is canonical is the same search,
started from the code itself and stopped at the first smaller row.
"""
from __future__ import annotations

from .codes import Code, EquivalenceMap, Word
from .errors import BudgetError

__all__ = ["canonical_form", "is_canonical"]

_DEFAULT_NODE_BUDGET = 20_000_000


def _greedy(u: Word, cells, maps, nfree, bound):
    """Minimal achievable image of word u under the current partial state.

    Returns (img, plan): img is the image row read in cell order, plan
    lists the refined cells as (value, columns, fresh) groups.  bound is
    a row or None: img stays None while it ties bound, bound itself is
    returned for a full tie, and None as soon as img exceeds bound, so
    most rows stop after a couple of positions.
    """
    img = [] if bound is None else None
    plan = []
    pos = 0
    for cell in cells:
        if len(cell) == 1:
            j = cell[0]
            v = maps[j][u[j]]
            fresh = v < 0
            if fresh:
                v = nfree[j]
            if img is not None:
                img.append(v)
            elif v == (b := bound[pos]):
                pos += 1
            elif v > b:
                return None
            else:
                img = [*bound[:pos], v]
            plan.append((v, cell, fresh))
            continue
        byval: dict[int, list[int]] = {}
        tfresh = -1
        for j in cell:
            v = maps[j][u[j]]
            if v < 0:
                if tfresh < 0:
                    tfresh = nfree[j]
                v = tfresh
            g = byval.get(v)
            if g is None:
                byval[v] = [j]
            else:
                g.append(j)
        for v in sorted(byval):
            js = byval[v]
            c = len(js)
            if img is None:
                for b in bound[pos : pos + c]:
                    if v != b:
                        if v > b:
                            return None
                        img = list(bound[:pos])
                        break
                else:
                    pos += c
            if img is not None:
                img.extend([v] * c)
            plan.append((v, tuple(js), v == tfresh))
    return (bound if img is None else tuple(img)), plan


def _apply_plan(u: Word, maps, nfree, plan):
    """Refined cells and symbol maps after committing word u."""
    new_cells = tuple(js for (_, js, _) in plan)
    if not any(fresh for (_, _, fresh) in plan):
        return new_cells, maps, nfree
    ml = list(maps)
    nl = list(nfree)
    for v, js, fresh in plan:
        if fresh:
            for j in js:
                t = ml[j]
                s = u[j]
                ml[j] = t[:s] + (v,) + t[s + 1 :]
                nl[j] = v + 1
    return new_cells, tuple(ml), tuple(nl)


class _Engine:
    def __init__(self, words, n, q, node_budget):
        self.m_count = len(words)
        self.n = n
        self.q = q
        self.node_budget = node_budget
        self.nodes = 0
        self.autos: list[tuple[int, ...]] = []
        self.best_path: tuple[int, ...] | None = None
        # column order and symbol maps of the best leaf and of each leaf
        # behind an entry of autos
        self.best_leaf = None
        self.leaves: list = []
        self.used: list[int] = []
        self.used_set: set[int] = set()

    def tick(self):
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise BudgetError("canonical-form search budget exhausted", self.nodes)

    def pruned(self, i, done):
        """True when row i lies in the orbit of the searched siblings in
        done under the recorded automorphisms fixing every committed row."""
        fixing = [p for p in self.autos if all(p[u] == u for u in self.used)]
        orbit, stack = set(done), list(done)
        while stack:
            x = stack.pop()
            new = {p[x] for p in fixing} - orbit
            orbit |= new
            stack.extend(new)
        return i in orbit

    def record_leaf(self, leaf):
        """Keep a leaf that ties the best one as the automorphism p with
        p[best_path[t]] = used[t], and return the level to resume at: the
        first level l where the two paths part.  p fixes best_path[:l] and
        maps the fully searched subtree below best_path[l] onto the current
        one, whose other leaves are thus images of leaves already seen."""
        p = [0] * self.m_count
        for a, b in zip(self.best_path, self.used):
            p[a] = b
        self.autos.append(tuple(p))
        self.leaves.append(leaf)
        return next(t for t, a in enumerate(self.best_path) if a != self.used[t])

    def new_best(self, leaf):
        self.best_path = tuple(self.used)
        self.best_leaf = leaf
        self.autos.clear()
        self.leaves.clear()

    def automorphisms(self):
        """Each recorded leaf as an automorphism of the best image: the
        inverse of the leaf's labelling followed by the best labelling."""
        q = self.q
        cols1, maps1 = self.best_leaf
        pos1 = {c: t for t, c in enumerate(cols1)}
        full1 = [_bijection(m, q) for m in maps1]
        out = []
        for cols2, maps2 in self.leaves:
            perm = [0] * self.n
            sps = [()] * self.n
            for p, c in enumerate(cols2):
                t = pos1[c]
                perm[p] = t
                inv2 = [0] * q
                for s, v in enumerate(_bijection(maps2[c], q)):
                    inv2[v] = s
                sps[t] = tuple(full1[c][inv2[s]] for s in range(q))
            out.append(EquivalenceMap(tuple(perm), tuple(sps)))
        return tuple(out)


def _bijection(partial, q):
    """Complete a partial symbol map (-1 for symbols absent from the
    column) with the unused values in increasing order."""
    nxt = max(partial) + 1
    out = list(partial)
    for s in range(q):
        if out[s] < 0:
            out[s] = nxt
            nxt += 1
    return out


def _least_image(
    words: tuple[Word, ...], n: int, q: int, node_budget: int, decide: bool = False
):
    """Least image matrix of a sorted word tuple, and the engine that
    holds the automorphisms found on the way.  With decide set, the
    search stops at the first row whose image falls below the tuple's
    own, which it leaves in the matrix."""
    m_count = len(words)
    eng = _Engine(words, n, q, node_budget)
    best = list(words)
    state = {"gen": 0}
    prefix: list[tuple[int, ...]] = []

    def dfs(cells, maps, nfree, tight):
        eng.tick()
        k = len(eng.used)
        if k == m_count:
            leaf = (tuple(j for cell in cells for j in cell), maps)
            if tight and eng.best_path is not None:
                return eng.record_leaf(leaf)
            best[:] = prefix
            eng.new_best(leaf)
            state["gen"] += 1
            return m_count
        # a row is bounded by the least image so far, else by best[k]
        # while the prefix ties best
        vmin = best[k] if tight else None
        achievers: dict[int, list] = {}
        for i in range(m_count):
            if i in eng.used_set:
                continue
            r = _greedy(words[i], cells, maps, nfree, vmin)
            if r is None:
                continue
            img, plan = r
            if img is vmin:  # a tie returns the bound itself
                achievers[i] = plan
                continue
            if decide and img < vmin:
                best[k] = img
                return -1  # below the root: every level returns at once
            vmin = img
            achievers = {i: plan}
        now_tight = tight and vmin == best[k]
        gen_seen = state["gen"]
        done: list[int] = []
        for i in achievers:
            if done and eng.autos and eng.pruned(i, done):
                continue
            if state["gen"] != gen_seen:
                # best improved inside a sibling subtree below this very
                # prefix, so the shared prefix is now exactly tight
                now_tight = True
                gen_seen = state["gen"]
            nc, nm, nf = _apply_plan(words[i], maps, nfree, achievers[i])
            eng.used.append(i)
            eng.used_set.add(i)
            prefix.append(vmin)
            back = dfs(nc, nm, nf, now_tight)
            eng.used.pop()
            eng.used_set.remove(i)
            prefix.pop()
            if back < k:
                return back
            done.append(i)
        return m_count

    dfs((tuple(range(n)),), ((-1,) * q,) * n, (0,) * n, True)
    return best, eng


def _canonize(code: Code, node_budget: int = _DEFAULT_NODE_BUDGET):
    """The canonical form and automorphisms of it found by the search.

    They generate the whole group of the form as it acts on the words:
    down the best path, every sibling in the orbit of the best branch is
    either searched, which records an automorphism onto it, or skipped
    because the recorded ones already reach it.
    """
    if code.size == 0:
        return code, ()
    rows, eng = _least_image(code.words, code.params.n, code.params.q, node_budget)
    return Code(code.params, tuple(rows)), eng.automorphisms()


def canonical_form(code: Code, node_budget: int = _DEFAULT_NODE_BUDGET) -> Code:
    """The least equivalent code; equal inputs up to equivalence give
    identical outputs."""
    return _canonize(code, node_budget)[0]


def is_canonical(code: Code, node_budget: int = _DEFAULT_NODE_BUDGET) -> bool:
    """True when the code equals its own canonical form.

    The search for the form, stopped at the first row whose image falls
    below the code's own.
    """
    if code.size == 0:
        return True
    return _decide_words(code.words, code.params.n, code.params.q, node_budget)


def _decide_words(
    words: tuple[Word, ...], n: int, q: int, node_budget: int = _DEFAULT_NODE_BUDGET
) -> bool:
    """True when the sorted word tuple is its own least image; the
    decision entry for callers that track words without a Code."""
    if words[0] != (0,) * n:
        return False
    if len(words) <= 2:
        # the least codes of one and two words: 0^n, and 0^n, 0^g 1^(n-g)
        g = words[-1].count(0)
        return words[-1] == (0,) * g + (1,) * (n - g)
    return _least_image(words, n, q, node_budget, decide=True)[0] == list(words)
