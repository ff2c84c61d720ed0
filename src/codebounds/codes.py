"""Core model for q-ary block codes.

Words are tuples of symbols from {0, ..., q-1}; a code is a finite set of
distinct words of common length n, stored lexicographically sorted.  Two
codes are equivalent when one maps onto the other by permuting columns
and renaming symbols independently within each column.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionError, ParseError, UndefinedDistanceError

Word = tuple[int, ...]

__all__ = [
    "Word",
    "CodeParams",
    "Code",
    "Block",
    "ColumnProfile",
    "EquivalenceMap",
    "hamming_distance",
    "agreement",
    "min_distance",
    "column_profile",
    "extract_block",
    "puncture",
    "apply_equivalence",
    "random_equivalence",
    "parse_code",
    "emit_code",
]


@dataclass(frozen=True, order=True)
class CodeParams:
    """Alphabet size q, word length n, and asserted minimum distance d."""

    q: int
    n: int
    d: int

    def __post_init__(self):
        if self.q < 2:
            raise ValueError(f"alphabet size must be at least 2, got {self.q}")
        if self.n < 1:
            raise ValueError(f"word length must be at least 1, got {self.n}")
        if not 1 <= self.d <= self.n:
            raise ValueError(f"need 1 <= d <= n, got d={self.d}, n={self.n}")


def hamming_distance(u: Word, v: Word) -> int:
    """Number of positions where u and v differ."""
    if len(u) != len(v):
        raise DimensionError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(a != b for a, b in zip(u, v))


def agreement(u: Word, v: Word) -> int:
    """Number of positions where u and v agree (n minus the distance)."""
    if len(u) != len(v):
        raise DimensionError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(a == b for a, b in zip(u, v))


@dataclass(frozen=True)
class Code:
    """A set of distinct words with common parameters.

    ``words`` is always lexicographically sorted, so two equal codes have
    equal field values.
    """

    params: CodeParams
    words: tuple[Word, ...]

    @classmethod
    def from_words(
        cls,
        words: Iterable[Sequence[int]],
        q: int,
        n: int,
        d: int | None = None,
        check_distance: bool = True,
    ) -> "Code":
        """Build a code, validating symbols, lengths, and distinctness.

        When ``d`` is None the actual minimum distance is used (n for
        codes with fewer than two words).
        """
        ws = sorted(tuple(int(s) for s in w) for w in words)
        for w in ws:
            if len(w) != n:
                raise DimensionError(f"word {w} has length {len(w)}, expected {n}")
            for s in w:
                if not 0 <= s < q:
                    raise ValueError(f"symbol {s} out of range for q={q}")
        for a, b in zip(ws, ws[1:]):
            if a == b:
                raise ValueError(f"duplicate word {a}")
        if d is None:
            d = min_distance_of(ws) if len(ws) >= 2 else n
        code = cls(CodeParams(q, n, d), tuple(ws))
        if check_distance and len(ws) >= 2 and min_distance(code) < d:
            raise ValueError(
                f"minimum distance {min_distance(code)} below asserted d={d}"
            )
        return code

    @property
    def size(self) -> int:
        return len(self.words)


def min_distance_of(words: Sequence[Word]) -> int:
    """Minimum pairwise Hamming distance over a list of two or more words."""
    if len(words) < 2:
        raise UndefinedDistanceError("minimum distance needs at least two words")
    return min(
        hamming_distance(words[i], words[j])
        for i in range(len(words))
        for j in range(i + 1, len(words))
    )


def min_distance(code: Code) -> int:
    """Minimum pairwise Hamming distance of a code with at least two words."""
    return min_distance_of(code.words)


@dataclass(frozen=True)
class ColumnProfile:
    """Per-column symbol counts of a code.

    ``counts[j][s]`` is the number of words with symbol s in column j.
    """

    q: int
    n: int
    size: int
    counts: tuple[tuple[int, ...], ...]

    def histogram(self, column: int, include_zero: bool = False) -> dict[int, int]:
        """Map k to the number of symbols occurring exactly k times in the column."""
        hist: dict[int, int] = {}
        for c in self.counts[column]:
            if c == 0 and not include_zero:
                continue
            hist[c] = hist.get(c, 0) + 1
        return hist


def column_profile(code: Code) -> ColumnProfile:
    q, n = code.params.q, code.params.n
    counts = [[0] * q for _ in range(n)]
    for w in code.words:
        for j, s in enumerate(w):
            counts[j][s] += 1
    return ColumnProfile(q, n, code.size, tuple(tuple(c) for c in counts))


@dataclass(frozen=True)
class Block:
    """All words of a code sharing a fixed symbol in a fixed column."""

    column: int
    symbol: int
    words: tuple[Word, ...]

    @property
    def size(self) -> int:
        return len(self.words)


def extract_block(code: Code, column: int, symbol: int) -> Block:
    if not 0 <= column < code.params.n:
        raise DimensionError(f"column {column} out of range for n={code.params.n}")
    if not 0 <= symbol < code.params.q:
        raise ValueError(f"symbol {symbol} out of range for q={code.params.q}")
    ws = tuple(w for w in code.words if w[column] == symbol)
    return Block(column, symbol, ws)


def puncture(code: Code, column: int) -> Code:
    """Delete one column; the minimum distance is recomputed."""
    if not 0 <= column < code.params.n:
        raise DimensionError(f"column {column} out of range for n={code.params.n}")
    seen = set()
    ws = []
    for w in code.words:
        v = w[:column] + w[column + 1 :]
        if v in seen:
            raise ValueError("puncturing collapses two words")
        seen.add(v)
        ws.append(v)
    return Code.from_words(ws, code.params.q, code.params.n - 1)


@dataclass(frozen=True)
class EquivalenceMap:
    """A column permutation followed by per-column symbol renamings.

    ``column_perm[j]`` is the target position of source column j, and
    ``symbol_perms[t]`` is the symbol renaming applied at target column t.
    """

    column_perm: tuple[int, ...]
    symbol_perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.column_perm)
        if sorted(self.column_perm) != list(range(n)):
            raise ValueError("column_perm is not a permutation")
        if len(self.symbol_perms) != n:
            raise DimensionError("need one symbol permutation per column")
        q = len(self.symbol_perms[0]) if n else 0
        for sp in self.symbol_perms:
            if sorted(sp) != list(range(q)):
                raise ValueError("symbol_perms entry is not a permutation")

    @classmethod
    def identity(cls, n: int, q: int) -> "EquivalenceMap":
        return cls(tuple(range(n)), tuple(tuple(range(q)) for _ in range(n)))

    def apply_word(self, w: Word) -> Word:
        n = len(self.column_perm)
        if len(w) != n:
            raise DimensionError(f"word length {len(w)} does not match n={n}")
        out = [0] * n
        for j, s in enumerate(w):
            t = self.column_perm[j]
            out[t] = self.symbol_perms[t][s]
        return tuple(out)

    def then(self, other: "EquivalenceMap") -> "EquivalenceMap":
        """The map applying self first, then other."""
        n = len(self.column_perm)
        if len(other.column_perm) != n:
            raise DimensionError("cannot compose maps on different lengths")
        perm = tuple(other.column_perm[self.column_perm[j]] for j in range(n))
        sps = [None] * n
        for j in range(n):
            t1 = self.column_perm[j]
            t2 = other.column_perm[t1]
            sps[t2] = tuple(
                other.symbol_perms[t2][self.symbol_perms[t1][s]]
                for s in range(len(self.symbol_perms[t1]))
            )
        return EquivalenceMap(perm, tuple(sps))

    def inverse(self) -> "EquivalenceMap":
        n = len(self.column_perm)
        inv_col = [0] * n
        for j, t in enumerate(self.column_perm):
            inv_col[t] = j
        sps = []
        for j in range(n):
            sp = self.symbol_perms[self.column_perm[j]]
            inv_sp = [0] * len(sp)
            for s, v in enumerate(sp):
                inv_sp[v] = s
            sps.append(tuple(inv_sp))
        return EquivalenceMap(tuple(inv_col), tuple(sps))


def apply_equivalence(code: Code, emap: EquivalenceMap) -> Code:
    """Transform every word; the result keeps the asserted parameters."""
    if len(emap.column_perm) != code.params.n:
        raise DimensionError("map length does not match code length")
    if len(emap.symbol_perms[0]) != code.params.q:
        raise DimensionError("map alphabet does not match code alphabet")
    ws = sorted(emap.apply_word(w) for w in code.words)
    return Code(code.params, tuple(ws))


def random_equivalence(n: int, q: int, rng: random.Random) -> EquivalenceMap:
    """Uniform random equivalence map, for sampling-based checks."""
    perm = list(range(n))
    rng.shuffle(perm)
    sps = []
    for _ in range(n):
        sp = list(range(q))
        rng.shuffle(sp)
        sps.append(tuple(sp))
    return EquivalenceMap(tuple(perm), tuple(sps))


def parse_code(text: str) -> Code:
    """Parse the plain-text code format.

    Line 1 holds ``q n M``; the next M non-comment lines each hold n
    space-separated symbols in 0..q-1.  Lines starting with ``#`` are
    comments.  Words must be distinct.
    """
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ParseError("header", "empty input")
    head = lines[0].split()
    if len(head) != 3:
        raise ParseError("header", f"expected 'q n M' header, got {lines[0]!r}")
    try:
        q, n, m = (int(x) for x in head)
    except ValueError:
        raise ParseError("header", f"non-integer header field in {lines[0]!r}") from None
    if q < 2 or n < 1 or m < 0:
        raise ParseError("header", f"implausible header values q={q} n={n} M={m}")
    body = lines[1:]
    if len(body) != m:
        raise ParseError("length", f"header promises {m} words, found {len(body)}")
    words = []
    for ln in body:
        try:
            w = tuple(int(x) for x in ln.split())
        except ValueError:
            raise ParseError("length", f"non-integer symbol in line {ln!r}") from None
        if len(w) != n:
            raise ParseError("length", f"word {w} has length {len(w)}, expected {n}")
        for s in w:
            if not 0 <= s < q:
                raise ParseError("symbol-range", f"symbol {s} out of range for q={q}")
        words.append(w)
    if len(set(words)) != len(words):
        dup = next(w for w in words if words.count(w) > 1)
        raise ParseError("duplicate", f"duplicate word {dup}")
    return Code.from_words(words, q, n)


def emit_code(code: Code) -> str:
    """Emit the plain-text code format; inverse of parse_code up to comments."""
    out = [f"{code.params.q} {code.params.n} {code.size}"]
    for w in code.words:
        out.append(" ".join(str(s) for s in w))
    return "\n".join(out) + "\n"
