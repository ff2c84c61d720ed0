"""Symmetric (mu,q)-nets, generalized Hadamard matrices, and the
correspondence between nets and codes.

A symmetric (mu,q)-net is a design on mu*q**2 points whose blocks have
size mu*q, split into mu*q block parallel classes, with blocks from
different classes meeting in exactly mu points, and with point parallel
classes of size q such that points of one class never share a block
while points of different classes share exactly mu.  Such nets are in
one-to-one correspondence with (mu*q, mu*q - mu)_q codes of size mu*q**2:
grouping code words by the distance-n relation and writing each word as
an indicator row vector yields the incidence matrix, and the inverse
reads words back off a row/column arrangement whose q x q cells are
permutation matrices.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .codes import Code, CodeParams, Word, hamming_distance
from .errors import ParseError, StructureError

__all__ = [
    "Group",
    "GeneralizedHadamard",
    "SymmetricNet",
    "NetAxiomReport",
    "WordPartition",
    "verify_gh",
    "gh_expand",
    "verify_net_axioms",
    "gram_check",
    "partition_words",
    "code_to_net",
    "net_to_code",
    "net_isomorphic",
    "parse_net",
    "emit_net",
    "parse_gh",
    "emit_gh",
]


@dataclass(frozen=True)
class Group:
    """Finite group as a Cayley table of element indices, identity 0."""

    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        t = self.table
        k = len(t)
        if k == 0 or any(len(row) != k for row in t):
            raise StructureError("Cayley table must be square and nonempty")
        if any(x < 0 or x >= k for row in t for x in row):
            raise StructureError("Cayley table entries must index elements")
        if any(t[0][b] != b or t[b][0] != b for b in range(k)):
            raise StructureError("element 0 must be the identity")
        for a in range(k):
            if sorted(t[a]) != list(range(k)) or sorted(
                t[b][a] for b in range(k)
            ) != list(range(k)):
                raise StructureError("Cayley table rows and columns must permute")
        for a in range(k):
            for b in range(k):
                for c in range(k):
                    if t[t[a][b]][c] != t[a][t[b][c]]:
                        raise StructureError("Cayley table is not associative")

    @classmethod
    def cyclic(cls, k: int) -> "Group":
        return cls(tuple(tuple((a + b) % k for b in range(k)) for a in range(k)))

    @classmethod
    def klein4(cls) -> "Group":
        # Z2 x Z2: composition is xor on the element index
        return cls(tuple(tuple(a ^ b for b in range(4)) for a in range(4)))

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.table[a].index(0)


@dataclass(frozen=True)
class GeneralizedHadamard:
    """Square matrix over a group, one entry per cell by element index."""

    group: Group
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if n == 0 or any(len(row) != n for row in self.entries):
            raise StructureError("matrix must be square and nonempty")
        k = self.group.order
        if n % k != 0:
            raise StructureError(f"group order {k} must divide matrix order {n}")
        if any(x < 0 or x >= k for row in self.entries for x in row):
            raise StructureError("entries must be group element indices")

    @property
    def order(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class SymmetricNet:
    """Incidence matrix of a claimed symmetric (mu,q)-net.

    Rows are points and columns are blocks.  Parallel classes are
    optional; when absent the verification operations discover them.
    Construction checks shape only, so invalid incidences can be built
    and then examined with verify_net_axioms.
    """

    mu: int
    q: int
    incidence: tuple[tuple[int, ...], ...]
    point_classes: tuple[tuple[int, ...], ...] | None = None
    block_classes: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.mu < 1 or self.q < 1:
            raise StructureError("parameters mu and q must be positive")
        v = self.mu * self.q * self.q
        if len(self.incidence) != v or any(len(r) != v for r in self.incidence):
            raise StructureError(f"incidence must be {v} x {v}")
        if any(x not in (0, 1) for r in self.incidence for x in r):
            raise StructureError("incidence entries must be 0 or 1")
        for classes, count in (
            (self.point_classes, v),
            (self.block_classes, v),
        ):
            if classes is not None:
                flat = sorted(i for cl in classes for i in cl)
                if flat != list(range(count)) or any(
                    len(cl) != self.q for cl in classes
                ):
                    raise StructureError(
                        "classes must partition the index range into q-sets"
                    )

    @property
    def order(self) -> int:
        return len(self.incidence)

    def array(self) -> np.ndarray:
        return np.array(self.incidence, dtype=np.int64)


@dataclass(frozen=True)
class NetAxiomReport:
    """Outcome of the axiom checks on one incidence matrix.

    ``s_prime`` is the single pairwise condition (every point pair in at
    most mu common blocks) that can replace s2 and s3; agreement between
    the two routes is reported per instance.
    """

    mu: int
    q: int
    sizes_ok: bool
    s1: bool
    s2: bool
    s3: bool
    s_prime: bool
    point_classes: tuple[tuple[int, ...], ...] | None
    block_classes: tuple[tuple[int, ...], ...] | None

    @property
    def s_prime_agrees(self) -> bool:
        return self.s_prime == (self.s2 and self.s3)

    @property
    def ok(self) -> bool:
        return self.sizes_ok and self.s1 and self.s2 and self.s3


@dataclass(frozen=True)
class WordPartition:
    """Partition of a size-qn code into n groups of q words with all
    within-group distances n and all cross-group distances d."""

    params: CodeParams
    classes: tuple[tuple[Word, ...], ...]


def verify_gh(gh: GeneralizedHadamard) -> bool:
    """Row-difference balance: for any two rows, entrywise differences
    hit every group element equally often."""
    g, m, n = gh.group, gh.entries, gh.order
    per = n // g.order
    for i in range(n):
        for k in range(i + 1, n):
            counts = [0] * g.order
            for j in range(n):
                counts[g.mul(m[i][j], g.inv(m[k][j]))] += 1
            if any(c != per for c in counts):
                return False
    return True


def gh_expand(gh: GeneralizedHadamard) -> SymmetricNet:
    """Blow each entry up to its left-regular permutation matrix.

    The image of entry g is the q x q matrix with 1 at (x, y) iff
    x = g*y, so entry products map to matrix products and the result is
    the incidence matrix of a symmetric (n/|G|, |G|)-net.
    """
    if not verify_gh(gh):
        raise StructureError("matrix fails the generalized Hadamard balance test")
    g, n, q = gh.group, gh.order, gh.group.order
    mu = n // q
    size = n * q
    rows = [[0] * size for _ in range(size)]
    for i in range(n):
        for j in range(n):
            e = gh.entries[i][j]
            for y in range(q):
                rows[i * q + g.mul(e, y)][j * q + y] = 1
    groups = tuple(tuple(range(i * q, (i + 1) * q)) for i in range(n))
    return SymmetricNet(
        mu, q, tuple(tuple(r) for r in rows), point_classes=groups, block_classes=groups
    )


def _zero_graph_classes(gram: np.ndarray, q: int):
    """Classes of the relation 'zero product', if they tile the index
    set into q-cliques; None otherwise."""
    v = gram.shape[0]
    unseen = set(range(v))
    classes = []
    while unseen:
        i = min(unseen)
        mates = [j for j in range(v) if j == i or gram[i, j] == 0]
        if len(mates) != q or any(m not in unseen for m in mates):
            return None
        for a, b in itertools.combinations(mates, 2):
            if gram[a, b] != 0:
                return None
        unseen.difference_update(mates)
        classes.append(tuple(mates))
    return tuple(classes)


def _cover_classes(n_arr: np.ndarray, q: int):
    """Partition block columns into parallel classes by backtracking.

    Each class must hold q pairwise disjoint blocks covering every
    point.  Exhaustive, so a None answer is a proof of nonexistence.
    """
    v = n_arr.shape[0]
    cols = [n_arr[:, j] for j in range(v)]
    disjoint = (n_arr.T @ n_arr) == 0
    ones = np.ones(v, dtype=np.int64)

    def extend(remaining, classes):
        if not remaining:
            return classes
        first = remaining[0]
        pool = [j for j in remaining[1:] if disjoint[first, j]]
        for members in itertools.combinations(pool, q - 1):
            group = (first, *members)
            if any(not disjoint[a, b] for a, b in itertools.combinations(members, 2)):
                continue
            if not np.array_equal(sum(cols[j] for j in group), ones):
                continue
            rest = [j for j in remaining if j not in group]
            found = extend(rest, classes + [group])
            if found is not None:
                return found
        return None

    got = extend(list(range(v)), [])
    return None if got is None else tuple(tuple(c) for c in got)


def _block_classes(net: SymmetricNet, arr: np.ndarray):
    if net.block_classes is not None:
        return net.block_classes
    simple = _zero_graph_classes(arr.T @ arr, net.q)
    if simple is not None:
        return simple
    return _cover_classes(arr, net.q)


def _point_classes(net: SymmetricNet, gram: np.ndarray):
    if net.point_classes is not None:
        return net.point_classes
    return _zero_graph_classes(gram, net.q)


def verify_net_axioms(net: SymmetricNet) -> NetAxiomReport:
    """Check the parallel-class axioms and the pairwise replacement."""
    arr = net.array()
    mu, q = net.mu, net.q
    v = net.order
    sizes_ok = bool(
        (arr.sum(axis=0) == mu * q).all() and (arr.sum(axis=1) == mu * q).all()
    )

    bclasses = _block_classes(net, arr)
    s1 = bclasses is not None and all(
        np.array_equal(
            sum(arr[:, j] for j in cl), np.ones(v, dtype=np.int64)
        )
        for cl in bclasses
    )

    s2 = False
    if s1:
        col_gram = arr.T @ arr
        class_of = {j: i for i, cl in enumerate(bclasses) for j in cl}
        s2 = all(
            col_gram[a, b] == mu
            for a in range(v)
            for b in range(a + 1, v)
            if class_of[a] != class_of[b]
        )

    gram = arr @ arr.T
    pclasses = _point_classes(net, gram)
    s3 = False
    if pclasses is not None:
        class_of = {i: c for c, cl in enumerate(pclasses) for i in cl}
        s3 = all(
            gram[a, b] == (0 if class_of[a] == class_of[b] else mu)
            for a in range(v)
            for b in range(a + 1, v)
        )

    s_prime = bool((gram[~np.eye(v, dtype=bool)] <= mu).all())
    return NetAxiomReport(
        mu, q, sizes_ok, s1, s2, s3, s_prime, pclasses, bclasses
    )


def _arranged(net: SymmetricNet) -> np.ndarray:
    """Incidence with rows and columns grouped by parallel classes so
    that every q x q cell is a permutation matrix."""
    arr = net.array()
    pclasses = _point_classes(net, arr @ arr.T)
    bclasses = _block_classes(net, arr)
    if pclasses is None or bclasses is None:
        raise StructureError("no parallel-class arrangement exists")
    rows = [i for cl in sorted(pclasses, key=min) for i in sorted(cl)]
    cols = [j for cl in sorted(bclasses, key=min) for j in sorted(cl)]
    m = arr[np.ix_(rows, cols)]
    q, v = net.q, net.order
    for bi in range(v // q):
        for bj in range(v // q):
            cell = m[bi * q : (bi + 1) * q, bj * q : (bj + 1) * q]
            if not (
                (cell.sum(axis=0) == 1).all() and (cell.sum(axis=1) == 1).all()
            ):
                raise StructureError(
                    "no arrangement realizes the permutation-cell layout"
                )
    return m


def gram_check(net: SymmetricNet) -> bool:
    """True iff an arranged incidence M satisfies M M^T = M^T M = A,
    where A has mu*q identity cells on the diagonal and mu*J off it.

    False also covers incidences admitting no arrangement at all."""
    try:
        m = _arranged(net)
    except StructureError:
        return False
    mu, q, v = net.mu, net.q, net.order
    cell_diag = np.kron(np.eye(mu * q, dtype=np.int64), np.ones((q, q), np.int64))
    a = mu * (1 - cell_diag) + mu * q * np.eye(v, dtype=np.int64)
    return bool(np.array_equal(m @ m.T, a) and np.array_equal(m.T @ m, a))


def partition_words(code: Code) -> WordPartition:
    """Group words by the distance-n relation and validate the layout
    forced on maximal codes at qd = (q-1)n."""
    q, n, d = code.params.q, code.params.n, code.params.d
    if q * d != (q - 1) * n:
        raise StructureError("parameters must satisfy qd = (q-1)n")
    if code.size != q * n:
        raise StructureError(f"code size {code.size} is not qn = {q * n}")
    words = code.words
    unseen = set(range(code.size))
    classes = []
    while unseen:
        i = min(unseen)
        mates = [
            j
            for j in sorted(unseen)
            if j == i or hamming_distance(words[i], words[j]) == n
        ]
        if len(mates) != q:
            raise StructureError(
                f"word {words[i]} lies in a distance-n group of size {len(mates)}, not {q}"
            )
        unseen.difference_update(mates)
        classes.append(tuple(words[j] for j in mates))
    for ca, cb in itertools.combinations(classes, 2):
        for u, v in itertools.product(ca, cb):
            if hamming_distance(u, v) != d:
                raise StructureError(
                    f"cross-group distance {hamming_distance(u, v)} differs from d={d}"
                )
    for cl in classes:
        for u, v in itertools.combinations(cl, 2):
            if hamming_distance(u, v) != n:
                raise StructureError("within-group distance differs from n")
    return WordPartition(code.params, tuple(classes))


def code_to_net(code: Code) -> SymmetricNet:
    """Indicator-vector incidence of a maximal code, stacked by the
    distance-n groups; groups are ordered by their least word."""
    part = partition_words(code)
    q, n = code.params.q, code.params.n
    mu = n - code.params.d
    v = q * n
    classes = sorted(part.classes, key=lambda cl: min(cl))
    rows = []
    for cl in classes:
        for w in sorted(cl):
            row = [0] * v
            for j, s in enumerate(w):
                row[j * q + s] = 1
            rows.append(tuple(row))
    groups = tuple(tuple(range(i * q, (i + 1) * q)) for i in range(n))
    net = SymmetricNet(
        mu, q, tuple(rows), point_classes=groups, block_classes=groups
    )
    if not gram_check(net):
        raise StructureError("constructed incidence fails the Gram condition")
    return net


def net_to_code(net: SymmetricNet) -> Code:
    """Read the words back off an arranged incidence matrix."""
    m = _arranged(net)
    mu, q = net.mu, net.q
    n = mu * q
    words = []
    for r in range(net.order):
        row = m[r]
        word = []
        for j in range(n):
            cell = row[j * q : (j + 1) * q]
            word.append(int(np.nonzero(cell)[0][0]))
        words.append(tuple(word))
    return Code.from_words(words, q, n, d=n - mu)


def net_isomorphic(a: SymmetricNet, b: SymmetricNet) -> bool:
    """Decide incidence isomorphism by backtracking over point maps.

    Point images must preserve the common-block matrix.  Each source
    block keeps a bitmask of still-possible image blocks, narrowed with
    every point assignment; an empty mask prunes the branch, and a
    complete map is accepted when the block multisets coincide, which is
    exactly when a column permutation exists.
    """
    if (a.mu, a.q) != (b.mu, b.q):
        return False
    na, nb = a.array(), b.array()
    v = a.order
    if sorted(na.sum(axis=0)) != sorted(nb.sum(axis=0)) or sorted(
        na.sum(axis=1)
    ) != sorted(nb.sum(axis=1)):
        return False
    ga, gb = na @ na.T, nb @ nb.T
    sig_a = [tuple(sorted(ga[i])) for i in range(v)]
    sig_b = [tuple(sorted(gb[i])) for i in range(v)]
    if sorted(sig_a) != sorted(sig_b):
        return False

    cols_at_a = [tuple(int(j) for j in np.nonzero(na[i])[0]) for i in range(v)]
    in_col_b = [0] * v
    for p in range(v):
        for j in np.nonzero(nb[p])[0]:
            in_col_b[p] |= 1 << int(j)
    bcols = sorted(tuple(int(i) for i in np.nonzero(nb[:, j])[0]) for j in range(v))
    full = (1 << v) - 1
    perm = [-1] * v
    used = [False] * v

    def blocks_match():
        acols = sorted(
            tuple(sorted(perm[i] for i in np.nonzero(na[:, j])[0]))
            for j in range(v)
        )
        return acols == bcols

    def place(i, cand):
        if i == v:
            return blocks_match()
        for p in range(v):
            if used[p] or sig_a[i] != sig_b[p]:
                continue
            if any(ga[i, j] != gb[p, perm[j]] for j in range(i)):
                continue
            mask = in_col_b[p]
            nxt = list(cand)
            hit = set(cols_at_a[i])
            ok = True
            for j in range(v):
                nxt[j] &= mask if j in hit else full ^ mask
                if nxt[j] == 0:
                    ok = False
                    break
            if not ok:
                continue
            perm[i] = p
            used[p] = True
            if place(i + 1, nxt):
                return True
            used[p] = False
        perm[i] = -1
        return False

    return place(0, [full] * v)


def parse_net(text: str) -> SymmetricNet:
    """Read a net file: one `mu q` header line, then the 0/1 rows."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ParseError("header", "empty net file")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("header", f"expected 'mu q', got {lines[0]!r}")
    try:
        mu, q = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError("header", f"non-integer header {lines[0]!r}") from exc
    if mu < 1 or q < 1:
        raise ParseError("header", f"mu and q must be positive, got {lines[0]!r}")
    v = mu * q * q
    if len(lines) - 1 != v:
        raise ParseError("length", f"expected {v} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        compact = ln.replace(" ", "")
        if len(compact) != v:
            raise ParseError("length", f"row {ln!r} does not have {v} entries")
        if any(ch not in "01" for ch in compact):
            raise ParseError("symbol-range", f"row {ln!r} has entries outside 0/1")
        rows.append(tuple(int(ch) for ch in compact))
    return SymmetricNet(mu, q, tuple(rows))


def emit_net(net: SymmetricNet) -> str:
    lines = [f"{net.mu} {net.q}"]
    lines += ["".join(str(x) for x in row) for row in net.incidence]
    return "\n".join(lines) + "\n"


def _parse_group(spec: str, k: int, rows: list[str]):
    """Group from a spec token; table specs consume rows from the file."""
    if spec.startswith("cyclic:"):
        try:
            size = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ParseError("group", f"bad cyclic spec {spec!r}") from exc
        if size != k:
            raise ParseError("group", f"cyclic order {size} contradicts header {k}")
        return Group.cyclic(k), rows
    if spec == "klein4":
        if k != 4:
            raise ParseError("group", f"klein4 needs order 4, header says {k}")
        return Group.klein4(), rows
    if spec == "table":
        if len(rows) < k:
            raise ParseError("group", f"table spec needs {k} Cayley rows")
        table = []
        for ln in rows[:k]:
            try:
                table.append(tuple(int(t) for t in ln.split()))
            except ValueError as exc:
                raise ParseError("group", f"bad Cayley row {ln!r}") from exc
        try:
            return Group(tuple(table)), rows[k:]
        except StructureError as exc:
            raise ParseError("group", str(exc)) from exc
    raise ParseError("group", f"unknown group spec {spec!r}")


def parse_gh(text: str) -> GeneralizedHadamard:
    """Read a GH file: `n |G|`, a group spec, then the matrix rows."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if len(lines) < 2:
        raise ParseError("header", "expected a header line and a group spec")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("header", f"expected 'n |G|', got {lines[0]!r}")
    try:
        n, k = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError("header", f"non-integer header {lines[0]!r}") from exc
    if n < 1 or k < 1 or n % k:
        raise ParseError("header", f"|G| must divide a positive n, got {lines[0]!r}")
    # bounds the group order by the file's length before a group is built
    if len(lines) - 2 < n:
        raise ParseError("length", f"expected {n} matrix rows, found {len(lines) - 2}")
    group, rest = _parse_group(lines[1], k, lines[2:])
    if len(rest) != n:
        raise ParseError("length", f"expected {n} matrix rows, found {len(rest)}")
    entries = []
    for ln in rest:
        toks = ln.split()
        if len(toks) == 1 and len(toks[0]) == n and k <= 10:
            toks = list(toks[0])
        if len(toks) != n:
            raise ParseError("length", f"row {ln!r} does not have {n} entries")
        try:
            row = tuple(int(t) for t in toks)
        except ValueError as exc:
            raise ParseError("symbol-range", f"non-integer entry in {ln!r}") from exc
        if any(not 0 <= x < k for x in row):
            raise ParseError("symbol-range", f"entry of {ln!r} is not below {k}")
        entries.append(row)
    return GeneralizedHadamard(group, tuple(entries))


def emit_gh(gh: GeneralizedHadamard, group_spec: str | None = None) -> str:
    """Write a GH file; the group defaults to an explicit Cayley table."""
    k = gh.group.order
    lines = [f"{gh.order} {k}"]
    if group_spec is None:
        group_spec = "table"
    lines.append(group_spec)
    if group_spec == "table":
        lines += [" ".join(str(x) for x in row) for row in gh.group.table]
    lines += [" ".join(str(x) for x in row) for row in gh.entries]
    return "\n".join(lines) + "\n"
