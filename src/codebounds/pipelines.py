"""Certified end-to-end verifications of the package's headline bounds.

Each pipeline replays one argument from scratch: A_5(8,6) <= 65 by the
per-column occupancy count, A_3(16,11) <= 29 by the equidistance parity
count, A_4(9,6) <= 120 by the symmetric-net block count, and the family
of bounds they induce through the divisibility argument and column
recursion.  Every numeric claim is recomputed, never transcribed.  Each
pipeline body is a generator that yields its steps as ``(desc, op, data,
ok)``; one runner, ``_run``, looks up the registry input, numbers the
steps 1..k and builds a Certificate whose verdict is ``verified`` only
when every step passed.  Serialization is deterministic, so two runs
differ at most in the environment block.
"""
from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from math import comb
from typing import Any, Callable, Mapping

from . import __version__
from .bounds import (
    column_recursion_bound,
    divisibility_bound,
    equidistance_forced,
    h_table,
    pair_count_bounds,
    registry_lookup,
)
from .canonical import _canonize, canonical_form
from .codes import min_distance
from .errors import RegistryMissError
from .fileio import atomic_write_text, packaged_text
from .nets import gh_expand, gram_check, net_to_code, parse_gh, verify_gh, verify_net_axioms
from .search import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_TIME_LIMIT,
    EnumerationTask,
    _Canonized,
    alpha_stats,
    candidate_count,
    codes_by_deletion,
    enumerate_codes,
    extend_classes,
    extend_deficient,
)

__all__ = [
    "CertInput",
    "CertStep",
    "Certificate",
    "IrregularPairAudit",
    "PIPELINES",
    "f_eval",
    "profile_tuples",
    "run_pipeline",
    "verify_inequality_17",
    "verify_a5_8_6",
    "verify_a3_16_11",
    "verify_a4_9_6",
    "verify_divisibility_family",
    "write_certificate",
]

VERDICTS = ("verified", "refuted", "inapplicable")

# Table of h(k) = max(0, budget) values for (7,6)_5 codes of size k,
# listed for k = 15 down to 5; the pipeline recomputes and compares.
H_TABLE_CLAIM = (0, 0, 1, 3, 6, 10, 8, 7, 7, 8, 10)

# The nine new upper bounds, in presentation order, together with how
# each one is established here.
NEW_BOUNDS_CLAIM = (
    ("A_5(8,6)", 65, "input"),
    ("A_5(9,6)", 325, "recursion"),
    ("A_5(10,6)", 1625, "recursion"),
    ("A_5(11,6)", 8125, "recursion"),
    ("A_4(9,6)", 120, "input"),
    ("A_4(10,6)", 480, "recursion"),
    ("A_4(11,8)", 60, "divisibility"),
    ("A_4(12,8)", 240, "recursion"),
    ("A_3(16,11)", 29, "input"),
)


@dataclass(frozen=True)
class CertInput:
    """A constant consumed by a pipeline, with its provenance."""

    name: str
    value: Any
    provenance: str


@dataclass(frozen=True)
class CertStep:
    """One recomputed claim: a description, the operation that produced
    the data, the data itself, and whether the claim held."""

    id: int
    desc: str
    op: str
    data: Mapping[str, Any]
    ok: bool


@dataclass(frozen=True)
class Certificate:
    theorem_id: str
    inputs: tuple[CertInput, ...]
    steps: tuple[CertStep, ...]
    verdict: str
    environment: Mapping[str, Any]

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "verified" and not all(s.ok for s in self.steps):
            raise ValueError("a verified certificate cannot contain a failed step")

    @property
    def ok(self) -> bool:
        return self.verdict == "verified"

    @property
    def exit_code(self) -> int:
        return {"verified": 0, "refuted": 1, "inapplicable": 2}[self.verdict]

    def to_json(self) -> str:
        payload = {
            "theorem_id": self.theorem_id,
            "inputs": [
                {"name": i.name, "value": i.value, "provenance": i.provenance}
                for i in self.inputs
            ],
            "steps": [
                {"id": s.id, "desc": s.desc, "op": s.op, "data": dict(s.data), "ok": s.ok}
                for s in self.steps
            ],
            "verdict": self.verdict,
            "environment": dict(self.environment),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [f"certificate {self.theorem_id}: {self.verdict.upper()}"]
        if self.inputs:
            lines.append("inputs:")
            for i in self.inputs:
                lines.append(f"  {i.name} = {i.value}")
                lines.append(f"    provenance: {i.provenance}")
        lines.append("steps:")
        for s in self.steps:
            mark = "pass" if s.ok else "FAIL"
            lines.append(f"  {s.id}. [{mark}] {s.desc} ({s.op})")
            for key in sorted(s.data):
                lines.append(f"       {key}: {json.dumps(s.data[key])}")
        lines.append(f"verdict: {self.verdict}")
        lines.append("environment:")
        for key in sorted(self.environment):
            lines.append(f"  {key}: {self.environment[key]}")
        return "\n".join(lines) + "\n"


def write_certificate(cert: Certificate, directory: str | os.PathLike) -> tuple[str, str]:
    """Write ``<theorem_id>.cert.json`` and ``.txt`` into ``directory``."""
    base = os.path.join(os.fspath(directory), f"{cert.theorem_id}.cert")
    atomic_write_text(base + ".json", cert.to_json())
    atomic_write_text(base + ".txt", cert.to_text())
    return base + ".json", base + ".txt"


def _run(theorem_id, workers, steps, lookup=None, inputs=()) -> Certificate:
    """Number the steps a pipeline body yields and build its certificate.

    ``steps`` is a generator function yielding ``(desc, op, data, ok)``.
    With ``lookup=(q, n, d)`` the registry entry for A_q(n,d) becomes the
    certificate's one input and the body's one argument; a registry miss
    gives a one-step ``inapplicable`` certificate instead.
    """
    environment = {
        "generator": f"codebounds {__version__}",
        "workers": workers,
        "node_budget": DEFAULT_NODE_BUDGET,
        "time_limit": DEFAULT_TIME_LIMIT,
    }
    verdict = None
    if lookup is None:
        body = steps()
    else:
        try:
            entry = registry_lookup(*lookup)
        except RegistryMissError as exc:
            verdict = "inapplicable"
            body = [
                ("look up a required known value", "registry_lookup", {"error": str(exc)}, False)
            ]
        else:
            inputs = (CertInput("A_%d(%d,%d)" % lookup, entry.value, entry.provenance),)
            body = steps(entry)
    numbered = tuple(CertStep(i, *step) for i, step in enumerate(body, 1))
    if verdict is None:
        verdict = "verified" if all(s.ok for s in numbered) else "refuted"
    return Certificate(theorem_id, tuple(inputs), numbered, verdict, environment)


# --- the A_5(8,6) <= 65 argument -------------------------------------------


def f_eval(x: int, y: int) -> int:
    """Lower bound on the irregular pairs of a size-65 (8,6)_5 code whose
    column has x symbols occurring 15 times and y occurring 14 times."""
    if x < 0 or y < 0:
        raise ValueError(f"need x, y >= 0, got ({x}, {y})")
    value = (
        (3 * x + y) * (65 - 15 * x - 14 * y)
        + 45 * comb(x, 2)
        + 14 * comb(y, 2)
        + 42 * x * y
        - 42 * x
        - 8 * y
    )
    if y > 0 and x == 0:
        value += 12
    return value


def profile_tuples() -> tuple[tuple[int, ...], ...]:
    """All column occupancy profiles of a size-65 code over 5 symbols.

    A profile records, indexed by k-1, how many symbols occur exactly k
    times in the column; each symbol occurs between 5 and 15 times, the
    five counts sum to 65.  There are exactly 30.
    """
    out = []
    for combo in itertools.combinations_with_replacement(range(5, 16), 5):
        if sum(combo) == 65:
            profile = [0] * 15
            for k in combo:
                profile[k - 1] += 1
            out.append(tuple(profile))
    return tuple(sorted(out))


@dataclass(frozen=True)
class IrregularPairAudit:
    """One profile pair of the aggregate inequality.

    ``b`` is the profile of a column maximizing f, with x 15-blocks and
    y 14-blocks, so f(x,y) bounds the irregular pairs X from below;
    ``u_value`` is the aggregated upper bound on |X| when the other
    seven columns all carry profile ``a``.  The argument needs u < f.
    """

    x: int
    y: int
    f_value: int
    u_value: int
    profile_a: tuple[int, ...]
    profile_b: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.u_value < self.f_value

    @property
    def slack(self) -> int:
        return self.f_value - self.u_value


def verify_inequality_17(step_id: int = 1) -> CertStep:
    """Check u < f over every ordered profile pair where it is needed.

    A pair (a, b) matters when f(b) is a candidate column maximum, that
    is f(a) <= f(b) and f(b) != 0; the upper aggregate charges 7a_k + b_k
    codes of size k with h(k) irregular pairs each.
    """
    return CertStep(step_id, *_inequality_17())


def _inequality_17():
    ks = tuple(range(5, 16))
    h = {k: h_table(5, 7, 6, k) for k in ks}
    profiles = profile_tuples()
    applicable = 0
    violations = []
    tightest = None
    for a, b in itertools.product(profiles, repeat=2):
        f_b = f_eval(b[14], b[13])
        if f_b == 0 or f_eval(a[14], a[13]) > f_b:
            continue
        applicable += 1
        u = sum((7 * a[k - 1] + b[k - 1]) * h[k] for k in ks)
        audit = IrregularPairAudit(b[14], b[13], f_b, u, a, b)
        if not audit.ok:
            violations.append(audit)
        if tightest is None or audit.slack < tightest.slack:
            tightest = audit
    data = {
        "profiles": len(profiles),
        "ordered_pairs": len(profiles) ** 2,
        "applicable_pairs": applicable,
        "violations": [
            {"a": list(v.profile_a), "b": list(v.profile_b), "f": v.f_value, "u": v.u_value}
            for v in violations
        ],
        "min_slack": None if tightest is None else tightest.slack,
        "tightest_pair": None
        if tightest is None
        else {"a": list(tightest.profile_a), "b": list(tightest.profile_b)},
    }
    ok = not violations and len(profiles) == 30 and applicable > 0
    return (
        "aggregate irregular-pair inequality over all ordered profile pairs",
        "inequality-17",
        data,
        ok,
    )


def verify_a5_8_6(workers: int = 1) -> Certificate:
    """Certify A_5(8,6) <= 65 by ruling out 15- and 14-blocks."""
    return _run("a5_8_6", workers, lambda entry: _a5_8_6(entry, workers), lookup=(5, 7, 6))


def _a5_8_6(entry, workers):
    # one orderly search, at size 14; size 15 is its one-word extension
    size14_direct = enumerate_codes(EnumerationTask(5, 7, 6, entry.value - 1), workers)
    size15 = extend_classes(size14_direct, workers)
    yield (
        "classify (7,6)_5 codes of size 15 up to equivalence",
        "enumerate_codes",
        {"classes": len(size15), "claimed": 7},
        len(size15) == 7,
    )

    by_deletion = codes_by_deletion(size15)
    identical = tuple(c.words for c in by_deletion) == tuple(
        c.words for c in size14_direct
    )
    yield (
        "classify (7,6)_5 codes of size 14: word deletion and direct "
        "enumeration must agree",
        "codes_by_deletion",
        {
            "deletion_classes": len(by_deletion),
            "direct_classes": len(size14_direct),
            "canonical_sets_identical": identical,
            "deletion_cap": 7 * 15,
        },
        identical and len(by_deletion) <= 7 * 15,
    )

    stats15 = [alpha_stats(c) for c in size15]
    stats14 = [alpha_stats(c) for c in size14_direct]
    counts = {
        "size15_alpha0": [s.count_eq(0) for s in stats15],
        "size15_alpha1": [s.count_eq(1) for s in stats15],
        "size15_alpha2": [s.count_eq(2) for s in stats15],
        "size14_alpha0": [s.count_eq(0) for s in stats14],
        "size14_alpha_le1": [s.count_le(1) for s in stats14],
    }
    caps = {
        "size15_alpha0": 0,
        "size15_alpha1": 21,
        "size15_alpha2": 0,
        "size14_alpha0": 8,
        "size14_alpha_le1": 39,
    }
    yield (
        "alpha statistics of the far-word sets: no completion for "
        "size-15 classes, few near-completions for size-14 classes",
        "alpha_stats",
        {"threshold": 5, **counts, "caps": caps},
        all(v <= caps[key] for key, values in counts.items() for v in values),
    )

    ks = tuple(range(15, 4, -1))
    computed_h = tuple(h_table(5, 7, 6, k) for k in ks)
    yield (
        "irregular-pair budgets h(k) for (7,6)_5 codes of size k",
        "h_table",
        {"k": list(ks), "h": list(computed_h), "claimed": list(H_TABLE_CLAIM)},
        computed_h == H_TABLE_CLAIM,
    )

    yield _inequality_17()

    feasible = [
        (x, y)
        for x in range(0, 5)
        for y in range(0, (65 - 15 * x) // 14 + 1)
    ]
    positive = all(f_eval(x, y) > 0 for x, y in feasible if (x, y) != (0, 0))
    zero_profiles = [p for p in profile_tuples() if f_eval(p[14], p[13]) == 0]
    forced = all(p[14] == 0 and p[13] == 0 for p in zero_profiles)
    yield (
        "f vanishes only at (0,0), so every column of a size-65 code "
        "carries each symbol exactly 13 times and no larger code exists",
        "f_eval",
        {
            "feasible_xy": len(feasible),
            "f_zero_only_at_origin": positive and f_eval(0, 0) == 0,
            "zero_profiles_have_no_15_or_14_blocks": forced,
            "bound": 65,
        },
        positive and f_eval(0, 0) == 0 and forced,
    )


# --- the A_3(16,11) <= 29 argument ------------------------------------------


def verify_a3_16_11(workers: int = 1) -> Certificate:
    """Certify A_3(16,11) <= 29 by the ones-count parity contradiction."""
    return _run("a3_16_11", workers, _a3_16_11, lookup=(3, 15, 11))


def _a3_16_11(entry):
    a = entry.value
    yield (
        "column blocks of a size-30 (16,11)_3 code puncture to "
        "(15,11)_3 codes, so all three have exactly 10 words",
        "registry_lookup",
        {"block_cap": a, "hypothetical_size": 30, "balance_forced": 3 * a == 30},
        3 * a == 30,
    )

    pcb = pair_count_bounds(3, 15, 11, a)
    forced = equidistance_forced(3, 15, 11, a)
    yield (
        "pair counting forces every size-10 (15,11)_3 code to be equidistant",
        "equidistance_forced",
        {"L": pcb.L, "R": pcb.R, "budget": pcb.budget, "forced": forced},
        forced and pcb.L == 180 and pcb.R == 180,
    )

    # Words sharing a column symbol lie in a common block, and the block
    # punctures to an equidistant code, so they agree in exactly n - d
    # positions; words sharing no symbol agree in none.
    n, d, columns = 16, 11, 16
    agreements = (0, n - d)
    ones_by_columns = columns * a
    residue_columns = ones_by_columns % 5
    residue_words = n % 5
    contradiction = (
        all(v % 5 == 0 for v in agreements) and residue_columns != residue_words
    )
    yield (
        "count the ones of a size-30 code containing the all-ones "
        "word: columns give a multiple of 5, words do not",
        "parity_count",
        {
            "ones_per_column": a,
            "columns": columns,
            "total_ones_by_columns": ones_by_columns,
            "columns_residue_mod_5": residue_columns,
            "ones_of_all_ones_word": n,
            "other_word_agreements": list(agreements),
            "words_residue_mod_5": residue_words,
            "contradiction": contradiction,
            "bound": 29,
        },
        contradiction,
    )


# --- the A_4(9,6) <= 120 argument -------------------------------------------


def verify_a4_9_6(workers: int = 1) -> Certificate:
    """Certify A_4(9,6) <= 120 by ruling out 31- and 32-blocks."""
    return _run("a4_9_6", workers, _a4_9_6, lookup=(4, 8, 6))


def _a4_9_6(entry):
    gh = parse_gh(packaged_text("gh8_klein4.gh"))
    gh_ok = verify_gh(gh)
    net = gh_expand(gh)
    report = verify_net_axioms(net)
    gram_ok = gram_check(net)
    code32 = net_to_code(net)
    p = code32.params
    dmin = min_distance(code32)
    yield (
        "expand the order-8 generalized Hadamard matrix over the "
        "Klein four-group to a symmetric (2,4)-net and read off the "
        "size-32 (8,6)_4 code",
        "gh_expand",
        {
            "gh_order": gh.order,
            "group_order": gh.group.order,
            "gh_ok": gh_ok,
            "net_axioms_ok": report.ok,
            "gram_ok": gram_ok,
            "q": p.q,
            "n": p.n,
            "size": code32.size,
            "min_distance": dmin,
        },
        gh_ok
        and report.ok
        and gram_ok
        and (p.q, p.n, code32.size, dmin) == (4, 8, 32, 6),
    )

    yield (
        "the size-32 (8,6)_4 code is unique up to equivalence",
        "registry_lookup",
        {"value": entry.value, "kind": entry.kind, "unique": entry.unique},
        entry.value == 32 and entry.kind == "exact" and entry.unique,
    )

    parent32 = _Canonized(*_canonize(code32))
    classes31 = codes_by_deletion([parent32])
    closes = all(
        canonical_form(extend_deficient(c)) == parent32.form for c in classes31
    )
    yield (
        "classify size-31 codes by word deletion; each extends back "
        "to the size-32 code, so the classification is exhaustive",
        "codes_by_deletion",
        {
            "classes": len(classes31),
            "cap": 32,
            "extension_closes": closes,
        },
        0 < len(classes31) <= 32 and closes,
    )

    count32 = candidate_count(code32, 5)
    counts31 = [candidate_count(c, 5) for c in classes31]
    max_count = max([count32, *counts31])
    claimed = max_count <= 25
    sufficient = max_count < 31
    yield (
        "count ambient words at distance >= 5 from every word of the "
        "size-32 code and of each size-31 class",
        "candidate_count",
        {
            "threshold": 5,
            "count_size_32": count32,
            "counts_size_31": counts31,
            "max_count": max_count,
            "claimed_cap": 25,
            "claim_ok": claimed,
            "sufficient_cap": 31,
            "sufficient_ok": sufficient,
            "divergence": sufficient and not claimed,
        },
        sufficient,
    )

    cases = []
    for block, cap in ((31, max(counts31)), (32, count32)):
        outside = 120 - block
        capacity = 3 * cap
        cases.append(
            {
                "block": block,
                "outside_words": outside,
                "candidates": cap,
                "capacity": capacity,
                "contradiction": capacity < outside,
            }
        )
    yield (
        "a 31- or 32-block in a size-120 (9,6)_4 code leaves more "
        "outside words than candidate slots, so no block exists and "
        "the bound follows",
        "block_count",
        {"cases": cases, "bound": 120},
        all(c["contradiction"] for c in cases),
    )


# --- the composed family ----------------------------------------------------

FAMILY_INPUTS = (
    CertInput("A_5(8,6)", 65, "a5_8_6 pipeline: per-column occupancy argument"),
    CertInput("A_4(9,6)", 120, "a4_9_6 pipeline: symmetric-net block argument"),
    CertInput("A_3(16,11)", 29, "a3_16_11 pipeline: ones-count parity argument"),
)


def verify_divisibility_family(workers: int = 1) -> Certificate:
    """Certify the remaining table rows: two divisibility bounds plus the
    column recursion closures of the three headline bounds."""
    return _run("divisibility_family", workers, _divisibility_family, inputs=FAMILY_INPUTS)


def _divisibility_family():
    known = {i.name: i.value for i in FAMILY_INPUTS}
    div1 = divisibility_bound(5, 8, 6)
    yield (
        "divisibility bound at (5,8,6); the occupancy argument later "
        "sharpens 70 to 65",
        "divisibility_bound",
        {
            "applicable": div1.applicable,
            "m": div1.m,
            "phi": [list(row) for row in div1.phi_table],
            "r": div1.r,
            "bound": div1.bound,
            "sharpened_to": known["A_5(8,6)"],
        },
        div1.applicable and div1.bound == 70,
    )

    div2 = divisibility_bound(4, 11, 8)
    known["A_4(11,8)"] = div2.bound
    yield (
        "divisibility bound at (4,11,8)",
        "divisibility_bound",
        {
            "applicable": div2.applicable,
            "m": div2.m,
            "phi": [list(row) for row in div2.phi_table],
            "r": div2.r,
            "bound": div2.bound,
        },
        div2.applicable and div2.bound == 60,
    )

    # each row extends an input, the divisibility bound or the row before
    recursions = []
    for name, q, base in (
        ("A_5(9,6)", 5, "A_5(8,6)"),
        ("A_5(10,6)", 5, "A_5(9,6)"),
        ("A_5(11,6)", 5, "A_5(10,6)"),
        ("A_4(10,6)", 4, "A_4(9,6)"),
        ("A_4(12,8)", 4, "A_4(11,8)"),
    ):
        known[name] = column_recursion_bound(q, known[base])
        recursions.append({"name": name, "q": q, "from": known[base], "bound": known[name]})
    rec_ok = [r["bound"] == r["q"] * r["from"] for r in recursions]
    yield (
        "close the family under the one-column recursion "
        "A_q(n,d) <= q * A_q(n-1,d)",
        "column_recursion_bound",
        {"derived": recursions},
        all(rec_ok),
    )

    rows = []
    match = True
    for name, claimed, via in NEW_BOUNDS_CLAIM:
        value = known.get(name)
        rows.append({"name": name, "bound": value, "claimed": claimed, "via": via})
        match = match and value == claimed
    yield (
        "cross-check the nine new upper bounds against the claimed table",
        "table_check",
        {"rows": rows, "match": match},
        match,
    )


PIPELINES: dict[str, Callable[..., Certificate]] = {
    "a5_8_6": verify_a5_8_6,
    "a3_16_11": verify_a3_16_11,
    "a4_9_6": verify_a4_9_6,
    "divisibility_family": verify_divisibility_family,
}


def run_pipeline(theorem_id: str, workers: int = 1) -> Certificate:
    """Dispatch by theorem id; unknown ids raise KeyError."""
    try:
        fn = PIPELINES[theorem_id]
    except KeyError:
        raise KeyError(
            f"unknown theorem id {theorem_id!r}; known: {', '.join(sorted(PIPELINES))}"
        ) from None
    return fn(workers=workers)
