"""Upper bounds on A_q(n,d), the largest size of a q-ary length-n code
with minimum Hamming distance at least d.

Everything here is closed-form counting: the Plotkin bound, the
column-projection recursion, pair counting over column blocks (which
also yields the irregular-pair budget and forced equidistance), and a
divisibility argument that rules out one more word whenever a convexity
defect makes the irregular-pair budget unreachable.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

from .codes import Code, hamming_distance
from .errors import RegistryMissError

__all__ = [
    "plotkin_bound",
    "column_recursion_bound",
    "plotkin_recursion_bound",
    "PairCountBounds",
    "pair_count_bounds",
    "equidistance_forced",
    "PairBudgetAudit",
    "irregular_budget_audit",
    "phi_eval",
    "DivisibilityCertificate",
    "divisibility_bound",
    "corollary_q_plus_3",
    "h_table",
    "RegistryEntry",
    "registry_lookup",
    "KNOWN_VALUES",
]


def plotkin_bound(q: int, n: int, d: int) -> Optional[int]:
    """floor(qd / (qd - n(q-1))) when qd > (q-1)n, else None.

    None means the bound does not apply at these parameters, never that
    the bound is unknown.
    """
    denom = q * d - n * (q - 1)
    if denom <= 0:
        return None
    return (q * d) // denom


def column_recursion_bound(q: int, inner_bound: int) -> int:
    """A_q(n,d) <= q * A_q(n-1,d): delete a column and group by symbol."""
    return q * inner_bound


def plotkin_recursion_bound(q: int, n: int, d: int) -> Optional[int]:
    """q**k times the Plotkin bound after deleting the fewest columns k
    that make it applicable; None when no length in [d, n] qualifies."""
    factor = 1
    length = n
    while length >= d:
        inner = plotkin_bound(q, length, d)
        if inner is not None:
            return factor * inner
        factor *= q
        length -= 1
    return None


@dataclass(frozen=True)
class PairCountBounds:
    """Two-sided count of column-block agreement pairs at size M.

    L bounds the total agreement sum from above (each word pair agrees in
    at most n-d columns), R from below (convexity of the per-column
    block sizes, m = ceil(M/q), r = qm - M).  budget = L - R caps the
    number of word pairs whose distance exceeds d.
    """

    L: int
    R: int
    m: int
    r: int
    budget: int


def pair_count_bounds(q: int, n: int, d: int, M: int) -> PairCountBounds:
    if M < 0:
        raise ValueError(f"code size must be nonnegative, got {M}")
    L = comb(M, 2) * (n - d)
    m = -(-M // q)
    r = q * m - M
    R = n * ((q - r) * comb(m, 2) + r * comb(m - 1, 2))
    return PairCountBounds(L, R, m, r, L - R)


def equidistance_forced(q: int, n: int, d: int, M: int) -> bool:
    """True when the budget vanishes, so every pair of words in any
    (n,d)_q code of size M is at distance exactly d and every column
    takes q-r symbols m times and r symbols m-1 times."""
    return pair_count_bounds(q, n, d, M).budget == 0


@dataclass(frozen=True)
class PairBudgetAudit:
    """Observed pair counts of a concrete code against its budget.

    ``ne_d`` counts pairs at distance different from d, ``irregular``
    those at distance outside {d, n}; the budget caps ``ne_d``.
    """

    ne_d: int
    irregular: int
    budget: int

    @property
    def ok(self) -> bool:
        return self.ne_d <= self.budget


def irregular_budget_audit(code: Code, d: int | None = None) -> PairBudgetAudit:
    """Count rule-breaking pairs of a code and compare with its budget."""
    p = code.params
    if d is None:
        d = p.d
    ne_d = 0
    irregular = 0
    ws = code.words
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            dist = hamming_distance(ws[i], ws[j])
            if dist != d:
                ne_d += 1
                if dist != p.n:
                    irregular += 1
    budget = pair_count_bounds(p.q, p.n, d, code.size).budget
    return PairBudgetAudit(ne_d, irregular, budget)


def phi_eval(q: int, n: int, d: int, m: int, r: int) -> int:
    """Convexity defect at deficiency r for block parameter m.

    Negative values rule out codes of size mq^2 - r.
    """
    return n * (n - 1 - d) * (r - 1) * r - (q - r + 1) * (
        m * q * (q + r - 2) - 2 * r
    )


@dataclass(frozen=True)
class DivisibilityCertificate:
    """Outcome of the divisibility bound at fixed parameters.

    When applicable, ``r`` is the largest deficiency with a negative
    convexity defect and ``bound`` equals mq^2 - r - 1.  Otherwise
    ``reason`` states which precondition failed; that is an explicit
    inapplicability, not a failed verification.
    """

    q: int
    n: int
    d: int
    applicable: bool
    reason: str | None
    m: int | None
    phi_table: tuple[tuple[int, int], ...]
    r: int | None
    bound: int | None


def divisibility_bound(q: int, n: int, d: int) -> DivisibilityCertificate:
    """Bound A_q(n,d) <= mq^2 - r - 1 for the largest r with a negative
    convexity defect, provided m = d/(qd - (n-1)(q-1)) is a positive
    integer and (n-d) does not divide m(n-1)."""
    def na(reason, m=None):
        return DivisibilityCertificate(q, n, d, False, reason, m, (), None, None)

    if d >= n:
        return na("requires d < n")
    denom = q * d - (n - 1) * (q - 1)
    if denom <= 0:
        return na(f"qd - (n-1)(q-1) = {denom} is not positive")
    if d % denom != 0:
        return na(f"m = {d}/{denom} is not an integer")
    m = d // denom
    if (m * (n - 1)) % (n - d) == 0:
        return na(f"(n-d) = {n - d} divides m(n-1) = {m * (n - 1)}", m)
    phi_table = tuple((r, phi_eval(q, n, d, m, r)) for r in range(1, q))
    best_r = None
    for r, value in phi_table:
        if value < 0:
            best_r = r
    if best_r is None:
        return DivisibilityCertificate(
            q, n, d, False, "phi(r) is nonnegative for every r", m, phi_table, None, None
        )
    return DivisibilityCertificate(
        q, n, d, True, None, m, phi_table, best_r, m * q * q - best_r - 1
    )


def corollary_q_plus_3(q: int) -> int:
    """A_q(q+3, q+1) <= (q-1)q(q+2)/2 for q = 1 (mod 4), q > 1.

    Specialization of the divisibility bound at m = (q+1)/2, r = q-1,
    where the defect equals -(q^3 - q^2 - 2).
    """
    if q <= 1 or q % 4 != 1:
        raise ValueError(f"requires q = 1 (mod 4) and q > 1, got q={q}")
    return (q - 1) * q * (q + 2) // 2


def h_table(q: int, n: int, d: int, k: int) -> int:
    """Upper bound on irregular pairs meeting a k-block, clamped at 0."""
    return max(0, pair_count_bounds(q, n, d, k).budget)


@dataclass(frozen=True)
class RegistryEntry:
    """A known value of A_q(n,d) taken from the literature."""

    value: int
    kind: str  # "exact" or "upper"
    provenance: str
    unique: bool = False  # optimal code unique up to equivalence


KNOWN_VALUES: dict[tuple[int, int, int], RegistryEntry] = {
    (5, 7, 6): RegistryEntry(
        15, "exact", "Plotkin bound; attained by the Kirkman triple systems of order 15"
    ),
    (4, 8, 6): RegistryEntry(
        32,
        "exact",
        "column recursion on the Plotkin bound at length 7; attained, and the "
        "optimal code is unique up to equivalence (Al-Kenani's classification "
        "of symmetric (2,4)-nets)",
        unique=True,
    ),
    (3, 15, 11): RegistryEntry(
        10, "exact", "Brouwer's table of bounds for general ternary codes"
    ),
}


def registry_lookup(q: int, n: int, d: int) -> RegistryEntry:
    """Known value of A_q(n,d); absent keys raise, never default."""
    try:
        return KNOWN_VALUES[(q, n, d)]
    except KeyError:
        raise RegistryMissError(f"no registry entry for A_{q}({n},{d})") from None
