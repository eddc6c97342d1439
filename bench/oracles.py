"""Independent oracles for the benchmark's outputs.

None of this imports the engine.  Closed forms cover the structured rings
C(Z, Z_n) over a space with q quasi-components (that ring is Z_n^q); a
subset scan covers rings of at most 16 elements given as raw tables.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


def factorize(n: int) -> dict[int, int]:
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisor_count(n: int) -> int:
    out = 1
    for k in factorize(n).values():
        out *= k + 1
    return out


def radical(n: int) -> int:
    out = 1
    for p in factorize(n):
        out *= p
    return out


def is_prime_number(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


# -- ring mode: ideals of Z_n^q ---------------------------------------------

def ring_mode_counts(q: int, n: int) -> dict:
    """Ideals, proper primes and prime-radical size of C(Z, Z_n), q classes.

    Ideals of Z_n^q are products of ideals dZ_n (d | n): τ(n)^q of them.
    The primes put p·Z_n in one coordinate and Z_n elsewhere: q·ω(n).
    Their intersection, the nilradical, is (rad n)Z_n in every coordinate,
    of size (n / rad n)^q.
    """
    return {"ideals": divisor_count(n) ** q,
            "primes": q * len(factorize(n)),
            "radical_size": (n // radical(n)) ** q}


# -- multiplicative mode: down-sets of a product of chains ------------------

def count_down_sets(chains: tuple) -> int:
    """Down-sets of the product poset of chains of the given lengths."""
    points = frozenset(itertools.product(*(range(c) for c in chains)))

    def le(a, b):
        return all(x <= y for x, y in zip(a, b))

    @lru_cache(maxsize=None)
    def count(rest: frozenset) -> int:
        if not rest:
            return 1
        x = max(rest)
        # down-sets avoiding x avoid everything above it; those containing
        # x contain everything below it
        above = frozenset(y for y in rest if le(x, y))
        below = frozenset(y for y in rest if le(y, x))
        return count(rest - above) + count(rest - below)

    return count(points)


def multiplicative_counts(q: int, n: int) -> dict:
    """Ideals and proper primes of the monoid C(Z, Z_n), q classes.

    Z_n ≅ Π Z_{p^k}; in each factor a·Z_{p^k} depends only on the p-adic
    valuation of a, so principal ideals are the points of a product of
    q·ω(n) chains of lengths k+1, and ideals are its non-empty down-sets.
    Primes are {f : some coordinate of S is a non-unit} for non-empty
    coordinate sets S: 2^(q·ω(n)) − 1 of them.  Their intersection makes
    every coordinate a non-unit, so every value of f nilpotent:
    (n / rad n)^q functions.  For a field Z_p
    this is Dedekind(q) − 1 ideals and 2^q − 1 primes.
    """
    chains = tuple(k + 1 for _ in range(q) for k in factorize(n).values())
    return {"ideals": count_down_sets(chains) - 1,
            "primes": 2 ** len(chains) - 1,
            "radical_size": (n // radical(n)) ** q}


# -- subset scan over raw tables --------------------------------------------

def product_ring(mul, q: int, add=None):
    """Elements (tuples) and operations of Y^q for a table algebra Y."""
    m = len(mul)
    elems = list(itertools.product(range(m), repeat=q))

    def op(t):
        return lambda f, g: tuple(t[a][b] for a, b in zip(f, g))

    return elems, op(mul), (op(add) if add is not None else None)


def subset_scan(elems, mul, add=None, side: str = "right") -> set:
    """Every ideal of a ring of at most 16 elements, as frozensets.

    An ideal contains the zero tuple, absorbs multiplication on the declared
    side by every element, is closed under its own products, and in ring
    mode (`add` given) under sums.
    """
    n = len(elems)
    if n > 16:
        raise ValueError("subset scan is limited to 16 elements")
    idx = {f: i for i, f in enumerate(elems)}
    zero = idx[tuple(0 for _ in elems[0])]
    absorb = []
    for g in elems:
        bits = 0
        for f in elems:
            if side in ("right", "two-sided"):
                bits |= 1 << idx[mul(f, g)]
            if side in ("left", "two-sided"):
                bits |= 1 << idx[mul(g, f)]
        absorb.append(bits)
    prod = [[idx[mul(a, b)] for b in elems] for a in elems]
    sums = ([[idx[add(a, b)] for b in elems] for a in elems]
            if add is not None else None)
    found = set()
    for mask in range(1 << n):
        if not mask >> zero & 1:
            continue
        members = [i for i in range(n) if mask >> i & 1]
        if any(absorb[g] & ~mask for g in members):
            continue
        tables = [prod] + ([sums] if sums is not None else [])
        if all(mask >> t[a][b] & 1
               for t in tables for a in members for b in members):
            found.add(frozenset(elems[i] for i in members))
    return found


def primes_by_scan(elems, mul, ideals) -> set:
    """Proper ideals I with no f·g in I for f, g outside I."""
    whole = frozenset(elems)
    out = set()
    for i in ideals:
        if i == whole:
            continue
        outside = [f for f in elems if f not in i]
        if all(mul(f, g) not in i for f in outside for g in outside):
            out.add(i)
    return out


# -- prescribed inventories and topologies -----------------------------------

def point_ideals(q: int, p: int) -> set:
    """The ideals I(z) of C(discrete q, Z_p): functions vanishing at z."""
    elems = list(itertools.product(range(p), repeat=q))
    return {frozenset(f for f in elems if f[z] == 0) for z in range(q)}


def analyze_expectations(blocks, n: int) -> dict:
    """What `analyze` must report for a sum of connected blocks over Z_n.

    Quasi-components are the blocks, the clopen sets are the unions of
    blocks, and there are n^blocks functions.  For zero-divisor-free Z_n the
    zero-set topology TZ equals the clopen-base topology T1 (paper T9); T1 is
    the partition topology of the blocks, so it equals the original topology
    exactly when every block is a single point and is strictly coarser
    otherwise.  With zero divisors no comparison is formed.
    """
    k = len(blocks)
    expected = {"quasi_components": k, "clopen_sets": 2 ** k,
                "elements": n ** k}
    if is_prime_number(n):
        coarse = ("equal" if all(b == 1 for b in blocks)
                  else "first-strictly-coarser")
        expected["comparisons"] = {"T1_vs_TZ": "equal", "TZ_vs_T": coarse,
                                   "T1_vs_T": coarse}
    else:
        expected["comparisons"] = None
    return expected
