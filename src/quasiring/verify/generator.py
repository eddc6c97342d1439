"""Rings with a prescribed prime-ideal inventory.

Over a discrete n-point space and a zero-divisor-free value ring, the proper
primes of C(Z, Y) are exactly the n point ideals I(z), every one of them
simultaneously minimal and maximal, with trivial prime radical.  The
construction verifies that inventory on the classified lattice instead of
taking it on faith.
"""

from __future__ import annotations

from ..algebra import AlgebraTable, zero_divisors
from ..errors import CrossCheckFailed, MissingAddition, ZeroDivisorHypothesis
from ..funcspace import DEFAULT_ENUM_BUDGET, FunctionRing, vanishing_elements
from ..ideals import (
    RIGHT,
    RING,
    classify_primes,
    enumerated_lattice,
    prime_radical,
)
from ..topology import discrete_space


def generate_prescribed_ring(n_primes: int, y: AlgebraTable,
                             side: str = RIGHT,
                             budget: int = DEFAULT_ENUM_BUDGET):
    """(FunctionRing, inventory) with exactly `n_primes` proper primes.

    Refused when y has zero divisors (the point ideals stop being prime and
    extra primes appear) or no addition (multiplicative ideals admit unions
    of point ideals as additional primes, breaking the prescribed count).
    """
    if n_primes < 1:
        raise ValueError("n_primes must be a positive integer")
    bad = zero_divisors(y)
    if bad:
        raise ZeroDivisorHypothesis(
            f"{y!r} has zero divisors ({bad[0][0]}·{bad[0][1]} = 0), so the "
            "point ideals are not prime and the inventory cannot be "
            "prescribed", witness=bad[0])
    if y.add is None:
        raise MissingAddition(
            "the prescribed inventory needs addition-closed ideals; without "
            "it every union of point ideals is one more prime")
    space = discrete_space(n_primes)
    ring = FunctionRing(space, y, budget)
    lattice = classify_primes(enumerated_lattice(ring, side, RING))
    primes = [i for i in lattice.ideals if i.meta.get("is_prime")]
    point_ideals = {vanishing_elements(ring, c) for c in ring.classes}
    inventory = {
        "proper_primes": len(primes),
        "all_point_ideals": all(p.bits in point_ideals for p in primes),
        "all_min_max": all(p.meta.get("is_min_max") for p in primes),
        "prime_radical": prime_radical(lattice),
        "primes": primes,
        "lattice": lattice,
    }
    ok = (inventory["proper_primes"] == n_primes
          and inventory["all_point_ideals"]
          and inventory["all_min_max"]
          and inventory["prime_radical"] == frozenset({ring.theta}))
    inventory["verified"] = ok
    if not ok:
        raise CrossCheckFailed(f"inventory verification failed: {inventory}")
    return ring, inventory
