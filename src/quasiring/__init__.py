"""Computational engine for rings of continuous functions over finite
topological spaces: quasi-components, zero sets, vanishing ideals, the
zero-set topology, prime-ideal enumeration and classification, a statement
checker registry, and a prescribed-prime-inventory ring generator."""

from .algebra import AlgebraTable, make_table, make_zmod, structure_flags
from .funcspace import FunctionRing
from .ideals import (
    Ideal,
    IdealLattice,
    classify_primes,
    ideal_lattice,
    is_prime,
    prime_radical,
    vanishing_ideal,
)
from .sequence import SeqFn, SequenceRing
from .topology import (
    ExplicitSpace,
    SequenceSpace,
    discrete_space,
    disjoint_union,
    sierpinski_space,
    validate_topology,
)
from .zariski import zariski_closed_family

__version__ = "0.1.0"
