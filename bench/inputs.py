"""Seeded inputs for the benchmark workloads.

Everything here is plain data (tuples, lists, spec text); nothing imports the
engine.  A workload run is a sequence of batches; batch ``k`` of workload
``w`` under seed ``s`` is drawn from ``random.Random(f"{w}:{s}:{k}")``, so the
same seed always yields byte-identical batches.

Every batch of a workload has the same *shape* (the same list of slots: space
kind and size, number of quasi-components, value algebra and carrier); the
seed only draws what varies inside a slot — random topologies with a fixed
number of components, random multiplication tables, point labels.  That keeps
the cost of a batch close to constant across seeds, which is what lets a run's
figures be compared with another seed's.  A batch lists its items in slot
order; the runner decides the order in which they run.
"""

from __future__ import annotations

import itertools
import json
import random

# Ring-size cap for fuzz draws: no single context fills a run, and every
# context stays below the checker layer's own 160-element lattice cap.
FUZZ_RING_CAP = 27
# Random tables vary most in lattice size, so their rings stay small.
FUZZ_TABLE_RING_CAP = 16

DEFAULT_SEEDS = {"fuzz": 0, "ideals": 0, "analyze": 0}
HELD_OUT_SEEDS = {"fuzz": 7919, "ideals": 7919, "analyze": 7919}


def batch_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


# -- finite spaces as data -------------------------------------------------

def components(n: int, opens) -> int:
    """Connected components of the finite space generated by `opens`.

    On a finite space these are the quasi-components.  Points x and y are
    linked when y lies in the minimal open neighbourhood of x (the
    intersection of the generating sets containing x, the whole space
    included); components are the classes of the symmetric closure.
    """
    full = frozenset(range(n))
    minimal = []
    for x in range(n):
        u = full
        for s in opens:
            if x in s:
                u &= frozenset(s)
        minimal.append(u)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x in range(n):
        for y in minimal[x]:
            parent[find(x)] = find(y)
    return len({find(x) for x in range(n)})


def glued_blocks(rng: random.Random, sizes) -> tuple[int, list]:
    """(points, generating opens) of a sum of connected blocks.

    A block of m points on labels b0..b(m-1) is generated by {b0} and the
    pairs {b0, bi}: every non-empty open set of the block contains b0, so
    the block is connected and its topology has 2^(m-1) + 1 open sets.  Point
    labels are a seeded permutation and the generating sets are shuffled, so
    the text differs by seed while the space stays the same up to relabelling.
    """
    n = sum(sizes)
    labels = list(range(n))
    rng.shuffle(labels)
    sets, base = [], 0
    for m in sizes:
        block = labels[base:base + m]
        sets.append([block[0]])
        for i in range(1, m):
            sets.append(sorted((block[0], block[i])))
        base += m
    rng.shuffle(sets)
    return n, sets


def random_connected_space(rng: random.Random, n: int, q: int) -> list:
    """Generating opens of a random n-point space with exactly q components.

    Drawn like the fuzz campaign's explicit-random spaces (each point joins
    each generating set with probability 1/2), redrawn until the component
    count is q.
    """
    while True:
        sets = [sorted(p for p in range(n) if rng.random() < 0.5)
                for _ in range(rng.randint(0, n + 2))]
        if components(n, sets) == q:
            return sets


def random_table(rng: random.Random, m: int, unit: bool) -> list:
    """Random magma on 0..m-1 with absorbing 0, and 1 as unit when asked."""
    mul = [[0] * m for _ in range(m)]
    for a in range(1, m):
        for b in range(1, m):
            mul[a][b] = rng.randrange(m)
    if unit:
        for a in range(m):
            mul[1][a] = a
            mul[a][1] = a
    return mul


# -- fuzz ------------------------------------------------------------------

_FUZZ_SPACES = (
    [("discrete-n", n, n) for n in range(1, 5)]
    + [("sierpinski-sum", 2 * p, p) for p in (1, 2)]
    + [("explicit-random", 3, 1), ("explicit-random", 4, 2),
       ("explicit-random", 4, 3)]
)
# a unital table on two elements is forced to be Z_2's multiplication
_FUZZ_ALGEBRAS = ([("zmod-n", m, True) for m in (2, 3, 4)]
                  + [("table", 2, False), ("table", 3, False),
                     ("table", 3, True), ("table", 4, True)])


def _fuzz_slots():
    out = []
    for (skind, n, q), (akind, m, unit) in itertools.product(
            _FUZZ_SPACES, _FUZZ_ALGEBRAS):
        cap = FUZZ_RING_CAP if akind == "zmod-n" else FUZZ_TABLE_RING_CAP
        if m ** q <= cap:
            out.append((skind, n, q, akind, m, unit))
    return out


FUZZ_SLOTS = _fuzz_slots()


def fuzz_batch(seed: int, index: int) -> list[dict]:
    """One instance per slot; zmod instances run in both ideal modes."""
    rng = batch_rng("fuzz", seed, index)
    batch = []
    for skind, n, q, akind, m, unit in FUZZ_SLOTS:
        if skind == "discrete-n":
            space = ["discrete", n]
        elif skind == "sierpinski-sum":
            space = ["sierpinski", q]
        else:
            space = ["opens", n, random_connected_space(rng, n, q)]
        if akind == "zmod-n":
            algebra = ["zmod", m]
        else:
            algebra = ["table", m, random_table(rng, m, unit), unit]
        batch.append({"space": space, "components": q, "algebra": algebra,
                      "seed": rng.randrange(2 ** 31)})
    return batch


# -- ideals ----------------------------------------------------------------

# (mode, components q, Z_n) over a space with q quasi-components; the closed
# forms in oracles.py cover every one of these
_IDEAL_RINGS = [
    ("ring", 2, 6), ("ring", 2, 7), ("ring", 2, 4), ("ring", 2, 5),
    ("ring", 3, 3), ("ring", 4, 2), ("ring", 3, 2), ("ring", 1, 12),
    ("multiplicative", 4, 2), ("multiplicative", 4, 3),
    ("multiplicative", 3, 4), ("multiplicative", 2, 6),
    ("multiplicative", 3, 3), ("multiplicative", 2, 5),
]
# random-table rings in multiplicative mode: (components, carrier, unit);
# at most 16 elements, so a subset scan is their oracle
_IDEAL_TABLES = [(2, 3, True), (2, 4, True), (2, 4, True), (2, 3, False),
                 (3, 2, True), (4, 2, True)]
# generate_prescribed_ring(n_primes, Z_p)
_IDEAL_GENERATE = [(3, 3), (4, 2), (2, 5), (3, 2)]


def _space_with_components(rng: random.Random, q: int) -> list:
    """Seeded space with q quasi-components, as a sum of 1- and 2-point
    connected blocks; its ring is that of the discrete q-point space."""
    sizes = [rng.choice((1, 2)) for _ in range(q)]
    n, sets = glued_blocks(rng, sizes)
    return ["opens", n, sets]


def ideals_batch(seed: int, index: int) -> list[dict]:
    rng = batch_rng("ideals", seed, index)
    batch = []
    for mode, q, n in _IDEAL_RINGS:
        batch.append({"kind": "lattice", "mode": mode, "components": q,
                      "space": _space_with_components(rng, q),
                      "algebra": ["zmod", n]})
    for q, m, unit in _IDEAL_TABLES:
        batch.append({"kind": "lattice", "mode": "multiplicative",
                      "components": q,
                      "space": _space_with_components(rng, q),
                      "algebra": ["table", m, random_table(rng, m, unit),
                                  unit]})
    for k, p in _IDEAL_GENERATE:
        batch.append({"kind": "generate", "primes": k, "algebra": ["zmod", p]})
    return batch


# -- analyze ---------------------------------------------------------------

def open_count(sizes) -> int:
    """Open sets of a sum of connected blocks built by `glued_blocks`."""
    out = 1
    for m in sizes:
        out *= 2 ** (m - 1) + 1
    return out


# (space kind, block sizes, Z_n): "singletons" is an `opens` family of all
# the singletons, which the parser auto-closes to the discrete topology;
# "blocks" glues connected blocks of the given sizes (9-11 points, 300-700
# open sets, C(Z, Z_n) within 2^18 functions so that no spec hits the
# engine's 2^20 enumeration budget).  The shape of every slot is fixed: the
# number of blocks sets the ring's size, which would otherwise swing a slot's
# cost by 4x from one draw to the next; the seed draws the point labels and
# the order of the generating sets.
_ANALYZE_SLOTS = [
    ("singletons", (1,) * 9, 2), ("singletons", (1,) * 9, 3),
    ("singletons", (1,) * 8, 2), ("singletons", (1,) * 8, 3),
    ("singletons", (1,) * 7, 5),
    ("discrete", (1,) * 9, 2), ("discrete", (1,) * 9, 3),
    ("discrete", (1,) * 8, 2), ("discrete", (1,) * 8, 3),
    ("discrete", (1,) * 8, 4),
    ("blocks", (3, 1, 1, 1, 1, 1, 1), 2),
    ("blocks", (2, 1, 1, 1, 1, 1, 1, 1), 3),
    ("blocks", (3, 2, 2, 1, 1, 1), 2), ("blocks", (4, 2, 2, 1, 1), 3),
    ("blocks", (3, 3, 2, 2, 1), 2), ("blocks", (4, 3, 2, 1, 1), 3),
    ("blocks", (3, 1, 1, 1, 1, 1, 1), 4), ("blocks", (4, 2, 1, 1, 1, 1), 4),
    ("blocks", (3, 3, 3, 1, 1), 4),
    ("blocks", (3, 3, 2, 1, 1), 6), ("blocks", (4, 3, 2, 2), 6),
]


def analyze_batch(seed: int, index: int) -> list[dict]:
    """Spec texts for `quasiring analyze`, one ring each, with the block
    sizes the generator glued."""
    rng = batch_rng("analyze", seed, index)
    batch = []
    for kind, sizes, n in _ANALYZE_SLOTS:
        points = len(sizes) if kind != "blocks" else sum(sizes)
        if kind == "discrete":
            space = f"discrete {points}"
        else:
            _, sets = glued_blocks(rng, sizes)
            body = " ".join("{" + " ".join(map(str, s)) + "}" for s in sets)
            space = f"opens {{ {body} }}"
        text = (f"# analyze slot {kind}-{points} over Z_{n}\n"
                f"space Z {space}\n"
                f"algebra Y zmod {n}\n"
                f"ring R = C(Z, Y)\n")
        batch.append({"text": text, "blocks": list(sizes), "zmod": n})
    return batch


BATCHES = {"fuzz": fuzz_batch, "ideals": ideals_batch,
           "analyze": analyze_batch}


def batch_bytes(workload: str, seed: int, index: int) -> bytes:
    """Canonical serialization of a batch, for determinism checks."""
    return json.dumps(BATCHES[workload](seed, index), sort_keys=True).encode()
