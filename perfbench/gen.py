"""Seeded benchmark inputs, as plain data.

Nothing here imports roughwork. Partitions, operator tables, quotient
candidates, unary maps, model files and query strings come from this
module's own bitmask arithmetic, so a change to the program cannot change
the inputs it is measured on.

Every input is drawn from ``random.Random(key)`` with a string key, which
Python seeds through SHA-512: the same key gives the same input on every
run and every platform.
"""

from __future__ import annotations

import random
from itertools import combinations

ATOMS = "abcdefghijkl"

# The bundled example model: universe and partition, in file order.
BUNDLED_ATOMS = "abcefq"
BUNDLED_BLOCKS = [["a", "b", "c"], ["e", "f"], ["q"]]


def rng_for(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


# --- partitions and their tables ---


def random_partition(rng: random.Random, profile: tuple[int, ...]) -> list[list[str]]:
    """Atoms a.. spread at random over blocks of the given sizes."""
    n = sum(profile)
    atoms = list(ATOMS[:n])
    rng.shuffle(atoms)
    sizes = list(profile)
    rng.shuffle(sizes)
    blocks, i = [], 0
    for k in sizes:
        blocks.append(sorted(atoms[i : i + k]))
        i += k
    return blocks


def block_masks(blocks: list[list[str]], atoms: str = ATOMS) -> list[int]:
    return [sum(1 << atoms.index(a) for a in block) for block in blocks]


def lower_upper(n: int, blocks: list[list[str]]) -> tuple[list[int], list[int]]:
    """Per-mask lower and upper approximations of a partition."""
    bms = block_masks(blocks)
    lower, upper = [], []
    for m in range(1 << n):
        lower.append(sum(b for b in bms if b & m == b))
        upper.append(sum(b for b in bms if b & m))
    return lower, upper


def class_count(profile: tuple[int, ...]) -> int:
    """Rough classes, the empty one included: 3 states per non-singleton block."""
    out = 1
    for k in profile:
        out *= 2 if k == 1 else 3
    return out


def quotient_candidate(n: int, blocks: list[list[str]]) -> dict:
    """Operation tables of the quotient algebra; classes are (lower, upper) masks."""
    lower, upper = lower_upper(n, blocks)
    full = (1 << n) - 1
    carrier = sorted(set(zip(lower, upper)))
    index = {c: i for i, c in enumerate(carrier)}
    return {
        "carrier": carrier,
        "meet": [[index[(a[0] & b[0], a[1] & b[1])] for b in carrier] for a in carrier],
        "join": [[index[(a[0] | b[0], a[1] | b[1])] for b in carrier] for a in carrier],
        "neg": [index[(full & ~a[1], full & ~a[0])] for a in carrier],
        "necessity": [index[(a[0], a[0])] for a in carrier],
        "zero": index[(0, 0)],
        "one": index[(full, full)],
    }


# --- failing inputs ---


def stratum_pick(rng: random.Random, size: int, stratum: int, strata: int) -> int:
    """An index from the stratum-th of ``strata`` equal slices of range(size).

    Witness templates each own one slice, so every round has mutants early,
    midway and late in the sweep order, whatever the seed.
    """
    lo = size * stratum // strata
    hi = max(lo + 1, size * (stratum + 1) // strata)
    return rng.randrange(lo, hi)


def mutate_candidate(rng: random.Random, cand: dict, name: str, stratum: int, strata: int) -> dict:
    """Copy of ``cand`` with exactly one entry of table ``name`` changed."""
    out = dict(cand)
    size = len(cand["carrier"])
    if name in ("meet", "join"):
        table = [list(row) for row in cand[name]]
        row, col = divmod(stratum_pick(rng, size * size, stratum, strata), size)
        table[row][col] = rng.choice([v for v in range(size) if v != table[row][col]])
    else:
        table = list(cand[name])
        a = stratum_pick(rng, size, stratum, strata)
        table[a] = rng.choice([v for v in range(size) if v != table[a]])
    out[name] = table
    return out


def perturb_tables(
    rng: random.Random, n: int, blocks: list[list[str]], side: str, stratum: int, strata: int
) -> tuple[list[int], list[int]]:
    """Partition tables with one entry of the ``side`` ("lower" or "upper") table broken.

    A broken lower entry is no subset of its argument and a broken upper
    entry no superset, and both split a block, so the contraction or
    expansion axiom and representability over the blocks must fail.
    """
    bms = block_masks(blocks)
    if all(b & (b - 1) == 0 for b in bms):
        raise ValueError("a perturbed table needs a block of two or more atoms")
    lower, upper = lower_upper(n, blocks)
    # lower needs an argument other than the full set, upper one other than 0
    m = (0 if side == "lower" else 1) + stratum_pick(rng, (1 << n) - 1, stratum, strata)
    table = lower if side == "lower" else upper
    while True:
        v = rng.randrange(1 << n)
        if v == table[m] or all(v & b in (0, b) for b in bms):
            continue
        if (v & ~m if side == "lower" else m & ~v) != 0:
            break
    table[m] = v
    return lower, upper


def non_involution(rng: random.Random, size: int) -> list[int]:
    """A random total map on range(size) that is no involution, so no De Morgan negation."""
    while True:
        f = [rng.randrange(size) for _ in range(size)]
        if any(f[f[x]] != x for x in range(size)):
            return f


def identity_table(n: int) -> list[int]:
    return list(range(1 << n))


def complement_table(n: int) -> list[int]:
    full = (1 << n) - 1
    return [full & ~m for m in range(1 << n)]


# --- query models and strings ---


def subset_text(mask: int, atoms: str) -> str:
    names = "".join(a for i, a in enumerate(atoms) if mask >> i & 1)
    return names or "0"


def model_json(rng: random.Random, profile: tuple[int, ...]) -> dict:
    """A model file: a random partition plus a random property system."""
    objects = [f"g{i}" for i in range(1, 5)]
    properties = [f"h{i}" for i in range(1, 4)]
    return {
        "universe": list(ATOMS[: sum(profile)]),
        "partition": random_partition(rng, profile),
        "propertySystem": {
            "objects": objects,
            "properties": properties,
            "manifests": [
                [g, h] for g in objects for h in properties if rng.random() < 0.5
            ],
        },
    }


def random_text(rng: random.Random, atoms: str, nonempty: bool = False) -> str:
    return subset_text(rng.randrange(1 if nonempty else 0, 1 << len(atoms)), atoms)


def definite_text(rng: random.Random, atoms: str, blocks: list[list[str]]) -> str:
    """A union of blocks: a pair operation with one definite operand is defined."""
    mask = sum(b for b in block_masks(blocks, atoms) if rng.random() < 0.5)
    return subset_text(mask, atoms)


UNARY = ("L", "D", "~")
BINARY = ("(+)", "(.)", "(o)", "~>", "->>")


def expression(rng: random.Random, atoms: str, depth: int) -> str:
    """A random mixed-algebra expression that evaluates without error.

    ``neg`` is defined only on classes, so it is applied to class
    literals alone.
    """
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.4:
            return f"[{random_text(rng, atoms, nonempty=True)}]"
        if roll < 0.5:
            return f"neg [{random_text(rng, atoms, nonempty=True)}]"
        return random_text(rng, atoms)
    if rng.random() < 0.3:
        return f"{rng.choice(UNARY)} ({expression(rng, atoms, depth - 1)})"
    left = expression(rng, atoms, depth - 1)
    right = expression(rng, atoms, depth - 1)
    return f"({left}) {rng.choice(BINARY)} ({right})"


def ipc_input(rng: random.Random, length: int) -> tuple[list[str], list[tuple[str, str]], str]:
    """A counting sequence, generating pairs over its letters, and a closure mode."""
    seq = [rng.choice("pqrstuvwxyz") for _ in range(length)]
    pairs = [p for p in combinations(sorted(set(seq)), 2) if rng.random() < 0.2]
    return seq, pairs, rng.choice(("equivalence", "reflexive-transitive"))
