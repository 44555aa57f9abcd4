"""Survey negation behavior on small lattices and quotient orders.

Counts bounded lattices up to a size, runs the falsifier over its four
claims, and profiles the De Morgan negation of every quotient order on
up to four atoms (how often each condition holds, and the iteration
indices that appear).
"""

import argparse
from collections import Counter

from roughwork.approx import ApproximationSpace
from roughwork.negation import (
    CLAIM_IDS,
    CONDITION_NAMES,
    check_quotient_negation,
    enumerate_lattices,
    falsify_theorem,
)
from roughwork.prerough import quotient_algebra


def set_partitions(items):
    if not items:
        yield []
        return
    head, *rest = items
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]
        yield [[head]] + part


def main() -> None:
    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument("--max-size", type=int, default=5)
    cli.add_argument("--cap", type=int, default=5)
    args = cli.parse_args()

    print("lattice counts (all / distributive):")
    for n in range(1, args.max_size + 1):
        lattices = enumerate_lattices(n)
        distributive = sum(p.is_distributive for p in lattices)
        print(f"  n={n}: {len(lattices)} / {distributive}")
    print()

    print(f"falsifier at cap {args.cap}:")
    for claim in CLAIM_IDS:
        witness = falsify_theorem(claim, size_cap=args.cap)
        if witness is None:
            print(f"  {claim}: no witness")
        else:
            mapping = ", ".join(
                f"{k}->{v}" for k, v in sorted(witness.op.mapping.items())
            )
            print(f"  {claim}: {witness.note} ({mapping})")
    print()

    print("quotient negations over partitions of up to four atoms:")
    condition_hits = Counter()
    index_hits = Counter()
    spaces = 0
    pool = "abcd"
    for k in range(1, 5):
        atoms = pool[:k]
        for part in set_partitions(list(atoms)):
            space = ApproximationSpace.from_partition(atoms, part)
            profile = check_quotient_negation(quotient_algebra(space))
            spaces += 1
            for name in CONDITION_NAMES:
                if profile.passed(name):
                    condition_hits[name] += 1
            index_hits[profile.index] += 1
    print(f"  spaces surveyed: {spaces}")
    for name in CONDITION_NAMES:
        print(f"  {name}: holds on {condition_hits[name]}/{spaces}")
    for index, count in sorted(index_hits.items()):
        print(f"  index {index}: {count}")


if __name__ == "__main__":
    main()
