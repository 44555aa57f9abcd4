"""Time the lattice certificates on quotient meet and join tables.

For each block partition below, builds the quotient's meet and join tables
as the intp index arrays ``granular.lattice_laws`` hands the certificates,
and prints the best-of-7 time of ``granular.associative`` on the meet table
and of ``granular.distributive`` on both tables, in microseconds. Each of
the 7 repeats runs the call often enough to last about 10 ms. Timings vary
from machine to machine and run to run, so compare numbers from one run.

Usage: PYTHONPATH=src python scripts/bench_certificates.py
"""

from __future__ import annotations

import timeit

import numpy as np

from roughwork.approx import ApproximationSpace
from roughwork.granular import associative, distributive
from roughwork.prerough import quotient_algebra

# Block sizes; a partition of blocks of one and two atoms has 2^ones * 3^twos classes.
PARTITIONS = ((2, 2, 2), (2, 2, 2, 1), (1,) * 6, (2, 2, 2, 2), (2, 2, 2, 1, 1), (2,) * 6)


def tables(sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    atoms = "abcdefghijkl"[: sum(sizes)]
    starts = np.cumsum((0, *sizes))
    blocks = [atoms[i:j] for i, j in zip(starts, starts[1:])]
    q = quotient_algebra(ApproximationSpace.from_partition(atoms, blocks))
    return q.table("meet").astype(np.intp), q.table("join").astype(np.intp)


def best_us(call) -> float:
    once = min(timeit.repeat(call, number=1, repeat=3))
    number = max(1, int(0.01 / max(once, 1e-9)))
    return min(timeit.repeat(call, number=number, repeat=7)) / number * 1e6


def main() -> None:
    print(f"{'classes':>7}  {'blocks':<12}  {'associative_us':>14}  {'distributive_us':>15}")
    for sizes in PARTITIONS:
        meet, join = tables(sizes)
        assoc = best_us(lambda: associative(meet))
        dist = best_us(lambda: distributive(meet, join))
        blocks = ",".join(map(str, sizes))
        print(f"{len(meet):>7}  {blocks:<12}  {assoc:>14.1f}  {dist:>15.1f}")


if __name__ == "__main__":
    main()
