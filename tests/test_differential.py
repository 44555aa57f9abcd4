"""Table sweeps against the nested-loop scans they replaced.

Every law must report the same status and the same first witness as the
oracle in ``scan_oracles``, on every partition of up to five atoms and on
seeded corruptions of those structures: one-entry mutants of quotient
candidates, perturbed operator tables, and partial maps on quotient
orders and on posets whose meets and joins are partial.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

import scan_oracles as oracle
from roughwork import ApproximationSpace
from roughwork.cli import _quotient_poset
from roughwork.granular import (
    GranularModel,
    OperatorTable,
    check_gos_axioms,
    check_operator_axioms,
    from_space,
)
from roughwork.negation import BoundedPoset, UnaryOp, check_negation
from roughwork.prerough import (
    check_essential_pre_rough,
    check_pre_rough,
    quotient_algebra,
)
from test_prerough import mutate_candidate


def set_partitions(atoms: str):
    if not atoms:
        yield []
        return
    head, rest = atoms[0], atoms[1:]
    for blocks in set_partitions(rest):
        yield [[head]] + blocks
        for i in range(len(blocks)):
            yield blocks[:i] + [[head] + blocks[i]] + blocks[i + 1 :]


SPACES = [
    ApproximationSpace.from_partition("abcde"[:n], blocks)
    for n in range(1, 6)
    for blocks in set_partitions("abcde"[:n])
]


def same(new, old) -> None:
    assert list(new.items()) == list(old.items())


def test_every_partition_up_to_five_atoms():
    assert len(SPACES) == 1 + 2 + 5 + 15 + 52


@pytest.fixture
def candidates(example_space):
    rng = random.Random(4409)
    cands = []
    for space in SPACES:
        cand = quotient_algebra(space).to_candidate()
        cands.append(cand)
        if cand.size <= 16:
            cands += [mutate_candidate(cand, rng) for _ in range(2)]
    example = quotient_algebra(example_space).to_candidate()
    seeded = random.Random(7121)
    return cands + [mutate_candidate(example, seeded) for _ in range(20)]


def test_prerough_on_partitions_and_mutants(candidates):
    failing = 0
    for i, cand in enumerate(candidates):
        if i % 2:
            # Odd candidates drop their join table, so the checkers derive it.
            cand = dataclasses.replace(cand, join=None)
        new = check_pre_rough(cand)
        same(new, oracle.check_pre_rough(cand))
        same(check_essential_pre_rough(cand), oracle.check_essential_pre_rough(cand))
        failing += not new.all_pass
    assert failing >= 20


def perturbed(table: OperatorTable, rng: random.Random, count: int) -> OperatorTable:
    size = 1 << table.universe.size
    entries = dict(enumerate(table._table))
    for _ in range(count):
        entries[rng.randrange(size)] = rng.randrange(size)
    return OperatorTable(table.universe, entries)


def test_gos_and_operator_tables_on_partitions_and_perturbations():
    rng = random.Random(2203)
    failing = 0
    for space in SPACES:
        model = from_space(space)
        models = [model] + [
            GranularModel(
                universe=model.universe,
                granules=model.granules,
                lower_op=perturbed(model.lower_op, rng, rng.randint(1, 3)),
                upper_op=perturbed(model.upper_op, rng, rng.randint(1, 3)),
            )
            for _ in range(2)
        ]
        for m in models:
            for strict in (False, True):
                new = check_gos_axioms(m, strict_upper=strict)
                same(new, oracle.check_gos_axioms(m, strict_upper=strict))
                failing += not new.all_pass
            for table in (m.lower_op, m.upper_op):
                for kind in ("lower", "upper"):
                    same(
                        check_operator_axioms(table, kind),
                        oracle.check_operator_axioms(table, kind),
                    )
    assert failing >= len(SPACES) * 3


def random_poset(rng: random.Random, n: int) -> BoundedPoset:
    """Element 0 below everything; other pairs drawn upward, then closed."""
    rel = [{i} for i in range(n)]
    rel[0] = set(range(n))
    for i in range(1, n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                rel[i].add(j)
    for k in range(n):
        for i in range(n):
            if k in rel[i]:
                rel[i] |= rel[k]
    return BoundedPoset(range(n), [(i, j) for i in range(n) for j in rel[i] if i != j])


def partial_map(rng: random.Random, elements) -> UnaryOp:
    return UnaryOp(
        {x: rng.choice(elements) for x in elements if rng.random() < 0.8}
    )


def test_negation_on_quotient_orders_and_partial_posets():
    rng = random.Random(5581)
    cases = []
    for space in SPACES:
        poset, op = _quotient_poset(space)
        cases.append((poset, op))
        cases += [(poset, partial_map(rng, poset.elements)) for _ in range(3)]
    for _ in range(150):
        poset = random_poset(rng, rng.randint(1, 7))
        cases.append((poset, partial_map(rng, poset.elements)))
    assert any(not p.is_lattice for p, _ in cases)
    failing = 0
    for poset, op in cases:
        new = check_negation(poset, op)
        old = oracle.check_negation(poset, op)
        same(new.checks, old.checks)
        assert (new.index, new.period, new.pace) == (old.index, old.period, old.pace)
        failing += not all(c.passed for _, c in new.checks.items())
    assert failing >= len(cases) // 2
