"""Table sweeps against the nested-loop scans they replaced.

Every law must report the same status and the same first witness as the
oracle in ``scan_oracles``, on every partition of up to five atoms and on
seeded corruptions of those structures: one-entry mutants of quotient
candidates, perturbed operator tables, and partial maps on quotient
orders and on posets whose meets and joins are partial.  The granulation
search must return the oracle's families in the oracle's order, and make
no predicate call the decomposition does not need; tables with more atom
classes than its granules can cut cells it settles before its walk.  Each
search input meets its oracle once: the plain-inclusion oracle tests
carry the spies on both per-granule tests, which plain inclusion, filling
them for every granule before its walk, must never call.  Every whole-carrier
table (rough classes, quotient candidate, mixed tables, parthood
matrices, maximal antichains) must equal the object fill it replaced;
the g-simple matrix also on granules that overlap, leave atoms uncovered
or stand alone.
The matrix-derived bounded poset must equal the per-cell scan poset
(order, meet and join tables, bounds, flags and error), the quotient
implication the composition of five quotient operations, and the quotient
possibility ¬L¬a.  ``RoughClass`` must accept exactly the bounds the
block scans accepted, on every pair of masks, and its members must be
exactly the subsets with its bounds.  Pair
membership read off the bound masks must answer as the frozenset of K
did, on K and on pairs outside it, with the same carrier and the same
results and errors from every pair operation; and each pair operation,
with its K gate shared, must give the result or the error message the
gates written out in place gave, on every ordered pair of K over every
partition of up to four atoms.  The falsifier must give each claim's
witness as one construction per claim did, at every cap up to six, and
its N1, N2, N3 and N9 masks must equal, byte for byte, those of one pass
per pair of elements on every lattice it reads.
The default operator tables, from ``from_space`` and from a model file
without tables, must equal the object approximations on every partition
of up to six atoms.
The ternary-law certificates must leave every report as the nested-loop
oracle gives it: on symmetric meet and join mutants of the quotients, on
every lattice of up to six elements and on symmetric block mutants of the
mixed tables, where the sweep must catch what a certificate rejects.
Both certificates must give the verdicts of their byte-row forms on those
quotient mutants and lattices, and on the quotients of 64, 81 and 108
classes and their symmetric mutants, whose rows take one and two words.
On a passing 54-class quotient and its mixed models no ternary row may be
built.  ``granular.lattice_laws`` must sweep the rows, and build at every
leading index the row, that the pre-rough base and the mixed suite each
built before it, on those mutants and lattices.  The join-irreducible
distributivity test must agree with the distributive law on every
lattice of up to seven elements and on random posets.
The meet and join tables read off packed down-sets must equal the row
pass on every lattice of up to seven elements, on the quotient orders of
every partition of up to six atoms and on random orders of up to 130
elements, and ``BoundedPoset`` must name the error the boolean product
named on relations that large.  Candidate validation on arrays must raise
the errors, with their texts, that the entry-by-entry check raised, and a
Boolean subset block of the mixed tables must need no distributive
certificate while a mutant one gets it and the oracle's reports, and
``lattice_laws`` must certify each table once.  The N5 iterate index read
off the map's index array must equal the object iterates' index on the
quotient orders of every partition of up to six atoms and every lattice
of up to seven elements, under partial maps, non-involutions and
permutations, and on posets with None as an element.  ``QuotientAlgebra.leq``
must equal ``leq_matrix()`` on every partition of up to six atoms.
The identity suite's tag detectors, read off the bound masks, must give
the reports of one ``rightsquig`` and one ``partial_neg`` call per
element on every partition of up to six atoms, with either commonality;
``RoughClass`` must raise, with the same type and text, exactly when
``class_index`` does on every pair of masks up to four atoms; and with
the subset, mixed and pair carriers made unlistable, the identity suite
must pass on every partition of up to five atoms and ``analyze`` must
run for every kind, building the elements of its witnesses and no other.
The quotient and mixed tables must equal their int64 reference where the
class ids wrap or 2^n passes the mask dtype, and the hexagon and the
discernibility square, building no case space and classifying no pair,
must give the figures that ``classify_pair`` gives with its
two-valuedness check on, and that the world-loop oracles give, for every
subset of every partition of up to five atoms.  The figures read off
extents must equal the world-loop oracles, with the same result or the
same error type and text: ``classify_pair``, with the check on and off,
on every case space of up to three worlds and two sentences over all
four (t, f) values, and ``combination_profile`` on every one of up to
two worlds under every shape of beta and bet annotation.  The N5
iterate index must equal the object iterates' index on every partial
map of up to four points, from every choice of undefined first entries.
"""

from __future__ import annotations

import dataclasses
import operator
import random
import sys
import warnings
from collections import Counter
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

import scan_oracles as oracle
from roughwork import (
    ApproximationSpace,
    RoughClass,
    Subset,
    Universe,
    cera,
    counting,
    granular,
    negation,
    opposition,
    parthood,
    prerough,
)
from roughwork.approx import SpaceMismatchError, UniverseMismatchError
from roughwork.cera import CeraModel, MixedElement, check_cera_identities
from roughwork.counting import SQUARE_PREDICATES, close, discernibility_square
from roughwork.crad import CradModel, DialecticalPair, UndefinedResultError
from roughwork.crad import _class as pair_class
from roughwork.granular import (
    INCLUSION,
    SEARCH_CANDIDATE_CAP,
    GranularModel,
    OperatorTable,
    ParthoodPredicate,
    SearchCapExceededError,
    check_admissibility,
    check_gos_axioms,
    from_space,
    search_admissible_granulations,
)
from roughwork.negation import (
    CLAIM_IDS,
    BoundedPoset,
    UnaryOp,
    check_negation,
    check_quotient_negation,
    enumerate_distributive_lattices,
    enumerate_lattices,
    falsify_theorem,
)
from roughwork.model_io import parse_model
from roughwork.opposition import (
    HEXAGON_NODE_ORDER,
    CaseSpace,
    DegeneratePartitionWarning,
    classify_pair,
    combination_profile,
    hexagon,
    joint_consistency,
    reference_tables,
)
from roughwork.parthood import MIXED_KINDS, SUBSET_KINDS, ParthoodKind, analyze
from roughwork.prerough import (
    FiniteAlgebraCandidate,
    QuotientAlgebra,
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


class Index:
    """An integer-like object that only has ``__index__``."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value


def raised(fn, *args):
    """The call's value, or the type and message of any error it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


TABLE_CORPUS = [
    ("meet", [[0, 0], [0]]),
    ("meet", [[0, 0]]),
    ("meet", [[0, 0], [0, 1], [1, 1]]),
    ("meet", [[0, 0, 0], [0, 1]]),
    ("meet", [1, 0]),
    ("meet", None),
    ("meet", "ab"),
    ("meet", [[0, 0], "01"]),
    ("meet", [["0", "0"], ["0", "1"]]),
    ("meet", [[0, 0], [0, 1.0]]),
    ("meet", [[0, None], [0, 1]]),
    ("meet", [[False, False], [False, True]]),
    ("meet", [[0, 0], [0, np.int64(1)]]),
    ("meet", [[0, 0], [0, Index(1)]]),
    ("meet", [[0, 0], [0, Index(2)]]),
    ("meet", [[0, 0], [0, 2**70]]),
    ("meet", [[0, 0], [0, 2**63]]),
    ("meet", [[0, -2**70], [0, 1]]),
    ("meet", [[0, 0], [-1, 1]]),
    ("meet", [[0, 0], [0, 2]]),
    ("meet", [[-1, 0], [0, 2]]),
    ("meet", np.array([[0, 0], [0, 1]], dtype=np.uint8)),
    ("meet", np.array([[0, 0], [0, 9]], dtype=np.int8)),
    ("meet", np.array([[0, 0], [0, 1]], dtype=float)),
    ("meet", np.array([[0, 0], [0, 1]], dtype=bool)),
    ("meet", np.zeros((2, 2, 1), dtype=int)),
    ("meet", np.zeros((3, 3), dtype=int)),
    ("join", None),
    ("join", [[0, 1], [1, -1]]),
    ("join", [[0, 1], [1, 1.0]]),
    ("join", [[0, 1], [1]]),
    ("join", [[0, 1], [1, 1], [1, 1]]),
    ("neg", [1]),
    ("neg", [1, 0, 0]),
    ("neg", [[1], [0]]),
    ("neg", [[1, 0], [0, 1]]),
    ("neg", [1, None]),
    ("neg", [1.0, 0]),
    ("neg", "10"),
    ("neg", None),
    ("neg", 1),
    ("neg", [True, False]),
    ("neg", (np.uint64(1), 0)),
    ("neg", [Index(1), Index(0)]),
    ("neg", [1, 2]),
    ("neg", [-1, 0]),
    ("neg", [2**70, 0]),
    ("neg", np.array([1, 0])),
    ("necessity", [0]),
    ("necessity", [0, 1, 1]),
    ("necessity", [0, "1"]),
    ("necessity", [0, 5]),
    ("zero", 2),
    ("zero", -1),
    ("zero", 1.5),
    ("zero", None),
    ("one", 2),
    ("one", np.int64(1)),
    ("one", True),
    ("carrier", ()),
    ("carrier", ("0", "1", "2")),
]


def test_candidate_validation_matches_the_entry_by_entry_check():
    good = FiniteAlgebraCandidate(
        carrier=("0", "1"),
        meet=[[0, 0], [0, 1]],
        join=[[0, 1], [1, 1]],
        neg=[1, 0],
        necessity=[0, 1],
        zero=0,
        one=1,
    )
    results = Counter()
    for field, value in TABLE_CORPUS:
        # The old check on a candidate whose field is set after construction.
        cand = dataclasses.replace(good)
        setattr(cand, field, value)
        expected = raised(oracle.validate_candidate, cand)
        got = raised(cand._validate)
        made = raised(lambda: dataclasses.replace(good, **{field: value}))
        if isinstance(expected, tuple) and isinstance(expected[0], type):
            assert got == expected and made == expected, (field, value)
            results[expected[0].__name__] += 1
            continue
        # Accepted: the arrays hold the tables' indices in the narrowest dtype.
        assert expected is None and isinstance(made, FiniteAlgebraCandidate), (field, value)
        n = len(cand.carrier)
        for name, arr in zip(("meet", "join", "neg", "necessity"), got):
            table = getattr(cand, name)
            if table is None:
                assert arr is None
                continue
            assert arr.dtype == np.min_scalar_type(n - 1)
            ints = np.vectorize(operator.index, otypes=[np.intp])(np.array(table, dtype=object))
            assert arr.tolist() == ints.tolist()
        results["accepted"] += 1
    assert results["ValueError"] >= 40 and results["TypeError"] >= 3
    assert results["accepted"] >= 10


def symmetric_mutant(table: list[list[int]], rng: random.Random, values) -> list[list[int]]:
    """Two mirror cells off the diagonal set to one new value from ``values``.

    Commutativity and idempotence hold as before, so only the associativity
    and distributivity certificates can reject the table.
    """
    a, b = rng.sample(range(len(table)), 2)
    out = [list(row) for row in table]
    out[a][b] = out[b][a] = rng.choice([v for v in values if v != table[a][b]])
    return out


def lattice_candidate(poset: BoundedPoset) -> FiniteAlgebraCandidate:
    n = len(poset.elements)
    return FiniteAlgebraCandidate(
        carrier=poset.elements,
        meet=poset._meet.tolist(),
        join=poset._join.tolist(),
        neg=list(range(n)),
        necessity=list(range(n)),
        zero=poset._bottom,
        one=poset._top,
    )


LATTICE_LAWS = ("idempotent", "commutative", "associative")
# Tables that are not associative but pass the down-set test: the first is
# not commutative, the second not idempotent.
DOWN_SET_ONLY = ([[0, 1, 1], [0, 1, 0], [0, 1, 2]], [[0, 0, 0], [0, 2, 0], [0, 0, 1]])


def test_ternary_certificates_on_symmetric_mutants_and_small_lattices():
    rng = random.Random(6203)
    cands = []
    for space in SPACES:
        cand = quotient_algebra(space).to_candidate()
        if cand.size > 1:
            for name in ("meet", "join", "meet", "join"):
                table = symmetric_mutant(getattr(cand, name), rng, range(cand.size))
                cands.append(dataclasses.replace(cand, **{name: table}))
    # Every lattice of up to six elements; N5 and M3 are the two at five
    # that pass every lattice law but distributivity.
    lattices = [p for n in range(1, 7) for p in enumerate_lattices(n)]
    chain = lattice_candidate(BoundedPoset.chain("xyz"))
    cands += [
        dataclasses.replace(chain, **{name: table})
        for table in DOWN_SET_ONLY
        for name in ("meet", "join")
    ]
    cands += [lattice_candidate(p) for p in lattices]
    # Rows of one full 64-bit word (64 classes) and of two words (81 and 108
    # classes), against the byte-row oracle and the sweep only.
    wide = []
    for blocks in (list("abcdef"), ["ab", "cd", "ef", "gh"], ["ab", "cd", "ef", "g", "h"]):
        space = ApproximationSpace.from_partition("".join(blocks), blocks)
        cand = quotient_algebra(space).to_candidate()
        wide += [cand] + [
            dataclasses.replace(cand, **{name: symmetric_mutant(getattr(cand, name), rng, range(cand.size))})
            for name in ("meet", "join", "meet", "join")
        ]
    assert [c.size for c in wide[::5]] == [64, 81, 108]
    caught = Counter()
    for cand in cands + wide:
        new = check_pre_rough(cand)
        if cand.size <= 32:
            same(new, oracle.check_pre_rough(cand))
            same(check_essential_pre_rough(cand), oracle.check_essential_pre_rough(cand))
        mt, jn = np.array(cand.meet), np.array(cand.join)
        for law, certified, old in (
            ("meet-associative", granular.associative(mt), oracle.associative_bytes(mt)),
            ("join-associative", granular.associative(jn), oracle.associative_bytes(jn)),
            ("distributivity", granular.distributive(mt, jn), oracle.distributive_bytes(mt, jn)),
        ):
            assert certified == old, law
            # A certificate decides PASS only; every FAIL is the sweep's.
            assert not (certified and not new[law].passed)
            caught[law] += not new[law].passed
    for p, cand in zip(lattices, cands[-len(lattices) :]):
        report = check_pre_rough(cand)
        ops = [f"{op}-{law}" for op in ("meet", "join") for law in LATTICE_LAWS]
        assert all(report[name].passed for name in ops + ["absorption"])
        assert report["distributivity"].passed == p.is_distributive
    assert caught["meet-associative"] >= 120 and caught["join-associative"] >= 120
    assert caught["distributivity"] >= 250


def test_cera_ternary_certificates_on_symmetric_block_mutants(monkeypatch):
    rng = random.Random(3517)
    caught = 0
    for space in SPACES[:23]:  # up to four atoms
        for soft in (False, True):
            model = CeraModel(space, soft=soft)
            size, n = 1 << space.universe.size, len(model.elements())
            for k in (0, 1, 0, 1):  # (+) or the commonality
                # Mirror cells inside one block, set to a value in it or anywhere.
                block = rng.choice([range(size), range(size, n)])
                if len(block) < 2:
                    continue
                mutant = list(model.tables())
                inner = mutant[k][block.start : block.stop, block.start : block.stop]
                mutant[k] = mutant[k].copy()
                mutant[k][block.start : block.stop, block.start : block.stop] = (
                    symmetric_mutant(inner.tolist(), rng, rng.choice([block, range(n)]))
                )
                with monkeypatch.context() as m:
                    m.setattr(CeraModel, "tables", lambda self: tuple(mutant))
                    report = check_cera_identities(model)
                    expected = oracle.cera_ternary_laws(model)
                assert [(name, report[name]) for name in expected] == list(expected.items())
                # A FAIL comes from the sweep, which runs only past a rejected certificate.
                caught += not all(check.passed for check in expected.values())
    assert caught >= 150


def test_boolean_subset_block_needs_no_distributive_certificate(monkeypatch):
    calls = []  # block sizes, subsets before classes
    real = granular._distributive_past
    counting = lambda mt, jn, ok: calls.append(len(mt)) or real(mt, jn, ok)
    monkeypatch.setattr(granular, "_distributive_past", counting)
    rng = random.Random(2749)
    caught = 0
    for space in SPACES[:23]:  # up to four atoms
        size = 1 << space.universe.size
        for soft in (False, True):  # the commonality slot is odot, then circ
            model = CeraModel(space, soft=soft)
            n = len(model.elements())
            calls.clear()
            assert check_cera_identities(model).all_pass
            assert calls == [n - size]  # the class block only
            for k in (0, 1):  # (+) or the commonality
                # Mirror cells of the subset block, set to a subset or anything.
                mutant = [t.copy() for t in model.tables()]
                block = mutant[k][:size, :size]
                values = rng.choice([range(size), range(n)])
                block[:] = symmetric_mutant(block.tolist(), rng, values)
                calls.clear()
                with monkeypatch.context() as m:
                    m.setattr(CeraModel, "tables", lambda self: tuple(mutant))
                    report = check_cera_identities(model)
                    expected = oracle.cera_ternary_laws(model)
                assert [(name, report[name]) for name in expected] == list(expected.items())
                assert calls == [size, n - size]
                caught += not all(check.passed for check in expected.values())
    assert caught >= 40


def same_row_law(new, old, size: int) -> bool:
    """Assert that two row laws sweep the same rows and build equal rows at
    every leading index, certified or not; return whether they sweep any."""
    (new_rows, new_row), (old_rows, old_row) = (
        law if isinstance(law, tuple) else (range(size), law) for law in (new, old)
    )
    assert list(new_rows) == list(old_rows)
    for i in range(size):
        a, b = new_row(i), old_row(i)
        assert a.shape == b.shape and (a == b).all()
    return bool(len(new_rows))


def test_lattice_laws_build_the_rows_they_replaced():
    rng = random.Random(4409)
    swept = Counter()
    # Symmetric block mutants of the mixed tables, valued in the block or anywhere.
    for space in SPACES[:23]:  # up to four atoms
        for soft in (False, True):  # the commonality slot is odot, then circ
            model = CeraModel(space, soft=soft)
            size, n = 1 << space.universe.size, len(model.elements())
            plus, times = model.tables()[:2]
            variants = [(plus, times)]
            for k in (0, 1, 0, 1):
                block = rng.choice([range(size), range(size, n)])
                if len(block) < 2:
                    continue
                mutant = [plus.copy(), times.copy()]
                inner = mutant[k][block.start : block.stop, block.start : block.stop]
                inner[:] = symmetric_mutant(inner.tolist(), rng, rng.choice([block, range(n)]))
                variants.append(tuple(mutant))
            for plus_, times_ in variants:
                for block in (range(size), range(size, n)):
                    for dist in (None, True):
                        new = granular.lattice_laws(times_, plus_, block, dist)
                        idxs = np.arange(block.start, block.stop)
                        old = oracle.cera_block_rows(plus_, times_, idxs, dist)
                        for new_law, old_law in zip((new[1], new[3], new[0]), old):
                            swept["cera"] += same_row_law(new_law, old_law, len(block))
    # Symmetric meet and join mutants of the quotients, and every lattice of
    # up to six elements.
    cands = []
    for space in SPACES:
        cand = quotient_algebra(space).to_candidate()
        cands.append(cand)
        if cand.size > 1:
            for name in ("meet", "join", "meet", "join"):
                table = symmetric_mutant(getattr(cand, name), rng, range(cand.size))
                cands.append(dataclasses.replace(cand, **{name: table}))
    cands += [lattice_candidate(p) for n in range(1, 7) for p in enumerate_lattices(n)]
    for cand in cands:
        mt, jn, ng, _, r = prerough._tables(cand)
        new = prerough._lattice_base(cand, mt, jn, ng, r)
        for name, old_law in oracle.lattice_rows(mt, jn).items():
            swept[name] += same_row_law(new[name], old_law, cand.size)
    assert swept["cera"] >= 300
    assert min(swept[name] for name in ("meet-associative", "join-associative")) >= 120
    assert swept["distributivity"] >= 250


def test_lattice_laws_certify_each_table_once(monkeypatch):
    tables = []
    real = granular.associative
    monkeypatch.setattr(granular, "associative", lambda op: tables.append(op.tolist()) or real(op))
    rng = random.Random(3307)
    rejected = 0
    for space in SPACES:
        cand = quotient_algebra(space).to_candidate()
        if cand.size < 2:
            continue
        for name in ("meet", "join", "meet", "join"):
            mutant = dataclasses.replace(
                cand, **{name: symmetric_mutant(getattr(cand, name), rng, range(cand.size))}
            )
            mt, jn = np.array(mutant.meet), np.array(mutant.join)
            tables.clear()
            laws = granular.lattice_laws(mt, jn, range(cand.size))
            assert tables == [mt.tolist(), jn.tolist()]
            rejected += bool(len(laws[2][0]))  # distributivity left to the sweep
    assert rejected >= 250


def counted_row_sweeps(monkeypatch) -> list:
    """Record every row that a row-function law builds, in both sweeping modules."""
    calls = []
    real = granular.first_violation

    def counting(bad, axes):
        if not isinstance(bad, tuple):
            return real(bad, axes)
        rows, fn = bad
        return real((rows, lambda i: calls.append(i) or fn(i)), axes)

    monkeypatch.setattr(granular, "first_violation", counting)
    monkeypatch.setattr(cera, "first_violation", counting)
    return calls


def test_certified_ternary_laws_build_no_row(monkeypatch):
    space = ApproximationSpace.from_partition("abcdefg", ["ab", "cd", "ef", "g"])
    cand = quotient_algebra(space).to_candidate()
    assert cand.size == 54
    calls = counted_row_sweeps(monkeypatch)
    assert check_pre_rough(cand).all_pass and check_essential_pre_rough(cand).all_pass
    for soft in (False, True):
        assert check_cera_identities(CeraModel(space, soft=soft)).all_pass
    assert calls == []
    # The counter sees a sweep where a certificate fails.
    rng = random.Random(1)
    mutant = dataclasses.replace(cand, meet=symmetric_mutant(cand.meet, rng, range(54)))
    assert not check_pre_rough(mutant)["meet-associative"].passed
    assert calls


def perturbed(table: OperatorTable, rng: random.Random, count: int) -> OperatorTable:
    size = 1 << table.universe.size
    entries = dict(enumerate(table._table))
    for _ in range(count):
        entries[rng.randrange(size)] = rng.randrange(size)
    return OperatorTable(table.universe, entries)


def gos_models() -> list[list[GranularModel]]:
    """Per partition: its model, then two with perturbed tables."""
    rng = random.Random(2203)
    out = []
    for space in SPACES:
        model = from_space(space)
        out.append(
            [model]
            + [
                GranularModel(
                    universe=model.universe,
                    granules=model.granules,
                    lower_op=perturbed(model.lower_op, rng, rng.randint(1, 3)),
                    upper_op=perturbed(model.upper_op, rng, rng.randint(1, 3)),
                )
                for _ in range(2)
            ]
        )
    return out


def test_gos_and_operator_tables_on_partitions_and_perturbations():
    failing = 0
    for models in gos_models():
        for m in models:
            for strict in (False, True):
                new = check_gos_axioms(m, strict_upper=strict)
                same(new, oracle.check_gos_axioms(m, strict_upper=strict))
                failing += not new.all_pass
            for table in (m.lower_op, m.upper_op):
                report = check_gos_axioms(dataclasses.replace(m, lower_op=table, upper_op=table))
                for name, check in oracle.operator_laws_as_gos(table, table):
                    assert report[name] == check, name
    assert failing >= len(SPACES) * 3


def test_classes_quotient_tables_and_antichains_on_partitions():
    for space in SPACES:
        for include_empty in (False, True):
            assert space.rough_classes(include_empty) == oracle.rough_classes(
                space, include_empty
            )
        q = quotient_algebra(space)
        new, old = q.to_candidate(), oracle.quotient_candidate(q)
        assert list(new.carrier) == list(old.carrier)
        for name in ("meet", "join", "neg", "necessity"):
            assert np.array_equal(getattr(new, name), getattr(old, name)), name
        assert (new.zero, new.one) == (old.zero, old.one)
        for limit in (3, 10**6):
            assert q.maximal_antichains(limit) == oracle.maximal_antichains(
                q.carrier, limit
            )


@pytest.mark.parametrize("soft", [False, True], ids=["odot", "circ"])
def test_mixed_tables_and_identity_reports_on_partitions(soft, monkeypatch):
    for space in SPACES:
        model = CeraModel(space, soft=soft)
        old = oracle.cera_tables(model)
        for new_table, old_table in zip(model.tables(), old, strict=True):
            assert new_table.dtype == old_table.dtype
            assert np.array_equal(new_table, old_table)
        report = check_cera_identities(model)
        with monkeypatch.context() as m:
            m.setattr(CeraModel, "tables", lambda self: old)
            same(report, check_cera_identities(model))


@pytest.mark.parametrize("soft", [False, True], ids=["odot", "circ"])
def test_tag_detectors_match_the_element_calls_up_to_six_atoms(soft):
    for space in SPACES_6:
        model = CeraModel(space, soft=soft)
        report = check_cera_identities(model)
        assert list(report.items())[:2] == list(oracle.cera_tag_detectors(model).items())


def test_tables_at_the_dtype_edges_equal_an_int64_reference():
    """Class ids are counted in the mask dtype, which wraps on 8 singleton
    blocks, and 2^n, past that dtype from 8 atoms on, is added to them in
    the carrier dtype."""
    for atoms, blocks in (
        ("abcdefgh", "abcdefgh"),
        ("abcdefgh", ["ab", "cd", "ef", "gh"]),
        ("abcdefghij", ["ab", "cd", "ef", "gh", "ij"]),
    ):
        space = ApproximationSpace.from_partition(atoms, blocks)
        wide = ApproximationSpace.from_partition(atoms, blocks)
        wide._masks = oracle.int64_masks(space)
        assert np.array_equal(space.masks.class_id, wide.masks.class_id)
        quotients = QuotientAlgebra(space).tables(), QuotientAlgebra(wide).tables()
        for new, old in zip(*quotients, strict=True):
            assert old.dtype == np.int64 and np.array_equal(new, old)
        for new, old in zip(CeraModel(space).tables(), CeraModel(wide).tables(), strict=True):
            assert np.array_equal(new, old)


def test_hexagon_and_square_figures_match_the_checked_classification(monkeypatch):
    """Both read their figures off their extents, building no case space and
    classifying no pair; classify_pair with its two-valuedness check on, and
    the world-loop oracles, give the same figures."""

    def refuse(*args, **kwargs):
        raise AssertionError("a case space was built or a pair classified")

    def refusing(m):
        m.setattr(CaseSpace, "__init__", refuse)
        m.setattr(opposition, "classify_pair", refuse)
        m.setattr(counting, "classify_pair", refuse, raising=False)

    hexagons = 0
    for space in SPACES:
        u = space.universe
        for x in u.subsets():
            with monkeypatch.context() as m, warnings.catch_warnings():
                refusing(m)
                warnings.simplefilter("ignore", DegeneratePartitionWarning)
                report = hexagon(space, x)
            nodes = {name: set(sub.atom_names()) for name, sub in report.nodes.items()}
            cs = CaseSpace.from_sets(u.atoms, nodes)
            pairs = combinations(HEXAGON_NODE_ORDER, 2)
            assert report.figures == {(p, q): classify_pair(cs, p, q).figure for p, q in pairs}
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegeneratePartitionWarning)
                assert report == oracle.hexagon(space, x)
            hexagons += 1
        blocks = [b.atom_names() for b in space.blocks]
        rel = close(u.atoms, [(block[0], a) for block in blocks for a in block])
        with monkeypatch.context() as m:
            refusing(m)
            square = discernibility_square(rel)
        cs = CaseSpace.from_sets([(a, b) for a in u.atoms for b in u.atoms], square.extents)
        pairs = combinations(SQUARE_PREDICATES, 2)
        assert square.figures == {(p, q): classify_pair(cs, p, q).figure for p, q in pairs}
        assert square == oracle.discernibility_square(rel)
    assert hexagons == sum(1 << s.universe.size for s in SPACES)


def test_figures_come_in_the_order_of_their_sentence_pairs():
    """The hexagon and the square list their figures pair by pair, in the
    order of their nodes and predicates."""
    for space in SPACES:
        u = space.universe
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneratePartitionWarning)
            for x in u.subsets():
                assert list(hexagon(space, x).figures) == list(combinations(HEXAGON_NODE_ORDER, 2))
        rel = close(u.atoms, [(b.atom_names()[0], a) for b in space.blocks for a in b.atom_names()])
        assert list(discernibility_square(rel).figures) == list(combinations(SQUARE_PREDICATES, 2))


def test_joint_consistency_matches_the_per_table_scan_on_every_subset_of_the_catalog():
    """Every subset of the 12 reference tables, in catalog order and reversed,
    gets the oracle's verdict, model and count of assignments checked."""
    tables = reference_tables()
    verdicts = Counter()
    for bits in range(1 << len(tables)):
        chosen = [t for i, t in enumerate(tables) if bits >> i & 1]
        for order in (chosen, chosen[::-1]):
            got = joint_consistency(order)
            assert got == oracle.joint_consistency(order)
            verdicts[got.satisfiable] += 1
    assert verdicts == {True: 5888, False: 2304}


def case_spaces(max_worlds: int):
    """Every case space of up to ``max_worlds`` worlds valuing sentences A and
    B, each with any of the four (t, f) bit pairs at each world."""
    for k in range(1, max_worlds + 1):
        worlds = tuple(f"w{i}" for i in range(k))
        for cells in product(product((0, 1), repeat=2), repeat=2 * k):
            valuation = {"A": dict(zip(worlds, cells[:k])), "B": dict(zip(worlds, cells[k:]))}
            yield CaseSpace(worlds, valuation)


def test_classify_pair_matches_the_world_loop_on_every_small_case_space():
    # C is unvalued, so its KeyError text must name the same world.
    spaces = 0
    for cs in case_spaces(3):
        for a, b in (("A", "B"), ("B", "A"), ("A", "A"), ("C", "B"), ("A", "C")):
            for classical in (True, False):
                new = raised(classify_pair, cs, a, b, classical)
                assert new == raised(oracle.classify_pair, cs, a, b, classical)
        spaces += 1
    assert spaces == 4**2 + 4**4 + 4**6


BOOLS = (True, False)
BETAS = [None, {}] + [{s: v} for s in "AB" for v in BOOLS]
BETAS += [{"A": x, "B": y} for x, y in product(BOOLS, repeat=2)]
BETS = [None, {}] + [{key: v} for key in (("A", "B"), ("B", "A")) for v in BOOLS]
BETS += [{("A", "B"): x, ("B", "A"): y} for x, y in product(BOOLS, repeat=2)]


def test_combination_profile_matches_the_world_loop_on_every_small_case_space():
    # The right label is read only where the left holds: an unvalued right
    # sentence is named at the first such world, and a missing right
    # annotation raises only if the left label holds somewhere.
    outcomes = Counter()
    pairs = [("A", "B"), ("B", "A"), ("A", "C"), ("C", "A")]
    for cs in case_spaces(2):
        for (a, b), beta, bet in product(pairs, BETAS, BETS):
            new = raised(combination_profile, cs, a, b, beta, bet)
            assert new == raised(oracle.combination_profile, cs, a, b, beta, bet)
            outcomes[new[0] if isinstance(new, tuple) else "profile"] += 1
    assert outcomes.keys() == {"profile", KeyError, opposition.MissingAnnotationError}


def test_passing_sweeps_build_no_carrier_and_witnesses_only_their_elements(monkeypatch):
    def refuse(*args):
        raise AssertionError("a carrier was listed")

    monkeypatch.setattr(Universe, "subsets", refuse)
    monkeypatch.setattr(CeraModel, "elements", refuse)
    monkeypatch.setattr(CradModel, "carrier", property(refuse))
    built = Counter()
    for cls, name in ((Universe, "from_mask"), (CeraModel, "element"), (CradModel, "pair")):

        def counted(self, i, make=getattr(cls, name), name=name):
            built[name] += 1
            return make(self, i)

        monkeypatch.setattr(cls, name, counted)
    witnessed = 0
    for space in SPACES:
        built.clear()
        for soft in (False, True):
            assert check_cera_identities(CeraModel(space, soft=soft)).all_pass
        assert not built
        cera = CeraModel(space)
        for kind in ParthoodKind:
            model = (
                from_space(space) if kind is ParthoodKind.G_SIMPLE
                else space if kind in SUBSET_KINDS
                else cera if kind in MIXED_KINDS
                else CradModel(cera)
            )
            built.clear()
            report = analyze(kind, model)
            checks = (report.reflexive, report.transitive, report.antisymmetric)
            elements = sum(len(c.witness) for c in checks if not c.passed)
            witnessed += elements
            if kind in SUBSET_KINDS:
                assert built == Counter(from_mask=elements)
            elif kind in MIXED_KINDS:
                assert built == Counter(element=elements)
            else:
                assert built == Counter(pair=elements, element=2 * elements)
    assert witnessed > 0


def test_parthood_matrices_and_reports_on_partitions(monkeypatch):
    cases = []
    for space, models in zip(SPACES, gos_models()):
        cera = CeraModel(space)
        pairs = CradModel(cera)
        subsets = list(space.universe.subsets())
        assert pairs.carrier == tuple(
            [pairs.first_pair(x) for x in subsets] + [pairs.second_pair(x) for x in subsets]
        )
        for kind in ParthoodKind:
            if kind is ParthoodKind.G_SIMPLE:
                # g-simple reads the granules only, which perturbation keeps
                cases.append((kind, models[0]))
            elif kind in SUBSET_KINDS:
                # the space's own bounds, then the perturbed tables
                cases += [(kind, m) for m in [space] + models[1:]]
            elif kind in MIXED_KINDS:
                cases.append((kind, cera))
            else:
                cases.append((kind, pairs))
    failing = set()
    for kind, model in cases:
        elements, new = parthood.relation_matrix(kind, model)
        old = oracle.relation_matrix(kind, model)
        assert list(elements) == old[0]
        assert new.dtype == bool and np.array_equal(new, old[1]), kind
        report = analyze(kind, model)
        with monkeypatch.context() as m:
            m.setattr(parthood, "relation_matrix", lambda kind, model, cap: old)
            assert analyze(kind, model) == report
        failing |= {(kind, flag) for flag, check in vars(report).items() if not check.passed}
    assert len(failing) >= 20


def g_simple_models() -> list[GranularModel]:
    """Granule families that are not partitions, on up to five atoms."""
    rng = random.Random(6151)
    out = []
    for n in range(1, 6):
        u = Universe("abcde"[:n])
        identity = OperatorTable.from_list(u, range(1 << n))
        families = [[m] for m in range(1, 1 << n)] + [
            rng.sample(range(1, 1 << n), min(k, (1 << n) - 1))
            for k in (2, 2, 3, 3, 4, 5)
        ]
        for masks in families:
            granules = tuple(Subset(u, m) for m in masks)
            out.append(GranularModel(u, granules, identity, identity))
    return out


def test_g_simple_matrices_and_reports_on_granules_that_are_not_partitions(
    monkeypatch,
):
    models = g_simple_models()
    kinds = Counter()
    for model in models:
        masks = [g.mask for g in model.granules]
        kinds["single"] += len(masks) == 1
        kinds["overlapping"] += any(a & b for a, b in combinations(masks, 2))
        kinds["not covering"] += len(masks) > 1 and np.bitwise_or.reduce(
            masks
        ) != model.universe.full.mask
        elements, new = parthood.relation_matrix(ParthoodKind.G_SIMPLE, model)
        old = oracle.relation_matrix(ParthoodKind.G_SIMPLE, model)
        assert list(elements) == old[0]
        assert new.dtype == bool and np.array_equal(new, old[1])
        report = analyze(ParthoodKind.G_SIMPLE, model)
        with monkeypatch.context() as m:
            m.setattr(parthood, "relation_matrix", lambda kind, model, cap: old)
            assert analyze(ParthoodKind.G_SIMPLE, model) == report
        kinds["not antisymmetric"] += not report.antisymmetric.passed
    assert min(kinds.values()) >= 5, kinds


def outside_pairs(space: ApproximationSpace, rng: random.Random) -> list[DialecticalPair]:
    """Pairs outside K, with members over an equal space built apart.

    Drawn per round: two subsets or two classes; a subset with the class
    of another subset; a subset with its class under another partition of
    the same atoms; and pairs over a foreign universe, one atom larger or
    of the same size, alone or with a subset or class of the space.
    """
    u = space.universe
    subsets = list(u.subsets())
    others = [s for s in SPACES if s.universe == u and s != space]
    twin = ApproximationSpace.from_partition(u.atoms, [list(b) for b in space.blocks])
    foreign = [
        ApproximationSpace.from_partition("uvwxyz"[:k], ["uvwxyz"[:k]])
        for k in (u.size, u.size + 1)
    ]

    def sub(x):
        return MixedElement.type1(x)

    def cls(sp, x):
        return MixedElement.type2(sp.rough_class_of(x))

    out = []
    for _ in range(6):
        x, y = rng.choice(subsets), rng.choice(subsets)
        far = rng.choice(foreign)
        z = far.universe.from_mask(rng.randrange(1 << far.universe.size))
        pairs = [
            (sub(x), sub(y)),
            (cls(space, x), cls(space, y)),
            (sub(x), cls(space, y)),
            (cls(space, y), sub(x)),
            (sub(twin.universe.from_mask(x.mask)), cls(twin, x)),
            (sub(z), cls(far, z)),
            (cls(far, z), sub(z)),
            (sub(z), cls(space, x)),
            (cls(far, z), sub(x)),
        ]
        if others:
            other = rng.choice(others)
            pairs += [(sub(x), cls(other, x)), (cls(other, x), sub(x))]
        out += [DialecticalPair(a, b) for a, b in pairs]
    return out


def outcome(fn, *args):
    """The call's value, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def test_pair_membership_and_operations_match_the_materialized_carrier():
    rng = random.Random(6113)
    inside, kinds = Counter(), Counter()
    for space in SPACES:
        cera = CeraModel(space)
        new, old = CradModel(cera), oracle.MemberSetCrad(cera)
        assert "carrier" not in new.__dict__
        assert new.carrier == old.carrier and new.carrier is new.carrier
        members = list(new.carrier)
        outside = outside_pairs(space, rng)
        for p in members + outside:
            assert new.contains(p) is old.contains(p)
            inside[new.contains(p)] += 1
            for name in ("l_star", "sim_star"):
                assert outcome(getattr(new, name), p) == outcome(getattr(old, name), p)
        operands = [(rng.choice(members), rng.choice(members)) for _ in range(300)]
        for p in outside:
            q = rng.choice(members)
            operands += [(p, q), (q, p)]
        for p, q in operands:
            for name in ("plus", "times", "natural_parthood"):
                got = outcome(getattr(new, name), p, q)
                assert got == outcome(getattr(old, name), p, q)
                kinds[got[0] if isinstance(got, tuple) else type(got)] += 1
    # members and strays; defined and undefined results; rejected operands
    assert inside[True] > 4000 and inside[False] > 3000
    assert kinds[DialecticalPair] > 20000 and kinds[bool] > 20000
    assert kinds[UndefinedResultError] > 10000 and kinds[ValueError] > 15000


SPACES_6 = SPACES + [
    ApproximationSpace.from_partition("abcdef", blocks) for blocks in set_partitions("abcdef")
]


def test_default_tables_equal_the_object_approximations_up_to_six_atoms():
    assert len(SPACES_6) == 75 + 203
    for space in SPACES_6:
        u = space.universe
        tables = (
            OperatorTable.from_callable(u, space.lower),
            OperatorTable.from_callable(u, space.upper),
        )
        body = {"universe": list(u.atoms), "partition": [list(b) for b in space.blocks]}
        for model in (from_space(space), parse_model(body).granular):
            assert model.granules == space.blocks
            assert (model.lower_op, model.upper_op) == tables
            assert {type(v) for v in model.lower_op._table + model.upper_op._table} == {int}


def test_each_carrier_statement_equals_the_eager_form_it_replaced_up_to_six_atoms():
    for space in SPACES_6:
        u, mixed = space.universe, CeraModel(space)
        pairs, q = CradModel(mixed), mixed.quotient
        subsets, classes = oracle.subsets(u), oracle.quotient_carrier(q)
        assert list(u.labels()) == list(u.subsets()) == subsets
        assert tuple(space.class_labels()) == tuple(q.labels()) == q.carrier == classes
        assert space.rough_classes(include_empty=True) == list(classes)
        for include_empty in (False, True):
            old = oracle.rough_classes_by_bounds(space, include_empty)
            assert space.rough_classes(include_empty) == old
        assert list(mixed.labels()) == mixed.elements() == oracle.cera_elements(mixed)
        assert tuple(pairs.labels()) == pairs.carrier == oracle.crad_carrier(pairs)
        eager = [subsets, classes, mixed.elements(), pairs.carrier]
        statements = [u.labels(), q.labels(), mixed.labels(), pairs.labels()]
        for labels, listed in zip(statements, eager, strict=True):
            n = len(listed)
            assert len(labels) == n
            at = (0, n // 2, n - 1, -1)
            assert [labels[i] for i in at] == [listed[i] for i in at]
            assert list(labels[1::3]) == list(listed[1::3])
        kinds = ((ParthoodKind.LATERAL, space), (ParthoodKind.ADDITIVE, mixed))
        for kind, model in kinds + ((ParthoodKind.NATURAL_CRAD, pairs),):
            assert len(parthood._carrier(kind, model)) == oracle.carrier_size(kind, model)
        # the class of each element: the array against the layout and the object path
        mixed_class = lambda el: parthood._class_of(mixed, el)
        for kind, model, elements, of in (
            (ParthoodKind.ROUGHLY_CONSISTENT, mixed, mixed.elements(), mixed_class),
            (ParthoodKind.NATURAL_CRAD, pairs, pairs.carrier, pair_class),
        ):
            ids = model.class_ids()
            assert np.array_equal(ids, oracle.element_classes(kind, model))
            assert [classes[c] for c in ids.tolist()] == [of(el) for el in elements]


def random_order(rng: random.Random, n: int) -> list[tuple[int, int]]:
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
    return [(i, j) for i in range(n) for j in rel[i] if i != j]


def random_poset(rng: random.Random, n: int) -> BoundedPoset:
    return BoundedPoset(range(n), random_order(rng, n))


def partial_map(rng: random.Random, elements) -> UnaryOp:
    return UnaryOp(
        {x: rng.choice(elements) for x in elements if rng.random() < 0.8}
    )


def test_negation_on_quotient_orders_and_partial_posets():
    rng = random.Random(5581)
    cases = []
    for space in SPACES:
        poset, op = oracle.quotient_poset(space)
        quotient = quotient_algebra(space)  # the map read off the negation table
        assert op.mapping == {c: quotient.neg(c) for c in quotient.carrier}
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


def leq_pairs(elements, leq) -> list[tuple]:
    return [(a, b) for a in elements for b in elements if leq(a, b)]


def same_poset(elements, pairs) -> str | None:
    """The matrix poset against the scan oracle; returns the error raised, if any."""
    try:
        old = oracle.ScanPoset(elements, pairs)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            BoundedPoset(elements, pairs)
        assert str(got.value) == str(exc)
        return str(exc)
    new = BoundedPoset(elements, pairs)
    assert new._rel.dtype == bool and new._rel.tolist() == old._rel
    for mine, theirs in ((new._meet, old._meet), (new._join, old._join)):
        assert mine.tolist() == [[-1 if v is None else v for v in row] for row in theirs]
    for a in elements:
        for b in elements:
            assert (new.meet(a, b), new.join(a, b)) == (old.meet(a, b), old.join(a, b))
    assert (new.bottom, new.top) == (old.bottom, old.top)
    assert (new.is_lattice, new.is_distributive) == (old.is_lattice, old.is_distributive)
    return None


def test_poset_on_quotient_orders_lattices_and_random_orders():
    for space in SPACES:
        q = quotient_algebra(space)
        assert same_poset(q.carrier, leq_pairs(q.carrier, q.leq)) is None
    rng = random.Random(5581)
    for _ in range(150):
        n = rng.randint(1, 7)
        assert same_poset(range(n), random_order(rng, n)) is None
    flags = set()
    for n in range(1, 6):
        # every candidate relation the lattice enumeration builds from
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for bits in range(1 << len(upper)):
            pairs = [p for k, p in enumerate(upper) if bits >> k & 1]
            same_poset(range(n), pairs)
        for p in enumerate_lattices(n):
            assert same_poset(p.elements, leq_pairs(p.elements, p.leq)) is None
            flags.add(p.is_distributive)
    assert flags == {True, False}


def test_poset_errors_and_their_precedence_on_unclosed_and_cyclic_relations():
    rng = random.Random(7723)
    errors = {}
    for _ in range(3000):
        n = rng.randint(1, 7)
        labels = rng.sample("abcdefg", n)
        density = rng.random()
        pairs = {(a, b) for a in labels for b in labels if rng.random() < density}
        if rng.random() < 0.3:
            # a transitive relation with one reversed pair, so a cycle
            for c in labels:
                pairs |= {(a, d) for a, b in pairs for b2, d in pairs if b == b2 == c}
            if pairs:
                a, b = rng.choice(sorted(pairs))
                pairs.add((b, a))
        cyclic = any(a != b and (b, a) in pairs for a, b in pairs)
        unclosed = any(
            a != d and (a, d) not in pairs for a, b in pairs for c, d in pairs if b == c
        )
        got = same_poset(labels, sorted(pairs))
        errors.setdefault((cyclic, unclosed), set()).add(got)
    cycle, unclosed = "order is not antisymmetric", "order is not transitive"
    assert errors[(True, True)] == {cycle, unclosed}
    assert errors[(True, False)] == {cycle}
    assert errors[(False, True)] == {unclosed}
    assert errors[(False, False)] == {None, "poset has no least element"}
    with pytest.raises(ValueError, match="distinct"):
        BoundedPoset("aa", [])


@pytest.fixture(scope="module")
def lattices() -> dict[int, list[BoundedPoset]]:
    """Every lattice of up to seven elements, by size."""
    return {n: enumerate_lattices(n) for n in range(1, 8)}


def random_closed_order(rng: random.Random, n: int) -> np.ndarray:
    """A transitive order on n shuffled elements, sparse or dense, with or
    without a least element."""
    perm = np.array(rng.sample(range(n), n))
    rel = np.eye(n, dtype=bool)
    density = rng.choice([0.02, 0.08, 0.3])
    upper = np.triu(np.array([[rng.random() < density for _ in range(n)] for _ in range(n)]), 1)
    rel[perm[:, None], perm] |= upper
    if rng.random() < 0.5:
        rel[perm[0]] = True
    for k in range(n):
        rel |= rel[:, k, None] & rel[k]
    return rel


def test_meet_tables_match_the_row_pass(lattices):
    orders = [p._rel for ps in lattices.values() for p in ps]
    for n in range(1, 7):
        for blocks in set_partitions("abcdef"[:n]):
            q = quotient_algebra(ApproximationSpace.from_partition("abcdef"[:n], blocks))
            # The quotient is a lattice, and its meet is the componentwise one.
            assert (negation._meet_table(q.leq_matrix()) == q.tables()[0]).all()
            orders.append(q.leq_matrix())
    rng = random.Random(8821)
    sizes = list(range(1, 131)) + [rng.choice([63, 64, 65, 127, 128, 129]) for _ in range(30)]
    orders += [random_closed_order(rng, n) for n in sizes]
    partial = 0
    for rel in orders:
        for r in (rel, rel.T):
            got, expected = negation._meet_table(r), oracle.meet_table(r)
            assert got.dtype == expected.dtype and (got == expected).all()
            partial += (got < 0).any()
    assert partial >= 100


def total_map(rng: random.Random, elements) -> UnaryOp:
    return UnaryOp({x: rng.choice(elements) for x in elements})


def test_iterate_index_matches_the_object_iterates(lattices):
    # Quotient orders with their negation and seeded partial and total maps;
    # every lattice of up to seven elements with those and a permutation.
    rng = random.Random(6619)
    cases = []
    for space in SPACES_6:
        poset, op = oracle.quotient_poset(space)
        cases += [(poset, op), (poset, partial_map(rng, poset.elements))]
        cases.append((poset, total_map(rng, poset.elements)))
    for poset in (p for ps in lattices.values() for p in ps):
        els = poset.elements
        cases += [(poset, partial_map(rng, els)), (poset, total_map(rng, els))]
        cases.append((poset, UnaryOp(dict(zip(els, rng.sample(els, len(els)))))))
    assert len(cases) == 3 * 278 + 3 * 78
    long_tails = 0
    for poset, op in cases:
        index = check_negation(poset, op).index
        assert index == oracle.iterate_index(poset.elements, op)
        m, n = index
        long_tails += m >= 2 and n - m >= 2
    assert long_tails >= 300


def test_quotient_tables_are_the_order_its_poset_rebuilds_up_to_six_atoms():
    # The quotient's own tables against the BoundedPoset rebuilt from its
    # order pairs, and the profile read off them against check_negation there.
    for space in SPACES_6:
        q = quotient_algebra(space)
        poset, op = oracle.quotient_poset(space)
        meet, join = q.tables()[:2]
        assert (q.leq_matrix() == poset._rel).all()
        assert (meet == poset._meet).all() and (join == poset._join).all()
        new, old = check_quotient_negation(q), check_negation(poset, op)
        same(new.checks, old.checks)
        assert (new.index, new.period, new.pace) == (old.index, old.period, old.pace)


def test_iterate_index_counts_a_none_element_undefined():
    # None is an element of the carrier, yet an undefined entry of an iterate.
    rng = random.Random(4021)
    chain = BoundedPoset.chain([None, 1, 2, 3])
    none_on_top = BoundedPoset([0, 1, 2, None], [(0, 1), (0, 2), (0, None), (1, None), (2, None)])
    differs = 0
    for poset in (chain, none_on_top):
        els = list(poset.elements)
        r = np.arange(len(els), dtype=poset._meet.dtype)
        for _ in range(300):
            op = rng.choice([total_map, partial_map])(rng, els)
            index = check_negation(poset, op).index
            assert index == oracle.iterate_index(poset.elements, op)
            # Reading None's own index in the first iterate would change the answer.
            F = np.array([-1 if op(x) is None else els.index(op(x)) for x in els], dtype=r.dtype)
            differs += negation._iterate_index(F, r) != index
    assert differs >= 20


def test_iterate_index_matches_the_object_iterates_on_every_partial_map_up_to_four_points():
    cases = 0
    for n in range(1, 5):
        for values in product(range(-1, n), repeat=n):
            F = np.array(values, dtype=np.int8)
            op = UnaryOp({x: v for x, v in enumerate(values) if v >= 0})
            for undefined in product((False, True), repeat=n):
                first = np.where(undefined, -1, np.arange(n)).astype(np.int8)
                elements = tuple(None if u else x for x, u in enumerate(undefined))
                assert negation._iterate_index(F, first) == oracle.iterate_index(elements, op)
                cases += 1
    assert cases == sum((n + 1) ** n * 2**n for n in range(1, 5))


def test_poset_errors_on_large_relations_match_the_boolean_product():
    rng = random.Random(4153)
    errors = {}
    for _ in range(300):
        n = rng.randint(2, 130)
        rel = random_closed_order(rng, n)
        strict = np.argwhere(rel & ~np.eye(n, dtype=bool)).tolist()
        for _ in range(rng.randint(0, 3)):
            if strict and rng.random() < 0.5:
                j, i = rng.choice(strict)  # reverse a pair: a cycle
            else:
                i, j = rng.sample(range(n), 2)  # flip a cell: maybe a gap
            rel[i, j] = not rel[i, j]
        if rng.random() < 0.2:  # close it again: a preorder, cyclic but closed
            for k in range(n):
                rel |= rel[:, k, None] & rel[k]
        cyclic = (rel & rel.T & ~np.eye(n, dtype=bool)).any()
        unclosed = (relation_product(rel) & ~rel).any()
        try:
            BoundedPoset(range(n), np.argwhere(rel).tolist())
            got = None
        except ValueError as exc:
            got = str(exc)
        expected = oracle.order_error(rel)
        if got != "poset has no least element":
            assert got == expected
        errors.setdefault((bool(cyclic), bool(unclosed)), Counter())[expected] += 1
    cycle, gap = "order is not antisymmetric", "order is not transitive"
    assert set(errors[(True, True)]) == {cycle, gap}
    assert set(errors[(False, True)]) == {gap} and set(errors[(True, False)]) == {cycle}
    assert set(errors[(False, False)]) == {None}
    assert all(sum(c.values()) >= 20 for c in errors.values())


def relation_product(rel: np.ndarray) -> np.ndarray:
    """rel∘rel by an integer path count."""
    return rel.astype(np.int64) @ rel.astype(np.int64) > 0


def test_quotient_leq_matches_the_order_matrix_up_to_six_atoms():
    for space in SPACES_6:
        q = quotient_algebra(space)
        leq = q.leq_matrix()
        assert [[q.leq(a, b) for b in q.carrier] for a in q.carrier] == leq.tolist()
    # Classes over different universes raise the error their lower bounds raise.
    q, other = quotient_algebra(SPACES_6[1]), quotient_algebra(SPACES_6[-1])
    for a, b in ((q.one, other.zero), (q.zero, other.one)):
        assert raised(q.leq, a, b) == raised(operator.le, a.lower, b.lower)
        assert raised(q.leq, a, b)[0] is UniverseMismatchError


def test_implies_matches_the_composed_form_on_every_class_pair():
    for space in SPACES:
        q = quotient_algebra(space)
        for a in q.carrier:
            assert q.possibility(a) == oracle.possibility(q, a)
            for b in q.carrier:
                assert q.implies(a, b) == oracle.implies(q, a, b)


MIXED_UNARY = ("frak_l", "black_lozenge", "sim_neg", "partial_neg")
MIXED_BINARY = ("oplus", "odot", "circ", "commonality", "rightsquig", "two_head")
# Cases compared per value of soft; together 1,155,315, each distinct case once.
CASES = {False: 995_685, True: 159_630}


def strays(atoms: str) -> list[MixedElement]:
    """Operands from elsewhere: a subset and a class over other atoms, a class
    over a larger universe, whose masks are out of range on ``atoms``, and a
    class of the one-block and of the discrete partition of ``atoms``."""
    xyz = CeraModel(ApproximationSpace.from_partition("xyz", ["xy", "z"]))
    wide = CeraModel(ApproximationSpace.from_partition("abcdef", ["ab", "cd", "ef"]))
    lumped = CeraModel(ApproximationSpace.from_partition(atoms, [atoms]))
    discrete = CeraModel(ApproximationSpace.discrete(atoms))
    x = xyz.space.universe.singleton("x")
    return [MixedElement.type1(x), xyz.class_of(x)] + [
        m.class_of(m.space.universe.singleton("a")) for m in (wide, lumped, discrete)
    ]


def object_outcome(space: ApproximationSpace, old, *xs):
    """What the object form ``old`` gives on ``xs``, except that a class of
    another space over ``space``'s universe raises SpaceMismatchError, naming
    the first such operand, wherever the object form raised no universe
    mismatch or undefined operation first."""
    want = raised(old, *xs)
    classes = (x.payload if isinstance(x, MixedElement) else x for x in xs)
    other = next(
        (
            c
            for c in classes
            if isinstance(c, RoughClass) and c.space != space and c.space.universe == space.universe
        ),
        None,
    )
    if other is None or isinstance(want, tuple) and want[0] in (
        UniverseMismatchError, cera.UndefinedOperationError
    ):
        return want
    return SpaceMismatchError, f"{other!r} is a class of another space than {space!r}"


def leq_outcome(space: ApproximationSpace, old, a: RoughClass, b: RoughClass):
    """``object_outcome`` of the quotient order, which also refuses two
    classes over one foreign universe, where the object form compared them."""
    if a.space.universe == b.space.universe != space.universe:
        return UniverseMismatchError, f"{a.lower!r} is over a foreign universe"
    return object_outcome(space, old, a, b)


@pytest.mark.parametrize("soft", [False, True], ids=["odot", "circ"])
def test_element_operations_match_their_object_forms_on_every_pair(soft):
    """Every mixed operation on every element and element pair, and the
    quotient order on every pair of classes, of every partition of up to
    five atoms gives the result, or the error type and text, of its object
    form; so do the operands of ``strays``, except where the object forms
    took a class of another partition of the same atoms as their own
    (``object_outcome``) or compared two classes over one foreign universe
    (``leq_outcome``): those now raise.  Only ``commonality`` reads
    ``soft``, so under ``soft=True`` it alone runs; the rest run once, on
    ``soft=False``."""
    outcomes, cases = set(), 0
    for space in SPACES:
        model = CeraModel(space, soft=soft)
        objects = oracle.ObjectCera(model)
        names = ("commonality",) if soft else MIXED_UNARY + MIXED_BINARY
        els = model.elements() + strays("".join(space.universe.atoms))
        pairs = [(x, y) for x in els for y in els]
        for name in names:
            new, old = getattr(model, name), getattr(objects, name)
            args = pairs if name in MIXED_BINARY else [(x,) for x in els]
            got = [raised(new, *xs) for xs in args]
            assert got == [object_outcome(space, old, *xs) for xs in args], name
            outcomes |= {type(v) if isinstance(v, MixedElement) else v[0] for v in got}
            cases += len(args)
        if soft:
            continue
        classes = [(x.payload, y.payload) for x, y in pairs if x.is_type2 and y.is_type2]
        new, old = model.quotient.leq, objects.quotient.leq
        got = [raised(new, a, b) for a, b in classes]
        assert got == [leq_outcome(space, old, a, b) for a, b in classes]
        cases += len(classes)
    assert outcomes == {
        MixedElement,
        SpaceMismatchError,
        UniverseMismatchError,
    } | (set() if soft else {cera.UndefinedOperationError})
    assert cases == CASES[soft]


def test_kernel_realizability_and_membership_match_the_block_scans():
    """RoughClass accepts exactly the bounds the block scans accepted, on
    every (lower, upper) pair of every space, and each class it accepts
    holds exactly the subsets with those bounds."""
    pairs = accepted = 0
    for space in SPACES:
        subsets = list(space.universe.subsets())
        bounds = [(space.lower(x), space.upper(x)) for x in subsets]
        for lower in subsets:
            for upper in subsets:
                pairs += 1
                try:
                    c = RoughClass(space, lower, upper)
                except ValueError as exc:
                    assert type(exc) is ValueError
                    assert not oracle.realizable(space, lower, upper)
                    continue
                assert oracle.realizable(space, lower, upper)
                accepted += 1
                for x, b in zip(subsets, bounds):
                    got = c.contains(x)
                    assert type(got) is bool and got == (b == (lower, upper))
    assert pairs == 57444
    assert accepted == sum(len(space.rough_classes(True)) for space in SPACES)


def test_rough_class_raises_exactly_when_class_index_does_up_to_four_atoms():
    pairs = refused = 0
    for space in SPACES[: 1 + 2 + 5 + 15]:
        assert space.universe.size <= 4
        bm, subsets = space.masks, list(space.universe.subsets())
        for lower in subsets:
            for upper in subsets:
                pairs += 1
                expected = raised(bm.class_index, lower.mask, upper.mask)
                got = raised(RoughClass, space, lower, upper)
                if isinstance(expected, tuple):
                    refused += 1
                    assert got == expected == (ValueError, "bounds that no rough class has")
                else:
                    assert isinstance(got, RoughClass)
    assert pairs == 2**2 + 2 * 4**2 + 5 * 8**2 + 15 * 16**2 and 0 < refused < pairs


# A reflexive, transitive size order that is not antisymmetric, and an
# overlap relation that is neither an order nor transitive.
BY_SIZE = ParthoodPredicate(
    "by-size", lambda a, b: bin(a.mask).count("1") <= bin(b.mask).count("1")
)
OVERLAP = ParthoodPredicate("overlap", lambda a, b: a.mask & b.mask != 0)


def search_cases():
    """(lower, upper, k): partition tables at k <= 3 up to 4 atoms and k <= 2
    at 5, one-entry perturbations of each at k <= 2, and identity,
    complement-lower and complement-upper tables."""
    rng = random.Random(6607)
    cases = []
    for space in SPACES:
        model = from_space(space)
        k = 3 if space.universe.size <= 4 else 2
        cases.append((model.lower_op, model.upper_op, k))
        cases.append(
            (perturbed(model.lower_op, rng, 1), perturbed(model.upper_op, rng, 1), 2)
        )
    for n in range(1, 6):
        u = Universe("abcde"[:n])
        identity = OperatorTable.from_callable(u, lambda x: x)
        complement = OperatorTable.from_callable(u, lambda x: x.complement())
        k = 3 if n <= 4 else 2
        # The last pair has every set fixed by the lower table and none by
        # the upper one, so no set is definite.
        cases += [(identity, identity, k), (complement, identity, k), (identity, complement, k)]
    return cases


def per_granule_spies(monkeypatch) -> list:
    """Spy on the search's two per-granule tests, which plain inclusion
    fills for every granule before its walk and other parthoods run
    lazily: the list gets (name, granule mask) for each call."""
    called: list = []
    for name in ("_ls_witness", "_definite_above"):
        real = getattr(granular, name)

        def spy(part, g, *rest, real=real, name=name):
            called.append((name, g.mask))
            return real(part, g, *rest)

        monkeypatch.setattr(granular, name, spy)
    return called


def test_search_matches_oracle(monkeypatch):
    """Plain inclusion calls neither per-granule test on the way."""
    called = per_granule_spies(monkeypatch)
    found = 0
    # search_cases lists each discrete partition's tables again as an identity pair
    for lower, upper, k in dict.fromkeys(search_cases()):
        new = search_admissible_granulations(lower, upper, max_granules=k)
        assert new == oracle.search_oracle(lower, upper, max_granules=k)
        assert called == []
        found += len(new)
    assert found > len(SPACES)


@pytest.mark.parametrize("part", [BY_SIZE, OVERLAP], ids=lambda p: p.name)
def test_search_matches_oracle_for_custom_parthood(part):
    found = 0
    for lower, upper, k in dict.fromkeys(search_cases()):
        if lower.universe.size > 4:
            continue
        k = min(k, 2)
        new = search_admissible_granulations(lower, upper, k, parthood=part)
        assert new == oracle.search_oracle(lower, upper, k, parthood=part)
        found += len(new)
    assert found > 0


def test_admissibility_matches_oracle():
    rng = random.Random(3319)
    failing = set()
    for i, (lower, upper, _) in enumerate(search_cases()):
        u = lower.universe
        masks = range(1, 1 << u.size)
        for part in (INCLUSION, BY_SIZE, OVERLAP):
            granules = tuple(
                u.from_mask(m) for m in rng.sample(masks, min(len(masks), 1 + i % 3))
            )
            model = GranularModel(u, granules, lower, upper, part)
            new, old = check_admissibility(model), oracle.admissibility_oracle(model)
            assert new == old
            failing |= {name for name in ("wra", "ls", "fu") if not getattr(new, name).passed}
    for space in SPACES:
        model = from_space(space)
        assert check_admissibility(model) == oracle.admissibility_oracle(model)
    assert failing == {"wra", "ls", "fu"}


def counted(part: ParthoodPredicate, calls: list) -> ParthoodPredicate:
    def holds(a, b):
        calls.append((a.mask, b.mask))
        return part.holds(a, b)

    return ParthoodPredicate(part.name, holds)


def test_search_predicate_calls_are_needed_and_once_per_granule(monkeypatch):
    u = SPACES[-1].universe
    identity = OperatorTable.from_callable(u, lambda x: x)
    calls: list = []
    # No family of two granules separates five atoms, so none is representable.
    assert search_admissible_granulations(identity, identity, 2, counted(INCLUSION, calls)) == []
    assert calls == []

    called = per_granule_spies(monkeypatch)
    granules_tested = 0
    for lower, upper, k in search_cases()[::9]:
        called.clear()
        new_calls: list = []
        search_admissible_granulations(lower, upper, k, counted(INCLUSION, new_calls))
        assert len(called) == len(set(called)), called
        granules_tested += sum(name == "_ls_witness" for name, _ in called)
        old_calls: list = []
        oracle.search_oracle(lower, upper, k, counted(INCLUSION, old_calls))
        assert len(new_calls) <= len(old_calls)
    assert granules_tested > 0


def perturbed_partition_cases() -> list:
    """(lower, upper, k): the 2,2,1 partition tables at k = 3 and the 2,2,2
    ones at k = 2, each with one entry of the lower or of the upper table
    perturbed, on several seeds; ``search_cases`` holds neither shape."""
    cases = []
    for blocks, k in ((["ab", "cd", "e"], 3), (["ab", "cd", "ef"], 2)):
        model = from_space(ApproximationSpace.from_partition("".join(blocks), blocks))
        for seed in range(5):
            rng = random.Random(seed)
            cases.append((perturbed(model.lower_op, rng, 1), model.upper_op, k))
            cases.append((model.lower_op, perturbed(model.upper_op, rng, 1), k))
    return cases


def test_search_matches_oracle_on_perturbed_partition_tables(monkeypatch):
    """Plain inclusion calls neither per-granule test on the way."""
    called = per_granule_spies(monkeypatch)
    cases = perturbed_partition_cases()
    found = walked = 0
    for lower, upper, k in cases:
        new = search_admissible_granulations(lower, upper, max_granules=k)
        assert new == oracle.search_oracle(lower, upper, max_granules=k)
        assert called == []
        found += len(new)
        walked += atom_classes(lower, upper) <= 2**k
    assert found > 0 and walked > len(cases) // 2


def representable_granules(lower: OperatorTable, upper: OperatorTable, k: int) -> set[int]:
    """The granules that lie in some family of at most k granules in whose
    generated field every table output lies."""
    n = lower.universe.size
    # pair (i, j) of atoms is bit i * n + j of what a mask splits
    splits = [
        sum(1 << i * n + j for i, j in product(range(n), repeat=2) if (m >> i ^ m >> j) & 1)
        for m in range(1 << n)
    ]
    need = 0
    for out in set(lower._table) | set(upper._table):
        need |= splits[out]
    out = set()
    for size in range(1, k + 1):
        for family in combinations(range(1, 1 << n), size):
            cover = 0
            for g in family:
                cover |= splits[g]
            if need & ~cover == 0:
                out.update(family)
    return out


def test_search_tests_clashes_only_on_granules_of_representable_families(monkeypatch):
    """Every granule whose lower stability or underlap the search works out
    lies in a representable family of at most k granules: the walk decides
    representability, also when it places the last granule, before it tests
    a clash."""
    called = per_granule_spies(monkeypatch)
    u = Universe("abcde")
    identity = OperatorTable.from_callable(u, lambda x: x)
    complement = OperatorTable.from_callable(u, lambda x: x.complement())
    cases = search_cases() + perturbed_partition_cases()
    cases += [(identity, identity, 3), (complement, identity, 3)]
    tested = 0
    for lower, upper, k in cases:
        called.clear()
        # plain inclusion fills both tests up front; this one takes the lazy path
        search_admissible_granulations(lower, upper, k, counted(INCLUSION, []))
        evaluated = {mask for _, mask in called}
        if evaluated:
            assert evaluated <= representable_granules(lower, upper, k)
        tested += len(evaluated)
    assert tested > 0


def test_granule_fill_matches_the_per_granule_tests():
    """On every granule of every search input, and of identity and
    complement tables on up to 6 atoms."""
    cases = [(lower, upper) for lower, upper, _ in search_cases() + perturbed_partition_cases()]
    for n in range(1, 7):
        u = Universe("abcdef"[:n])
        identity = OperatorTable.from_callable(u, lambda x: x)
        complement = OperatorTable.from_callable(u, lambda x: x.complement())
        cases += [(identity, identity), (complement, identity), (identity, complement)]
    unstable = above = 0
    for lower, upper in cases:
        tests = granular._GranuleTests(INCLUSION, lower, upper)
        tests.fill()
        assert len(tests.ls) == len(tests.above) == len(tests.subsets)
        for g in tests.subsets:
            witness = granular._ls_witness(INCLUSION, g, tests.subsets, tests.lowers)
            assert (tests.ls[g.mask] is None) == (witness is None), (lower, upper, g)
            bits = granular._definite_above(INCLUSION, g, tests.definite)
            assert tests.above[g.mask] == bits, (lower, upper, g)
            unstable += witness is not None
            above += bits != 0
    assert unstable > 1000 and above > 1000


def test_inclusion_search_calls_no_per_granule_test(monkeypatch):
    """The two oracle tests above spy on every plain-inclusion search they
    make; here the same spies see the lazy path on an input where plain
    inclusion calls neither test."""
    called = per_granule_spies(monkeypatch)
    lower, upper, _ = search_cases()[0]
    search_admissible_granulations(lower, upper, 1)
    assert called == []
    search_admissible_granulations(lower, upper, 1, counted(INCLUSION, []))
    assert called


def test_search_cap_raises_before_any_predicate_call(example_space):
    u = example_space.universe
    lower = OperatorTable.from_callable(u, example_space.lower)
    calls: list = []
    with pytest.raises(SearchCapExceededError, match="exceed the cap of 100"):
        search_admissible_granulations(
            lower, lower, 2, counted(INCLUSION, calls), candidate_cap=100
        )
    assert calls == []


def atom_classes(lower: OperatorTable, upper: OperatorTable) -> int:
    """The atoms' distinct signatures over the tables' distinct outputs."""
    u = lower.universe
    outs = sorted({op(x).mask for op in (lower, upper) for x in u.subsets()})
    return len({tuple(out >> i & 1 for out in outs) for i in range(u.size)})


def test_search_settles_tables_with_more_classes_than_cells_before_the_walk(monkeypatch):
    """The oracle is asked only about inputs ``search_cases`` does not hold;
    on those it holds, the lazy path must agree with plain inclusion, which
    ``test_search_matches_oracle`` compares with the oracle."""
    cases = search_cases()
    held = set(cases)
    for n in range(1, 7):
        u = Universe("abcdef"[:n])
        identity = OperatorTable.from_callable(u, lambda x: x)
        complement = OperatorTable.from_callable(u, lambda x: x.complement())
        for k in range(1, 4):
            if sum(comb(2**n - 1, j) for j in range(1, k + 1)) <= SEARCH_CANDIDATE_CAP:
                cases += [(identity, identity, k), (complement, identity, k)]
    built = []
    real = granular._GranuleTests
    monkeypatch.setattr(granular, "_GranuleTests", lambda *a: built.append(a) or real(*a))
    settled = walked = 0
    for lower, upper, k in cases:
        built.clear()
        calls: list = []
        got = search_admissible_granulations(lower, upper, k, counted(INCLUSION, calls))
        # k granules cut the atoms into at most 2^k cells
        if atom_classes(lower, upper) > 2**k:
            assert got == [] and calls == [] and built == []
            settled += 1
        else:
            walked += len(built)
        if (lower, upper, k) in held:
            assert got == search_admissible_granulations(lower, upper, k)
        elif lower.universe.size <= 5:
            assert got == oracle.search_oracle(lower, upper, k)
    assert settled > 0 and walked > 0
    u = Universe("abcd")
    identity = OperatorTable.from_callable(u, lambda x: x)
    assert atom_classes(identity, identity) == 2**2
    tight = search_admissible_granulations(identity, identity, 2)
    assert tight and tight == oracle.search_oracle(identity, identity, 2)


def test_search_cap_counts_families_past_the_largest_length():
    u = Universe("abcdefgh")
    identity = OperatorTable.from_callable(u, lambda x: x)
    total = sum(comb(255, k) for k in range(1, 13))
    assert total > sys.maxsize
    with pytest.raises(SearchCapExceededError) as raised:
        search_admissible_granulations(identity, identity, 12)
    assert str(raised.value) == f"{total} candidate families exceed the cap of {SEARCH_CANDIDATE_CAP}"


def test_pair_operations_match_the_gates_written_out_on_every_pair_of_k():
    kinds = Counter()
    for space in SPACES:
        if space.universe.size > 4:
            continue
        # the relaxed commonality changes only the product
        for soft, names in ((False, ("plus", "times")), (True, ("times",))):
            cera = CeraModel(space, soft=soft)
            new, old = CradModel(cera), oracle.GateCrad(cera)
            for p in new.carrier:
                for name in ("l_star", "sim_star"):
                    assert outcome(getattr(new, name), p) == outcome(getattr(old, name), p)
                for q in new.carrier:
                    for name in names:
                        got = outcome(getattr(new, name), p, q)
                        assert got == outcome(getattr(old, name), p, q)
                        if not isinstance(got, tuple):
                            kinds["defined"] += 1
                        else:
                            kinds["outside K" if "componentwise" in got[1] else "gate"] += 1
    assert min(kinds["defined"], kinds["outside K"], kinds["gate"]) > 1000, kinds


def _witness_key(w):
    if w is None:
        return None
    return w.claim, w.poset.elements, w.poset._rel.tolist(), w.op.mapping, w.note


def test_condition_masks_match_the_pair_loop_on_the_falsifiers_lattices(lattices):
    """Every distributive lattice of up to six elements."""
    for poset in (p for n in range(1, 7) for p in lattices[n] if p.is_distributive):
        for new, old in zip(negation._condition_masks(poset), oracle.condition_masks(poset)):
            assert new.dtype == old.dtype and new.shape == old.shape
            assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize("claim", CLAIM_IDS)
def test_falsifier_matches_one_witness_construction_per_claim(claim):
    for cap in range(1, 7):
        got = _witness_key(falsify_theorem(claim, size_cap=cap))
        assert got == _witness_key(oracle.falsify_theorem(claim, size_cap=cap))


def test_distributivity_rule_matches_the_law_on_lattices_and_random_posets(
    monkeypatch, lattices
):
    for poset in (p for ps in lattices.values() for p in ps):
        assert poset.is_distributive == oracle.is_distributive(poset)
    monkeypatch.setattr(negation, "enumerate_lattices", lattices.__getitem__)
    assert [len(enumerate_distributive_lattices(n)) for n in (5, 6, 7)] == [3, 5, 8]
    rng = random.Random(9127)
    posets = [oracle.quotient_poset(space)[0] for space in SPACES]
    posets += [random_poset(rng, rng.randint(1, 9)) for _ in range(300)]
    flags = Counter(p.is_distributive for p in posets)
    assert flags[None] and flags[True] and flags[False]
    for poset in posets:
        assert poset.is_distributive == oracle.is_distributive(poset)


def test_lattices_their_labels_and_order_match_the_bit_row_scan():
    for n in range(1, 7):
        new, old = enumerate_lattices(n), oracle.enumerate_lattices(n)
        assert [(p.elements, p._rel.tolist()) for p in new] == [
            (p.elements, p._rel.tolist()) for p in old
        ]
    assert [len(enumerate_lattices(n)) for n in range(1, 7)] == [1, 1, 1, 2, 5, 15]


def _blocks_or_error(build, atoms, pairs):
    try:
        return build(atoms, pairs).blocks
    except ValueError as exc:
        return str(exc)


def test_from_pairs_matches_the_union_find_on_random_pair_lists():
    rng = random.Random(4409)
    outcomes = Counter()
    for _ in range(2000):
        atoms = "abcdefg"[: rng.randint(1, 7)]
        # an unknown atom now and then, and self-pairs at every size
        names = atoms + "z" if rng.random() < 0.2 else atoms
        pairs = [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 9))]
        got = _blocks_or_error(ApproximationSpace.from_pairs, atoms, pairs)
        assert got == _blocks_or_error(oracle.from_pairs, atoms, pairs)
        outcomes["error" if isinstance(got, str) else len(got)] += 1
        outcomes["self-pair"] += any(a == b for a, b in pairs)
    assert outcomes["error"] > 50 and outcomes["self-pair"] > 500
    assert all(outcomes[k] > 0 for k in range(1, 8)), outcomes
