"""Quotient algebra values, closure, and the finite-structure checkers."""

from __future__ import annotations

import copy
import dataclasses
import os
import random
import re
import subprocess
import sys

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from roughwork import ApproximationSpace
from roughwork.approx import RoughClass, SpaceMismatchError, UniverseMismatchError
from roughwork.model_io import load_model
from roughwork.negation import check_quotient_negation
from roughwork.prerough import (
    FiniteAlgebraCandidate,
    check_essential_pre_rough,
    check_pre_rough,
    quotient_algebra,
)


def boolean_pair_candidate() -> FiniteAlgebraCandidate:
    """Two-element Boolean algebra, necessity = identity."""
    return FiniteAlgebraCandidate(
        carrier=("0", "1"),
        meet=[[0, 0], [0, 1]],
        join=[[0, 1], [1, 1]],
        neg=[1, 0],
        necessity=[0, 1],
        zero=0,
        one=1,
    )


def mutate_candidate(
    cand: FiniteAlgebraCandidate, rng: random.Random
) -> FiniteAlgebraCandidate:
    """Corrupt exactly one operation-table entry. The carrier is shared."""
    mutant = FiniteAlgebraCandidate(
        carrier=cand.carrier,
        meet=copy.deepcopy(cand.meet),
        join=copy.deepcopy(cand.join),
        neg=list(cand.neg),
        necessity=list(cand.necessity),
        zero=cand.zero,
        one=cand.one,
    )
    n = mutant.size
    tables = ["meet", "neg", "necessity"] + (["join"] if mutant.join is not None else [])
    name = rng.choice(tables)
    table = getattr(mutant, name)
    if name in ("meet", "join"):
        a, b = rng.randrange(n), rng.randrange(n)
        old = table[a][b]
        table[a][b] = rng.choice([v for v in range(n) if v != old])
    else:
        a = rng.randrange(n)
        old = table[a]
        table[a] = rng.choice([v for v in range(n) if v != old])
    return mutant


def test_quotient_values(example_space):
    alg = quotient_algebra(example_space)
    u = example_space.universe
    cls = example_space.rough_class_of
    a, b = cls(u.parse("a")), cls(u.parse("b"))
    assert alg.join(a, b) == a
    assert alg.necessity(a) == alg.zero
    assert alg.neg(alg.zero) == alg.one
    assert alg.possibility(a) == cls(u.parse("abc"))
    assert (alg.one.lower, alg.one.upper) == (u.full, u.full)


def test_quotient_closure_all_operations(example_space):
    alg = quotient_algebra(example_space)
    carrier = alg.carrier
    assert len(carrier) == 18
    for a in carrier:
        # Construction of each result re-validates realizability.
        alg.neg(a), alg.necessity(a), alg.possibility(a)
        for b in carrier:
            for out in (alg.meet(a, b), alg.join(a, b), alg.implies(a, b)):
                assert out in carrier


def test_order_agreement_with_bounds(example_space):
    alg = quotient_algebra(example_space)
    for a in alg.carrier:
        for b in alg.carrier:
            bound_leq = a.lower <= b.lower and a.upper <= b.upper
            assert alg.leq(a, b) == bound_leq


def test_quotient_refuses_a_class_of_another_partition():
    """A class of another partition of the same atoms is not one of the
    quotient's own: ``ab|c`` against the discrete space on ``abc``.  The
    same partition built apart is the quotient's own."""
    s = ApproximationSpace.from_partition("abc", [["a", "b"], ["c"]])
    d = ApproximationSpace.discrete("abc")
    q, u = quotient_algebra(s), s.universe
    a_of_d = d.rough_class_of(u.parse("a"))
    message = rf"^{re.escape(repr(a_of_d))} is a class of another space than {re.escape(repr(s))}$"
    for call in (
        lambda: q.leq(q.zero, a_of_d),
        lambda: q.leq(a_of_d, q.one),
        lambda: q.join(q.zero, a_of_d),
        lambda: q.meet(a_of_d, q.one),
        lambda: q.neg(a_of_d),
        lambda: q.necessity(a_of_d),
    ):
        with pytest.raises(SpaceMismatchError, match=message):
            call()
    xy = ApproximationSpace.discrete("xy")
    x = xy.rough_class_of(xy.universe.parse("x"))
    with pytest.raises(UniverseMismatchError, match=r"^<Subset x> is over a foreign universe$"):
        q.leq(x, x)
    again = ApproximationSpace.from_partition("abc", [["a", "b"], ["c"]])
    a = again.rough_class_of(u.parse("a"))
    assert q.leq(q.zero, a) and not q.leq(q.one, a)
    assert q.join(q.zero, a) == s.rough_class_of(u.parse("a"))
    assert q.neg(a) == RoughClass(s, u.parse("c"), u.full)


def test_a_universe_mismatch_names_both_universes():
    """``[a]`` of ``ab|c`` implies ``[x]`` over ``xyz``: both lower bounds
    print as ``0``, so the error tells them apart by their universes."""
    s = ApproximationSpace.from_partition("abc", [["a", "b"], ["c"]])
    t = ApproximationSpace.from_partition("xyz", [["x", "y"], ["z"]])
    a = s.rough_class_of(s.universe.parse("a"))
    x = t.rough_class_of(t.universe.parse("x"))
    message = (
        "<Subset 0> of Universe(['a', 'b', 'c']) and <Subset 0> of Universe(['x', 'y', 'z'])"
        " belong to different universes"
    )
    with pytest.raises(UniverseMismatchError, match=f"^{re.escape(message)}$"):
        quotient_algebra(s).implies(a, x)


def test_quotient_passes_both_checkers(example_space):
    cand = quotient_algebra(example_space).to_candidate()
    assert check_pre_rough(cand).all_pass, repr(check_pre_rough(cand))
    assert check_essential_pre_rough(cand).all_pass


def test_boolean_pair_passes():
    cand = boolean_pair_candidate()
    assert check_pre_rough(cand).all_pass
    assert check_essential_pre_rough(cand).all_pass


def test_rough_algebra_flag_present(example_space):
    report = check_pre_rough(quotient_algebra(example_space).to_candidate())
    assert report["completely-distributive-finite"].passed


def test_broken_idempotence_detected(example_space):
    cand = quotient_algebra(example_space).to_candidate()
    # Redirect L at the image of zero; anything whose necessity was that
    # fixed point now witnesses LL != L.
    fixed = cand.necessity[cand.zero]
    cand.necessity[fixed] = (fixed + 1) % cand.size
    report = check_pre_rough(cand)
    assert not report.all_pass


def test_e5_violation_detected():
    # Kleene 3-chain with necessity = identity: the middle element has
    # ¬Lm ⊓ Lm = m, not 0.
    chain = FiniteAlgebraCandidate(
        carrier=("0", "m", "1"),
        meet=[[0, 0, 0], [0, 1, 1], [0, 1, 2]],
        join=[[0, 1, 2], [1, 1, 2], [2, 2, 2]],
        neg=[2, 1, 0],
        necessity=[0, 1, 2],
        zero=0,
        one=2,
    )
    report = check_essential_pre_rough(chain)
    assert not report["E5-no-contradiction"].passed
    assert report["E5-no-contradiction"].witness == ("m",)


@pytest.mark.parametrize(
    "field, value",
    [
        ("meet", [[0, 0], [0, 5]]),
        ("meet", [[0, 0], [0]]),
        ("join", [[0, 1], [1, -1]]),
        ("join", [[0, 1], [1, 1.0]]),
        ("neg", [1, 2]),
        ("necessity", [0]),
        ("one", 2),
        ("carrier", ()),
    ],
)
def test_candidate_rejects_malformed_tables(field, value):
    good = boolean_pair_candidate()
    with pytest.raises(ValueError):
        dataclasses.replace(good, **{field: value})


def test_checkers_revalidate_mutated_tables():
    cand = boolean_pair_candidate()
    cand.meet[1][1] = -1
    with pytest.raises(ValueError):
        check_pre_rough(cand)
    with pytest.raises(ValueError):
        check_essential_pre_rough(cand)


def test_candidate_validation_survives_optimize():
    code = (
        "from roughwork import ApproximationSpace, ApproxTriple, MixedElement\n"
        "from roughwork.prerough import FiniteAlgebraCandidate as C\n"
        "space = ApproximationSpace.from_partition('ab', [['a', 'b']])\n"
        "u = space.universe\n"
        "for make, error in (\n"
        "    (lambda: C(('0', '1'), [[0, 0], [0, 5]], [1, 0], [0, 1], 0, 1), ValueError),\n"
        "    (lambda: MixedElement.type1(space.rough_class_of(u.full)), TypeError),\n"
        "    (lambda: MixedElement.type2(u.full), TypeError),\n"
        "    (lambda: ApproxTriple(u.parse('a'), u.full, 0), ValueError),\n"
        "):\n"
        "    try:\n"
        "        make()\n"
        "    except error as exc:\n"
        "        print('rejected:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.splitlines()
    assert len(out) == 4 and all(line.startswith("rejected: ") for line in out)
    assert out[0].startswith("rejected: meet entry 5")


def test_seeded_mutants_detected(example_space):
    cand = quotient_algebra(example_space).to_candidate()
    rng = random.Random(7121)
    for _ in range(20):
        mutant = mutate_candidate(cand, rng)
        pre = check_pre_rough(mutant)
        ess = check_essential_pre_rough(mutant)
        assert not (pre.all_pass and ess.all_pass)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_random_space_quotients_pass(data):
    n = data.draw(st.integers(1, 6))
    atoms = "abcdef"[:n]
    labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    groups: dict[int, list[str]] = {}
    for a, l in zip(atoms, labels):
        groups.setdefault(l, []).append(a)
    space = ApproximationSpace.from_partition(atoms, list(groups.values()))
    cand = quotient_algebra(space).to_candidate()
    assert check_pre_rough(cand).all_pass
    assert check_essential_pre_rough(cand).all_pass


def test_quotient_suites_build_classes_only_for_witnesses(
    example_space, ten_atom_model, monkeypatch
):
    """The quotient suites read index tables and name witnesses through
    labels: a passing suite builds no RoughClass, a failing one builds
    exactly the classes its witnesses hold."""
    built = []
    real = RoughClass.__init__
    monkeypatch.setattr(
        RoughClass, "__init__", lambda self, *args: built.append(args) or real(self, *args)
    )
    for space in (example_space, load_model(ten_atom_model).space):
        q = quotient_algebra(space)
        built.clear()
        assert check_pre_rough(q.to_candidate()).all_pass
        assert check_essential_pre_rough(q.to_candidate()).all_pass
        assert built == []
        profile = check_quotient_negation(q)
        witnesses = [
            w for _, check in profile.checks.items() for w in check.witness or ()
            if isinstance(w, RoughClass)
        ]
        assert not profile.checks["N1"].passed and not profile.checks["N9"].passed
        assert len(built) == len(witnesses) > 0
