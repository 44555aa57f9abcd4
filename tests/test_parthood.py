"""Parthood catalog: defining conditions, carriers, order analysis."""

from __future__ import annotations

import os
import time

import numpy as np
import pytest
from hypothesis import given, settings

from roughwork import ApproximationSpace, Universe, approx, parthood
from roughwork.cera import CeraModel, MixedElement
from roughwork.crad import CradModel
from roughwork.granular import AxiomCheck, from_space
from roughwork.model_io import load_model
from roughwork.parthood import (
    CarrierCapExceededError,
    ParthoodKind,
    analyze,
    holds,
    relation_matrix,
)
from test_approx import spaces

PREORDER_KINDS = (
    ParthoodKind.VERY_CAUTIOUS,
    ParthoodKind.POSSIBILIST,
    ParthoodKind.G_SIMPLE,
    ParthoodKind.ROUGHLY_CONSISTENT,
)


@pytest.fixture(scope="module")
def cera_model(example_space) -> CeraModel:
    return CeraModel(example_space)


@pytest.fixture(scope="module")
def crad_model(cera_model) -> CradModel:
    return CradModel(cera_model)


def test_kind_names_round_trip():
    for kind in ParthoodKind:
        assert ParthoodKind.from_name(kind.value) is kind
    with pytest.raises(ValueError):
        ParthoodKind.from_name("sideways")


def test_bound_kind_examples(example_space):
    u = example_space.universe
    s = example_space
    assert holds(ParthoodKind.CAUTIOUS, s, u.parse("b"), u.parse("e"))
    assert holds(ParthoodKind.ULTRA_CAUTIOUS, s, u.parse("q"), u.parse("q"))
    assert not holds(ParthoodKind.LATERAL, s, u.parse("abc"), u.parse("abc"))
    assert holds(ParthoodKind.LATERAL, s, u.parse("a"), u.parse("b"))
    assert holds(ParthoodKind.BILATERAL, s, u.parse("ae"), u.parse("bf"))
    assert not holds(ParthoodKind.ULTRA_CAUTIOUS, s, u.parse("a"), u.parse("bc"))
    assert holds(ParthoodKind.LATERAL_PLUS_PLUS, s, u.parse("q"), u.parse("efq"))


def test_granule_kind_examples(example_space):
    model = from_space(example_space)
    u = model.universe
    assert holds(ParthoodKind.G_SIMPLE, model, u.parse("abce"), u.parse("abcq"))
    assert not holds(ParthoodKind.G_SIMPLE, model, u.parse("abcq"), u.parse("abc"))
    # no granule fits inside a, so the guard is vacuous
    assert holds(ParthoodKind.G_SIMPLE, model, u.parse("a"), u.parse("q"))


def test_mixed_kind_examples(cera_model):
    u = cera_model.space.universe
    b = MixedElement.type1(u.parse("b"))
    cls_f = cera_model.class_of(u.parse("f"))
    assert not holds(ParthoodKind.ADDITIVE, cera_model, b, cls_f)
    assert holds(ParthoodKind.ADDITIVE, cera_model, b, MixedElement.type1(u.parse("ab")))
    assert holds(ParthoodKind.COMMON, cera_model, b, MixedElement.type1(u.parse("ab")))
    assert holds(ParthoodKind.ROUGHLY_CONSISTENT, cera_model, b, cls_f) is False
    assert holds(
        ParthoodKind.ROUGHLY_CONSISTENT,
        cera_model,
        MixedElement.type1(u.parse("a")),
        cera_model.class_of(u.parse("abcq")),
    )


def test_additive_and_common_collapse_to_inclusion_on_subsets(cera_model):
    u = cera_model.space.universe
    for a in u.subsets():
        for b in u.subsets():
            ea, eb = MixedElement.type1(a), MixedElement.type1(b)
            expected = a.is_subset_of(b)
            assert holds(ParthoodKind.ADDITIVE, cera_model, ea, eb) == expected
            assert holds(ParthoodKind.COMMON, cera_model, ea, eb) == expected


def test_roughly_consistent_splits_into_bound_kinds(example_space, cera_model):
    u = example_space.universe
    for a in u.subsets():
        for b in u.subsets():
            ea, eb = MixedElement.type1(a), MixedElement.type1(b)
            both = holds(
                ParthoodKind.VERY_CAUTIOUS, example_space, a, b
            ) and holds(ParthoodKind.POSSIBILIST, example_space, a, b)
            assert holds(ParthoodKind.ROUGHLY_CONSISTENT, cera_model, ea, eb) == both


def test_natural_kind_dispatches_to_pair_model(crad_model):
    u = crad_model.cera.space.universe
    p = crad_model.first_pair(u.parse("a"))
    q = crad_model.first_pair(u.parse("ab"))
    assert holds(ParthoodKind.NATURAL_CRAD, crad_model, p, q)
    assert not holds(ParthoodKind.NATURAL_CRAD, crad_model, q, crad_model.first_pair(u.parse("q")))


def test_carrier_mismatches_raise(example_space, cera_model, crad_model):
    u = example_space.universe
    a, b = u.parse("a"), u.parse("b")
    with pytest.raises(TypeError):
        holds(ParthoodKind.G_SIMPLE, example_space, a, b)
    with pytest.raises(TypeError):
        holds(ParthoodKind.VERY_CAUTIOUS, cera_model, a, b)
    with pytest.raises(TypeError):
        holds(ParthoodKind.ADDITIVE, example_space, a, b)
    with pytest.raises(TypeError):
        holds(ParthoodKind.ADDITIVE, cera_model, a, b)
    with pytest.raises(TypeError):
        holds(ParthoodKind.NATURAL_CRAD, cera_model, a, b)
    with pytest.raises(TypeError):
        relation_matrix(ParthoodKind.NATURAL_CRAD, example_space)


def test_matrix_shape_and_empty_row(example_space):
    elements, rows = relation_matrix(ParthoodKind.VERY_CAUTIOUS, example_space)
    assert len(elements) == 64 and all(len(r) == 64 for r in rows)
    assert all(rows[0])
    assert elements[0].is_empty


def test_matrix_cap(example_space):
    with pytest.raises(CarrierCapExceededError):
        relation_matrix(ParthoodKind.CAUTIOUS, example_space, cap=10)


def test_matrix_cap_is_checked_before_the_carrier_is_built(monkeypatch):
    atoms = "abcdefghijklmnop"
    space = ApproximationSpace.from_partition(atoms, [atoms[i : i + 2] for i in range(0, 16, 2)])
    cera = CeraModel(space)
    crad = CradModel(cera)

    def refuse(self):
        raise AssertionError("the cap check enumerated every subset")

    monkeypatch.setattr(Universe, "subsets", refuse)
    with pytest.raises(TypeError):
        relation_matrix(ParthoodKind.NATURAL_CRAD, space, cap=0)
    for kind, model, size in (
        (ParthoodKind.CAUTIOUS, space, 1 << 16),
        (ParthoodKind.ADDITIVE, cera, (1 << 16) + 3**8),
        (ParthoodKind.NATURAL_CRAD, crad, 2 << 16),
    ):
        with pytest.raises(CarrierCapExceededError, match=f"^carrier of size {size} exceeds"):
            relation_matrix(kind, model)
    assert "carrier" not in crad.__dict__
    assert "carrier" not in cera.quotient.__dict__


def test_one_kernel_per_space(ten_atom_model, monkeypatch):
    """Loading, the mixed and pair models, the class listing and the
    matrices of every carrier all read the one ``space.masks``."""
    calls = []
    kernel = approx.bound_masks

    def counted(space):
        calls.append(space)
        return kernel(space)

    monkeypatch.setattr(approx, "bound_masks", counted)
    space = load_model(ten_atom_model).space
    cera = CeraModel(space)
    crad = CradModel(cera)
    space.rough_classes()
    for kind, model in (
        (ParthoodKind.CAUTIOUS, space),
        (ParthoodKind.ROUGHLY_CONSISTENT, cera),
        (ParthoodKind.NATURAL_CRAD, crad),
    ):
        relation_matrix(kind, model, cap=4096)
    assert calls == [space]


def test_analyze_very_cautious(example_space):
    u = example_space.universe
    report = analyze(ParthoodKind.VERY_CAUTIOUS, example_space)
    assert (report.reflexive.passed, report.transitive.passed) == (True, True)
    assert not report.antisymmetric.passed
    a, b = report.antisymmetric.witness
    assert a != b
    assert holds(ParthoodKind.VERY_CAUTIOUS, example_space, a, b)
    assert holds(ParthoodKind.VERY_CAUTIOUS, example_space, b, a)


def test_analyze_lateral_not_reflexive(example_space):
    u = example_space.universe
    report = analyze(ParthoodKind.LATERAL, example_space)
    assert not report.reflexive.passed
    (witness,) = report.reflexive.witness
    assert witness == u.parse("abc")
    assert not holds(ParthoodKind.LATERAL, example_space, witness, witness)


def test_analyze_g_simple(example_space):
    report = analyze(ParthoodKind.G_SIMPLE, from_space(example_space))
    assert report.reflexive.passed and report.transitive.passed
    assert not report.antisymmetric.passed


def test_analyze_natural_crad(crad_model):
    report = analyze(ParthoodKind.NATURAL_CRAD, crad_model)
    assert report.reflexive.passed and report.transitive.passed
    assert not report.antisymmetric.passed


def test_transitivity_witness_re_evaluates(example_space):
    report = analyze(ParthoodKind.LATERAL_PLUS, example_space)
    if not report.transitive.passed:
        a, b, c = report.transitive.witness
        assert holds(ParthoodKind.LATERAL_PLUS, example_space, a, b)
        assert holds(ParthoodKind.LATERAL_PLUS, example_space, b, c)
        assert not holds(ParthoodKind.LATERAL_PLUS, example_space, a, c)


def test_transitivity_with_256_intermediates(monkeypatch):
    # 0 R j for 256 elements j and each j R 257, but not 0 R 257; a path
    # count in uint8 wraps to 0 here and hid the failure.
    m = np.eye(258, dtype=bool)
    m[0, 1:257] = m[1:257, 257] = True
    monkeypatch.setattr(parthood, "relation_matrix", lambda kind, model, cap: (range(258), m))
    report = analyze(ParthoodKind.LATERAL, None)
    assert report.transitive == AxiomCheck(False, (0, 1, 257))



def test_transitivity_witness_on_random_relations(monkeypatch):
    # Sizes on both sides of 8- and 64-bit word boundaries, and transposed
    # (non-contiguous) matrices; the first failing (i, k) in row-major
    # order comes from an integer path count.
    rng = np.random.default_rng(89)
    for n in (1, 2, 7, 8, 9, 63, 64, 65, 100, 128, 129, 150):
        for density in (0.02, 0.1, 0.5):
            m = rng.random((n, n)) < density
            for rel in (m, m.T, m | (m.astype(int) @ m.astype(int) > 0)):
                counts = rel.astype(int) @ rel.astype(int)
                bad = np.argwhere((counts > 0) & ~rel)
                monkeypatch.setattr(
                    parthood, "relation_matrix", lambda kind, model, cap: (range(n), rel)
                )
                report = analyze(ParthoodKind.LATERAL, None)
                if bad.size == 0:
                    assert report.transitive == AxiomCheck(True)
                else:
                    i, k = (int(v) for v in bad[0])
                    j = int(np.flatnonzero(rel[i] & rel[:, k])[0])
                    assert report.transitive == AxiomCheck(False, (i, j, k))


def test_analyze_runs_on_one_thread(monkeypatch):
    # A multithreaded BLAS product leaves its worker threads spinning after
    # it returns, so the process would use more CPU time than wall time.
    m = np.random.default_rng(5).random((512, 512)) < 0.3
    m |= np.eye(512, dtype=bool)
    monkeypatch.setattr(parthood, "relation_matrix", lambda kind, model, cap: (range(512), m))
    analyze(ParthoodKind.LATERAL, None)
    cpu0, wall0 = sum(os.times()[:2]), time.perf_counter()
    while time.perf_counter() - wall0 < 0.3:
        analyze(ParthoodKind.LATERAL, None)
    cpu, wall = sum(os.times()[:2]) - cpu0, time.perf_counter() - wall0
    assert cpu < 1.4 * wall


@settings(max_examples=15, deadline=None)
@given(spaces(max_atoms=4))
def test_preorder_kinds_on_random_spaces(space):
    cera = CeraModel(space)
    gran = from_space(space)
    for kind in PREORDER_KINDS:
        if kind is ParthoodKind.G_SIMPLE:
            model = gran
        elif kind is ParthoodKind.ROUGHLY_CONSISTENT:
            model = cera
        else:
            model = space
        report = analyze(kind, model)
        assert report.reflexive.passed, kind
        assert report.transitive.passed, kind
