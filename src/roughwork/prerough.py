"""Pre-rough and essential pre-rough algebras.

Two layers: the concrete quotient algebra a space induces on its rough
classes, and exhaustive axiom checkers for arbitrary finite candidate
structures given by operation tables.  Each quotient operation is one
rule on bounds.  A single query builds the one RoughClass it gives, checked
by one lookup in ``space.masks``; a whole table runs the rule on the masks
of every class, and the lookup by bounds checks every cell at once.  The
checkers read the tables as they are.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable, Sequence

import numpy as np

from roughwork.approx import ApproximationSpace, Labels, RoughClass, Subset
from roughwork.granular import AxiomReport, lattice_laws, sweep_laws


# Each quotient operation: a rule from the complement ``c`` and the bounds of one or
# two classes to those of the result, run on Subsets by ``QuotientAlgebra.apply`` (so
# a foreign operand raises as the Subset operation does, and a class of another space
# over the same universe raises SpaceMismatchError) and on masks by ``table``.
UNARY_RULES = {
    "neg": lambda c, la, ua: (c(ua), c(la)),
    "necessity": lambda c, la, ua: (la, la),
    "possibility": lambda c, la, ua: (ua, ua),  # ¬L¬a: the definite class of Ua
}
BINARY_RULES = {
    "meet": lambda c, la, ua, lb, ub: (la & lb, ua & ub),
    "join": lambda c, la, ua, lb, ub: (la | lb, ua | ub),
    # (¬La ⊔ Lb) ⊓ (L¬a ⊔ ¬L¬b) on definite operands: (¬La ∪ Lb) ∩ (¬Ua ∪ Ub)
    "implies": lambda c, la, ua, lb, ub: ((c(la) | lb) & (c(ua) | ub),) * 2,
}
_LEQ = lambda la, ua, lb, ub: la & ~lb | ua & ~ub == 0  # on masks: ints or arrays


class QuotientAlgebra:
    """The rough classes of a space under componentwise bound operations."""

    def __init__(self, space: ApproximationSpace):
        self.space = space
        self.zero = RoughClass(space, space.universe.empty, space.universe.empty)
        self.one = RoughClass(space, space.universe.full, space.universe.full)

    @cached_property
    def carrier(self) -> tuple[RoughClass, ...]:
        return tuple(self.labels())

    def labels(self) -> Labels:
        """The carrier, each class built when indexed: ``space.class_labels()``."""
        return self.space.class_labels()

    def apply(self, op: str, a: RoughClass, b: RoughClass | None = None) -> RoughClass:
        """The rule of ``op`` on the bounds of ``a`` (and ``b``): the one class it gives."""
        if b is None:
            lower, upper = UNARY_RULES[op](Subset.complement, a.lower, a.upper)
        else:
            a.lower._check(b.lower)  # before a rule names a complement
            lower, upper = BINARY_RULES[op](Subset.complement, a.lower, a.upper, b.lower, b.upper)
        space = self.space
        if a.space is not space or b is not None and b.space is not space:
            for c in (a, b):
                if c is not None:
                    space._check_class(c)
        return RoughClass(space, lower, upper)

    def meet(self, a: RoughClass, b: RoughClass) -> RoughClass:
        return self.apply("meet", a, b)

    def join(self, a: RoughClass, b: RoughClass) -> RoughClass:
        return self.apply("join", a, b)

    def neg(self, a: RoughClass) -> RoughClass:
        return self.apply("neg", a)

    def necessity(self, a: RoughClass) -> RoughClass:
        return self.apply("necessity", a)

    def possibility(self, a: RoughClass) -> RoughClass:
        return self.apply("possibility", a)

    def implies(self, a: RoughClass, b: RoughClass) -> RoughClass:
        return self.apply("implies", a, b)

    def leq(self, a: RoughClass, b: RoughClass) -> bool:
        space = self.space
        if a.space is not space or b.space is not space:
            a.lower._check(b.lower)
            space._check(a.lower)
            space._check_class(a)
            space._check_class(b)
        return _LEQ(a.lower.mask, a.upper.mask, b.lower.mask, b.upper.mask)

    def leq_matrix(self) -> np.ndarray:
        """leq over the carrier, as a boolean matrix in carrier order."""
        lo, up = self.space.masks.class_lower, self.space.masks.class_upper
        return _LEQ(lo[:, None], up[:, None], lo, up)

    def table(self, op: str) -> np.ndarray:
        """The rule of ``op`` on every class, or pair of classes, as class indices."""
        bm = self.space.masks
        c, lo, up = bm.complement, bm.class_lower, bm.class_upper
        if op in BINARY_RULES:
            return bm.class_index(*BINARY_RULES[op](c, lo[:, None], up[:, None], lo, up))
        return bm.class_index(*UNARY_RULES[op](c, lo, up))

    def tables(self) -> tuple[np.ndarray, ...]:
        """meet, join, neg, necessity and possibility as class-index arrays."""
        return tuple(map(self.table, ("meet", "join", "neg", "necessity", "possibility")))

    def to_candidate(self) -> FiniteAlgebraCandidate:
        """The arrays of ``table`` as they are, over ``labels()``."""
        meet, join, neg, necessity = map(self.table, ("meet", "join", "neg", "necessity"))
        return FiniteAlgebraCandidate(
            carrier=self.labels(), meet=meet, join=join, neg=neg, necessity=necessity,
            zero=0, one=int(self.space.masks.class_id[-1]),
        )

    def is_antichain(self, family: Sequence[RoughClass]) -> bool:
        return not any(self.leq(a, b) or self.leq(b, a) for a, b in combinations(family, 2))

    def maximal_antichains(self, limit: int) -> list[tuple[RoughClass, ...]]:
        """Maximal antichains in deterministic order, at most `limit` of them.

        DFS over index-increasing antichains; a complete candidate is kept
        when every element of the carrier is comparable to one of its members.
        """
        if limit < 1:
            raise ValueError("limit must be at least 1")
        n = len(self.carrier)
        leq = self.leq_matrix()
        comp = (leq | leq.T).tolist()
        out: list[tuple[RoughClass, ...]] = []

        def extend(prefix: list[int], start: int) -> None:
            if len(out) >= limit:
                return
            if prefix and all(any(comp[j][m] for m in prefix) for j in range(n)):
                out.append(tuple(self.carrier[i] for i in prefix))
                if len(out) >= limit:
                    return
            for k in range(start, n):
                if all(not comp[k][m] for m in prefix):
                    extend(prefix + [k], k + 1)

        extend([], 0)
        return out


def quotient_algebra(space: ApproximationSpace) -> QuotientAlgebra:
    return QuotientAlgebra(space)


@dataclass
class FiniteAlgebraCandidate:
    """Finite structure under test; its tables are lists or integer arrays of indices.

    join may be omitted; the checkers then derive it as ¬(¬a ⊓ ¬b).
    """

    carrier: Sequence
    meet: list[list[int]] | np.ndarray
    neg: list[int] | np.ndarray
    necessity: list[int] | np.ndarray
    zero: int
    one: int
    join: list[list[int]] | np.ndarray | None = None

    def __post_init__(self):
        self._validate()

    def _validate(self) -> tuple[np.ndarray | None, ...]:
        """meet, join, neg and necessity as index arrays (None for a None table);
        raises ValueError unless each is square and in range.  The checkers
        call this again, since the tables are mutable."""
        n = len(self.carrier)
        if n == 0:
            raise ValueError("carrier must be nonempty")
        shapes = (("meet", (n, n)), ("join", (n, n)), ("neg", (n,)), ("necessity", (n,)))
        arrays = tuple(
            None if len(shape) == 2 and getattr(self, name) is None
            else _index_array(name, getattr(self, name), shape)
            for name, shape in shapes
        )
        _check_indices("zero/one", (self.zero, self.one), n)
        return arrays

    @property
    def size(self) -> int:
        return len(self.carrier)


def _index_array(name: str, table, shape: tuple[int, ...]) -> np.ndarray:
    """``table`` as an index array of ``shape``, in the narrowest dtype.

    An integer array of that shape has its min and max checked; any other
    table is checked entry by entry, which words every error.
    """
    n, dtype = shape[0], np.min_scalar_type(shape[0] - 1)
    try:
        arr = np.asarray(table)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is not None and arr.shape == shape and arr.dtype.kind in "iu":
        _check_indices(name, (arr.min(), arr.max()), n)
        return arr.astype(dtype, copy=False)
    rows = table if len(shape) == 2 else [table]
    if len(table) != n or any(len(row) != n for row in rows):
        size = f"be {n}x{n}" if len(shape) == 2 else f"have {n} entries"
        raise ValueError(f"{name} table must {size}")
    return np.array(_check_indices(name, chain.from_iterable(rows), n), dtype).reshape(shape)


def _check_indices(name: str, values: Iterable, n: int) -> list[int]:
    try:
        values = list(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{name} has a non-integer entry") from None
    low, high = min(values), max(values)
    if low < 0 or high >= n:
        bad = low if low < 0 else high
        raise ValueError(f"{name} entry {bad} is not an index below {n}")
    return values


def _tables(cand: FiniteAlgebraCandidate) -> tuple[np.ndarray, ...]:
    """meet, join, neg, necessity and the carrier indices as index arrays."""
    mt, jn, ng, L = cand._validate()
    if jn is None:
        jn = ng[mt[ng][:, ng]]
    return mt, jn, ng, L, np.arange(cand.size, dtype=mt.dtype)


def _lattice_base(cand: FiniteAlgebraCandidate, mt, jn, ng, r) -> dict:
    col = r[:, None]
    m_assoc, j_assoc, (rows, m_over_j), (_, j_over_m) = lattice_laws(mt, jn, range(len(r)))
    return {
        "meet-idempotent": mt[r, r] != r,
        "meet-commutative": mt != mt.T,
        "meet-associative": m_assoc,
        "join-idempotent": jn[r, r] != r,
        "join-commutative": jn != jn.T,
        "join-associative": j_assoc,
        "absorption": (mt[col, jn] != col) | (jn[col, mt] != col),
        "distributivity": (rows, lambda a: m_over_j(a) | j_over_m(a)),
        "bounds": (jn[cand.zero] != r)
        | (mt[cand.zero] != cand.zero)
        | (mt[cand.one] != r)
        | (jn[cand.one] != cand.one),
        "negation-involution": ng[ng] != r,
        "negation-de-morgan": (ng[jn] != mt[ng][:, ng])
        | (ng[mt] != jn[ng][:, ng]),
    }


def check_pre_rough(cand: FiniteAlgebraCandidate) -> AxiomReport:
    """Distributive De Morgan lattice plus the modal-operator identities."""
    mt, jn, ng, L, r = _tables(cand)
    laws = _lattice_base(cand, mt, jn, ng, r)
    laws.update(
        {
            "L-contraction": mt[L, r] != L,
            "L-join-distribution": L[jn] != jn[L][:, L],
            "L-possibility-stable": ng[L[ng[L]]] != L,
            "L-idempotence": L[L] != L,
            "L-top": (r == cand.one) & (L != r),
            "L-meet-distribution": L[mt] != mt[L][:, L],
            "L-excluded-middle": jn[ng[L], L] != cand.one,
            "quasi-equation": (mt[L][:, L] == L[:, None])
            & (ng[L[ng[mt]]] == ng[L[ng]][:, None])
            & (mt != r[:, None]),
        }
    )
    results = sweep_laws(cand.carrier, laws)
    # On a finite carrier the lattice is complete, so complete
    # distributivity reduces to the plain distributive law.
    results["completely-distributive-finite"] = results["distributivity"]
    return AxiomReport(results)


def check_essential_pre_rough(cand: FiniteAlgebraCandidate) -> AxiomReport:
    """Quasi-Boolean base plus the six defining conditions."""
    mt, jn, ng, L, r = _tables(cand)
    dia = ng[L[ng]]
    laws = _lattice_base(cand, mt, jn, ng, r)
    laws.update(
        {
            "E1-top": (r == cand.one) & (L != r),
            "E2-contraction": mt[L, r] != L,
            "E3-meet-distribution": L[mt] != mt[L][:, L],
            "E4-possibility-stable": ng[L[ng[L]]] != L,
            "E5-no-contradiction": mt[ng[L], L] != cand.zero,
            "E6-order-determination": (mt[dia][:, dia] == dia[:, None])
            & (mt[L][:, L] == L[:, None])
            & (mt != r[:, None]),
        }
    )
    return AxiomReport(sweep_laws(cand.carrier, laws))
