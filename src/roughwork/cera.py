"""Mixed-domain enriched algebra over subsets and their rough classes.

The carrier joins every plain subset of the universe (type 1) with every
rough class of the space, the class of the empty set included (type 2).
The binary operations share one tag dispatch: a mixed application
collapses the class argument through its members and lands back in a
class.  The element methods answer single queries on objects;
``CeraModel.tables`` gives the operations over the whole carrier as index
arrays, from ``space.masks`` and the quotient's tables, for the identity
suite and the parthood matrices.  ``CeraModel.labels()`` states the
carrier once: subset i, then class i - 2^n.  The identity suite
decides every law, its tag detectors included, on tables and bounds,
calls no element method, and builds elements only for a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import and_, or_

import numpy as np

from roughwork.approx import ApproximationSpace, Labels, RoughClass, Subset, check_cap
from roughwork.granular import AxiomCheck, AxiomReport, first_violation, lattice_laws
from roughwork.prerough import QuotientAlgebra

# Identity checking materializes full binary operation tables.
IDENTITY_CARRIER_CAP = 4096


class UndefinedOperationError(RuntimeError):
    """A partial operation was applied outside its domain."""


@dataclass(frozen=True)
class MixedElement:
    """Tagged carrier element: a plain subset or a rough class."""

    payload: Subset | RoughClass

    def __post_init__(self):
        if not isinstance(self.payload, (Subset, RoughClass)):
            raise TypeError(f"unsupported payload {self.payload!r}")

    @classmethod
    def type1(cls, subset: Subset) -> MixedElement:
        if not isinstance(subset, Subset):
            raise TypeError(f"type-1 elements hold subsets, got {subset!r}")
        return cls(subset)

    @classmethod
    def type2(cls, rough: RoughClass) -> MixedElement:
        if not isinstance(rough, RoughClass):
            raise TypeError(f"type-2 elements hold rough classes, got {rough!r}")
        return cls(rough)

    @property
    def is_type1(self) -> bool:
        return isinstance(self.payload, Subset)

    @property
    def is_type2(self) -> bool:
        return isinstance(self.payload, RoughClass)

    def describe(self) -> str:
        """Printable form; classes show a sample member and their bounds."""
        if self.is_type1:
            return str(self.payload)
        cls_ = self.payload
        return f"{cls_} bounds=({cls_.lower},{cls_.upper})"

    def __str__(self) -> str:
        return str(self.payload)


class CeraModel:
    """Operations and constants of the mixed algebra of one space.

    With ``soft`` set, the commonality slot of the algebra holds the
    relaxed operation (mixed cases meet against the union of members
    instead of their intersection).
    """

    def __init__(self, space: ApproximationSpace, soft: bool = False):
        self.space = space
        self.soft = soft
        self.quotient = QuotientAlgebra(space)
        self.bottom = MixedElement.type1(space.universe.empty)
        self.top = MixedElement.type1(space.universe.full)
        self.zero = MixedElement.type2(self.quotient.zero)
        self.one = MixedElement.type2(self.quotient.one)

    def class_of(self, x: Subset) -> MixedElement:
        return MixedElement.type2(self.space.rough_class_of(x))

    def labels(self) -> Labels:
        """The carrier, each element built when indexed: the subsets, then the classes."""
        subsets, classes = self.space.universe.labels(), self.quotient.labels()
        return Labels(range(len(subsets) + len(classes)), self.element)

    def element(self, i: int) -> MixedElement:
        """Element i of ``labels()``: subset i, then class i - 2^n."""
        j = i - len(self.space.masks.lower)
        if j < 0:
            return MixedElement.type1(Subset(self.space.universe, i))
        return MixedElement.type2(self.quotient.labels()[j])

    def elements(self) -> list[MixedElement]:
        """Full carrier: subsets in mask order, then classes."""
        return list(self.labels())

    def class_ids(self) -> np.ndarray:
        """The class index of each element of ``labels()``: subset i's, then j for class j."""
        return np.concatenate([self.space.masks.class_id, np.arange(len(self.quotient.labels()))])

    def tables(self) -> tuple[np.ndarray, ...]:
        """oplus, commonality, L, black lozenge and sim_neg over ``elements()``.

        Entries are carrier indices: subset ``m`` is element ``m`` and class
        ``c`` is element ``2^n + c``, added in the carrier dtype: 2^n may
        not fit the dtype of the class ids.
        """
        bm = self.space.masks
        size, dtype = len(bm.lower), np.min_scalar_type(len(self.labels()) - 1)
        neg, nec, pos = (t.astype(dtype) + size for t in self.quotient._unary_tables())
        complement = (size - 1) ^ np.arange(size, dtype=bm.class_lower.dtype)
        return (
            self._binary_table(np.bitwise_or),
            self._binary_table(np.bitwise_and),
            np.concatenate([bm.lower, nec], dtype=dtype),
            np.concatenate([bm.upper, pos], dtype=dtype),
            np.concatenate([complement, neg], dtype=dtype),
        )

    def _binary_table(self, op) -> np.ndarray:
        """oplus (``np.bitwise_or``) or commonality (``np.bitwise_and``), as in ``tables()``."""
        bm = self.space.masks
        size, dtype = len(bm.lower), np.min_scalar_type(len(self.labels()) - 1)
        lo, up = bm.class_lower, bm.class_upper
        subsets = np.arange(size, dtype=lo.dtype)
        # a class enters a mixed case as the collapse of its members: their
        # union, or for commonality their intersection unless soft
        collapse = lo if op is np.bitwise_and and not self.soft else up
        mask = np.concatenate([subsets, collapse])
        out = (bm.class_id.astype(dtype) + size)[op(mask[:, None], mask)]
        out[:size, :size] = op(subsets[:, None], subsets)
        out[size:, size:] = self.quotient._lattice_table(op).astype(dtype) + size
        return out

    def frak_l(self, x: MixedElement) -> MixedElement:
        if x.is_type1:
            return MixedElement.type1(self.space.lower(x.payload))
        return MixedElement.type2(self.quotient.necessity(x.payload))

    def black_lozenge(self, x: MixedElement) -> MixedElement:
        if x.is_type1:
            return MixedElement.type1(self.space.upper(x.payload))
        return MixedElement.type2(self.quotient.possibility(x.payload))

    def _binary(
        self, x, y, on_subsets, left, right, on_classes, lift=MixedElement.type1
    ) -> MixedElement:
        """The one rule of every binary operation.

        Two subsets combine by ``on_subsets`` and ``lift`` tags the result;
        two classes combine by ``on_classes``.  In a mixed case the class
        argument enters as the collapse of its members that ``left`` or
        ``right`` names: their union is its ``upper`` bound, their
        intersection its ``lower`` bound.  The result lands in a class.
        """
        if x.is_type1 and y.is_type1:
            return lift(on_subsets(x.payload, y.payload))
        if x.is_type2 and y.is_type2:
            return MixedElement.type2(on_classes(x.payload, y.payload))
        a = getattr(x.payload, left) if x.is_type2 else x.payload
        b = getattr(y.payload, right) if y.is_type2 else y.payload
        return self.class_of(on_subsets(a, b))

    def oplus(self, x: MixedElement, y: MixedElement) -> MixedElement:
        """Aggregation; mixed cases aggregate across every member."""
        return self._binary(x, y, or_, "upper", "upper", self.quotient.join)

    def odot(self, x: MixedElement, y: MixedElement) -> MixedElement:
        """Commonality; mixed cases keep what is common to every member."""
        return self._binary(x, y, and_, "lower", "lower", self.quotient.meet)

    def circ(self, x: MixedElement, y: MixedElement) -> MixedElement:
        """Relaxed commonality; mixed cases meet the union of members."""
        return self._binary(x, y, and_, "upper", "upper", self.quotient.meet)

    def commonality(self, x: MixedElement, y: MixedElement) -> MixedElement:
        """The commonality slot of this model (relaxed when soft)."""
        collapse = "upper" if self.soft else "lower"
        return self._binary(x, y, and_, collapse, collapse, self.quotient.meet)

    def sim_neg(self, x: MixedElement) -> MixedElement:
        if x.is_type1:
            return MixedElement.type1(x.payload.complement())
        return MixedElement.type2(self.quotient.neg(x.payload))

    def partial_neg(self, x: MixedElement) -> MixedElement:
        """Class negation; undefined on plain subsets."""
        if x.is_type1:
            raise UndefinedOperationError(
                f"negation undefined on type-1 element {x}"
            )
        return MixedElement.type2(self.quotient.neg(x.payload))

    def rightsquig(self, x: MixedElement, y: MixedElement) -> MixedElement:
        # union over members z of (x + z complement) = x + lower complement
        return self._binary(x, y, _or_not, "upper", "lower", self.quotient.implies)

    def two_head(self, x: MixedElement, y: MixedElement) -> MixedElement:
        """As the squiggly arrow, but the all-subset case lands in a class."""
        return self._binary(
            x, y, _or_not, "upper", "lower", self.quotient.implies, self.class_of
        )


def _or_not(x: Subset, y: Subset) -> Subset:
    return x | y.complement()


def check_cera_identities(model: CeraModel, cap: int = IDENTITY_CARRIER_CAP) -> AxiomReport:
    """Exhaustively verify the identity suite of the mixed algebra.

    The tables of ``model.tables()`` are built once, in the narrowest
    integer dtype that indexes the carrier, and every law is evaluated by
    indexing tables with tables.  No law builds more than carrier² cells
    at once: ternary laws are swept one leading element at a time, where
    no certificate decides their PASS.  A carrier over ``cap`` raises.
    Guarded laws quantify only over the tags named in their premises.
    """
    # The carrier is the subsets 0..2^n-1 (type 1), then the classes (type 2).
    els = model.labels()
    check_cap(els, cap, "carrier of size {size} exceeds identity-check cap")
    bm = model.space.masks
    size, n = len(bm.lower), len(els)

    arange = np.arange(n)
    type1 = arange < size
    t1, t2 = arange[:size], arange[size:]

    plus, times, low, dia, neg = model.tables()
    bot_i, top_i = 0, size - 1
    zero_i, one_i = size, size + int(bm.class_id[-1])

    all1, all2 = els[:size], els[size:]
    results: dict[str, AxiomCheck] = {}

    def record(name: str, clauses) -> None:
        """clauses: (label, violation array or row function, element axes)."""
        for clause, bad, axes in clauses:
            witness = first_violation(bad, axes)
            if witness is not None:
                results[name] = AxiomCheck(False, (clause, *witness))
                return
        results[name] = AxiomCheck(True)

    one_el = (els,)
    two_el = (els, els)

    # Tag detectors, on the bounds: x ~> x is m | ~m on a subset mask m and
    # the quotient's implies(c, c) on a class; ~ is defined on classes only.
    lo, up = bm.class_lower, bm.class_upper
    x = (top_i ^ lo | lo) & (top_i ^ up | up)
    squig = np.concatenate([t1 | top_i ^ t1, bm.class_index(x, x).astype(np.intp) + size])
    record("type-1", [("x ~> x = T iff type-1", (squig == top_i) != type1, one_el)])
    defined = ~type1
    record("type-2", [("neg defined iff type-2", defined == type1, one_el)])

    # Unary laws over the whole carrier.
    record(
        "ov-1",
        [
            ("~~x = x", neg[neg] != arange, one_el),
            ("LLx = Lx", low[low] != low, one_el),
            ("DLx = Lx", dia[low] != low, one_el),
        ],
    )
    record(
        "ov-2",
        [
            ("Lx (+) x = x", plus[low, arange] != arange, one_el),
            ("Lx (.) x = Lx", times[low, arange] != low, one_el),
            ("Dx (+) x = Dx", plus[dia, arange] != dia, one_el),
            ("Dx (.) x = x", times[dia, arange] != arange, one_el),
        ],
    )
    record(
        "ov-3",
        [
            ("LDx = Dx", low[dia] != dia, one_el),
            ("x (+) x = x", plus[arange, arange] != arange, one_el),
            ("x (.) x = x", times[arange, arange] != arange, one_el),
        ],
    )
    record(
        "qov-1",
        [
            ("~x (+) x = T", plus[neg[t1], t1] != top_i, (all1,)),
            ("~Lx (+) Lx = 1", plus[neg[low[t2]], low[t2]] != one_i, (all2,)),
        ],
    )
    record(
        "qov-2",
        [
            ("~bottom = top", np.array([neg[bot_i] != top_i]), (els[bot_i : bot_i + 1],)),
            ("~0 = 1", np.array([neg[zero_i] != one_i]), (els[zero_i : zero_i + 1],)),
        ],
    )

    # Weak associativity and commutativity over the whole carrier.
    rows = arange[:, None]
    pp = plus[rows, plus]
    tt = times[rows, times]
    record(
        "u1",
        [
            ("triple (+) collapse", plus[rows, pp] != pp, two_el),
            ("triple (.) collapse", times[rows, tt] != tt, two_el),
        ],
    )
    record(
        "u2",
        [
            ("(+) commutes", plus != plus.T, two_el),
            ("(.) commutes", times != times.T, two_el),
        ],
    )

    # Same-type laws.  A subset block of mask unions and intersections is
    # Boolean, so distributive.
    m, sq = t1.astype(plus.dtype), np.s_[:size, :size]
    boolean = (plus[sq] == m[:, None] | m).all() and (times[sq] == m[:, None] & m).all()
    blocks = (("1", np.s_[:size], all1, boolean), ("2", np.s_[size:], all2, None))
    for tag, s, axis, dist in blocks:
        three, two = (axis,) * 3, (axis,) * 2
        idxs, sub_t = arange[s], times[s, s]
        t_assoc, p_assoc, _, p_over_t = lattice_laws(times, plus, range(n)[s], dist)
        record(f"ter-{tag}1", [("(+) associative", p_assoc, three)])
        record(f"ter-{tag}2", [("(+) over (.)", p_over_t, three)])
        record(f"ter-{tag}3", [("(.) associative", t_assoc, three)])
        record(
            f"bi-{tag}",
            [
                ("absorption", plus[idxs[:, None], sub_t] != idxs[:, None], two),
                ("de morgan", neg[sub_t] != plus[neg[idxs]][:, neg[idxs]], two),
            ],
        )

    # Mixed quasi-identities.
    premise = plus[t1][:, t2] == t2[None, :]
    conclusion = plus[dia[t1]][:, t2] == t2[None, :]
    record("bm", [("x (+) y = y forces Dx (+) y = y", premise & ~conclusion, (all1, all2))])

    bad_hra = type1[times[one_i, t1]] | type1[plus[t1, zero_i]]
    record("hra1", [("conversion lands in type-2", bad_hra, (all1,))])

    return AxiomReport(results)
