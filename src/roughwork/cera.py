"""Mixed-domain enriched algebra over subsets and their rough classes.

The carrier joins every plain subset of the universe (type 1) with every
rough class of the space, the class of the empty set included (type 2);
``CeraModel.labels()`` states it once: subset i, then class i - 2^n.  Each
binary operation is one rule, which the element method runs on the Subsets
of a single query and ``CeraModel.table`` on the masks of the carrier.
The identity suite decides every law, its tag detectors included, on those
tables and bounds, calls no element method, and builds elements only for
a witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from roughwork.approx import ApproximationSpace, Labels, RoughClass, Subset, check_cap
from roughwork.granular import AxiomCheck, AxiomReport, first_violation, lattice_laws
from roughwork.prerough import BINARY_RULES, QuotientAlgebra

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


# Each binary operation: two subsets combine by the first entry, given the complement ``c``,
# and two classes by the quotient rule the last names.  In a mixed case the class enters as
# the collapse of its members the second (left) or third (right) names, their union its
# upper bound or their intersection its lower, and the result lands in a class.
RULES = {
    "oplus": (lambda c, a, b: a | b, "upper", "upper", "join"),  # across every member
    "odot": (lambda c, a, b: a & b, "lower", "lower", "meet"),  # common to every member
    "circ": (lambda c, a, b: a & b, "upper", "upper", "meet"),  # meets their union
    # union over members z of (x + z complement) = x + lower complement
    "rightsquig": (lambda c, a, b: a | c(b), "upper", "lower", "implies"),
}


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
        self._rules = {**RULES, "commonality": RULES["circ" if soft else "odot"]}
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
        """oplus, commonality, L, black lozenge and sim_neg over ``elements()``, as
        carrier indices: subset ``m`` is element ``m`` and class ``c`` is element
        ``2^n + c``, added in the carrier dtype (2^n may not fit that of class ids)."""
        bm = self.space.masks
        size, dtype = len(bm.lower), np.min_scalar_type(len(self.labels()) - 1)
        on_subsets = bm.lower, bm.upper, bm.complement(np.arange(size, dtype=bm.lower.dtype))
        ops = ("necessity", "possibility", "neg")
        classes = (self.quotient.table(op).astype(dtype) + size for op in ops)
        unary = (np.concatenate(t, dtype=dtype) for t in zip(on_subsets, classes))
        return self.table("oplus"), self.table("commonality"), *unary

    def table(self, op: str) -> np.ndarray:
        """The rule of ``op`` over every pair of ``elements()``, as in ``tables()``."""
        bm = self.space.masks
        size, dtype = len(bm.lower), np.min_scalar_type(len(self.labels()) - 1)
        on_subsets, left, right, on_classes = self._rules[op]
        subsets = np.arange(size, dtype=bm.lower.dtype)
        left, right = (np.concatenate([subsets, getattr(bm, "class_" + s)]) for s in (left, right))
        out = (bm.class_id.astype(dtype) + size)[on_subsets(bm.complement, left[:, None], right)]
        out[:size, :size] = on_subsets(bm.complement, subsets[:, None], subsets)
        out[size:, size:] = self.quotient.table(on_classes).astype(dtype) + size
        return out

    def frak_l(self, x: MixedElement) -> MixedElement:
        if x.is_type1:
            return MixedElement.type1(self.space.lower(x.payload))
        return MixedElement.type2(self.quotient.necessity(x.payload))

    def black_lozenge(self, x: MixedElement) -> MixedElement:
        if x.is_type1:
            return MixedElement.type1(self.space.upper(x.payload))
        return MixedElement.type2(self.quotient.possibility(x.payload))

    def _binary(self, op: str, x, y, lift=MixedElement.type1) -> MixedElement:
        """The rule of ``op`` on one pair; ``lift`` tags a result of two subsets.
        The two operands the rule reads are checked first, so that an error
        names them, not a complement the rule takes."""
        on_subsets, left, right, on_classes = self._rules[op]
        if x.is_type1 and y.is_type1:
            x.payload._check(y.payload)
            return lift(on_subsets(Subset.complement, x.payload, y.payload))
        if x.is_type2 and y.is_type2:
            return MixedElement.type2(self.quotient.apply(on_classes, x.payload, y.payload))
        a = getattr(x.payload, left) if x.is_type2 else x.payload
        b = getattr(y.payload, right) if y.is_type2 else y.payload
        a._check(b)
        out = on_subsets(Subset.complement, a, b)
        self.space._check_class(x.payload if x.is_type2 else y.payload)
        return self.class_of(out)

    def oplus(self, x: MixedElement, y: MixedElement) -> MixedElement:
        return self._binary("oplus", x, y)

    def odot(self, x: MixedElement, y: MixedElement) -> MixedElement:
        return self._binary("odot", x, y)

    def circ(self, x: MixedElement, y: MixedElement) -> MixedElement:
        return self._binary("circ", x, y)

    def commonality(self, x: MixedElement, y: MixedElement) -> MixedElement:
        """The commonality slot of this model (relaxed when soft)."""
        return self._binary("commonality", x, y)

    def sim_neg(self, x: MixedElement) -> MixedElement:
        if x.is_type1:
            self.space._check(x.payload)
            return MixedElement.type1(x.payload.complement())
        return MixedElement.type2(self.quotient.neg(x.payload))

    def partial_neg(self, x: MixedElement) -> MixedElement:
        """Class negation; undefined on plain subsets."""
        if x.is_type1:
            raise UndefinedOperationError(f"negation undefined on type-1 element {x}")
        return MixedElement.type2(self.quotient.neg(x.payload))

    def rightsquig(self, x: MixedElement, y: MixedElement) -> MixedElement:
        return self._binary("rightsquig", x, y)

    def two_head(self, x: MixedElement, y: MixedElement) -> MixedElement:
        """As the squiggly arrow, but the all-subset case lands in a class."""
        return self._binary("rightsquig", x, y, self.class_of)


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
        """clauses: (label, violation array or (rows, function) pair, element axes)."""
        for clause, bad, axes in clauses:
            witness = first_violation(bad, axes)
            if witness is not None:
                results[name] = AxiomCheck(False, (clause, *witness))
                return
        results[name] = AxiomCheck(True)

    one_el = (els,)
    two_el = (els, els)

    # Tag detectors, on the bounds: x ~> x is the rule of ~> on each subset
    # mask and on the bounds of each class; ~ is defined on classes only.
    (on_subsets, _, _, on_classes), c = RULES["rightsquig"], bm.complement
    lo, up = bm.class_lower, bm.class_upper
    classes = bm.class_index(*BINARY_RULES[on_classes](c, lo, up, lo, up))
    squig = np.concatenate([on_subsets(c, t1, t1), classes.astype(np.intp) + size])
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
