"""Generalized negation analysis on finite bounded posets.

Carries the condition checks N1 through N6 and N9 under weak-equality
semantics (an equation with an undefined side never fails), iterate
index bookkeeping, interior composition, an exhaustive falsification
harness over small distributive lattices, and the dialectical predicate
laws.  A poset is one boolean order matrix; its meet and join are tables
of element indices derived from it, with -1 where undefined, and the
checks read those tables directly, or the rough quotient's own tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable, Iterable, Sequence

import numpy as np

from roughwork.approx import CapExceededError as SearchTooLargeError
from roughwork.granular import (
    CHUNK_BYTES, AxiomCheck, AxiomReport, distributive, packed_rows, relation_square, sweep_laws
)
from roughwork.prerough import QuotientAlgebra

FALSIFY_SIZE_CAP = 6
FALSIFY_DEFAULT_CAP = 5
ITERATE_CAP = 10_000  # iterates N5 computes before it gives up on a repeat
CLAIM_IDS = (
    "no-index-0-n",
    "n123-bottom-top",
    "n123-not-n9-witness",
    "n9-implies-n123",
)
CONDITION_NAMES = ("N1", "N2", "N3", "N4", "N5", "N6", "N9")


class PreconditionError(ValueError):
    """A composition precondition fails; the message names the law."""


class BoundedPoset:
    """Finite poset with a least element and partial meet/join.

    ``_rel[i, j]`` says element i is below element j.  ``_meet`` and
    ``_join`` hold element indices, -1 where the infimum or supremum does
    not exist: the meet of i and j is the common lower bound whose
    down-set is as large as the set of common lower bounds, and the join
    is the meet under the transposed order.  The lattice and
    distributivity flags are derived, not declared.
    """

    def __init__(self, elements: Sequence, leq_pairs: Iterable[tuple]):
        self.elements = tuple(elements)
        if not self.elements or len(set(self.elements)) != len(self.elements):
            raise ValueError("elements must be nonempty and distinct")
        index = self._index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        rel = np.eye(n, dtype=bool)
        rel.reshape(-1)[[index[a] * n + index[b] for a, b in leq_pairs]] = True
        # The first bad cell in row-major order names the error, antisymmetry
        # first; (i, j) is unclosed if i <= j <= k for some k not above i.
        cycle = rel & rel.T & ~np.eye(n, dtype=bool)
        i = (cycle.any(axis=1) | (relation_square(rel) > rel).any(axis=1)).argmax()
        bad = cycle[i] | rel[i] & (rel & ~rel[i]).any(axis=1)
        if bad.any():
            kind = "antisymmetric" if cycle[i, bad.argmax()] else "transitive"
            raise ValueError(f"order is not {kind}")
        self._rel = rel
        bottoms = rel.all(axis=1)
        if not bottoms.any():
            raise ValueError("poset has no least element")
        self._bottom = int(bottoms.argmax())
        tops = rel.all(axis=0)
        self._top = int(tops.argmax()) if tops.any() else None
        self._meet = _meet_table(rel)
        self._join = _meet_table(rel.T)

    @classmethod
    def chain(cls, labels: Sequence) -> BoundedPoset:
        labels = list(labels)
        return cls(labels, combinations(labels, 2))

    @classmethod
    def boolean_lattice(cls, atom_count: int) -> BoundedPoset:
        """Power set of ``atom_count`` atoms, elements coded as bit masks."""
        els = list(range(1 << atom_count))
        pairs = [(a, b) for a in els for b in els if a | b == b and a != b]
        return cls(els, pairs)

    @property
    def bottom(self):
        return self.elements[self._bottom]

    @property
    def top(self):
        return None if self._top is None else self.elements[self._top]

    def leq(self, a, b) -> bool:
        return bool(self._rel[self._index[a], self._index[b]])

    def meet(self, a, b):
        got = self._meet[self._index[a], self._index[b]]
        return None if got < 0 else self.elements[got]

    def join(self, a, b):
        got = self._join[self._index[a], self._index[b]]
        return None if got < 0 else self.elements[got]

    @property
    def is_lattice(self) -> bool:
        return bool((self._meet >= 0).all() and (self._join >= 0).all())

    @property
    def is_distributive(self) -> bool | None:
        """True/False for lattices, None otherwise."""
        return distributive(self._meet, self._join) if self.is_lattice else None

    def __repr__(self) -> str:
        return f"<BoundedPoset {list(self.elements)}>"


def _meet_table(rel: np.ndarray) -> np.ndarray:
    """Meet indices under ``rel``, -1 where none: the element whose down-set
    is ↓i ∩ ↓j (Davey and Priestley, ch. 2).  Down-sets are packed largest
    first, so the only candidate is the first set bit of ↓i & ↓j."""
    n = len(rel)
    order = np.argsort(-rel.sum(axis=0), kind="stable")
    words = packed_rows(rel[order][:, order].T)
    table = np.empty((n, n), dtype=np.min_scalar_type(-n))
    step = max(1, CHUNK_BYTES // words.nbytes)
    for i in range(0, n, step):
        common = words[i : i + step, None] & words
        first = (common != 0).argmax(axis=2)
        word = np.take_along_axis(common, first[..., None], axis=2)[..., 0]
        pos = 64 * first + np.log2(np.maximum(word & (0 - word), 1)).astype(np.intp)
        hit = (words[pos] == common).all(axis=2)
        table[order[i : i + step, None], order] = np.where(hit, order[pos], -1)
    return table


class UnaryOp:
    """Partial unary map; ``None`` marks an undefined value."""

    def __init__(self, mapping: dict):
        self.mapping = dict(mapping)

    @classmethod
    def total(cls, elements: Iterable, fn: Callable) -> UnaryOp:
        return cls({x: fn(x) for x in elements})

    def __call__(self, x):
        return self.mapping.get(x)

    def iterate(self, x, times: int):
        for _ in range(times):
            if x is None:
                return None
            x = self.mapping.get(x)
        return x

    def __repr__(self) -> str:
        return f"UnaryOp({self.mapping!r})"


@dataclass(frozen=True)
class NegationProfile:
    """Condition report plus the iterate index bookkeeping."""

    checks: AxiomReport
    index: tuple[int, int]
    period: int
    pace: int

    def __post_init__(self):
        m, n = self.index
        assert self.checks["N5"].passed and self.period == n and self.pace == n - m

    def passed(self, name: str) -> bool:
        return self.checks[name].passed


def _iterate_index(F: np.ndarray, first: np.ndarray) -> tuple[int, int]:
    """Least n admitting m < n with f^m weakly equal to f^n pointwise.

    Iterates are index arrays from ``first``, -1 where undefined; F gets a
    -1 sentinel, so an undefined value stays undefined in every later
    iterate, and iterate n weakly equals an earlier one iff they agree
    wherever iterate n is defined.  So each iterate is looked up by its
    bytes on that defined set, and the keys are rebuilt when the set
    shrinks, at most len(first) times.  A finite map has such an n; past
    ``ITERATE_CAP`` iterates, this raises ``CapExceededError``."""
    apply = np.append(F, -1)
    maps = np.empty((ITERATE_CAP + 1, len(first)), dtype=F.dtype)  # one dtype for every key
    maps[0] = first
    defined, seen = maps[0] >= 0, {}
    for n in range(ITERATE_CAP + 1):
        if n:
            maps[n] = apply[maps[n - 1]]
        if (maps[n][defined] < 0).any():
            defined = maps[n] >= 0
            seen = {}
            for m in range(n):
                seen.setdefault(maps[m][defined].tobytes(), m)
        m = seen.setdefault(maps[n][defined].tobytes(), n)
        if m < n:
            return m, n
    raise SearchTooLargeError(f"no repeat within the iterate cap {ITERATE_CAP}")


def check_negation(poset: BoundedPoset, f: UnaryOp) -> NegationProfile:
    """Decide N1-N6 and N9 exhaustively; undefined sides never falsify."""
    els, index = poset.elements, poset._index
    for x, fx in f.mapping.items():
        if x not in index or fx not in index:
            raise ValueError(f"operation leaves the carrier at {x!r}")
    F = np.array([-1 if f(x) is None else index[f(x)] for x in els], poset._meet.dtype)
    none = index.get(None, -1)  # an element None counts as undefined
    return _negation_profile(els, poset._rel, poset._meet, poset._join, poset._bottom, F, none)


def check_quotient_negation(quotient: QuotientAlgebra) -> NegationProfile:
    """``check_negation`` on the quotient order and negation, read off its own tables.

    The quotient is 2^I × 3^J under componentwise bound operations (Gehrke
    and Walker 1992), and its meet and join tables are its order's glb and
    lub: a singleton block in the boundary of the componentwise ∩ or ∪ of
    two classes' bounds lies in an operand's boundary, so the result is a
    class, which the order, inclusion of both bounds, puts above every
    common lower bound (below every common upper bound).  Class 0, that of
    the empty set, is the least element; witnesses are ``labels()``.
    """
    labels = quotient.labels()
    dtype = np.min_scalar_type(-len(labels))
    meet, join, neg = (quotient.table(op).astype(dtype) for op in ("meet", "join", "neg"))
    return _negation_profile(labels, quotient.leq_matrix(), meet, join, 0, neg, -1)


def _negation_profile(labels, rel, meet, join, bot, F, none) -> NegationProfile:
    """The profile from index tables, -1 where a meet, join or ``F`` is
    undefined, and element ``none`` (-1 if no such) counted undefined too.
    Every read through a -1 is masked by a definedness test, which keeps
    the weak-equality semantics."""
    r = np.arange(len(labels), dtype=meet.dtype)
    defined = F >= 0
    both = defined[:, None] & defined[None, :]
    FF = np.where(defined, F[F], -1)
    f_join = np.where(join >= 0, F[join], -1)
    meet_ff = np.where(both, meet[F[:, None], F[None, :]], -1)
    y_below_fx = rel[r[None, :], F[:, None]]
    results = sweep_laws(
        labels,
        {
            "N1": defined & (meet[r, F] >= 0) & (meet[r, F] != bot),
            "N2": rel & both & ~rel[F[None, :], F[:, None]],
            "N3": (FF >= 0) & ~rel[r, FF],
            "N4": rel[r[:, None], F[None, :]] & both & ~y_below_fx,
            "N6": (f_join >= 0) & (meet_ff >= 0) & (f_join != meet_ff),
            "N9": defined[:, None] & (((meet < 0) | (meet == bot)) != y_below_fx),
        },
    )
    m, n = _iterate_index(F, np.where(r == none, -1, r))
    results["N5"] = AxiomCheck(True)  # a finite map's iterates repeat
    return NegationProfile(AxiomReport({k: results[k] for k in CONDITION_NAMES}), (m, n), n, n - m)


def check_interior(poset: BoundedPoset, i: UnaryOp) -> None:
    """Raise unless ``i`` is a total interior operator on the poset."""
    for x in poset.elements:
        ix = i(x)
        if ix is None:
            raise PreconditionError(f"interior operator undefined at {x!r}")
        if not poset.leq(ix, x):
            raise PreconditionError(f"interior contraction fails at {x!r}")
        if i(ix) != ix:
            raise PreconditionError(f"interior idempotence fails at {x!r}")
    for a in poset.elements:
        for b in poset.elements:
            if poset.leq(a, b) and not poset.leq(i(a), i(b)):
                raise PreconditionError(f"interior monotonicity fails at {a!r}, {b!r}")


def interior_compose(
    poset: BoundedPoset, f: UnaryOp, i: UnaryOp
) -> tuple[UnaryOp, AxiomCheck]:
    """Compose an interior with a regular negation; check g^4 = g^2."""
    profile = check_negation(poset, f)
    for name in ("N1", "N2", "N3"):
        if not profile.passed(name):
            raise PreconditionError(f"operation is not a regular negation: {name} fails")
    check_interior(poset, i)
    g = UnaryOp(
        {
            x: i(f(x))
            for x in poset.elements
            if f(x) is not None and i(f(x)) is not None
        }
    )
    iterates = ((x, g.iterate(x, 2), g.iterate(x, 4)) for x in poset.elements)
    witness = next(
        ((x,) for x, g2, g4 in iterates if g4 is not None and g2 is not None and g4 != g2), None
    )
    return g, AxiomCheck.of(witness)


def _canonical_relation(poset: BoundedPoset) -> tuple:
    """The least sorted image of the strict order under any relabeling that
    fixes 0 and n - 1: every lattice ``enumerate_lattices`` keeps has its
    bottom at 0 and its top at n - 1, so every isomorphism between two fixes them."""
    n = len(poset.elements)
    strict = np.argwhere(poset._rel & ~np.eye(n, dtype=bool)).tolist()
    return min(
        tuple(sorted((perm[i], perm[j]) for i, j in strict))
        for perm in ((0, *p, n - 1) for p in permutations(range(1, n - 1)))
    )


def enumerate_lattices(n: int) -> list[BoundedPoset]:
    """All lattices with n elements, one per isomorphism class.

    Candidates are upper-triangular relations (every finite poset admits
    a linear extension) with 0 below every element, in the order of their
    bits over the row-major pairs i < j, whose low bits are the pairs
    (0, j).  ``BoundedPoset`` rejects the intransitive ones, and the
    lattices among the rest are deduplicated by relabeling.
    """
    above_zero = [(0, j) for j in range(1, n)]
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n)]
    first: dict[tuple, BoundedPoset] = {}  # the first of each isomorphism class
    for bits in range(1 << len(pairs)):
        chosen = [p for k, p in enumerate(pairs) if bits >> k & 1]
        try:
            poset = BoundedPoset(range(n), above_zero + chosen)
        except ValueError:  # the relation is not transitive
            continue
        if poset.is_lattice:
            first.setdefault(_canonical_relation(poset), poset)
    return list(first.values())


def enumerate_distributive_lattices(n: int) -> list[BoundedPoset]:
    return [p for p in enumerate_lattices(n) if p.is_distributive]


@dataclass(frozen=True)
class FalsificationWitness:
    claim: str
    poset: BoundedPoset
    op: UnaryOp
    note: str


def _condition_masks(poset: BoundedPoset) -> tuple[np.ndarray, ...]:
    """Vectorized N1/N2/N3/N9 masks over every total unary map."""
    n = len(poset.elements)
    leq, meet = poset._rel, poset._meet
    bot = poset._bottom
    # row r lists the images of 0..n-1, in itertools.product order
    maps = np.indices((n,) * n, dtype=np.int16).reshape(n, -1).T
    cols = np.arange(n)
    # [r, x, y] pairs f(x) with f(y) and with y
    fx, fy = maps[:, :, None], maps[:, None, :]
    n1 = (meet[cols, maps] == bot).all(axis=1)
    n2 = (leq[fy, fx] | ~leq).all(axis=(1, 2))
    n3 = leq[cols, np.take_along_axis(maps, maps, axis=1)].all(axis=1)
    n9 = (leq[cols, fx] == (meet == bot)).all(axis=(1, 2))
    return maps, n1, n2, n3, n9


def _total_op(poset: BoundedPoset, row: np.ndarray) -> UnaryOp:
    """The unary map sending element i to element row[i]."""
    return UnaryOp(dict(zip(poset.elements, (poset.elements[v] for v in row))))


def falsify_theorem(
    claim_id: str, size_cap: int = FALSIFY_DEFAULT_CAP
) -> FalsificationWitness | None:
    """Search small distributive lattices for the claim's witness.

    For impossibility claims the return value is a counterexample (and
    the expected outcome is None); for the non-implication claim it is
    the confirming operation.
    """
    if claim_id not in CLAIM_IDS:
        raise ValueError(f"unknown claim {claim_id!r}; expected one of {', '.join(CLAIM_IDS)}")
    if size_cap > FALSIFY_SIZE_CAP:
        raise SearchTooLargeError(
            f"size cap {size_cap} exceeds the bound {FALSIFY_SIZE_CAP}"
        )
    for n in range(1, size_cap + 1):
        for poset in enumerate_distributive_lattices(n):
            maps, n1, n2, n3, n9 = _condition_masks(poset)
            if claim_id == "no-index-0-n":
                # a permutation's first repeat is (0, its order): index (0, k > 2) iff f∘f ≠ id
                perm = (np.sort(maps, axis=1) == np.arange(n)).all(axis=1)
                moved = (np.take_along_axis(maps, maps, axis=1) != np.arange(n)).any(axis=1)
                hits, note = n1 & n2 & perm & moved, None
            elif claim_id == "n123-bottom-top":
                bot, top = poset._bottom, poset._top
                bad = (maps[:, bot] != top) | (maps[:, top] != bot)
                hits, note = n1 & n2 & n3 & bad, "regular yet moves the bounds wrongly"
            elif claim_id == "n123-not-n9-witness":
                hits, note = n1 & n2 & n3 & ~n9, "satisfies N1-N3 but not N9"
            else:
                hits, note = n9 & ~(n1 & n2 & n3), "satisfies N9 but not all of N1-N3"
            if hits.any():
                row = maps[np.flatnonzero(hits)[0]]
                if note is None:
                    note = f"index {_iterate_index(row, np.arange(n, dtype=row.dtype))}"
                return FalsificationWitness(claim_id, poset, _total_op(poset, row), note)
    return None


def check_dialectical_predicate(
    elements: Iterable,
    relation: Callable,
    aggregate: Callable,
) -> AxiomReport:
    """Commutativity, anti-reflexivity, and aggregation stability."""
    els = list(elements)
    violations = {
        "commutativity": (
            (a, b) for a in els for b in els if bool(relation(a, b)) != bool(relation(b, a))
        ),
        "anti-reflexivity": ((a,) for a in els if relation(a, a)),
        "aggregation": (
            (a, b, c)
            for a in els
            for b in els
            if relation(a, b)
            for c in els
            if not relation(aggregate(a, c), aggregate(b, c))
        ),
    }
    return AxiomReport({name: AxiomCheck.of(next(v, None)) for name, v in violations.items()})
