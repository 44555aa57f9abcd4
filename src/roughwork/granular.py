"""Granular operator models: axiom checks, admissibility, granulation search.

A model carries an explicit granule list plus lower/upper operators given
as total tables, so non-classical operators are first-class citizens.
Admissibility bundles three conditions: representability of both operators
over the granules, lower stability of granules, and pairwise underlap
inside definite supersets.  Each has one definition, shared by the check
and the search.  Representability is a bitmask cover test: a set lies in
the field the granules generate iff every pair of atoms it splits is split
by some granule.  Lower stability is a fact about one granule and full
underlap about one pair; both are computed once per granule and kept, and
the search under plain inclusion computes both for every mask up front.
Monotonicity is tested on covers, then swept below failing ones only.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable, Iterable, Sequence

import numpy as np

from roughwork.approx import (
    ApproximationSpace,
    CapExceededError as SearchCapExceededError,
    Subset,
    Universe,
    UniverseMismatchError,
    check_cap,
)

SEARCH_CANDIDATE_CAP = 10**7
CHUNK_BYTES = 1 << 20  # bytes of rows a packed-row kernel takes per numpy call


@dataclass(frozen=True)
class ParthoodPredicate:
    """Named binary predicate on subsets; default is plain inclusion."""

    name: str
    holds: Callable[[Subset, Subset], bool]

    def proper(self, a: Subset, b: Subset) -> bool:
        return self.holds(a, b) and not self.holds(b, a)


INCLUSION = ParthoodPredicate("inclusion", Subset.is_subset_of)


class OperatorTable:
    """Total map from every subset of a universe to a subset."""

    __slots__ = ("universe", "_table")

    def __init__(self, universe: Universe, entries: dict[int, int]):
        if set(entries) != set(range(len(universe.labels()))):
            raise ValueError("operator table must be total on the power set")
        self._fill(universe, [entries[m] for m in range(len(entries))])

    @classmethod
    def from_list(cls, universe: Universe, table: list[int]) -> OperatorTable:
        """The table mapping mask ``m`` to ``table[m]``."""
        if len(table) != len(universe.labels()):
            raise ValueError("operator table must be total on the power set")
        out = cls.__new__(cls)
        out._fill(universe, table)
        return out

    def _fill(self, universe: Universe, table: Iterable) -> None:
        try:
            table = list(map(operator.index, table))
        except TypeError:
            raise ValueError("operator table has a non-integer entry") from None
        if min(table) < 0 or max(table) >= len(table):
            out = next(v for v in table if not 0 <= v < len(table))
            raise ValueError(f"table output {out:#x} out of range")
        self.universe = universe
        self._table = table

    @classmethod
    def from_callable(
        cls, universe: Universe, fn: Callable[[Subset], Subset]
    ) -> OperatorTable:
        entries = {}
        for x in universe.subsets():
            out = fn(x)
            if out.universe != universe:
                raise UniverseMismatchError("operator output over foreign universe")
            entries[x.mask] = out.mask
        return cls(universe, entries)

    def __call__(self, x: Subset) -> Subset:
        if x.universe != self.universe:
            raise UniverseMismatchError(f"{x!r} not over the table's universe")
        return Subset(self.universe, self._table[x.mask])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, OperatorTable)
            and self.universe == other.universe
            and self._table == other._table
        )

    def __hash__(self) -> int:
        return hash((self.universe.atoms, tuple(self._table)))


@dataclass(frozen=True)
class AxiomCheck:
    passed: bool
    witness: tuple | None = None

    def __post_init__(self):
        assert self.passed == (self.witness is None)

    @classmethod
    def of(cls, witness: tuple | None) -> AxiomCheck:
        """PASS without a witness, FAIL at the given one."""
        return cls(witness is None, witness)


def first_violation(bad: np.ndarray | tuple, axes: Sequence[Sequence]) -> tuple | None:
    """The elements at the first violating cell of a law, or None.

    ``bad`` is a boolean array, True where the law fails, whose
    dimensions run over the leading ``axes`` (any further axes are
    ignored).  Cells are taken in row-major order, which is the
    order of the nested loops ``for a in axes[0]: for b in axes[1]: ...``,
    so the witness is the one such a loop would stop at.  A law whose
    array would exceed carrier² cells passes a pair ``(rows, function)``:
    the function maps an index on the first axis to the array over the
    remaining axes, and only the given rows are built and swept, one at a
    time, in the given order, which must hold every row that can fail.
    """
    if isinstance(bad, tuple):
        rows, row = bad
        for i in rows:
            rest = first_violation(row(i), axes[1:])
            if rest is not None:
                return (axes[0][i], *rest)
        return None
    if not bad.any():
        return None
    cell = np.unravel_index(int(bad.argmax()), bad.shape)
    return tuple(axis[int(i)] for axis, i in zip(axes, cell))


def packed_rows(m: np.ndarray) -> np.ndarray:
    """Boolean rows as 64-bit words; column j is bit j % 64 of word j // 64."""
    padded = np.zeros((len(m), (m.shape[1] + 63) // 64 * 64), dtype=bool)
    padded[:, : m.shape[1]] = m
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def relation_square(m: np.ndarray) -> np.ndarray:
    """m∘m as a boolean matrix; each row ORs the packed rows it relates to."""
    m = np.ascontiguousarray(m)
    words = packed_rows(m).T.copy()
    cols = np.broadcast_to(words, (len(m), *words.shape))
    reach = np.bitwise_or.reduce(cols, axis=2, where=m[:, None, :], initial=0)
    bits = reach.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(bits, axis=1, count=len(m), bitorder="little").view(bool)


def _rows_agree(rows: np.ndarray, op: np.ndarray, combine: Callable) -> bool:
    """Whether packed rows[op[x, y]] = combine(rows[x], rows[y]) for all x, y."""
    w = rows.T.copy()  # w[k] is word k of every row, so numpy loops run over rows, not words
    step = max(1, CHUNK_BYTES // rows.nbytes)  # each x row makes a rows-sized temporary
    return not any(
        (w.take(op[x : x + step], 1) != combine(w[:, x : x + step, None], w[:, None])).any()
        for x in range(0, len(rows), step)
    )


def associative(op: np.ndarray) -> bool:
    """Certify a square index table associative; False leaves it to the sweep.

    A commutative, idempotent table closed on its indices is associative
    iff down(op[x, y]) = down(x) ∩ down(y) for all x, y, where down(z) =
    {w : op[w, z] = w}: the down-sets then order the indices, op their meet.
    """
    r = np.arange(len(op))
    if op.min() < 0 or op.max() >= len(r) or (op != op.T).any() or (op[r, r] != r).any():
        return False
    return _rows_agree(packed_rows(op == r), op, np.bitwise_and)


def distributive(meet: np.ndarray, join: np.ndarray) -> bool:
    """Whether two square index tables form a distributive lattice.

    Past both semilattice certificates and absorption, that holds iff
    J(x ∨ y) = J(x) ∪ J(y) for all x, y, J(x) being the join-irreducibles
    below x and the least element (Birkhoff 1937, "Rings of sets"; Davey
    and Priestley, Introduction to Lattices and Order, ch. 5).
    """
    return _distributive_past(meet, join, associative(meet) and associative(join))


def _distributive_past(meet: np.ndarray, join: np.ndarray, semilattices: bool) -> bool:
    """``distributive`` given the verdict of both semilattice certificates."""
    r = np.arange(len(meet))
    col = r[:, None]
    if not semilattices or (meet[col, join] != col).any() or (join[col, meet] != col).any():
        return False
    irreducible = np.ones(len(r), dtype=bool)
    irreducible[join[(join != col) & (join != r)]] = False
    return _rows_agree(packed_rows((meet == r) & irreducible), join, np.bitwise_or)


def lattice_laws(meet: np.ndarray, join: np.ndarray, block: range, dist=None) -> tuple:
    """Meet and join associativity, meet over join and join over meet on the
    contiguous indices ``block``, as (rows, function) pairs for
    ``first_violation``: row i holds the cells (y, z) of block[i], read off
    the whole tables, so a value outside the block reads its own row.  The
    certificates run on the block's own indices, where that value is out of
    range, unless ``dist``, a distributivity verdict the caller holds,
    certifies all four.  A certified law builds no table: the intp block
    table a row indexes by (sparing numpy a cast per row) is made lazily."""
    lo, s, ops = block.start, slice(block.start, block.stop), (meet, join)
    ok = [True] * 4
    if not dist:
        own = [t[s, s].astype(np.intp) - lo for t in ops]
        ok = [associative(t) for t in own]
        dist = _distributive_past(*own, all(ok))
        ok += [dist, dist]
    memo, cols = {}, [t[:, s] for t in ops]
    cells = lambda k: memo[k] if k in memo else memo.setdefault(k, ops[k][s, s].astype(np.intp))

    def law(k: int, over: bool) -> Callable:
        t, c, u = ops[k], cols[k], ops[1 - k]
        if over:  # x t (y u z) against (x t y) u (x t z)
            return lambda i: t[lo + i][cells(1 - k)] != u[c[lo + i]][:, c[lo + i]]
        return lambda i: t[lo + i][cells(k)] != c[c[lo + i]]  # x t (y t z) against (x t y) t z

    laws = [law(k, over) for over in (False, True) for k in (0, 1)]
    return tuple((() if good else range(len(block)), row) for row, good in zip(laws, ok))


def sweep_laws(carrier: Sequence, laws: dict) -> dict[str, AxiomCheck]:
    """Check laws over powers of one carrier, keeping their order.

    Each law is a violation array or a (rows, function) pair, as
    ``first_violation`` takes them, over carrier^k for k of at most 3.
    """
    axes = (carrier,) * 3
    return {
        name: AxiomCheck.of(first_violation(bad, axes)) for name, bad in laws.items()
    }


class AxiomReport:
    """Named axiom results; a failing axiom carries its first witness."""

    def __init__(self, results: dict[str, AxiomCheck]):
        self._results = dict(results)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self._results.values())

    def __getitem__(self, name: str) -> AxiomCheck:
        return self._results[name]

    def items(self):
        return self._results.items()

    def __repr__(self) -> str:
        bad = [n for n, c in self._results.items() if not c.passed]
        return f"<AxiomReport {'all pass' if not bad else 'failing: ' + ', '.join(bad)}>"


@dataclass(frozen=True)
class GranularModel:
    universe: Universe
    granules: tuple[Subset, ...]
    lower_op: OperatorTable
    upper_op: OperatorTable
    parthood: ParthoodPredicate = INCLUSION

    def __post_init__(self):
        if not self.granules:
            raise ValueError("granule list must be nonempty")
        for g in self.granules:
            if g.universe != self.universe:
                raise UniverseMismatchError("granule over a foreign universe")
            if g.is_empty:
                raise ValueError("granules must be nonempty")
        if len(set(self.granules)) < len(self.granules):
            raise ValueError(f"granule {max(self.granules, key=self.granules.count)} listed twice")
        for name, op in (("lower", self.lower_op), ("upper", self.upper_op)):
            if op.universe != self.universe:
                raise UniverseMismatchError(f"{name} table over a foreign universe")

    def lower(self, x: Subset) -> Subset:
        return self.lower_op(x)

    def upper(self, x: Subset) -> Subset:
        return self.upper_op(x)


def from_space(space: ApproximationSpace) -> GranularModel:
    """The space's blocks as granules, its approximations as the tables."""
    universe, bm = space.universe, space.masks
    return GranularModel(
        universe=universe,
        granules=tuple(space.blocks),
        lower_op=OperatorTable.from_list(universe, bm.lower.tolist()),
        upper_op=OperatorTable.from_list(universe, bm.upper.tolist()),
    )


def _mask_tables(universe: Universe, *ops: OperatorTable) -> tuple[np.ndarray, ...]:
    """The masks themselves, then each operator's table, as index arrays."""
    size = len(universe.labels())
    masks = np.arange(size, dtype=np.min_scalar_type(size - 1))
    return (masks, *(np.array(op._table, dtype=masks.dtype) for op in ops))


def _not_within(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cellwise: the mask in ``a`` is not a subset of the mask in ``b``."""
    return a & ~b != 0


def _monotonicity(masks: np.ndarray, op: np.ndarray) -> tuple[np.ndarray, Callable]:
    """The rows that can fail x ⊆ y ⇒ op(x) ⊆ op(y), and the row function.

    ⊆ is the transitive closure of its covers x ⊂ x ∪ {i}, so the law
    holds iff no cover fails: one array expression per bit.  A witness
    (x, y) fails a cover on a chain from x to y, at a row x' ⊇ x, so the
    failing cover rows closed downward hold every row that can fail; the
    sweep takes only those, in mask order, and finds the same witness.
    """
    marked = np.zeros(len(op), dtype=bool)
    bits = [1 << i for i in range(len(op).bit_length() - 1)]
    for bit in bits:
        low, high = op.reshape(-1, 2, bit).transpose(1, 0, 2)
        marked.reshape(-1, 2, bit)[:, 0] |= _not_within(low, high)
    for bit in bits:
        below, above = marked.reshape(-1, 2, bit).transpose(1, 0, 2)
        below |= above
    row = lambda x: ~_not_within(masks[x], masks) & _not_within(op[x], op)
    return np.flatnonzero(marked), row


def check_gos_axioms(model: GranularModel, strict_upper: bool = False) -> AxiomReport:
    """The defining operator axioms, each with a first-failure witness.

    strict_upper additionally demands a^u to be a proper subset of a^uu,
    matching one printed reading that classical models cannot satisfy.
    """
    u = model.universe
    masks, lo, up = _mask_tables(u, model.lower_op, model.upper_op)
    uu = up[up]
    expansion = "upper-strict-expansion" if strict_upper else "upper-weak-expansion"
    results = sweep_laws(
        u.labels(),
        {
            "lower-contraction": _not_within(lo, masks),
            "lower-idempotence": lo[lo] != lo,
            "upper-expansion": _not_within(masks, up),
            expansion: _not_within(up, uu) | (strict_upper & (up == uu)),
            "lower-monotonicity": _monotonicity(masks, lo),
            "upper-monotonicity": _monotonicity(masks, up),
        },
    )
    empty_ok = model.lower(u.empty).is_empty and model.upper(u.empty).is_empty
    results["empty-fixed"] = AxiomCheck(empty_ok, None if empty_ok else (u.empty,))
    top_ok = model.lower(u.full) <= u.full and model.upper(u.full) <= u.full
    results["top-bounded"] = AxiomCheck(top_ok, None if top_ok else (u.full,))
    return AxiomReport(results)


def _separation(n: int, m: int) -> int:
    """The ordered atom pairs (i, j) that mask ``m`` splits, as bit i·n + j."""
    full = (1 << n) - 1
    sep = 0
    for i in range(n):
        sep |= (full & ~m if m >> i & 1 else m) << (i * n)
    return sep


def _cover(n: int, masks: Iterable[int]) -> int:
    """The atom pairs some mask splits.  Atoms no generator splits are
    inseparable in the field they generate, so a mask lies in that field
    iff ``_separation(n, mask) & ~cover == 0``."""
    cover = 0
    for m in masks:
        cover |= _separation(n, m)
    return cover


def _ls_witness(
    part: ParthoodPredicate, g: Subset, subsets: Sequence[Subset], lowers: Sequence[Subset]
) -> Subset | None:
    """The first ``a`` with g part of a but not of a's lower, or None."""
    for a, low in zip(subsets, lowers):
        if part.holds(g, a) and not part.holds(g, low):
            return a
    return None


def _definite_above(part: ParthoodPredicate, g: Subset, definite: Sequence[Subset]) -> int:
    """Bit i set iff g is a proper part of ``definite[i]``.

    Two granules underlap fully iff their masks share a bit.
    """
    above = 0
    for i, z in enumerate(definite):
        if part.proper(g, z):
            above |= 1 << i
    return above


def _superset_or(values: list[int]) -> list[int]:
    """values[m] ORed over every superset of m, one pass per bit (Yates'
    transform; Björklund et al. 2007, "Fourier meets Möbius", STOC)."""
    bit = 1
    while bit < len(values):
        values = [v if m & bit else v | values[m | bit] for m, v in enumerate(values)]
        bit <<= 1
    return values


class _GranuleTests:
    """Lower stability and the definite sets above a granule, per granule.

    Both are computed on first use and kept, so a granule costs its
    predicate calls at most once however many families it sits in.
    """

    def __init__(
        self, part: ParthoodPredicate, lower_op: OperatorTable, upper_op: OperatorTable
    ):
        u = lower_op.universe
        lo, up = lower_op._table, upper_op._table
        self.part = part
        self.subsets = list(u.subsets())
        self.lowers = [self.subsets[m] for m in lo]
        self.definite = [z for z in self.subsets if lo[z.mask] == z.mask == up[z.mask]]
        self.ls: dict[int, Subset | None] = {}
        self.above: dict[int, int] = {}

    def ls_witness(self, g: Subset) -> Subset | None:
        if g.mask not in self.ls:
            self.ls[g.mask] = _ls_witness(self.part, g, self.subsets, self.lowers)
        return self.ls[g.mask]

    def underlap(self, x: Subset, y: Subset) -> bool:
        for g in (x, y):
            if g.mask not in self.above:
                self.above[g.mask] = _definite_above(self.part, g, self.definite)
        return self.above[x.mask] & self.above[y.mask] != 0

    def fill(self) -> None:
        """Both tests for every mask at once under plain inclusion, with no
        predicate call.  g is lower stable iff it misses ~lower(a) for all
        a ⊇ g, and the definite sets above g are those ⊇ g but g itself: two
        superset ORs.  An unstable g keeps the atoms it loses, not a witness."""
        full, own = len(self.subsets) - 1, [0] * len(self.subsets)
        for i, z in enumerate(self.definite):
            own[z.mask] = 1 << i
        lost = _superset_or([full & ~low.mask for low in self.lowers])
        self.ls = {g: self.subsets[g & z] if g & z else None for g, z in enumerate(lost)}
        self.above = {g: z & ~b for g, (z, b) in enumerate(zip(_superset_or(own), own))}


@dataclass(frozen=True)
class AdmissibilityReport:
    wra: AxiomCheck
    ls: AxiomCheck
    fu: AxiomCheck


def check_admissibility(model: GranularModel) -> AdmissibilityReport:
    """Representability, lower stability, and pairwise full underlap.

    Underlap quantifies over distinct granule pairs; the defining text
    glosses it as every two distinct granules sitting properly inside a
    common definite object, and a one-granule model holds vacuously.
    """
    u, n = model.universe, model.universe.size
    lo, up = model.lower_op._table, model.upper_op._table
    cover = _cover(n, (g.mask for g in model.granules))
    # each distinct output is tested once; the cells are then scanned for
    # the first one that holds an output outside the field
    outside = {out for out in {*lo, *up} if _separation(n, out) & ~cover}
    unrepresented = (
        (Subset(u, m), Subset(u, out))
        for m in range(len(lo))
        for out in (lo[m], up[m])
        if out in outside
    )
    tests = _GranuleTests(model.parthood, model.lower_op, model.upper_op)
    unstable = ((g, a) for g in model.granules if (a := tests.ls_witness(g)) is not None)
    apart = (pair for pair in combinations(model.granules, 2) if not tests.underlap(*pair))
    return AdmissibilityReport(
        *(AxiomCheck.of(next(first, None)) for first in (unrepresented, unstable, apart))
    )


def search_admissible_granulations(
    lower_op: OperatorTable,
    upper_op: OperatorTable,
    max_granules: int,
    parthood: ParthoodPredicate = INCLUSION,
    candidate_cap: int = SEARCH_CANDIDATE_CAP,
) -> list[tuple[Subset, ...]]:
    """All granule families of bounded size admissible for the given tables.

    Families are drawn from nonempty subsets in canonical order: by size,
    then lexicographically by mask, so the result order is deterministic.
    The candidate count is bounded up front; an oversized search raises
    instead of running forever.  The cap counts every candidate family,
    also where the class bound below settles the search.

    The atoms' classes are their signatures over the tables' distinct
    outputs.  k granules cut the atoms into at most 2^k cells, and a
    representable family keeps each cell inside one class, so with more
    than 2^max_granules classes no family is representable and the search
    returns [] before any predicate call.

    No family is checked whole.  A depth-first walk over granules of
    increasing mask, which meets the families of each size in canonical
    order, carries each family's cover (``_cover``) down: the family is
    representable iff the cover holds every pair a table output splits.
    Where it places the last granule it tests that first, so a last
    extension that is not representable costs one cover test and builds
    no family.  Lower stability is per granule and full underlap per
    pair, so a family failing either fails with every extension and the
    walk prunes there.  Each walk node checks its own family once, at the first
    representable extension it meets; each representable extension then
    tests only its new granule: its lower stability and its underlap with
    each granule before it.  For plain inclusion both come from two
    transforms of the whole pool after the class bound, so the walk skips
    every unstable granule at every depth.  A custom parthood works them
    out once per granule, and only for granules of representable families:
    over the whole pool up front they would cost about 4^n predicate calls
    even when no family is representable.
    """
    if max_granules < 1:
        raise ValueError("max_granules must be at least 1")
    if lower_op.universe != upper_op.universe:
        raise UniverseMismatchError("operator tables over different universes")
    n = lower_op.universe.size
    total = sum(comb((1 << n) - 1, k) for k in range(1, max_granules + 1))
    check_cap(total, candidate_cap, "{size} candidate families exceed the cap of {cap}")
    need = _cover(n, set(lower_op._table) | set(upper_op._table))
    # atom i opens a class iff some output splits it from every atom before it
    classes = sum(need >> i * n & (1 << i) - 1 == (1 << i) - 1 for i in range(n))
    if classes > 1 << max_granules:
        return []
    tests = _GranuleTests(parthood, lower_op, upper_op)
    if parthood is INCLUSION:
        tests.fill()
    pool, ls, above = tests.subsets, tests.ls, tests.above
    seps = [_separation(n, m) for m in range(len(pool))]
    found: list[list[tuple[int, ...]]] = [[] for _ in range(max_granules)]

    def clash(family: tuple[int, ...], g: int) -> bool:
        """Whether ``family``, which passes, fails once granule ``g`` joins it."""
        if g not in ls:
            tests.ls_witness(pool[g])
        if ls[g] is not None:
            return True
        for f in family:
            if f not in above or g not in above:
                tests.underlap(pool[f], pool[g])
            if not above[f] & above[g]:
                return True
        return False

    def extend(family: tuple[int, ...], cover: int, start: int, passes: bool) -> int | None:
        """Walk the extensions of ``family`` in canonical order; return p
        once family[:p + 1] is found to fail, which ends every walk below it."""
        depth = len(family)
        last = depth + 1 == max_granules
        for g in range(start, len(pool)):
            c = cover | seps[g]
            representable = need & ~c == 0
            if last and not representable or ls.get(g) is not None:
                continue
            grown = family + (g,)
            if representable:
                if not passes:
                    bad = next((p for p in range(depth) if clash(family[:p], family[p])), None)
                    if bad is not None:
                        return bad
                    passes = True
                if clash(family, g):
                    continue
                found[depth].append(grown)
            if not last:
                bad = extend(grown, c, g + 1, representable)
                if bad is not None and bad < depth:
                    return bad
        return None

    extend((), 0, 1, True)
    return [tuple(map(pool.__getitem__, family)) for bucket in found for family in bucket]
