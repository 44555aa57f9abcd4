"""Finite approximation spaces over explicit atom universes.

Subsets are bitmasks over an ordered atom list, so set algebra is exact
integer arithmetic.  An approximation space pairs a universe with a
partition into blocks; single lower and upper approximations are block
scans.  ``bound_masks`` computes the approximations of every mask at once,
with the rough-class index of each mask and the bounds of each class; it
is the one place the classes of a space are worked out.  A space keeps
it as ``space.masks``, which every other module reads.  ``Labels`` states
a carrier once, by its length and element i: ``Universe.labels()`` the
subsets, ``ApproximationSpace.class_labels()`` the rough classes.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Sized

import numpy as np

EMPTY_NAME = "0"
FULL_NAME = "S"

# Enumerating all subsets is exponential; refuse silly universes unless asked.
DEFAULT_MAX_ATOMS = 16


class UniverseMismatchError(ValueError):
    """Operands live over different universes."""


class SpaceMismatchError(ValueError):
    """A rough class meets an operation of another space over its universe."""


class UnknownAtomError(ValueError):
    """An atom name does not belong to the universe."""


class CapExceededError(RuntimeError):
    """A search or carrier is larger than the cap it runs under."""


def check_cap(carrier: Sized | int, cap: int | None, message: str) -> None:
    """Raise ``CapExceededError`` if ``carrier`` is longer than ``cap`` (None: no
    cap), with ``message`` formatted with the carrier's ``size`` and the ``cap``.
    A carrier may be given by its length, which ``len`` cannot report past
    ``sys.maxsize``: a search can count more candidate families than that."""
    size = carrier if isinstance(carrier, int) else len(carrier)
    if cap is not None and size > cap:
        raise CapExceededError(message.format(size=size, cap=cap))


class Labels(Sequence):
    """The elements ``make(i)`` of a carrier, each built when indexed.

    A law sweep names its witness by these labels, so a passing sweep
    builds no element.  A slice is the labels of the indices it selects.
    """

    def __init__(self, indices: range, make: Callable[[int], object]):
        self._indices, self._make = indices, make

    def __len__(self) -> int:
        return len(self._indices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Labels(self._indices[i], self._make)
        return self._make(self._indices[i])

    def __iter__(self) -> Iterator:
        return map(self._make, self._indices)


class Universe:
    """Ordered list of distinct atom names.  Atom i owns bit i."""

    __slots__ = ("atoms", "_index")

    def __init__(self, atoms: Sequence[str], max_atoms: int = DEFAULT_MAX_ATOMS):
        atoms = tuple(atoms)
        if not atoms:
            raise ValueError("universe must contain at least one atom")
        if len(set(atoms)) != len(atoms):
            raise ValueError(f"duplicate atom names in {atoms!r}")
        for name in atoms:
            if not name or name in (EMPTY_NAME, FULL_NAME):
                raise ValueError(f"atom name {name!r} is empty or reserved")
        if len(atoms) > max_atoms:
            raise ValueError(
                f"universe has {len(atoms)} atoms, cap is {max_atoms}; "
                "raise max_atoms explicitly if this is intended"
            )
        self.atoms = atoms
        self._index = {name: i for i, name in enumerate(atoms)}

    @property
    def size(self) -> int:
        return len(self.atoms)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownAtomError(f"unknown atom {name!r}") from None

    def subset(self, names: Iterable[str] = ()) -> Subset:
        mask = 0
        for name in names:
            mask |= 1 << self.index(name)
        return Subset(self, mask)

    def singleton(self, name: str) -> Subset:
        return Subset(self, 1 << self.index(name))

    def from_mask(self, mask: int) -> Subset:
        return Subset(self, mask)

    @property
    def empty(self) -> Subset:
        return Subset(self, 0)

    @property
    def full(self) -> Subset:
        return Subset(self, (1 << self.size) - 1)

    def parse(self, text: str) -> Subset:
        """Parse the canonical serialization: "0", "S", or concatenated atoms.

        Atom names are matched greedily, longest first, so multi-character
        atoms round-trip as long as no name is a prefix ambiguity casualty.
        """
        if text == EMPTY_NAME:
            return self.empty
        if text == FULL_NAME:
            return self.full
        if not text:
            raise UnknownAtomError(f"empty set text; the empty set is written {EMPTY_NAME!r}")
        by_length = sorted(self.atoms, key=len, reverse=True)
        mask = 0
        pos = 0
        while pos < len(text):
            for name in by_length:
                if text.startswith(name, pos):
                    mask |= 1 << self._index[name]
                    pos += len(name)
                    break
            else:
                raise UnknownAtomError(
                    f"cannot read an atom at position {pos} of {text!r}"
                )
        return Subset(self, mask)

    def labels(self) -> Labels:
        """The carrier of all subsets, in canonical (binary counting) order."""
        return Labels(range(1 << self.size), self.from_mask)

    def subsets(self) -> Iterator[Subset]:
        """All subsets in canonical (binary counting) order."""
        return iter(self.labels())

    def __eq__(self, other: object) -> bool:
        return other is self or (isinstance(other, Universe) and self.atoms == other.atoms)

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        return f"Universe({list(self.atoms)!r})"


class Subset:
    """Immutable subset of a universe, stored as a bitmask."""

    __slots__ = ("universe", "mask")

    def __init__(self, universe: Universe, mask: int):
        if not 0 <= mask < (1 << universe.size):
            raise ValueError(f"mask {mask:#x} out of range for {universe!r}")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Subset is immutable")

    def _check(self, other: Subset) -> None:
        if self.universe is not other.universe and self.universe != other.universe:
            raise UniverseMismatchError(
                f"{self!r} of {self.universe!r} and {other!r} of {other.universe!r}"
                " belong to different universes"
            )

    def union(self, other: Subset) -> Subset:
        self._check(other)
        return Subset(self.universe, self.mask | other.mask)

    def intersection(self, other: Subset) -> Subset:
        self._check(other)
        return Subset(self.universe, self.mask & other.mask)

    def difference(self, other: Subset) -> Subset:
        self._check(other)
        return Subset(self.universe, self.mask & ~other.mask)

    def complement(self) -> Subset:
        return Subset(self.universe, self.mask ^ ((1 << self.universe.size) - 1))

    def is_subset_of(self, other: Subset) -> bool:
        if self.universe is not other.universe:
            self._check(other)
        return self.mask & ~other.mask == 0

    def is_proper_subset_of(self, other: Subset) -> bool:
        return self.is_subset_of(other) and self.mask != other.mask

    def meets(self, other: Subset) -> bool:
        self._check(other)
        return self.mask & other.mask != 0

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def size(self) -> int:
        return bin(self.mask).count("1")

    def atom_names(self) -> tuple[str, ...]:
        """The names of the atoms in the subset, by walking its set bits."""
        atoms, names, rest = self.universe.atoms, [], self.mask
        while rest:
            low = rest & -rest
            names.append(atoms[low.bit_length() - 1])
            rest ^= low
        return tuple(names)

    # Operator sugar mirroring set algebra.
    __or__ = union
    __and__ = intersection
    __sub__ = difference
    __le__ = is_subset_of
    __lt__ = is_proper_subset_of

    def __contains__(self, name: str) -> bool:
        return bool(self.mask >> self.universe.index(name) & 1)

    def __iter__(self) -> Iterator[str]:
        return iter(self.atom_names())

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subset)
            and self.universe == other.universe
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.universe.atoms, self.mask))

    def __str__(self) -> str:
        if self.mask == 0:
            return EMPTY_NAME
        if self.mask == (1 << self.universe.size) - 1:
            return FULL_NAME
        return "".join(self.atom_names())

    def __repr__(self) -> str:
        return f"<Subset {self}>"


class ApproxTriple(tuple):
    """(x, lower, upper) with the usual sandwich invariant."""

    __slots__ = ()

    def __new__(cls, x: Subset, lower: Subset, upper: Subset):
        if not lower <= x <= upper:
            raise ValueError(f"({x}, {lower}, {upper}) breaks lower <= x <= upper")
        return super().__new__(cls, (x, lower, upper))

    @property
    def x(self) -> Subset:
        return self[0]

    @property
    def lower(self) -> Subset:
        return self[1]

    @property
    def upper(self) -> Subset:
        return self[2]

    def __repr__(self) -> str:
        return f"({self[0]}, {self[1]}, {self[2]})"


class ApproximationSpace:
    """A universe partitioned into blocks by an equivalence relation."""

    __slots__ = ("universe", "blocks", "_masks")

    def __init__(self, universe: Universe, blocks: Sequence[Subset]):
        seen = 0
        for block in blocks:
            if block.universe != universe:
                raise UniverseMismatchError("block over a foreign universe")
            if block.is_empty:
                raise ValueError("blocks must be nonempty")
            if block.mask & seen:
                raise ValueError(f"blocks overlap at {Subset(universe, block.mask & seen)}")
            seen |= block.mask
        if seen != universe.full.mask:
            raise ValueError("blocks do not cover the universe")
        # Canonical block order: by smallest member.
        ordered = tuple(sorted(blocks, key=lambda b: b.mask & -b.mask))
        self.universe = universe
        self.blocks = ordered
        self._masks = None

    @property
    def masks(self) -> BoundMasks:
        """The space's ``bound_masks``, computed on first use and kept."""
        if self._masks is None:
            self._masks = bound_masks(self)
        return self._masks

    @classmethod
    def from_partition(
        cls, atoms: Sequence[str], blocks: Sequence[Iterable[str]]
    ) -> ApproximationSpace:
        universe = Universe(atoms)
        return cls(universe, [universe.subset(b) for b in blocks])

    @classmethod
    def from_pairs(
        cls, atoms: Sequence[str], pairs: Iterable[tuple[str, str]]
    ) -> ApproximationSpace:
        """Space of the least equivalence containing the given pairs."""
        universe = Universe(atoms)
        blocks = [1 << i for i in range(universe.size)]
        for a, b in pairs:
            bits = 1 << universe.index(a) | 1 << universe.index(b)
            # the blocks are disjoint, so their sum is their union
            merged = sum(block for block in blocks if block & bits)
            blocks = [block for block in blocks if not block & bits] + [merged]
        return cls(universe, [Subset(universe, block) for block in blocks])

    @classmethod
    def discrete(cls, atoms: Sequence[str]) -> ApproximationSpace:
        return cls.from_partition(atoms, [[a] for a in atoms])

    def block_of(self, atom: str) -> Subset:
        bit = 1 << self.universe.index(atom)
        return next(block for block in self.blocks if block.mask & bit)

    def _check(self, x: Subset) -> None:
        if x.universe != self.universe:
            raise UniverseMismatchError(f"{x!r} is over a foreign universe")

    def _check_class(self, c: RoughClass) -> None:
        """Reject a class of another space over this universe.  A class over
        another universe is left to the universe checks its bounds meet."""
        s = c.space
        if s is not self and s != self and s.universe == self.universe:
            raise SpaceMismatchError(f"{c!r} is a class of another space than {self!r}")

    def lower(self, x: Subset) -> Subset:
        self._check(x)
        mask = 0
        for block in self.blocks:
            if block.mask & ~x.mask == 0:
                mask |= block.mask
        return Subset(self.universe, mask)

    def upper(self, x: Subset) -> Subset:
        self._check(x)
        mask = 0
        for block in self.blocks:
            if block.mask & x.mask:
                mask |= block.mask
        return Subset(self.universe, mask)

    def boundary(self, x: Subset) -> Subset:
        return self.upper(x).difference(self.lower(x))

    def definiteness(self, x: Subset) -> dict[str, bool]:
        lower_def = self.lower(x) == x
        upper_def = self.upper(x) == x
        return {
            "lowerDefinite": lower_def,
            "upperDefinite": upper_def,
            "definite": lower_def and upper_def,
        }

    def triples(self) -> list[ApproxTriple]:
        """One triple per nonempty subset, in canonical order."""
        return [ApproxTriple(x, self.lower(x), self.upper(x)) for x in self.universe.labels()[1:]]

    def rough_eq(self, a: Subset, b: Subset) -> bool:
        return self.lower(a) == self.lower(b) and self.upper(a) == self.upper(b)

    def rough_class_of(self, x: Subset) -> RoughClass:
        return RoughClass(self, self.lower(x), self.upper(x))

    def class_labels(self) -> Labels:
        """The carrier of rough classes, ordered by smallest member: class j
        has the bounds ``masks.class_lower[j]`` and ``masks.class_upper[j]``."""
        u, lo, up = self.universe, self.masks.class_lower, self.masks.class_upper
        make = lambda j: RoughClass(self, Subset(u, lo.item(j)), Subset(u, up.item(j)))
        return Labels(range(len(lo)), make)

    def rough_classes(self, include_empty: bool = False) -> list[RoughClass]:
        """Classes of nonempty subsets, ordered by smallest member.

        The class of the empty set is prepended on request; it is the zero
        of the quotient order and is never roughly equal to a nonempty set.
        """
        return list(self.class_labels()[0 if include_empty else 1 :])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ApproximationSpace)
            and self.universe == other.universe
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return hash((self.universe.atoms, tuple(b.mask for b in self.blocks)))

    def __repr__(self) -> str:
        blocks = ", ".join(str(b) for b in self.blocks)
        return f"<ApproximationSpace blocks=[{blocks}]>"


class RoughClass:
    """All subsets sharing one (lower, upper) approximation pair.

    Stored by its bounds, checked by ``space.masks``; members are enumerated
    on demand.  The boundary of a realizable pair never contains a singleton
    block: such a block would be forced into the lower approximation of any
    member.
    """

    __slots__ = ("space", "lower", "upper")

    def __init__(self, space: ApproximationSpace, lower: Subset, upper: Subset):
        space._check(lower)
        space._check(upper)
        bm, lo, up = space.masks, lower.mask, upper.mask
        m = smallest_member(bm.lowbits, lo, up)  # class_index on one pair of ints
        if bm.lower.item(m) != lo or bm.upper.item(m) != up:
            raise ValueError("bounds that no rough class has")
        self.space = space
        self.lower = lower
        self.upper = upper

    def _boundary_blocks(self) -> list[Subset]:
        boundary = self.upper.mask & ~self.lower.mask
        return [b for b in self.space.blocks if b.mask & boundary]

    def contains(self, x: Subset) -> bool:
        self.space._check(x)
        bm, m = self.space.masks, x.mask
        return bool(bm.lower[m] == self.lower.mask and bm.upper[m] == self.upper.mask)

    def member_count(self) -> int:
        n = 1
        for block in self._boundary_blocks():
            n *= (1 << block.size) - 2
        return n

    def members(self) -> Iterator[Subset]:
        """Every member: lower plus a nonempty proper slice of each boundary block."""
        per_block = []
        for block in self._boundary_blocks():
            slices, s = [], block.mask
            while s := (s - 1) & block.mask:
                slices.append(s)
            per_block.append(slices[::-1])
        for choice in product(*per_block):
            yield Subset(self.space.universe, self.lower.mask | sum(choice))

    def sample_member(self) -> Subset:
        """The member with the smallest canonical index."""
        lowbits, lower, upper = self.space.masks.lowbits, self.lower.mask, self.upper.mask
        return Subset(self.space.universe, smallest_member(lowbits, lower, upper))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RoughClass)
            and self.space == other.space
            and self.lower == other.lower
            and self.upper == other.upper
        )

    def __hash__(self) -> int:
        return hash((self.lower.mask, self.upper.mask, self.space.universe.atoms))

    def __str__(self) -> str:
        return f"[{self.sample_member()}]"

    def __repr__(self) -> str:
        return f"<RoughClass bounds=({self.lower}, {self.upper})>"


class BoundMasks(NamedTuple):
    """What ``bound_masks`` computes for one space."""

    lower: np.ndarray
    upper: np.ndarray
    class_id: np.ndarray
    class_lower: np.ndarray
    class_upper: np.ndarray
    lowbits: int

    def class_index(self, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """Index of the class with bounds (lower, upper), cellwise.

        Raises ValueError unless every pair is the bounds of a class: the
        realizability check, which ``RoughClass`` makes on one pair of ints.
        """
        mask = smallest_member(self.lowbits, lower, upper)
        if (self.lower[mask] != lower).any() or (self.upper[mask] != upper).any():
            raise ValueError("bounds that no rough class has")
        return self.class_id[mask]

    def complement(self, masks):
        """The complement of each mask in the universe: ints or arrays."""
        return (len(self.lower) - 1) ^ masks


def smallest_member(lowbits, lower, upper):
    """The lower bound plus the lowest atom (in ``lowbits``) of each boundary block."""
    return lower | lowbits & upper & ~lower


def bound_masks(space: ApproximationSpace) -> BoundMasks:
    """Lower and upper approximation and rough-class index of every mask,
    and the bounds of each class.

    Classes are numbered by smallest member, so class 0 is that of the
    empty set.  The smallest member is the lower bound plus the lowest
    atom of each boundary block, and a mask that is its own smallest
    member starts a class.
    """
    size = len(space.universe.labels())
    masks = np.arange(size, dtype=np.min_scalar_type(size - 1))
    lower = np.zeros_like(masks)
    upper = np.zeros_like(masks)
    for block in space.blocks:
        b = block.mask
        lower[masks & b == b] |= b
        upper[masks & b != 0] |= b
    lowbits = sum(block.mask & -block.mask for block in space.blocks)
    smallest = smallest_member(lowbits, lower, upper)
    starts = smallest == masks
    # Counted in the mask dtype: on 8 or 16 singleton blocks the count wraps to 0 at
    # the last mask, but every id (the count minus one, modulo 2^n) stays exact.
    class_id = (np.cumsum(starts, dtype=masks.dtype) - 1)[smallest]
    return BoundMasks(lower, upper, class_id, lower[starts], upper[starts], lowbits)
