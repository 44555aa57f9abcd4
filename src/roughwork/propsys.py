"""Property systems: objects, properties, and the four basic constructors."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from roughwork.approx import Subset, Universe, UniverseMismatchError


@dataclass(frozen=True)
class PropertySystem:
    """Objects manifesting properties through an explicit pair relation."""

    objects: Universe
    properties: Universe
    manifests: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        pairs = frozenset(tuple(p) for p in self.manifests)
        # extents[h]: the objects manifesting h; intents[g]: what g manifests.
        extents, intents = [0] * self.properties.size, [0] * self.objects.size
        for g, h in pairs:
            i, j = self.objects.index(g), self.properties.index(h)
            extents[j] |= 1 << i
            intents[i] |= 1 << j
        object.__setattr__(self, "manifests", pairs)
        object.__setattr__(self, "_extents", tuple(extents))
        object.__setattr__(self, "_intents", tuple(intents))

    @classmethod
    def build(
        cls,
        objects: Iterable[str],
        properties: Iterable[str],
        manifests: Iterable[tuple[str, str]],
    ) -> PropertySystem:
        return cls(Universe(objects), Universe(properties), frozenset(manifests))

    def _image(self, x: Subset, side: str, box: bool) -> Subset:
        """The other side's atoms whose mask meets x (♢) or lies inside x (□)."""
        if side == "object":
            source, target, masks = self.objects, self.properties, self._extents
        else:
            source, target, masks = self.properties, self.objects, self._intents
        if x.universe != source:
            raise UniverseMismatchError(f"{x!r} is not over the {side} universe")
        hits = (m & ~x.mask == 0 if box else m & x.mask for m in masks)
        return target.from_mask(sum(1 << i for i, hit in enumerate(hits) if hit))

    def i_diamond(self, a: Subset) -> Subset:
        """Properties manifested by at least one object of a."""
        return self._image(a, "object", box=False)

    def e_diamond(self, b: Subset) -> Subset:
        """Objects manifesting at least one property of b."""
        return self._image(b, "property", box=False)

    def i_box(self, a: Subset) -> Subset:
        """Properties all of whose manifesting objects lie in a."""
        return self._image(a, "object", box=True)

    def e_box(self, b: Subset) -> Subset:
        """Objects all of whose manifested properties lie in b."""
        return self._image(b, "property", box=True)
