"""Loading model files.

A model file is JSON with a universe plus exactly one of a partition or
a list of generating relation pairs. Optional sections add explicit
granules, lower/upper operator tables, a property system, and named
case spaces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

from roughwork.approx import ApproximationSpace, Subset, UnknownAtomError
from roughwork.granular import GranularModel, OperatorTable, from_space
from roughwork.opposition import CaseSpace
from roughwork.propsys import PropertySystem


class ModelFormatError(ValueError):
    """The model file is syntactically or structurally invalid."""


_KNOWN_KEYS = {
    "universe",
    "partition",
    "relationPairs",
    "granules",
    "lowerTable",
    "upperTable",
    "propertySystem",
    "caseSpaces",
}


@dataclass
class LoadedModel:
    """A checked model file; its ``granular`` model is built on first read.

    ``tables`` holds the file's lower and upper tables, or None when it
    gives none: ``granular`` then reads the space's own off ``space.masks``.
    """

    space: ApproximationSpace
    granules: tuple[Subset, ...]
    tables: tuple[OperatorTable, OperatorTable] | None = None
    property_system: PropertySystem | None = None
    case_spaces: dict[str, CaseSpace] = field(default_factory=dict)
    source: str = ""

    @cached_property
    def granular(self) -> GranularModel:
        if self.tables is None:
            return replace(from_space(self.space), granules=self.granules)
        return GranularModel(self.space.universe, self.granules, *self.tables)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ModelFormatError(message)


def _atom_lists(raw: object, label: str, size: int | None = None) -> list:
    """A list of nonempty lists of atom names, each of ``size`` if given.

    Checked before use, so a string is never read as its characters.
    """
    _require(isinstance(raw, list), f"{label} must be a list")
    shape = f"a list of {size} atom names" if size else "a nonempty list of atom names"
    for item in raw:
        _require(
            isinstance(item, list)
            and item
            and all(isinstance(a, str) for a in item)
            and (size is None or len(item) == size),
            f"each entry of {label} must be {shape}, got {item!r}",
        )
    return raw


def _names(raw: object, label: str) -> list:
    """A list of names, checked before use like ``_atom_lists``."""
    _require(isinstance(raw, list) and all(isinstance(a, str) for a in raw),
             f"{label} must be a list of names, got {raw!r}")
    return raw


def _parse_table(space: ApproximationSpace, raw: object, label: str) -> OperatorTable:
    _require(isinstance(raw, dict), f"{label} must be an object")
    universe = space.universe
    entries: dict[int, int] = {}
    for key, value in raw.items():
        _require(isinstance(value, str),
                 f"{label} entry {key!r}: value must be a set string, got {value!r}")
        try:
            mask, image = universe.parse(key).mask, universe.parse(value).mask
        except UnknownAtomError as exc:
            raise ModelFormatError(f"{label} entry {key!r}: {exc}") from exc
        if mask in entries:
            first = next(k for k in raw if universe.parse(k).mask == mask)
            raise ModelFormatError(f"{label} keys {first!r} and {key!r} name the same subset")
        entries[mask] = image
    try:
        return OperatorTable(universe, entries)
    except ValueError as exc:
        raise ModelFormatError(f"{label}: {exc}") from exc


def _parse_granules(space: ApproximationSpace, raw: object) -> tuple[Subset, ...]:
    _require(isinstance(raw, list) and raw, "granules must be a nonempty list")
    out = []
    for names in _atom_lists(raw, "granules"):
        try:
            out.append(space.universe.subset(names))
        except UnknownAtomError as exc:
            raise ModelFormatError(f"granule {names!r}: {exc}") from exc
    return tuple(out)


def _parse_property_system(raw: object) -> PropertySystem:
    _require(isinstance(raw, dict), "propertySystem must be an object")
    for key in ("objects", "properties", "manifests"):
        _require(key in raw, f"propertySystem needs {key!r}")
    objects = _names(raw["objects"], "propertySystem objects")
    properties = _names(raw["properties"], "propertySystem properties")
    manifests = _atom_lists(raw["manifests"], "propertySystem manifests", 2)
    try:
        return PropertySystem.build(objects, properties, [tuple(p) for p in manifests])
    except ValueError as exc:
        raise ModelFormatError(f"propertySystem: {exc}") from exc


def _parse_case_space(name: str, raw: object) -> CaseSpace:
    _require(isinstance(raw, dict), f"case space {name!r} must be an object")
    _require("worlds" in raw and "valuation" in raw,
             f"case space {name!r} needs worlds and valuation")
    worlds = _names(raw["worlds"], f"case space {name!r}: worlds")
    valuation_raw = raw["valuation"]
    _require(isinstance(valuation_raw, dict),
             f"case space {name!r}: valuation must be an object")
    valuation = {}
    for sentence, per_world in valuation_raw.items():
        _require(isinstance(per_world, dict),
                 f"case space {name!r}: valuation for {sentence!r} must be an object")
        for world, bits in per_world.items():
            _require(isinstance(bits, list) and len(bits) == 2
                     and all(isinstance(b, int) and b in (0, 1) for b in bits),
                     f"case space {name!r}: {sentence!r} at {world!r} must be a"
                     " [t, f] pair of booleans")
        valuation[sentence] = {
            world: tuple(bool(bit) for bit in bits)
            for world, bits in per_world.items()
        }
    try:
        return CaseSpace(tuple(worlds), valuation)
    except ValueError as exc:
        raise ModelFormatError(f"case space {name!r}: {exc}") from exc


def load_model(path: str | Path) -> LoadedModel:
    """Read and validate a model file."""
    path = Path(path) if path != "" else path  # Path("") is ".", which no one named
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.loads(f.read())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
        raise ModelFormatError(f"{path}: not valid JSON: {exc}") from exc
    return parse_model(raw, source=str(path))


def parse_model(raw: object, source: str = "<memory>") -> LoadedModel:
    _require(isinstance(raw, dict), "model file must be a JSON object")
    unknown = set(raw) - _KNOWN_KEYS
    _require(not unknown, f"unknown keys: {sorted(unknown)}")

    universe_raw = raw.get("universe")
    _require(isinstance(universe_raw, list) and universe_raw,
             "universe must be a nonempty list of atom names")
    _require(all(isinstance(a, str) for a in universe_raw),
             "universe atoms must be strings")

    has_partition = "partition" in raw
    has_pairs = "relationPairs" in raw
    _require(has_partition != has_pairs,
             "exactly one of partition or relationPairs is required")

    try:
        if has_partition:
            blocks = _atom_lists(raw["partition"], "partition")
            space = ApproximationSpace.from_partition(universe_raw, blocks)
        else:
            pairs = [tuple(p) for p in _atom_lists(raw["relationPairs"], "relationPairs", 2)]
            space = ApproximationSpace.from_pairs(universe_raw, pairs)
    except (ValueError, TypeError) as exc:
        raise ModelFormatError(str(exc)) from exc

    has_lower = "lowerTable" in raw
    has_upper = "upperTable" in raw
    _require(has_lower == has_upper,
             "lowerTable and upperTable must be given together")

    tables = None
    if has_lower:
        tables = (
            _parse_table(space, raw["lowerTable"], "lowerTable"),
            _parse_table(space, raw["upperTable"], "upperTable"),
        )

    if "granules" in raw:
        granules = _parse_granules(space, raw["granules"])
    else:
        granules = tuple(space.blocks)

    property_system = None
    if "propertySystem" in raw:
        property_system = _parse_property_system(raw["propertySystem"])

    case_spaces = {}
    if "caseSpaces" in raw:
        _require(isinstance(raw["caseSpaces"], dict), "caseSpaces must be an object")
        for name, body in raw["caseSpaces"].items():
            case_spaces[name] = _parse_case_space(name, body)

    return LoadedModel(
        space=space,
        granules=granules,
        tables=tables,
        property_system=property_system,
        case_spaces=case_spaces,
        source=source,
    )


def default_model_path() -> Path:
    """Bundled example model shipped with the package."""
    from importlib.resources import files

    return Path(str(files("roughwork") / "data" / "example.json"))
