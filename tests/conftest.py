from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import fixture_data
from roughwork import ApproximationSpace


@pytest.fixture(scope="session")
def example_space() -> ApproximationSpace:
    return ApproximationSpace.from_pairs(
        fixture_data.UNIVERSE_ATOMS, fixture_data.GENERATING_PAIRS
    )


@pytest.fixture
def ten_atom_model(tmp_path) -> Path:
    """Path of ``fixture_data.TEN_ATOM_MODEL`` written as a model file."""
    path = tmp_path / "ten.json"
    path.write_text(json.dumps(fixture_data.TEN_ATOM_MODEL))
    return path
