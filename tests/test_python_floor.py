"""The package parses under the oldest Python that pyproject.toml declares."""

import ast
import re
from pathlib import Path

import pytest

import kdvtau

SRC = Path(kdvtau.__file__).resolve().parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_floor() -> tuple[int, int]:
    match = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', PYPROJECT.read_text(), re.MULTILINE)
    assert match, "pyproject.toml declares no requires-python floor"
    return int(match[1]), int(match[2])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_source_parses_at_the_declared_floor(path):
    # feature_version is best effort: it rejects later syntax (except*, added
    # in 3.11), not calls into a later standard library
    ast.parse(path.read_text(), filename=str(path), feature_version=declared_floor())
