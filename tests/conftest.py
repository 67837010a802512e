"""Fixtures shared by every test module."""

from __future__ import annotations

import pytest

from riordankit import riordan


@pytest.fixture(autouse=True)
def empty_row_store():
    """Start each test with an empty row store, so that no test reads rows
    another one stored."""
    riordan.clear_row_store()
