"""Tests for JSON persistence."""

from __future__ import annotations

import pytest

from repro.errors import SchemaError
from repro.io import isb_from_dict, isb_to_dict
from repro.regression.isb import ISB


class TestISBPayload:
    def test_round_trip(self):
        isb = ISB(3, 12, -1.5, 0.25)
        assert isb_from_dict(isb_to_dict(isb)) == isb

    def test_missing_field_raises(self):
        with pytest.raises(SchemaError):
            isb_from_dict({"t_b": 0, "t_e": 1, "base": 0.0})
