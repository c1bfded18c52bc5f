"""Typed codec errors: every decoder fails with a contextual CodecError.

The satellite contract: no decoder in :mod:`repro.io` (or the state codecs
built on it) ever surfaces a raw ``KeyError``/``TypeError``/``ValueError``
from a malformed payload — always a :class:`~repro.errors.CodecError`
naming the codec and the problem, and ``CodecError`` slots under
``SchemaError``/``ReproError`` so existing guards keep working.
"""

from __future__ import annotations

import pytest

from repro import io
from repro.errors import CodecError, ReproError, SchemaError
from repro.stream.state import EngineState


class TestHierarchy:
    def test_codec_error_is_schema_and_repro_error(self):
        assert issubclass(CodecError, SchemaError)
        assert issubclass(CodecError, ReproError)


class TestIsbCodec:
    def test_missing_field_names_it(self):
        with pytest.raises(CodecError, match=r"isb: payload missing field 'slope'"):
            io.isb_from_dict({"t_b": 0, "t_e": 3, "base": 1.0})

    def test_mistyped_field_is_codec_error(self):
        with pytest.raises(CodecError, match="isb: malformed payload"):
            io.isb_from_dict({"t_b": 0, "t_e": 3, "base": "xyz", "slope": 0.0})

    def test_non_mapping_payload_is_codec_error(self):
        with pytest.raises(CodecError, match="isb"):
            io.isb_from_dict(None)  # type: ignore[arg-type]


class TestFrameCodec:
    def test_wrong_format_tag(self):
        with pytest.raises(CodecError, match="not a repro-tilt-frame"):
            io.frame_from_dict({"format": "nope", "version": 1})

    def test_missing_slots_field(self):
        payload = {
            "format": "repro-tilt-frame",
            "version": 2,
            "levels": [{"name": "q", "unit_ticks": 4, "capacity": 4}],
            "origin": 0,
            "next_tick": 0,
            "evicted": 0,
        }
        with pytest.raises(CodecError, match="tilt_frame"):
            io.frame_from_dict(payload)

    def test_invalid_level_spec_is_codec_error(self):
        with pytest.raises(CodecError, match="tilt_level"):
            io.tilt_level_from_dict({"name": "q", "unit_ticks": 0, "capacity": 4})


class TestEngineStateCodec:
    def test_wrong_format_tag(self):
        with pytest.raises(CodecError, match="not a repro-engine-state"):
            EngineState.from_dict({"format": "nope", "version": 1})

    def test_malformed_cell_row(self):
        payload = {
            "format": "repro-engine-state",
            "version": 2,
            "ticks_per_quarter": 4,
            "frame_levels": [{"name": "q", "unit_ticks": 4, "capacity": 4}],
            "current_quarter": 0,
            "records_ingested": 0,
            "wal_seq": 0,
            "zero_frame": {
                "format": "repro-tilt-frame",
                "version": 2,
                "levels": [{"name": "q", "unit_ticks": 4, "capacity": 4}],
                "origin": 0,
                "next_tick": 0,
                "evicted": 0,
                "slots": [[]],
            },
            "cells": [{"v": [1, 2]}],  # no slot column
        }
        with pytest.raises(CodecError, match="engine_state"):
            EngineState.from_dict(payload)
