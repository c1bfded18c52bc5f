"""The cell table on its own: ids at first sight, promised before they are
taken, retired by prunes, owners by the stable hash; and the journal codes
numbered from ids, byte for byte the interned ones."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.errors import HierarchyError
from repro.regression import kernels
from repro.stream.cells import CellTable, stable_shard_index
from repro.stream.engine import quarter_segments
from repro.stream.generator import DatasetSpec
from repro.stream.records import RecordColumns
from repro.stream.wal import _encode_batch, _encode_line


@pytest.fixture
def validate():
    layers = DatasetSpec(2, 2, 3, 1).build_layers()
    return layers.schema.values_validator(layers.m_coord)


def test_new_keys_are_promised_ids_in_first_seen_order(validate):
    table = CellTable(validate)
    ids, born = table.admit([(1, 1), (2, 2), (1, 1), (3, 3)])
    assert ids.tolist() == [0, 1, 0, 2] and born == [(1, 1), (2, 2), (3, 3)]
    assert table.keys == [] and table.id_of((1, 1)) is None  # nothing taken yet
    table.commit(born)
    ids, born = table.admit([(3, 3), (4, 4), (1, 1)])
    assert ids.tolist() == [2, 3, 0] and born == [(4, 4)]
    table.commit(born)
    assert table.keys == [(1, 1), (2, 2), (3, 3), (4, 4)]


def test_only_new_keys_are_validated_and_a_bad_one_changes_nothing(validate):
    seen = []

    def counting(key):
        seen.append(key)
        return validate(key)

    table = CellTable(counting)
    table.commit(table.admit([(1, 1), (2, 2)])[1])
    seen.clear()
    table.admit([(1, 1), (2, 2), (5, 5), (5, 5)])
    assert seen == [(5, 5)]
    with pytest.raises(HierarchyError):
        table.admit([(6, 6), (99, 0)])
    assert table.keys == [(1, 1), (2, 2)] and table.id_of((6, 6)) is None


def test_a_retired_key_is_born_again_with_a_new_id(validate):
    table = CellTable(validate)
    table.commit(table.admit([(1, 1), (2, 2)])[1])
    table.retire(np.array([0]))
    assert table.id_of((1, 1)) is None and table.keys[0] == (1, 1)  # still readable
    ids, born = table.admit([(1, 1)])
    table.commit(born)
    assert ids.tolist() == [2] and table.id_of((1, 1)) == 2
    table.retire(np.array([0]))  # the stale id no longer names the live cell
    assert table.id_of((1, 1)) == 2


@pytest.mark.parametrize("n_shards", [1, 2, 7])
def test_owners_are_the_stable_shard_index(validate, n_shards):
    table = CellTable(validate, n_shards)
    keys = [(a, b) for a in range(9) for b in range(9)]
    table.commit(table.admit(keys)[1])
    assert table.owner[: len(keys)].tolist() == [
        stable_shard_index(key, n_shards) for key in keys
    ]


def test_quarter_segments_cut_a_batch_per_quarter_in_arrival_order():
    ids = kernels.int_column([4, 2, 4, 7, 2])
    ticks = kernels.int_column([0, 3, 5, 6, 9])
    z = kernels.float_column([1.0, 2.0, 3.0, 4.0, 5.0])
    quarters = ticks // 4
    segments = quarter_segments(ids, ticks, z, quarters)
    assert [(q, i.tolist(), t.tolist()) for q, i, t, _ in segments] == [
        (0, [4, 2], [0, 3]),
        (1, [4, 7], [5, 6]),
        (2, [2], [9]),
    ]
    empty = kernels.int_column([])
    assert quarter_segments(empty, empty, kernels.float_column([]), empty) == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_journal_codes_from_ids_are_the_interned_codes(validate, seed):
    """A journal line written from cell ids is the line the values alone
    give, byte for byte, whatever the ids and however many quarters."""
    rng = random.Random(seed)
    table = CellTable(validate)
    table.commit(table.admit([(rng.randrange(9), rng.randrange(9)) for _ in range(20)])[1])
    values = [(rng.randrange(9), rng.randrange(9)) for _ in range(60)]
    ticks = kernels.int_column(sorted(rng.randrange(12) for _ in values))
    batch = RecordColumns(values, ticks, kernels.float_column(rng.random() for _ in values))
    ids = table.admit(values)[0]
    line = _encode_line(_encode_batch(7, 2, batch, ids))
    assert line == _encode_line(_encode_batch(7, 2, batch))
    assert json.loads(line)["keys"] == [list(key) for key in dict.fromkeys(values)]
