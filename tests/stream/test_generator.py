"""Tests for the DxLyCzTn dataset generator."""

from __future__ import annotations

import pytest

from repro.errors import SchemaError
from repro.stream.generator import DatasetSpec, generate_dataset


class TestSpecParsing:
    def test_parse_paper_name(self):
        spec = DatasetSpec.parse("D3L3C10T100K")
        assert spec == DatasetSpec(3, 3, 10, 100_000)

    def test_parse_plain_tuple_count(self):
        assert DatasetSpec.parse("D2L2C5T750").n_tuples == 750

    def test_name_round_trip(self):
        for name in ("D3L3C10T100K", "D2L4C7T512", "D1L2C2T1K"):
            assert DatasetSpec.parse(name).name == name

    def test_parse_rejects_garbage(self):
        for bad in ("X3L3C10T1K", "D3L3C10", "D3L3C10T", ""):
            with pytest.raises(SchemaError):
                DatasetSpec.parse(bad)

    def test_spec_validation(self):
        with pytest.raises(SchemaError):
            DatasetSpec(0, 3, 10, 100)
        with pytest.raises(SchemaError):
            DatasetSpec(3, 1, 10, 100)  # need m != o
        with pytest.raises(SchemaError):
            DatasetSpec(3, 3, 1, 100)
        with pytest.raises(SchemaError):
            DatasetSpec(3, 3, 10, 0)


class TestLayersConstruction:
    def test_lattice_has_l_pow_d_cuboids(self):
        layers = DatasetSpec(3, 3, 10, 1).build_layers()
        assert layers.lattice.size == 27

    def test_o_layer_at_level_one(self):
        layers = DatasetSpec(2, 4, 5, 1).build_layers()
        assert layers.o_coord == (1, 1)
        assert layers.m_coord == (4, 4)

    def test_cardinalities_follow_fanout(self):
        layers = DatasetSpec(1, 3, 10, 1).build_layers()
        h = layers.schema.hierarchy(0)
        assert [h.cardinality(l) for l in (1, 2, 3)] == [10, 100, 1000]


class TestGeneration:
    def test_deterministic_given_seed(self):
        a = generate_dataset("D2L2C4T200", seed=3)
        b = generate_dataset("D2L2C4T200", seed=3)
        assert a.cells == b.cells

    def test_different_seed_different_data(self):
        a = generate_dataset("D2L2C4T200", seed=3)
        b = generate_dataset("D2L2C4T200", seed=4)
        assert a.cells != b.cells

    def test_cell_count_tracks_tuples_minus_collisions(self):
        data = generate_dataset("D2L2C3T500", seed=1)
        assert data.n_cells + data.collisions == 500

    def test_values_are_valid_leaves(self):
        data = generate_dataset("D2L3C3T100", seed=2)
        layers = data.layers
        for values in data.cells:
            layers.schema.validate_values(values, layers.m_coord)

    def test_window_interval(self):
        data = generate_dataset("D2L2C3T50", seed=1, window_ticks=8)
        assert data.window == (0, 7)
        assert all(isb.interval == (0, 7) for isb in data.cells.values())

    def test_zipf_skews_leaf_popularity(self):
        # Leaf space (1000) well above tuple count so saturation cannot
        # mask the skew.
        uniform = generate_dataset("D1L3C10T2K", seed=5)
        skewed = generate_dataset("D1L3C10T2K", seed=5, zipf_a=1.5)
        # Zipf concentrates mass: fewer distinct cells than uniform.
        assert skewed.n_cells < uniform.n_cells

    def test_zipf_validation(self):
        with pytest.raises(SchemaError):
            generate_dataset("D1L2C3T10", zipf_a=1.0)

    def test_slope_spread_nontrivial(self):
        data = generate_dataset("D2L2C4T1K", seed=6, slope_scale=0.1)
        slopes = [abs(i.slope) for i in data.cells.values()]
        assert max(slopes) > 10 * (sum(slopes) / len(slopes)) * 0.5

    def test_subset_takes_prefix(self):
        data = generate_dataset("D2L2C4T300", seed=7)
        sub = data.subset(100)
        assert sub.n_cells == 100
        assert set(sub.cells) <= set(data.cells)

    def test_subset_cached(self):
        data = generate_dataset("D2L2C4T300", seed=7)
        assert data.subset(50) is data.subset(50)

    def test_subset_too_large_rejected(self):
        data = generate_dataset("D2L2C4T100", seed=7)
        with pytest.raises(SchemaError):
            data.subset(10_000)

    def test_spec_accepts_object_or_string(self):
        spec = DatasetSpec(2, 2, 3, 50)
        a = generate_dataset(spec, seed=1)
        b = generate_dataset("D2L2C3T50", seed=1)
        assert a.cells == b.cells
