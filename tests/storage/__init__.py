"""Tiered storage: page codec, the cold store, spill/fault paths."""
