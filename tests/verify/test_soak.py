"""Short in-process soak runs: the concurrency harness must hold a seeded
run with zero oracle mismatches (CI runs the same thing longer)."""

from __future__ import annotations

import argparse

import pytest

from repro.verify.soak import SoakConfig, run_soak


@pytest.mark.parametrize("seed", [1, 2])
def test_short_soak_zero_mismatches(seed, tmp_path):
    config = SoakConfig(seed=seed, duration=1.5)
    report = run_soak(config, tmp_path)
    assert report.mismatches == 0, report.describe()
    assert report.batches_acked > 0
    assert report.records_acked == report.batches_acked * config.batch_records
    assert report.snapshots >= 1
    assert sum(report.requests.values()) > 0


def test_short_soak_with_subscribers(tmp_path):
    """Continuous-query push clients under the full concurrent workload:
    every delivered update obeys the ordering contract, and the final
    audit recomputes each subscriber's last update from the oracle at
    that update's own quarter."""
    config = SoakConfig(seed=4, duration=2.0, subscribers=2)
    report = run_soak(config, tmp_path)
    assert report.mismatches == 0, report.describe()
    assert report.requests.get("updates", 0) > 0
    assert report.subscription_updates > 0


def test_one_shard_soak_with_subscribers(tmp_path):
    """The same contract on a one-shard cube, whose epoch vector is
    ``(structure_version, q_0)``: every update's quarter is its cut's."""
    config = SoakConfig(seed=4, duration=2.0, subscribers=2, shards=1)
    report = run_soak(config, tmp_path)
    assert report.mismatches == 0, report.describe()
    assert report.subscription_updates > 0


def test_soak_cli_entry(tmp_path, capsys, monkeypatch):
    """`python -m repro soak` wiring: flags parse and the verdict prints."""
    from repro.__main__ import main

    code = main(["soak", "--seed", "5", "--duration", "1.0"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "ZERO oracle mismatches" in out


def test_soak_storage_flag_is_a_switch(monkeypatch):
    """`soak --storage` takes no value: there is one cold store."""
    import repro.__main__ as cli

    seen = []
    monkeypatch.setattr(cli, "soak_command", lambda args: seen.append(args) or 0)
    assert cli.main(["soak", "--storage", "--hot-quarters", "2"]) == 0
    assert cli.main(["soak"]) == 0
    assert [args.storage for args in seen] == [True, False]
    assert seen[0].hot_quarters == 2


def test_soak_storage_flag_refuses_a_value(monkeypatch):
    import repro.__main__ as cli

    monkeypatch.setattr(cli, "soak_command", lambda args: 0)
    with pytest.raises(SystemExit):
        cli.main(["soak", "--storage", "file"])


@pytest.mark.parametrize(
    "argv",
    [
        ["soak", "--backend", "process"],
        ["serve", "--backend", "process"],
        ["serve", "--workers", "2"],
    ],
)
def test_no_backend_flags_parse(argv, monkeypatch):
    """There is one shard backend: its selectors are argparse errors."""
    import repro.__main__ as cli

    monkeypatch.setattr(cli, "soak_command", lambda args: 0)
    monkeypatch.setattr(cli, "serve_command", lambda args: 0)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_report_describe_lists_problems():
    from repro.verify.soak import SoakReport

    report = SoakReport(seed=1, duration=2.0)
    report.flag("something broke")
    text = report.describe()
    assert "1 mismatches" in text
    assert "something broke" in text
    assert report.mismatches == 1
