"""Bench history store and rolling-baseline regression checks."""

from __future__ import annotations

import json

import pytest

from repro.experiments.bench_history import (
    DEFAULT_WINDOW,
    append_history,
    check_against_history,
    default_history_path,
    history_entry,
    host_fingerprint,
    load_history,
    rolling_baseline,
)


def _payload(stages: dict[str, float], *, num_dags=3, engine="object",
             host=None):
    payload = {
        "created": "2026-08-07T00:00:00+0000",
        "version": "1.6.0",
        "config": {"num_dags": num_dags, "engine": engine, "repeat": 1},
        "stages": {
            name: {"seconds": seconds, "units": 1, "seconds_per_unit": seconds}
            for name, seconds in stages.items()
        },
    }
    if host is not None:
        payload["host"] = host
    return payload


_LAPTOP = {"cpus": 8, "platform": "Linux-x86_64", "python": "3.12.1"}
_CI_BOX = {"cpus": 2, "platform": "Linux-x86_64", "python": "3.12.1"}


def test_history_entry_flattens_payload():
    entry = history_entry(_payload({"scheduling": 1.5, "simulation": 0.5}))
    assert entry["num_dags"] == 3
    assert entry["engine"] == "object"
    assert entry["version"] == "1.6.0"
    assert entry["stages"] == {"scheduling": 1.5, "simulation": 0.5}


def test_append_and_load_round_trip(tmp_path):
    path = tmp_path / "nested" / "hist.jsonl"
    for seconds in (1.0, 2.0, 3.0):
        append_history(_payload({"scheduling": seconds}), path)
    entries = load_history(path)
    assert [e["stages"]["scheduling"] for e in entries] == [1.0, 2.0, 3.0]
    # Entries are one JSON object per line, key-sorted (diff-friendly).
    first = path.read_text().splitlines()[0]
    assert list(json.loads(first)) == sorted(json.loads(first))


def test_load_missing_file_is_empty(tmp_path):
    assert load_history(tmp_path / "absent.jsonl") == []


def test_load_rejects_corrupt_lines(tmp_path):
    path = tmp_path / "hist.jsonl"
    path.write_text('{"stages": {"a": 1.0}}\n{broken\n')
    with pytest.raises(ValueError, match="line 2"):
        load_history(path)
    path.write_text('{"no_stages": 1}\n')
    with pytest.raises(ValueError, match="missing 'stages'"):
        load_history(path)


def test_rolling_baseline_is_windowed_median(tmp_path):
    path = tmp_path / "hist.jsonl"
    # 7 entries; the window keeps the newest DEFAULT_WINDOW of them.
    for seconds in (99.0, 98.0, 1.0, 2.0, 3.0, 4.0, 5.0):
        append_history(_payload({"scheduling": seconds}), path)
    baseline, used = rolling_baseline(
        load_history(path), _payload({"scheduling": 1.0})
    )
    assert used == DEFAULT_WINDOW
    assert baseline == {"scheduling": 3.0}  # median of 1..5, outliers gone


def test_rolling_baseline_skips_incompatible_entries(tmp_path):
    path = tmp_path / "hist.jsonl"
    append_history(_payload({"scheduling": 1.0}, num_dags=3), path)
    append_history(_payload({"scheduling": 50.0}, num_dags=12), path)
    append_history(_payload({"scheduling": 60.0}, engine="array"), path)
    entries = load_history(path)
    baseline, used = rolling_baseline(entries, _payload({"scheduling": 1.0}))
    assert (baseline, used) == ({"scheduling": 1.0}, 1)
    # A payload matching no entry gets no baseline at all.
    none, zero = rolling_baseline(
        entries, _payload({"scheduling": 1.0}, num_dags=99)
    )
    assert (none, zero) == ({}, 0)


def test_rolling_baseline_requires_stage_in_every_entry(tmp_path):
    path = tmp_path / "hist.jsonl"
    append_history(_payload({"scheduling": 1.0}), path)
    append_history(_payload({"scheduling": 1.0, "new_stage": 9.0}), path)
    baseline, _ = rolling_baseline(
        load_history(path), _payload({"scheduling": 1.0, "new_stage": 9.0})
    )
    # new_stage appeared mid-history: no stable median yet.
    assert baseline == {"scheduling": 1.0}


def test_check_passes_on_unchanged_timings(tmp_path):
    path = tmp_path / "hist.jsonl"
    stages = {"scheduling": 1.0, "simulation": 0.5}
    for _ in range(3):
        append_history(_payload(stages), path)
    comparisons = check_against_history(
        _payload(stages), load_history(path), tolerance=0.10
    )
    assert comparisons is not None
    assert {c.stage for c in comparisons} == set(stages)
    assert not any(c.regressed for c in comparisons)


def test_check_ignores_stages_only_in_history(tmp_path):
    # History written before a stage was retired still gates the rest.
    path = tmp_path / "hist.jsonl"
    for _ in range(3):
        append_history(
            _payload({"scheduling": 1.0, "retired_stage": 0.01}), path
        )
    comparisons = check_against_history(
        _payload({"scheduling": 1.0}), load_history(path), tolerance=0.10
    )
    assert [c.stage for c in comparisons] == ["scheduling"]
    assert not comparisons[0].regressed


def test_check_fails_on_synthetic_2x_slowdown(tmp_path):
    """The acceptance fixture: a uniform 2x slowdown must regress."""
    path = tmp_path / "hist.jsonl"
    stages = {"scheduling": 1.0, "simulation": 0.5, "study_cold": 2.0}
    for _ in range(3):
        append_history(_payload(stages), path)
    slowed = _payload({name: 2.0 * s for name, s in stages.items()})
    comparisons = check_against_history(
        slowed, load_history(path), tolerance=0.10
    )
    regressed = {c.stage for c in comparisons if c.regressed}
    assert regressed == set(stages)
    for c in comparisons:
        assert c.ratio == pytest.approx(2.0)


def test_check_returns_none_without_compatible_history(tmp_path):
    path = tmp_path / "hist.jsonl"
    append_history(_payload({"scheduling": 1.0}, num_dags=12), path)
    assert check_against_history(
        _payload({"scheduling": 1.0}, num_dags=3), load_history(path)
    ) is None
    assert check_against_history(_payload({"scheduling": 1.0}), []) is None


def test_host_fingerprint_reduces_host_metadata():
    assert host_fingerprint(_LAPTOP) == (8, "Linux", "x86_64", "3.12")
    # Missing metadata (pre-host-field histories) reduces to None —
    # and two Nones compare equal, so old entries still baseline old
    # payloads.
    assert host_fingerprint(None) is None
    assert host_fingerprint("not a dict") is None


def test_kernel_and_patch_updates_keep_the_host_fingerprint():
    before = {
        "cpus": 1,
        "platform": "Linux-6.18.5-fc-v20-x86_64-with-glibc2.36",
        "python": "3.11.7",
    }
    after = dict(
        before,
        platform="Linux-6.18.44-fc-v139-x86_64-with-glibc2.36",
        python="3.11.9",
    )
    assert host_fingerprint(before) == host_fingerprint(after)
    # A current stamp names the OS and machine outright, and matches
    # the committed stamps that only carry the platform string.
    current = dict(after, system="Linux", machine="x86_64")
    assert host_fingerprint(current) == (1, "Linux", "x86_64", "3.11")
    assert host_fingerprint(current) == host_fingerprint(before)
    # What does change comparability still tells hosts apart.
    for other in (
        dict(after, cpus=2),
        dict(after, python="3.12.1"),
        dict(current, machine="aarch64"),
    ):
        assert host_fingerprint(other) != host_fingerprint(before)


def test_committed_history_fingerprints_name_no_kernel():
    # The committed entries were stamped on one kernel build; any
    # 1-cpu Linux x86_64 host on Python 3.11 now finds them.
    fingerprints = {host_fingerprint(e.get("host")) for e in load_history()}
    assert (1, "Linux", "x86_64", "3.11") in fingerprints


def test_rolling_baseline_filters_to_matching_host(tmp_path):
    """Entries from a different machine never form the baseline."""
    path = tmp_path / "hist.jsonl"
    append_history(_payload({"scheduling": 9.0}, host=_CI_BOX), path)
    append_history(_payload({"scheduling": 1.0}, host=_LAPTOP), path)
    baseline, used = rolling_baseline(
        load_history(path), _payload({"scheduling": 1.0}, host=_LAPTOP)
    )
    assert (baseline, used) == ({"scheduling": 1.0}, 1)


def test_host_vs_hostless_entries_are_incompatible(tmp_path):
    """A pre-metadata entry cannot baseline a host-stamped payload."""
    path = tmp_path / "hist.jsonl"
    append_history(_payload({"scheduling": 9.0}), path)  # no host field
    entries = load_history(path)
    assert check_against_history(
        _payload({"scheduling": 1.0}, host=_LAPTOP), entries
    ) is None
    # Symmetrically, a host-stamped entry says nothing about a
    # hostless payload; both-missing still matches (the legacy case).
    append_history(_payload({"scheduling": 2.0}, host=_LAPTOP), path)
    baseline, used = rolling_baseline(
        load_history(path), _payload({"scheduling": 1.0})
    )
    assert (baseline, used) == ({"scheduling": 9.0}, 1)


def test_default_history_path_is_in_checkout():
    path = default_history_path()
    assert path.name == "bench_history.jsonl"
    assert path.parent.name == "history"
    assert path.parent.parent.name == "benchmarks"
