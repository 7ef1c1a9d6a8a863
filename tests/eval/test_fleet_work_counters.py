"""Deterministic work counters for one cold fleet run.

Counts, not timings: they do not depend on the machine.  A cold
12-device fleet must simulate each distinct prefill shape at most twice
(the memo admits a shape on its second sighting), and every engine must
build its static subgraphs exactly once (chunk-shared preparation).
"""

from repro.core.pipeline import (
    PREFILL_MEMO,
    clear_prefill_memo,
    prefill_memo_stats,
)
from repro.eval import default_fleet, fleet_report
from repro.graph.builder import GraphBuilder


def test_cold_fleet_work_counters(monkeypatch):
    clear_prefill_memo()
    keys = []
    lookup = PREFILL_MEMO.lookup

    def recording_lookup(key, simulate):
        keys.append(key)
        return lookup(key, simulate)

    builders = []
    init = GraphBuilder.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        builders.append(self)

    monkeypatch.setattr(PREFILL_MEMO, "lookup", recording_lookup)
    monkeypatch.setattr(GraphBuilder, "__init__", recording_init)
    try:
        fleet_report(specs=default_fleet(12, seed=42), seed=42)
        stats = prefill_memo_stats()
    finally:
        clear_prefill_memo()

    distinct = len(set(keys))
    assert stats["hits"] + stats["misses"] == len(keys)
    assert stats["misses"] <= 2 * distinct
    assert builders
    assert [b.static_builds for b in builders] == [1] * len(builders)
