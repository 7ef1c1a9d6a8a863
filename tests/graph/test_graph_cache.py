"""Chunk-plan memoization: hit/miss accounting and cache safety.

Within one :class:`GraphBuilder` the (config, device, options) triple is
fixed, so a chunk plan is a pure function of ``(chunk_index, chunk_len,
shadow_profiles)``; the step loop replays the same chunk ladder for
every request and must hit the cache.  The cache may never leak shared
mutable state: callers get shallow copies they can rearrange freely.
Across chunk positions only attention is rebuilt; the shared static
parts must give the same plans as a position-by-position build.
"""

import pytest

from repro.core import LlmNpuEngine
from repro.graph import GraphBuilder, ShadowProfile
from repro.graph.builder import (
    BuildOptions,
    ChunkPlan,
    graph_cache_stats,
    reset_graph_cache_stats,
)
from repro.graph.ops import SG_FFN, SG_QKV, SG_WO
from repro.hw import REDMI_K70_PRO
from repro.hw.dma import DmaConfig
from repro.hw.soc import get_device
from repro.model import QWEN15_18B
from repro.model.config import get_model_config
from repro.obs import MetricsRegistry


@pytest.fixture()
def builder():
    return GraphBuilder(QWEN15_18B, REDMI_K70_PRO)


@pytest.fixture(autouse=True)
def clean_stats():
    reset_graph_cache_stats()
    yield
    reset_graph_cache_stats()


class TestMemoization:
    def test_repeat_build_hits(self, builder):
        first = builder.build_chunk(0, 256)
        before = graph_cache_stats()
        second = builder.build_chunk(0, 256)
        after = graph_cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        assert second.subgraphs == first.subgraphs
        assert second.shadows == first.shadows

    def test_distinct_shapes_miss(self, builder):
        builder.build_chunk(0, 256)
        builder.build_chunk(1, 256)   # different chunk index
        builder.build_chunk(0, 128)   # different chunk length
        stats = graph_cache_stats()
        assert stats["misses"] == 3
        assert stats["hits"] == 0

    def test_shadow_profiles_are_part_of_the_key(self, builder):
        plain = builder.build_chunk(0, 256)
        pruned = builder.build_chunk(
            0, 256, shadow_profiles={0: ShadowProfile(pruned=True)}
        )
        assert graph_cache_stats()["misses"] == 2
        assert plain.shadows != pruned.shadows
        # and the profiled variant caches independently
        builder.build_chunk(
            0, 256, shadow_profiles={0: ShadowProfile(pruned=True)}
        )
        assert graph_cache_stats()["hits"] == 1

    def test_cached_plan_is_a_defensive_copy(self, builder):
        first = builder.build_chunk(0, 256)
        first.subgraphs.clear()
        first.shadows.clear()
        second = builder.build_chunk(0, 256)
        assert len(second.subgraphs) > 0
        assert len(second.shadows) > 0
        assert second.subgraphs is not first.subgraphs
        assert second.shadows is not first.shadows

    def test_builders_do_not_share_entries(self):
        a = GraphBuilder(QWEN15_18B, REDMI_K70_PRO)
        b = GraphBuilder(QWEN15_18B, REDMI_K70_PRO)
        a.build_chunk(0, 256)
        b.build_chunk(0, 256)
        # same shape in a fresh builder is a miss (per-builder cache:
        # options/device could differ between builders)
        assert graph_cache_stats() == {"hits": 0, "misses": 2}


class TestMetricsMirror:
    def test_attached_registry_sees_hits_and_misses(self, builder):
        registry = MetricsRegistry()
        builder.attach_metrics(registry)
        builder.build_chunk(0, 256)
        builder.build_chunk(0, 256)
        builder.build_chunk(1, 256)
        snapshot = {m["name"]: m["value"] for m in registry.snapshot()
                    if m["name"].startswith("graph_cache")}
        assert snapshot["graph_cache_misses_total"] == 2.0
        assert snapshot["graph_cache_hits_total"] == 1.0

    def test_unattached_builder_needs_no_registry(self, builder):
        builder.build_chunk(0, 64)
        builder.build_chunk(0, 64)  # must not raise
        assert graph_cache_stats()["hits"] == 1


def build_chunk_from_scratch(builder, chunk_index, chunk_len,
                             shadow_profiles=None):
    """The position-by-position build that chunk-shared preparation
    replaced: every subgraph and shadow spec rebuilt for each chunk."""
    rows = chunk_len
    kv_len = (chunk_index + 1) * chunk_len
    cfg = builder.config
    subgraphs, shadows = [], {}
    for layer in range(cfg.n_layers):
        subgraphs.extend([
            builder._pre_attn(layer, rows),
            builder._qkv(layer, rows),
            builder._attention(layer, rows, kv_len),
            builder._wo(layer, rows),
            builder._pre_ffn(layer, rows),
            builder._ffn(layer, rows),
        ])
        profile = (shadow_profiles or {}).get(layer, ShadowProfile())
        shadows[(layer, SG_QKV)] = builder._shadow(
            layer, SG_QKV, rows, cfg.q_dim + 2 * cfg.kv_dim, profile)
        shadows[(layer, SG_WO)] = builder._shadow(
            layer, SG_WO, rows, cfg.hidden_size, profile)
        n_up = 2 if cfg.gated_ffn else 1
        shadows[(layer, SG_FFN)] = builder._shadow(
            layer, SG_FFN, rows, n_up * cfg.ffn_hidden + cfg.hidden_size,
            profile)
    return ChunkPlan(chunk_index, chunk_len, kv_len, subgraphs, shadows)


BUILD_VARIANTS = [
    ("Qwen1.5-1.8B", "Redmi K70 Pro", BuildOptions(), 256),
    ("Gemma-2B", "Redmi K60 Pro", BuildOptions(float_backend="gpu"), 128),
    ("Phi-2-2.7B", "Redmi K70 Pro", BuildOptions(per_group=True), 256),
    ("Mistral-7B", "Redmi K70 Pro", BuildOptions(dma=DmaConfig(buffers=2)),
     64),
    ("LlaMA-2-7B", "Redmi K60 Pro", BuildOptions(float_backend="npu"), 256),
]


class TestChunkSharedBuild:
    @pytest.mark.parametrize("model,device,options,chunk_len",
                             BUILD_VARIANTS)
    @pytest.mark.parametrize("profiled", [False, True])
    def test_shared_plans_equal_position_by_position_build(
            self, model, device, options, chunk_len, profiled):
        builder = GraphBuilder(get_model_config(model), get_device(device),
                               options)
        profiles = None
        if profiled:
            profiles = LlmNpuEngine.build(model, device).shadow_profiles
        oracle = GraphBuilder(builder.config, builder.device, options)
        for i in range(8):
            shared = builder.build_chunk(i, chunk_len, profiles)
            assert shared == build_chunk_from_scratch(oracle, i, chunk_len,
                                                      profiles)
        assert builder.static_builds == 1

    def test_static_specs_are_shared_across_positions(self):
        engine = LlmNpuEngine.build("Qwen1.5-1.8B", "Redmi K70 Pro")
        assert engine.builder.static_builds == 1
        first, last = engine.graph.plan_for_chunk(0), \
            engine.graph.plan_for_chunk(engine.graph.max_chunks - 1)
        for a, b in zip(first.subgraphs, last.subgraphs):
            assert (a is b) == a.static
        assert all(first.shadows[k] is last.shadows[k] for k in first.shadows)

    def test_each_chunk_len_and_profile_set_builds_once(self, builder):
        builder.build_chunk(0, 256)
        builder.build_chunk(3, 256)
        builder.build_chunk(0, 128)
        builder.build_chunk(0, 256, {0: ShadowProfile(pruned=True)})
        builder.build_chunk(5, 256, {0: ShadowProfile(pruned=True)})
        assert builder.static_builds == 3
