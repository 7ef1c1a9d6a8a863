"""Chrome-trace export of hardware schedules, and trace edge cases."""

import json
import os

from repro.hw.trace import Trace, TraceEvent
from repro.obs import Tracer, save_chrome_trace, to_chrome_trace


def make_trace():
    trace = Trace()
    trace.add(TraceEvent("a", "npu", 0.0, 0.001, tag="sg1"))
    trace.add(TraceEvent("b", "cpu", 0.0, 0.002, tag="sg2.float"))
    trace.add(TraceEvent("c", "npu", 0.001, 0.003, tag="sg3"))
    return trace


def hw_tracer(trace):
    """One span per task, processors as threads of one ``hw`` process —
    the shape ``llmnpu infer --trace-out`` hands the Chrome exporter."""
    tracer = Tracer()
    for ev in trace.events:
        tracer.span(ev.task_id, proc="hw", thread=ev.proc,
                    start_s=ev.start_s, end_s=ev.end_s, cat=ev.tag)
    return tracer


def chrome(trace):
    return to_chrome_trace(hw_tracer(trace))


class TestChromeTrace:
    def test_one_complete_event_per_task(self):
        events = chrome(make_trace())
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 3

    def test_thread_metadata(self):
        events = chrome(make_trace())
        names = {e["args"]["name"] for e in events
                 if e["name"] == "thread_name"}
        assert names == {"cpu", "npu"}

    def test_microsecond_timestamps(self):
        events = chrome(make_trace())
        c = next(e for e in events if e.get("name") == "c")
        assert c["ts"] == 1000.0
        assert c["dur"] == 2000.0

    def test_tids_match_processor(self):
        events = chrome(make_trace())
        meta = {e["args"]["name"]: e["tid"]
                for e in events if e["name"] == "thread_name"}
        a = next(e for e in events if e.get("name") == "a")
        assert a["tid"] == meta["npu"]

    def test_save_is_valid_json(self, tmp_path):
        path = os.path.join(tmp_path, "traces", "run.json")
        save_chrome_trace(path, hw_tracer(make_trace()))
        with open(path) as f:
            data = json.load(f)
        assert isinstance(data, list)
        assert any(e.get("ph") == "X" for e in data)

    def test_engine_trace_exports(self, tmp_path):
        from repro.core import LlmNpuEngine
        report = LlmNpuEngine.build(
            "Qwen1.5-1.8B", "Redmi K70 Pro"
        ).prefill(256)
        path = os.path.join(tmp_path, "prefill.json")
        save_chrome_trace(path, hw_tracer(report.trace))
        with open(path) as f:
            events = json.load(f)
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(report.trace.events)

    def test_save_is_deterministic(self, tmp_path):
        """Equal traces serialize to byte-identical files."""
        p1 = os.path.join(tmp_path, "a.json")
        p2 = os.path.join(tmp_path, "b.json")
        save_chrome_trace(p1, hw_tracer(make_trace()))
        save_chrome_trace(p2, hw_tracer(make_trace()))
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_untagged_events_export_as_task_cat(self):
        trace = Trace()
        trace.add(TraceEvent("plain", "npu", 0.0, 0.001))
        events = chrome(trace)
        plain = next(e for e in events if e.get("name") == "plain")
        assert plain["cat"] == "task"


class TestTraceMetricsEdgeCases:
    def test_validate_serial_accepts_back_to_back(self):
        trace = Trace()
        trace.add(TraceEvent("a", "npu", 0.0, 0.001))
        trace.add(TraceEvent("b", "npu", 0.001, 0.002))
        trace.validate_serial()  # touching endpoints are not an overlap

    def test_validate_serial_rejects_overlap(self):
        import pytest
        from repro.errors import SchedulingError
        trace = Trace()
        trace.add(TraceEvent("a", "npu", 0.0, 0.002))
        trace.add(TraceEvent("b", "npu", 0.001, 0.003))
        with pytest.raises(SchedulingError, match="overlap"):
            trace.validate_serial()

    def test_validate_serial_ignores_other_processors(self):
        trace = Trace()
        trace.add(TraceEvent("a", "npu", 0.0, 0.002))
        trace.add(TraceEvent("b", "cpu", 0.001, 0.003))
        trace.validate_serial()

    def test_bubble_rate_zero_span(self):
        """All-instant events: span 0 -> bubble rate defined as 0."""
        trace = Trace()
        trace.add(TraceEvent("a", "npu", 0.5, 0.5))
        assert trace.bubble_rate("npu") == 0.0

    def test_bubble_rate_empty_processor(self):
        assert Trace().bubble_rate("npu") == 0.0
        trace = make_trace()
        assert trace.bubble_rate("gpu") == 0.0

    def test_busy_by_tag_groups_untagged_under_task(self):
        trace = Trace()
        trace.add(TraceEvent("a", "npu", 0.0, 0.001))
        trace.add(TraceEvent("b", "npu", 0.001, 0.003, tag="sync"))
        trace.add(TraceEvent("c", "cpu", 0.0, 0.002))
        by_tag = trace.busy_by_tag()
        assert "" not in by_tag
        assert abs(by_tag["task"] - 0.003) < 1e-12
        assert abs(by_tag["sync"] - 0.002) < 1e-12
