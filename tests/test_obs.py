"""The observability layer: tracer, metrics registry, ambient run config,
and the determinism guarantee (hooks observe, never schedule)."""

import json

import pytest

from repro import obs
from repro.obs import MetricsRegistry, RunConfig, Tracer, metric_key, parse_metric_key
from repro.obs.tracer import NULL_TRACER
from repro.sim.engine import Simulator
from repro.sim.resources import Resource


class TestTracer:
    def test_span_and_instant_recorded(self):
        tracer = Tracer()
        tracer.span("service", "resource", 1.0, 2.0, "disk0", args={"bytes": 512})
        tracer.instant("send", "ring", 3.0, "outer-ring")
        assert tracer.event_count == 2

    def test_chrome_trace_shape(self):
        tracer = Tracer()
        tracer.span("work", "ip", 0.5, 1.5, "IP1")
        doc = tracer.chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        # Thread-name metadata precedes the recorded events.
        meta = [e for e in events if e["ph"] == "M"]
        assert meta and meta[0]["args"]["name"] == "IP1"
        span = [e for e in events if e["ph"] == "X"][0]
        assert span["ts"] == 500.0 and span["dur"] == 1500.0  # ms -> us

    def test_write_produces_valid_json(self, tmp_path):
        tracer = Tracer()
        tracer.instant("event", "sim", 1.0, "simulator")
        path = tmp_path / "out.trace.json"
        tracer.write(str(path))
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)
        assert all("ph" in e and "ts" in e for e in doc["traceEvents"] if e["ph"] != "M")

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.span("x", "c", 0.0, 1.0, "t")
        tracer.instant("y", "c", 0.0, "t")
        tracer.counter("z", 0.0, {"v": 1})
        assert tracer.event_count == 0

    def test_tracks_map_to_stable_tids(self):
        tracer = Tracer()
        tracer.instant("a", "c", 0.0, "first")
        tracer.instant("b", "c", 1.0, "second")
        tracer.instant("c", "c", 2.0, "first")
        events = [e for e in tracer.chrome_trace()["traceEvents"] if e["ph"] == "i"]
        assert events[0]["tid"] == events[2]["tid"] != events[1]["tid"]


class TestMetricKey:
    def test_bare_name(self):
        assert metric_key("sim.events") == "sim.events"
        assert parse_metric_key("sim.events") == ("sim.events", {})

    def test_labels_sorted_and_roundtrip(self):
        key = metric_key("ring.bytes", {"ring": "outer-ring", "run": 1})
        assert key == "ring.bytes{ring=outer-ring,run=1}"
        assert parse_metric_key(key) == ("ring.bytes", {"ring": "outer-ring", "run": "1"})


class TestMetricsRegistry:
    def test_counter_tally_series_gauge(self):
        reg = MetricsRegistry()
        reg.counter("n", kind="a").add(2)
        reg.counter("n", kind="a").add(3)
        reg.tally("t").observe(4.0)
        reg.series("s", run=1).record(1.0, 10)
        reg.set_gauge("g", 0.5, machine="direct")
        assert reg.value("n", kind="a") == 5
        assert reg.value("g", machine="direct") == 0.5
        report = reg.report()
        assert report["counters"]["n{kind=a}"] == 5
        assert report["tallies"]["t"]["count"] == 1
        assert report["series"]["s{run=1}"]["last"] == 10

    def test_labels_namespace_instruments(self):
        reg = MetricsRegistry()
        reg.counter("n", kind="a").add()
        reg.counter("n", kind="b").add()
        assert reg.value("n", kind="a") == 1
        assert reg.value("n", kind="b") == 1

    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("n").add(5)
        reg.tally("t").observe(1.0)
        reg.set_gauge("g", 1.0)
        assert reg.value("n") == 0.0
        report = reg.report()
        assert report["counters"] == {} and report["gauges"] == {}


class TestAmbientSession:
    def test_default_ambient_is_disabled(self):
        config = obs.current()
        assert config == RunConfig()
        assert not config.tracer.enabled and not config.metrics.enabled
        assert config.spans is None and not config.sanitize and config.faults is None

    def test_observe_installs_and_restores(self):
        before = obs.current()
        with obs.configured(tracer=Tracer(), metrics=MetricsRegistry()) as config:
            assert obs.current() is config
            assert config.tracer.enabled and config.metrics.enabled
        assert obs.current() is before

    def test_observe_axes_independent(self):
        with obs.configured(tracer=Tracer()) as config:
            assert config.tracer.enabled and not config.metrics.enabled
            # A nested block changes only the fields it names.
            with obs.configured(metrics=MetricsRegistry(), sanitize=True) as inner:
                assert inner.tracer is config.tracer
                assert inner.metrics.enabled and inner.sanitize
            assert obs.current() is config
        with obs.configured(metrics=MetricsRegistry()) as config:
            assert not config.tracer.enabled and config.metrics.enabled

    def test_simulator_binds_session_at_construction(self):
        with obs.configured(tracer=Tracer(), metrics=MetricsRegistry()) as config:
            sim = Simulator()
        assert sim.tracer is config.tracer
        assert sim.metrics is config.metrics
        assert sim.run_id > 0
        assert Simulator().run_id == 0  # outside the block: disabled, unlabeled

    def test_explicit_arguments_beat_ambient(self):
        tracer = Tracer()
        with obs.configured(metrics=MetricsRegistry(), sanitize=True):
            sim = Simulator(RunConfig(tracer=tracer))
        assert sim.tracer is tracer
        assert not sim.metrics.enabled and sim.run_id == 0
        assert sim.sanitizer is None


class TestWiring:
    def test_simulator_events_traced_and_counted(self):
        with obs.configured(tracer=Tracer(), metrics=MetricsRegistry()) as config:
            sim = Simulator()
            sim.schedule(1.0, lambda: None, label="tick")
            sim.run()
        assert config.tracer.event_count == 1
        assert config.metrics.value("sim.events") == 1

    def test_resource_service_traced_with_queue_series(self):
        with obs.configured(tracer=Tracer(), metrics=MetricsRegistry()) as config:
            sim = Simulator()
            res = Resource(sim, "disk0")
            res.submit(3.0, nbytes=100)
            sim.run()
        spans = [
            e
            for e in config.tracer.chrome_trace()["traceEvents"]
            if e["ph"] == "X" and e["name"] == "disk0.service"
        ]
        assert spans and spans[0]["args"]["bytes"] == 100
        report = config.metrics.report()
        key = metric_key(
            "resource.queue_depth", {"resource": "disk0", "run": sim.run_id}
        )
        assert key in report["series"]


class TestDeterminism:
    """Tracing must never perturb simulation results."""

    def test_experiment_identical_with_and_without_observability(self):
        from repro.experiments import figure_3_1

        plain = figure_3_1.run(scale=0.05, selectivity=0.3, processors=(5,))
        with obs.configured(tracer=Tracer(), metrics=MetricsRegistry()) as config:
            observed = figure_3_1.run(scale=0.05, selectivity=0.3, processors=(5,))
        assert observed.rows == plain.rows
        assert config.tracer.event_count > 0
        # And a second uninstrumented run is identical again.
        again = figure_3_1.run(scale=0.05, selectivity=0.3, processors=(5,))
        assert again.rows == plain.rows

    def test_null_instruments_are_shared(self):
        assert Tracer(enabled=False).event_count == 0
        assert NULL_TRACER.event_count == 0
        config = RunConfig()
        assert config.tracer is NULL_TRACER and not config.metrics.enabled


class TestStreamingTracer:
    def test_stream_flushes_incrementally_and_close_finalizes(self, tmp_path):
        path = str(tmp_path / "stream.trace.json")
        tracer = Tracer(stream_path=path, flush_every=3)
        for i in range(7):
            tracer.span(f"e{i}", "test", float(i), 1.0, "track-a")
        # Two batches of three are on disk; one event is still buffered.
        assert tracer.event_count == 7
        total = tracer.close()
        assert total == 8  # 7 events + 1 thread_name metadata record
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert names == [f"e{i}" for i in range(7)]

    def test_close_is_idempotent_and_blocks_further_recording(self, tmp_path):
        path = str(tmp_path / "s.json")
        tracer = Tracer(stream_path=path, flush_every=1)
        tracer.span("a", "t", 0.0, 1.0, "x")
        first = tracer.close()
        assert tracer.close() == first
        with pytest.raises(ValueError):
            tracer.span("b", "t", 1.0, 1.0, "x")  # flushes, and the file is closed

    def test_streamed_tracer_refuses_in_memory_export(self, tmp_path):
        tracer = Tracer(stream_path=str(tmp_path / "s.json"), flush_every=1)
        tracer.span("a", "t", 0.0, 1.0, "x")
        with pytest.raises(ValueError):
            tracer.chrome_trace()

    def test_stream_matches_buffered_event_set(self, tmp_path):
        path = str(tmp_path / "s.json")
        streamed = Tracer(stream_path=path, flush_every=2)
        buffered = Tracer()
        for t in (streamed, buffered):
            t.span("a", "c", 0.0, 1.0, "x")
            t.instant("i", "c", 0.5, "x")
            t.counter("n", 0.5, {"v": 1.0})
            t.flow("f", "c", 0.25, "x", 7, phase="s")
            t.flow("f", "c", 0.25, "x", 7, phase="f")
        streamed.close()
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        key = lambda e: json.dumps(e, sort_keys=True)
        assert sorted(map(key, doc["traceEvents"])) == sorted(
            map(key, buffered.chrome_trace()["traceEvents"])
        )

    def test_flush_every_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(stream_path="x.json", flush_every=0)


class TestMetricsRendering:
    """Byte-stable report/dump rendering and the CSV flattening."""

    def _filled(self, order):
        registry = MetricsRegistry()
        for name in order:
            registry.counter(name).add(1)
        registry.set_gauge("z.gauge", 2.0)
        registry.tally("t.lat").observe(5.0)
        registry.series("s.depth").record(0.0, 1.0)
        return registry

    def test_dump_bytes_independent_of_creation_order(self):
        a = self._filled(["b.count", "a.count"])
        b = self._filled(["a.count", "b.count"])
        assert json.dumps(a.dump(), sort_keys=False) == json.dumps(
            b.dump(), sort_keys=False
        )

    def test_report_csv_stable_and_parseable(self):
        from repro.obs.metrics import report_csv

        a = report_csv(self._filled(["b.count", "a.count"]).report())
        b = report_csv(self._filled(["a.count", "b.count"]).report())
        assert a == b
        lines = a.strip().split("\n")
        assert lines[0] == "section,key,field,value"
        assert any(line.startswith("counters,a.count,value,") for line in lines)
        assert any(line.startswith("tallies,t.lat,mean,") for line in lines)

    def test_report_csv_quotes_label_commas(self):
        from repro.obs.metrics import report_csv

        registry = MetricsRegistry()
        registry.counter("c", x="1", y="2").add(3)
        text = report_csv(registry.report())
        assert '"c{x=1,y=2}"' in text
