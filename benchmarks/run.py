"""eventpipe benchmark: one workload and one seed, a result line of JSON.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's corpus from the seed, then repeats set-up plus one
full `Pipeline.run()` for about S seconds through the public API. Every
repeat is checked against the generator's answer key. With --trace 0 the
result carries the end-to-end metrics (medians over repeats); with --trace 1
repeats alternate untraced and traced, and the result carries the per-layer
metrics of the traced ones. Every metric is printed, by name and unit,
before the last line, which is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See benchmarks/README.md.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import http.client
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import eventpipe  # noqa: E402
from eventpipe.config import PipelineConfig  # noqa: E402
from eventpipe.model import load_ontology  # noqa: E402
from eventpipe.pipeline import Pipeline  # noqa: E402

if Path(eventpipe.__file__).resolve().parent != ROOT / "src" / "eventpipe":
    sys.exit(f"eventpipe was imported from {eventpipe.__file__}, not from this checkout's src/")

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, params  # noqa: E402

# The endpoint URL enters config_hash() and every cache key, so the port is
# fixed per workload: a moving port would change the artifacts' bytes.
STUB_PORTS = {"remote-20ms": 47_120}
MIN_REPEATS = 3
MIN_TRACED_REPEATS = 4
ARTIFACTS = ("gate.jsonl", "triggers.jsonl", "arguments.jsonl", "final.jsonl",
             "predictions.jsonl", "report.json")
STUB_ENDPOINTS = ("chat", "embed", "verdict")

E2E_UNITS = {
    "setup_s": "s",
    "segments_per_s": "seg/s",
    "cpu_ms_per_segment": "ms",
    "provider_calls_per_segment": "calls",
    "remote_requests_per_segment": "requests",
    "peak_rss_mb": "MB",
    "failed_share": "ratio",
}
LAYER_UNITS = {
    "model.load_s": "s",
    "gate.stage_s": "s",
    "gate.rule_cpu_ms_per_segment": "ms",
    "gate.gated_in_share": "ratio",
    "retrieval.index_build_s": "s",
    "retrieval.embed_calls": "count",
    "retrieval.embed_texts": "count",
    "retrieval.search_calls": "count",
    "retrieval.search_wall_s": "s",
    "retrieval.search_cpu_s": "s",
    "retrieval.search_ms_p50": "ms",
    "retrieval.search_ms_p99": "ms",
    "prompts.build_calls": "count",
    "prompts.build_cpu_s": "s",
    "llm.calls.presence": "count",
    "llm.calls.trigger": "count",
    "llm.calls.argument": "count",
    "llm.calls.format": "count",
    "llm.attempts_per_accept": "ratio",
    "llm.provider_wait_s": "s",
    "llm.provider_ms_p50": "ms",
    "llm.provider_ms_p99": "ms",
    "llm.cache_hits": "count",
    "llm.cache_misses": "count",
    "llm.cache_put_s": "s",
    "llm.cache_open_s": "s",
    "http.requests.chat": "count",
    "http.requests.embed": "count",
    "http.requests.verdict": "count",
    "http.connections": "count",
    "http.post_ms_p50": "ms",
    "http.post_ms_p99": "ms",
    "extract.trigger_stage_s": "s",
    "extract.argument_stage_s": "s",
    "extract.parse_calls": "count",
    "extract.parse_cpu_s": "s",
    "extract.parse_ms_max": "ms",
    "extract.parses_per_reply": "ratio",
    "extract.repair_stage_s": "s",
    "extract.repair_calls": "count",
    "extract.repair_success_ratio": "ratio",
    "pipeline.worker_utilisation": "ratio",
    "pipeline.cpu_wait_share": "ratio",
    "pipeline.artifact_write_s": "s",
    "pipeline.trace_overhead_share": "ratio",
    "evaluate.score_s": "s",
}
# Layers whose spans do no I/O; their wall time beyond thread CPU is time
# spent waiting for the interpreter lock or a core.
CPU_ONLY_LAYERS = ("retrieval.search", "extract.parse", "prompts.build", "gate.rule")
# Metric-name prefix -> the layer whose spans it is computed from, so a metric
# can be reported absent when its layer's hook is gone or was never called.
METRIC_SOURCES = (
    ("model.load", "model.load"),
    ("gate.stage", "gate.stage"),
    ("gate.rule", "gate.rule"),
    ("retrieval.index_build", "retrieval.index_build"),
    ("retrieval.embed", "retrieval.embed_batch"),
    ("retrieval.search", "retrieval.search"),
    ("prompts.", "prompts.build"),
    ("llm.attempts", "llm.complete"),
    ("llm.provider", "llm.provider"),
    ("llm.cache_hits", "llm.cache_get"),
    ("llm.cache_misses", "llm.cache_get"),
    ("llm.cache_put", "llm.cache_put"),
    ("llm.cache_open", "llm.cache_open"),
    ("http.post", "http.post"),
    ("extract.trigger_stage", "extract.trigger_stage"),
    ("extract.argument_stage", "extract.argument_stage"),
    ("extract.parse", "extract.parse"),
    ("extract.repair_stage", "extract.repair_stage"),
    ("extract.repair_calls", "prompts.build"),
    ("pipeline.worker", "llm.provider"),
    ("pipeline.artifact", "pipeline.write_artifact"),
    ("evaluate.score", "evaluate.score"),
)


# --- loopback stub ------------------------------------------------------------


class Stub:
    """The stub process for remote workloads; stopped and reaped by close()."""

    def __init__(self, corpus: Path, port: int, delay_ms: float, log: Path):
        self.port = port
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with log.open("w") as log_fh:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "stub.py"), "--corpus", str(corpus),
                 "--port", str(port), "--delay-ms", str(delay_ms)],
                stdout=subprocess.DEVNULL, stderr=log_fh, env=env,
            )
        deadline = time.monotonic() + 60
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"stub exited with code {self.proc.returncode}; see {log}")
            try:
                # A stub left over from another run would answer with its own pid.
                if self._request("GET", "/stats").get("pid") == self.proc.pid:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.close()
                raise RuntimeError(f"stub did not start on port {port}; see {log}")
            time.sleep(0.1)

    def _request(self, method: str, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request(method, path, body=b"{}" if method == "POST" else None)
            return json.loads(conn.getresponse().read() or b"{}")
        finally:
            conn.close()

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def reset(self) -> None:
        self._request("POST", "/reset")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


# --- one repeat -----------------------------------------------------------------


@dataclass
class Repeat:
    traced: bool
    setup_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    provider_calls: int = 0
    stub_delta: dict = field(default_factory=dict)
    failed: set = field(default_factory=set)
    errors: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    absent: dict = field(default_factory=dict)
    self_times: dict = field(default_factory=dict)


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.p = params(workload)
        self.work = Path(".bench_work") / workload
        self.corpus = self.work / "corpus"
        self.out = self.work / "out"
        self.cache = self.work / "cache.jsonl"
        self.stub: Stub | None = None
        self.reference: dict | None = None
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        subprocess.run(
            [sys.executable, str(HERE / "corpus.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(self.corpus)],
            check=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120,
        )
        self.expected = json.loads((self.corpus / "expected.json").read_text(encoding="utf-8"))
        self.segments = self.expected["segments"]
        self.ontology = load_ontology()

    def config(self) -> PipelineConfig:
        p, corpus = self.p, self.corpus
        if p["remote_delay_ms"] is None:
            chat = {"kind": "mock", "script": str(corpus / "script.json")}
            embedding = {"kind": "mock", "dimension": 384}
            learned = {"kind": "file", "path": str(corpus / "verdicts.jsonl")}
        else:
            url = f"http://127.0.0.1:{STUB_PORTS[self.workload]}"
            chat = {"kind": "remote", "endpoint": f"{url}/chat", "model": "stub"}
            embedding = {"kind": "remote", "endpoint": f"{url}/embed", "dimension": 384}
            learned = {"kind": "remote", "endpoint": f"{url}/verdict"}
        return PipelineConfig.from_dict({
            "paths": {
                "gold": str(corpus / "gold.jsonl"),
                "transcripts": str(corpus / "transcripts.jsonl"),
                "support": str(corpus / "support.jsonl"),
                "output_dir": str(self.out),
                "cache": str(self.cache),
            },
            "gate": {"policy": p["gate_policy"], "learned": learned},
            "retrieval": {"k": p["retrieval_k"], "embedding": embedding,
                          "same_type_filter": p["same_type_filter"]},
            "llm": {"default": chat},
            "retry": {"max_attempts": p["max_attempts"]},
            "concurrency": {"workers": p["workers"]},
        })

    def start_stub(self) -> None:
        if self.p["remote_delay_ms"] is not None:
            self.stub = Stub(self.corpus, STUB_PORTS[self.workload],
                             self.p["remote_delay_ms"], self.work / "stub.log")

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()

    @staticmethod
    def set_up(config: PipelineConfig, samples: int) -> tuple[Pipeline, float]:
        """Build a pipeline and load its support set, index and cache `samples`
        times; return the last pipeline and the mean set-up time."""
        times = []
        for _ in range(samples):
            pipeline = None  # frees the previous sample outside the timed region
            started = time.perf_counter()
            pipeline = Pipeline(config)
            pipeline.support, pipeline.index, pipeline.cache  # noqa: B018 - lazy loads are set-up
            times.append(time.perf_counter() - started)
        return pipeline, statistics.mean(times)

    def run_once(self, tracer: Tracer | None = None) -> Repeat:
        rep = Repeat(traced=tracer is not None)
        shutil.rmtree(self.out, ignore_errors=True)
        if not self.p["replay"]:
            self.cache.unlink(missing_ok=True)
        if self.stub is not None:
            self.stub.reset()
        config = self.config()
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            pipeline, rep.setup_s = self.set_up(config, 1 if tracer else self.p["setup_samples"])
            before = self.stub.stats() if self.stub else {}
            if tracer is not None:
                tracer.phase = "run"
            cpu0, wall0 = time.process_time(), time.perf_counter()
            result = pipeline.run()
            rep.wall_s = time.perf_counter() - wall0
            rep.cpu_s = time.process_time() - cpu0
            after = self.stub.stats() if self.stub else {}
            rep.provider_calls = result.provider_calls.get("total", 0)
            rep.stub_delta = {k: after.get(k, 0) - before.get(k, 0)
                              for k in STUB_ENDPOINTS + ("connections",)}
        except Exception as exc:  # a failing run is a result: every segment counts as failed
            traceback.print_exc(file=sys.stderr)
            rep.errors.append(f"run raised {type(exc).__name__}: {exc}")
            rep.failed = set(self.expected["final"])
            return rep
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.check(rep)
        if tracer is not None:
            rep.layers, rep.absent = self.layer_metrics(tracer, rep, result)
            rep.self_times = tracer.layer_summary("run")
        return rep

    # --- output checks ---------------------------------------------------------

    def check(self, rep: Repeat) -> None:
        try:
            self._check_outputs(rep)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            rep.errors.append(f"outputs unreadable: {type(exc).__name__}: {exc}")
        if rep.errors:
            rep.failed = set(self.expected["final"])

    def _check_outputs(self, rep: Repeat) -> None:
        expected = self.expected
        rows = {}
        for name in ("final.jsonl", "gate.jsonl"):
            lines = (self.out / name).read_text(encoding="utf-8").splitlines()[1:]
            rows[name] = {r["id"]: r for r in map(json.loads, lines)}
        predictions = [json.loads(line) for line in
                       (self.out / "predictions.jsonl").read_text(encoding="utf-8").splitlines()]
        if predictions != [rows["final.jsonl"][r["id"]] for r in predictions] or \
                len(predictions) != len(rows["final.jsonl"]):
            rep.errors.append("predictions.jsonl differs from final.jsonl")
        for seg_id, events in expected["final"].items():
            gate = rows["gate.jsonl"].get(seg_id, {})
            final = rows["final.jsonl"].get(seg_id, {}).get("event")
            if final != events or {k: gate.get(k) for k in expected["gate"][seg_id]} != \
                    expected["gate"][seg_id]:
                rep.failed.add(seg_id)
            for ev in final or ():
                allowed = self.ontology.role_set_for(ev["type"])
                if ev["type"] not in self.ontology.type_set or any(
                        a["role"] not in allowed for a in ev["arguments"]):
                    rep.failed.add(seg_id)
        report = json.loads((self.out / "report.json").read_text(encoding="utf-8"))
        counts = {k: report[k] if not isinstance(report[k], dict)
                  else {m: report[k][m] for m in ("tp", "n_pred", "n_gold")}
                  for k in expected["report"]}
        if counts != expected["report"]:
            rep.errors.append(f"report counts {counts} != expected {expected['report']}")
        if self.p["replay"] and rep.provider_calls:
            rep.errors.append(f"replay made {rep.provider_calls} provider calls")
        digests = {name: hashlib.sha256((self.out / name).read_bytes()).hexdigest()
                   for name in ARTIFACTS}
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            changed = sorted(n for n in ARTIFACTS if digests[n] != self.reference[n])
            rep.errors.append(f"artifacts not byte-identical across repeats: {changed}")

    # --- per-layer metrics --------------------------------------------------------

    def layer_metrics(self, tracer: Tracer, rep: Repeat, result) -> tuple[dict, dict]:
        """Per-layer metrics of one traced repeat, and why any are absent."""
        spans = tracer.spans
        run = [s for s in spans if s.phase == "run"]
        setup = [s for s in spans if s.phase == "setup"]

        def pick(layer, phase_spans=run, name=None):
            return [s for s in phase_spans if s.layer == layer and (name is None or s.name == name)]

        def wall(layer, phase_spans=run):
            return sum(s.wall for s in pick(layer, phase_spans))

        def pct(values, q):
            return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 \
                else (values[0] if values else 0.0)

        n = self.segments
        search = pick("retrieval.search")
        search_ms = [s.wall * 1000 for s in search]
        provider_ms = [s.wall * 1000 for s in pick("llm.provider")]
        delay_ms = self.p["remote_delay_ms"] or 0.0
        post_ms = [s.wall * 1000 - delay_ms for s in pick("http.post")]
        completions = len(pick("llm.complete"))
        retries = pick("llm.retry")
        accepted = sum(s.ok for s in retries) + sum(s.ok for s in pick("gate.llm"))
        repairs = [s for s in retries if s.stage == "format"]
        gets = pick("llm.cache_get")
        parse = pick("extract.parse")
        cpu_only = [s for s in run if s.layer in CPU_ONLY_LAYERS]
        cpu_only_wall = sum(s.wall for s in cpu_only)
        calls = result.provider_calls
        embeds = pick("retrieval.embed_batch")
        out = {
            "model.load_s": wall("model.load", setup),
            "gate.stage_s": wall("gate.stage"),
            "gate.rule_cpu_ms_per_segment": sum(s.cpu for s in pick("gate.rule")) / n * 1000,
            "gate.gated_in_share": result.gated_in / n,
            "retrieval.index_build_s": wall("retrieval.index_build", setup),
            "retrieval.embed_calls": len(embeds),
            "retrieval.embed_texts": sum(s.info["texts"] for s in embeds if s.info),
            "retrieval.search_calls": len(search),
            "retrieval.search_wall_s": sum(search_ms) / 1000,
            "retrieval.search_cpu_s": sum(s.cpu for s in search),
            "retrieval.search_ms_p50": pct(search_ms, 50),
            "retrieval.search_ms_p99": pct(search_ms, 99),
            "prompts.build_calls": len(pick("prompts.build")),
            "prompts.build_cpu_s": sum(s.cpu for s in pick("prompts.build")),
            **{f"llm.calls.{stage}": calls.get(stage, 0)
               for stage in ("presence", "trigger", "argument", "format")},
            "llm.attempts_per_accept": completions / accepted if accepted else 0.0,
            "llm.provider_wait_s": sum(provider_ms) / 1000,
            "llm.provider_ms_p50": pct(provider_ms, 50),
            "llm.provider_ms_p99": pct(provider_ms, 99),
            "llm.cache_hits": sum(1 for s in gets if s.info and s.info["hit"]),
            "llm.cache_misses": sum(1 for s in gets if s.info and not s.info["hit"]),
            "llm.cache_put_s": wall("llm.cache_put"),
            "llm.cache_open_s": wall("llm.cache_open", setup),
            **{f"http.requests.{k}": rep.stub_delta.get(k, 0) for k in STUB_ENDPOINTS},
            "http.connections": rep.stub_delta.get("connections", 0),
            "http.post_ms_p50": pct(post_ms, 50),
            "http.post_ms_p99": pct(post_ms, 99),
            "extract.trigger_stage_s": wall("extract.trigger_stage"),
            "extract.argument_stage_s": wall("extract.argument_stage"),
            "extract.parse_calls": len(parse),
            "extract.parse_cpu_s": sum(s.cpu for s in parse),
            "extract.parse_ms_max": max((s.wall * 1000 for s in parse), default=0.0),
            "extract.parses_per_reply": len(parse) / completions if completions else 0.0,
            "extract.repair_stage_s": wall("extract.repair_stage"),
            "extract.repair_calls": len(pick("prompts.build", name="eventpipe.prompts:build_format_prompt")),
            "extract.repair_success_ratio": (sum(s.ok for s in repairs) / len(repairs)
                                             if repairs else 0.0),
            "pipeline.worker_utilisation": (sum(provider_ms) / 1000
                                            / (rep.wall_s * self.p["workers"])),
            "pipeline.cpu_wait_share": (sum(s.wall - s.cpu for s in cpu_only) / cpu_only_wall
                                        if cpu_only_wall else 0.0),
            "pipeline.artifact_write_s": wall("pipeline.write_artifact"),
            "evaluate.score_s": wall("evaluate.score"),
        }
        return out, self.absent_reasons(tracer, out, repairs)

    def absent_reasons(self, tracer: Tracer, metrics: dict, repairs: list) -> dict:
        """Metric name -> why it has no measurement in this workload."""
        called = {s.layer for s in tracer.spans}
        reasons = {}
        for name in metrics:
            layer = next((lay for prefix, lay in METRIC_SOURCES if name.startswith(prefix)), None)
            if layer in tracer.absent:
                reasons[name] = tracer.absent[layer]
            elif layer is not None and layer not in called:
                if self.p["retrieval_k"] == 0 and layer.startswith("retrieval."):
                    reasons[name] = "k=0: retrieval is bypassed"
                elif self.p["replay"] and layer in ("llm.provider", "llm.cache_put"):
                    reasons[name] = "replay: every completion is a cache hit"
                elif self.stub is None and layer.startswith("http."):
                    reasons[name] = "no remote provider in this workload"
                else:
                    reasons[name] = f"{layer} was not called in this workload"
            elif self.stub is None and name.startswith("http."):
                reasons[name] = "no remote provider in this workload"
        if not repairs:
            reasons["extract.repair_success_ratio"] = "no format repair was attempted"
        return reasons


# --- measurement and report ---------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(bench: Bench, seconds: float, trace: bool) -> list[Repeat]:
    """Repeat until the next repeat would overrun `seconds` (after a minimum)."""
    minimum = MIN_TRACED_REPEATS if trace else MIN_REPEATS
    repeats: list[Repeat] = []
    started = time.perf_counter()
    while True:
        traced = trace and len(repeats) % 2 == 1
        tracer = Tracer() if traced else None
        repeats.append(bench.run_once(tracer))
        if tracer is not None:
            tracer.write(bench.work / "trace.jsonl", len(repeats))
        elapsed = time.perf_counter() - started
        if len(repeats) >= minimum and elapsed * (len(repeats) + 1) / len(repeats) > seconds:
            return repeats


def end_to_end(bench: Bench, repeats: list[Repeat], attempted: int, failed: int) -> dict:
    n = bench.segments
    ok = [r for r in repeats if not r.traced]
    wall = _median([r.wall_s for r in ok])
    return {
        "setup_s": _median([r.setup_s for r in ok]),
        "segments_per_s": n / wall if wall else 0.0,
        "cpu_ms_per_segment": _median([r.cpu_s for r in ok]) / n * 1000,
        "provider_calls_per_segment": _median([r.provider_calls for r in ok]) / n,
        "remote_requests_per_segment":
            _median([sum(r.stub_delta.get(k, 0) for k in STUB_ENDPOINTS) for r in ok]) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_share": failed / attempted,
    }


def per_layer(repeats: list[Repeat]) -> tuple[dict, dict, dict]:
    """Medians of the traced repeats' layer metrics, absent reasons, self times."""
    traced = [r for r in repeats if r.traced and r.layers]
    metrics = {name: _median([r.layers[name] for r in traced]) for name in LAYER_UNITS
               if name != "pipeline.trace_overhead_share"}
    untraced = [r.wall_s for r in repeats if not r.traced and r.wall_s]
    traced_wall = [r.wall_s for r in traced]
    metrics["pipeline.trace_overhead_share"] = (
        _median(traced_wall) / _median(untraced) - 1 if traced_wall and untraced else 0.0
    )
    if not traced:
        return metrics, {name: "no traced repeat completed" for name in metrics}, {}
    return metrics, traced[-1].absent, traced[-1].self_times


def print_table(title: str, metrics: dict, units: dict, absent: dict) -> None:
    print(title)
    for name, unit in units.items():
        note = f"  (absent: {absent[name]})" if name in absent else ""
        print(f"  {name:<32} {metrics[name]:>14.6g} {unit}{note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    # Loopback requests must never be routed to a configured proxy.
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    bench = Bench(args.workload, args.seed)
    try:
        bench.start_stub()
        if bench.p["replay"]:
            bench.run_once()  # pre-warms the cache; also the byte-identity reference
        repeats = measure(bench, args.seconds, bool(args.trace))
    finally:
        bench.close()

    attempted = bench.segments * len(repeats)
    failed = sum(len(r.failed) for r in repeats)
    for i, rep in enumerate(repeats, 1):
        kind = "traced" if rep.traced else "untraced"
        print(f"repeat {i} ({kind}): setup {rep.setup_s:.4f} s, run {rep.wall_s:.4f} s, "
              f"cpu {rep.cpu_s:.4f} s, failed {len(rep.failed)}/{bench.segments}")
        for error in rep.errors:
            print(f"  error: {error}")
    if args.trace:
        metrics, absent, self_times = per_layer(repeats)
        print_table(f"per-layer metrics, {args.workload} seed {args.seed} "
                    f"(median of {sum(r.traced for r in repeats)} traced repeats):",
                    metrics, LAYER_UNITS, absent)
        print("self time by layer in the last traced run (s; wait = wall - thread CPU):")
        for layer, row in sorted(self_times.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {layer:<24} calls {row['calls']:>6}  self {row['self_s']:9.4f}  "
                  f"wall {row['wall_s']:9.4f}  cpu {row['cpu_s']:9.4f}  wait {row['wait_s']:9.4f}")
        declared_metrics, units = declared["per_layer"], LAYER_UNITS
    else:
        metrics = end_to_end(bench, repeats, attempted, failed)
        print_table(f"end-to-end metrics, {args.workload} seed {args.seed} "
                    f"(median of {len(repeats)} repeats, {bench.segments} segments each):",
                    metrics, E2E_UNITS, {})
        declared_metrics, units = declared["end_to_end"], E2E_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": units[m["name"]]}
                    for m in declared_metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
