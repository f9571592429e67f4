"""In-memory span tracing of eventpipe's layers, from outside the package.

Each hook wraps one public function or provider method. A function is
replaced at every `eventpipe.*` module attribute that holds it, because
callers resolve names in their own module (`eventpipe.extract.search`, not
only `eventpipe.retrieval.search`); methods are replaced on their class. A
hook whose target no longer exists is reported as absent, never raised.

A span records name, layer, start, end, parent, segment id, phase and the
thread CPU time spent inside it. Pool threads have no span of their own
above their work, so their top-level spans are parented to the pipeline
stage that is running. Self time is a span's duration minus the part of it
its children cover; wait is wall time minus thread CPU.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# (layer, target, kind). Kind "stage" marks a pipeline stage, whose span is
# the parent of pool-thread spans; "detached" spans are recorded but are
# nobody's parent or child, so the HTTP time stays in the provider's self time.
HOOKS = [
    ("model.load", "eventpipe.model:load_gold", ""),
    ("model.load", "eventpipe.model:load_ontology", ""),
    ("model.load", "eventpipe.model:load_transcripts", ""),
    ("pipeline.run", "eventpipe.pipeline:Pipeline.run", ""),
    ("pipeline.write_artifact", "eventpipe.pipeline:write_artifact", ""),
    ("gate.stage", "eventpipe.pipeline:Pipeline.run_gate", "stage"),
    ("gate.lexicon", "eventpipe.gate:build_lexicon", ""),
    ("gate.rule", "eventpipe.gate:rule_classify", ""),
    ("gate.learned", "eventpipe.gate:learned_classify", ""),
    ("gate.verdict", "eventpipe.gate:FileVerdictProvider.presence_probability", ""),
    ("gate.verdict", "eventpipe.gate:HttpVerdictProvider.presence_probability", ""),
    ("gate.llm", "eventpipe.gate:llm_classify", ""),
    ("retrieval.index_build", "eventpipe.retrieval:build_index", ""),
    ("retrieval.retrieve", "eventpipe.extract:retrieve_examples", ""),
    ("retrieval.embed", "eventpipe.retrieval:embed", ""),
    ("retrieval.embed_batch", "eventpipe.retrieval:HashedBagEmbedder.embed_batch", ""),
    ("retrieval.embed_batch", "eventpipe.retrieval:HttpEmbeddingProvider.embed_batch", ""),
    ("retrieval.search", "eventpipe.retrieval:search", ""),
    ("prompts.build", "eventpipe.prompts:build_presence_prompt", ""),
    ("prompts.build", "eventpipe.prompts:build_trigger_prompt", ""),
    ("prompts.build", "eventpipe.prompts:build_argument_prompt", ""),
    ("prompts.build", "eventpipe.prompts:build_format_prompt", ""),
    ("llm.retry", "eventpipe.llm:complete_with_retry", ""),
    ("llm.complete", "eventpipe.llm:cached_complete", ""),
    ("llm.provider", "eventpipe.llm:ScriptedMockLlm.complete", ""),
    ("llm.provider", "eventpipe.llm:HttpLlmProvider.complete", ""),
    ("llm.cache_open", "eventpipe.llm:ResponseCache.__init__", ""),
    ("llm.cache_get", "eventpipe.llm:ResponseCache.get", ""),
    ("llm.cache_put", "eventpipe.llm:ResponseCache.put", ""),
    ("http.post", "eventpipe._http:post_json", "detached"),
    ("extract.trigger_stage", "eventpipe.pipeline:Pipeline.run_triggers", "stage"),
    ("extract.argument_stage", "eventpipe.pipeline:Pipeline.run_arguments", "stage"),
    ("extract.repair_stage", "eventpipe.pipeline:Pipeline.run_final", "stage"),
    ("extract.triggers", "eventpipe.extract:extract_triggers", ""),
    ("extract.arguments", "eventpipe.extract:extract_arguments", ""),
    ("extract.parse_reply", "eventpipe.extract:parse_trigger_reply", ""),
    ("extract.parse_reply", "eventpipe.extract:parse_argument_reply", ""),
    ("extract.parse", "eventpipe.extract:recover_json_tail", ""),
    ("extract.postprocess", "eventpipe.extract:postprocess", ""),
    ("evaluate.score", "eventpipe.evaluate:score", ""),
]


class Span:
    __slots__ = ("id", "name", "layer", "parent", "segment", "phase", "thread",
                 "start", "end", "cpu", "ok", "stage", "info", "detached")

    def to_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @property
    def wall(self) -> float:
        return self.end - self.start


def _call_context(args) -> tuple[str | None, str | None]:
    """(segment id, prompt stage) of a call, read from its arguments."""
    segment = stage = None
    for arg in args:
        if segment is None:
            if isinstance(getattr(arg, "segment_id", None), str):
                segment = arg.segment_id
            elif type(arg).__name__ == "Segment":
                segment = arg.id
        if stage is None and hasattr(arg, "messages") and isinstance(getattr(arg, "stage", None), str):
            stage = arg.stage
    return segment, stage


def _note(layer: str, args, result) -> dict | None:
    if layer == "retrieval.embed_batch":
        return {"texts": len(args[1])}
    if layer == "llm.cache_get":
        return {"hit": result is not None}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self.absent: dict[str, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stage: Span | None = None
        self._restore: list[tuple[object, str, object]] = []

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every hook target; a layer none of whose targets exist is absent."""
        missing: dict[str, list[str]] = defaultdict(list)
        hooked: set[str] = set()
        for layer, target, kind in HOOKS:
            try:
                self._hook(layer, target, kind)
                hooked.add(layer)
            except (ImportError, AttributeError, KeyError) as exc:
                missing[layer].append(f"{target} ({type(exc).__name__}: {exc})")
        for layer in missing.keys() - hooked:
            self.absent[layer] = "hook not found: " + ", ".join(missing[layer])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _hook(self, layer: str, target: str, kind: str) -> None:
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, method = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method]
            self._replace(owner, method, self._wrap(layer, target, kind, original))
            return
        original = getattr(module, path)
        wrapper = self._wrap(layer, target, kind, original)
        for name, mod in list(sys.modules.items()):
            if name == "eventpipe" or name.startswith("eventpipe."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, wrapper)

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, layer: str, target: str, kind: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(layer, target, kind, fn, args, kwargs)

        return wrapper

    # --- recording ----------------------------------------------------------

    def _call(self, layer, target, kind, fn, args, kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._stage
        span = Span()
        span.id = next(self._ids)
        span.name, span.layer, span.phase = target, layer, self.phase
        span.detached = kind == "detached"
        span.parent = None if span.detached or parent is None else parent.id
        segment, span.stage = _call_context(args)
        span.segment = segment or (parent.segment if parent is not None else None)
        span.thread = threading.get_ident()
        span.ok, span.info = False, None
        if not span.detached:
            stack.append(span)
        if kind == "stage":
            outer, self._stage = self._stage, span
        cpu0 = time.thread_time()
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            span.ok = True
            span.info = _note(layer, args, result)
            return result
        finally:
            span.end = time.perf_counter()
            span.cpu = time.thread_time() - cpu0
            if kind == "stage":
                self._stage = outer
            if not span.detached:
                stack.pop()
            self.spans.append(span)

    # --- analysis -------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out = {}
        for span in self.spans:
            covered, reach = 0.0, span.start
            for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[span.id] = span.wall - covered
        return out

    def layer_summary(self, phase: str = "run") -> dict[str, dict]:
        """Per layer: calls, wall, self, thread CPU and wait (wall - CPU) seconds.

        Detached spans are left out: their time is already inside their
        caller's self time.
        """
        selfs = self.self_times()
        summary: dict[str, dict] = {}
        for span in self.spans:
            if span.phase != phase or span.detached:
                continue
            row = summary.setdefault(
                span.layer, {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "cpu_s": 0.0, "wait_s": 0.0}
            )
            row["calls"] += 1
            row["wall_s"] += span.wall
            row["self_s"] += selfs[span.id]
            row["cpu_s"] += span.cpu
            row["wait_s"] += span.wall - span.cpu
        return summary

    def write(self, path: Path, repeat: int) -> None:
        with path.open("a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"repeat": repeat, **span.to_dict()}) + "\n")
