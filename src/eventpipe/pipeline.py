"""Pipeline execution: gate, triggers, arguments, final, score.

One pool task per segment runs every stage up to the requested one: gate,
trigger recognition, argument extraction and repair, each argument reply
parsed once. Each stage has one JSONL artifact whose header line records the
stage name and the config hash; its rows are projections of the per-segment
records, written in stage order once the pool finishes, so a crash mid-run
leaves only the completion cache to resume from. Under --resume a stage with
a matching artifact is replayed instead of recomputed; a hash mismatch aborts
rather than silently mixing runs. Artifacts carry no wall-clock data, so two
identical runs produce byte-identical stage files (timestamps live only in
run.json).
"""
from __future__ import annotations

import json
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .config import (
    ConfigError,
    PipelineConfig,
    build_embedding_provider,
    build_llm_provider,
    build_verdict_provider,
)
from .evaluate import ScoreReport, score
from .extract import (
    ArgumentStageResult,
    PostprocessEntry,
    RawStageOutput,
    TriggerPrediction,
    extract_arguments,
    extract_triggers,
    recover_json_tail,
    repair_arguments,
)
from .gate import (
    FileVerdictProvider,
    VerdictTriple,
    build_lexicon,
    learned_classify,
    llm_classify,
    rule_classify,
    vote,
)
from .llm import LlmProvider, ResponseCache
from .model import (
    DatasetError,
    LabeledSegment,
    Segment,
    _parse_event,
    check_rows,
    event_to_dict,
    iter_json_records,
    load_gold,
    load_ontology,
    load_transcripts,
    write_json,
    write_rows,
)
from .prompts import PromptBundle
from .retrieval import FewShotExample, SupportIndex, build_index, load_index, save_index

__all__ = [
    "CountingEmbedder",
    "CountingLlm",
    "Pipeline",
    "ResumeError",
    "RunResult",
    "STAGE_ORDER",
    "read_artifact",
    "write_artifact",
]

STAGE_ORDER = ("gate", "triggers", "arguments", "final", "score")

ARTIFACT_NAMES = {
    "gate": "gate.jsonl",
    "triggers": "triggers.jsonl",
    "arguments": "arguments.jsonl",
    "final": "final.jsonl",
}


class ResumeError(ConfigError):
    """A resumed artifact does not belong to this configuration."""


def write_artifact(path: Path, stage: str, config_hash: str, rows: Sequence[dict]) -> None:
    """Write a stage artifact: self-describing header line, then sorted rows."""
    write_rows(path, [{"stage": stage, "config_hash": config_hash}, *rows])


def read_artifact(path: Path, stage: str, config_hash: str) -> list[dict] | None:
    """Load a stage artifact if present; raise ResumeError on a foreign header."""
    if not path.exists():
        return None
    records = iter_json_records(path)
    lineno, header = next(records, (0, None))
    if header is None:
        raise ResumeError(f"{path}: empty artifact")
    if not isinstance(header, dict):
        raise DatasetError(f"{path}: header at line {lineno} is not an object")
    if header.get("stage") != stage:
        raise ResumeError(f"{path}: artifact is for stage {header.get('stage')!r}, not {stage!r}")
    if header.get("config_hash") != config_hash:
        raise ResumeError(
            f"{path}: artifact config hash {header.get('config_hash')!r} does not match "
            f"this configuration ({config_hash!r}); delete the output directory or fix the config"
        )
    return [row for _, row in check_rows(path, records)]


class CountingLlm(LlmProvider):
    """Wrapper that counts actual provider completions, labeled by stage."""

    def __init__(self, inner: LlmProvider):
        self.inner = inner
        self.counts: Counter = Counter()
        self._lock = threading.Lock()

    @property
    def provider_id(self) -> str:
        return self.inner.provider_id

    def complete(self, bundle: PromptBundle) -> str:
        with self._lock:
            self.counts[bundle.stage] += 1
        return self.inner.complete(bundle)


class CountingEmbedder:
    """Wrapper that counts texts sent to the embedding provider."""

    def __init__(self, inner):
        self.inner = inner
        self.texts_embedded = 0
        self._lock = threading.Lock()

    def embed_batch(self, texts):
        with self._lock:
            self.texts_embedded += len(texts)
        return self.inner.embed_batch(texts)


@dataclass
class RunResult:
    report: ScoreReport | None
    config_hash: str
    output_dir: Path
    provider_calls: dict = field(default_factory=dict)
    texts_embedded: int = 0
    gated_in: int = 0
    gated_out: int = 0
    trigger_failures: list[str] = field(default_factory=list)
    argument_degraded: list[str] = field(default_factory=list)
    formatting_attempts: int = 0
    resumed_stages: list[str] = field(default_factory=list)
    predictions_path: Path | None = None
    report_path: Path | None = None


@dataclass
class SegmentRecord:
    """One segment's artifact row per stage (None: not reached), and its repair outcome."""

    rows: dict[str, dict | None]
    repair: PostprocessEntry | None = None


def _argument_result(row: dict) -> ArgumentStageResult:
    """Rebuild a replayed argument row's result; only a failed row's reply is parsed again."""
    raw = RawStageOutput(row["id"], "argument", row["raw"], row["attempts"])
    return ArgumentStageResult(
        row["id"],
        tuple(_parse_event(obj, row["id"]) for obj in row["events"]),
        raw,
        row["failed"],
        tuple(row["examples"]),
        recover_json_tail(row["raw"]) if row["failed"] else None,
    )


class Pipeline:
    """One configured run over one corpus, with stage-level resume."""

    def __init__(self, config: PipelineConfig, *, resume: bool = False):
        self.config = config
        self.resume = resume
        self.out_dir = Path(config.output_dir)
        self.config_hash = config.config_hash()
        self._providers: dict[str, CountingLlm] = {}
        self._embedder: CountingEmbedder | None = None
        self._index: SupportIndex | None = None
        self._cache: ResponseCache | None = None
        self._ontology = None
        self._support: list[LabeledSegment] | None = None
        self._result = RunResult(None, self.config_hash, self.out_dir)

    # --- lazy shared resources -------------------------------------------

    @property
    def ontology(self):
        if self._ontology is None:
            self._ontology = load_ontology(self.config.ontology)
        return self._ontology

    @property
    def support(self) -> list[LabeledSegment]:
        if self._support is None:
            self._support = load_gold(self.config.support, self.ontology)
        return self._support

    @property
    def cache(self) -> ResponseCache | None:
        if self._cache is None and self.config.cache:
            self._cache = ResponseCache(self.config.cache)
        return self._cache

    def llm_for(self, stage: str) -> CountingLlm:
        pcfg = self.config.llm_for_stage(stage)
        key = json.dumps(pcfg.to_dict(), sort_keys=True)
        if key not in self._providers:
            self._providers[key] = CountingLlm(build_llm_provider(pcfg))
        return self._providers[key]

    @property
    def embedder(self) -> CountingEmbedder:
        if self._embedder is None:
            self._embedder = CountingEmbedder(build_embedding_provider(self.config.embedding))
        return self._embedder

    def support_examples(self) -> list[FewShotExample]:
        """Support segments whose text normalizes to something (strip() tells the same)."""
        return [
            FewShotExample(
                example_id=ls.segment.id, text=ls.segment.text, gold_events=ls.gold_events
            )
            for ls in self.support
            if ls.segment.text.strip()
        ]

    @property
    def index(self) -> SupportIndex | None:
        """Built (or loaded) on first use so fully resumed runs embed nothing.

        A saved index built with another embedding config or from other
        support ids or texts is rebuilt and saved again.
        """
        if self.config.retrieval_k <= 0:
            return None
        if self._index is None:
            examples = self.support_examples()
            index_path = self.config.index
            embedding = self.config.embedding.to_dict()
            if index_path and Path(index_path).exists():
                self._index = load_index(index_path, examples, embedding=embedding)
            if self._index is None:
                self._index = build_index(examples, self.embedder)
                if index_path:
                    save_index(self._index, index_path, embedding=embedding)
        return self._index

    # --- per-segment flow ----------------------------------------------------

    def _artifact(self, stage: str) -> Path:
        return self.out_dir / ARTIFACT_NAMES[stage]

    def _load_if_resuming(self, stage: str) -> list[dict] | None:
        if not self.resume:
            return None
        rows = read_artifact(self._artifact(stage), stage, self.config_hash)
        if rows is not None:
            self._result.resumed_stages.append(stage)
        return rows

    def _map(self, fn, items):
        if len(items) <= 1 or self.config.workers == 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=self.config.workers) as pool:
            return list(pool.map(fn, items))

    def _segment_task(self, computed: set[str], replayed: dict[str, dict[str, dict]]):
        """The pool task: one segment's replayed rows, then its computed stages in order.

        Every shared resource is resolved here, before the pool starts: the
        lazy properties and llm_for are check-then-set, so resolving them
        inside pool threads could build a second cache or provider.
        """
        cfg = self.config
        ontology = self.ontology
        cache = self.cache if computed else None
        if "gate" in computed:
            lexicon = build_lexicon(self.support)
            learned_provider = build_verdict_provider(cfg.learned) if cfg.learned else None
            llm_file = FileVerdictProvider(cfg.gate_llm_file) if cfg.gate_llm_file else None
            presence_llm = None if llm_file is not None else self.llm_for("presence")
        # Only a retrieving stage builds the index, so replaying both embeds nothing.
        index = self.index if computed & {"triggers", "arguments"} else None
        embedder = self.embedder if index is not None else None
        trigger_llm = self.llm_for("trigger") if "triggers" in computed else None
        argument_llm = self.llm_for("argument") if "arguments" in computed else None
        format_llm = self.llm_for("format") if "final" in computed else None
        retry = dict(cache=cache, max_attempts=cfg.max_attempts, templates_dir=cfg.templates)
        extraction = dict(k=cfg.retrieval_k, corrective=cfg.corrective, **retry)

        def gate(seg: Segment) -> dict:
            rule = rule_classify(seg, lexicon)
            learned = (
                learned_classify(seg, learned_provider, threshold=cfg.gate_threshold)
                if learned_provider is not None
                else False
            )
            if llm_file is not None:
                llm = llm_file.presence_probability(seg) >= 0.5
            else:
                llm = llm_classify(
                    seg,
                    presence_llm,
                    ontology,
                    cache=cache,
                    lenient=cfg.gate_lenient_llm,
                    templates_dir=cfg.templates,
                )
            triple = VerdictTriple(rule=rule, learned=learned, llm=llm)
            return {
                "id": seg.id,
                "rule": rule,
                "learned": learned,
                "llm": llm,
                "gated_in": vote(triple, cfg.policy),
            }

        def process(seg: Segment) -> SegmentRecord:
            # A segment missing from a replayed artifact never reached that stage.
            rows = {stage: by_id.get(seg.id) for stage, by_id in replayed.items()}
            record = SegmentRecord(rows)
            if "gate" in computed:
                rows["gate"] = gate(seg)
            if "triggers" in computed and rows["gate"] and rows["gate"]["gated_in"]:
                found = extract_triggers(seg, index, ontology, trigger_llm, embedder, **extraction)
                rows["triggers"] = {
                    "id": seg.id,
                    "predictions": [
                        {"trigger": p.trigger, "type": p.event_type} for p in found.predictions
                    ],
                    "raw": found.raw.raw_text,
                    "attempts": found.raw.attempts,
                    "failed": found.failed,
                    "examples": list(found.example_ids),
                }
            trigger_row = rows.get("triggers")
            triggers = []
            if trigger_row and not trigger_row["failed"]:
                triggers = [
                    TriggerPrediction(seg.id, p["trigger"], p["type"])
                    for p in trigger_row["predictions"]
                ]
            result = None
            if "arguments" in computed and triggers:
                result = extract_arguments(
                    seg,
                    triggers,
                    index,
                    ontology,
                    argument_llm,
                    embedder,
                    same_type_filter=cfg.same_type_filter,
                    **extraction,
                )
                rows["arguments"] = {
                    "id": seg.id,
                    "events": [event_to_dict(ev) for ev in result.events],
                    "raw": result.raw.raw_text,
                    "attempts": result.raw.attempts,
                    "failed": result.failed,
                    "examples": list(result.example_ids),
                }
            elif "final" in computed and rows.get("arguments"):
                result = _argument_result(rows["arguments"])
            if "final" in computed:
                if result is not None:
                    record.repair = repair_arguments(
                        result, triggers, ontology, format_llm, **retry
                    )
                events = record.repair.events if record.repair else ()
                rows["final"] = {"id": seg.id, "event": [event_to_dict(ev) for ev in events]}
            return record

        return process

    # --- orchestration ------------------------------------------------------

    def run(self, until: str = "score") -> RunResult:
        if until not in STAGE_ORDER:
            raise ConfigError(f"unknown stage {until!r}; expected one of {STAGE_ORDER}")
        cfg = self.config
        self.out_dir.mkdir(parents=True, exist_ok=True)
        transcripts = load_transcripts(cfg.transcripts)
        gold = load_gold(cfg.gold, self.ontology)
        gold_ids = {ls.segment.id for ls in gold}
        stray = sorted(s.id for s in transcripts if s.id not in gold_ids)
        if stray:
            raise DatasetError(f"transcript ids missing from gold: {stray[:5]}")
        segments = sorted(transcripts, key=lambda s: s.id)
        result = self._result
        started = time.time()

        stop = STAGE_ORDER.index(until)
        stages = [stage for stage in ARTIFACT_NAMES if STAGE_ORDER.index(stage) <= stop]
        replayed = {}
        for stage in stages:
            rows = self._load_if_resuming(stage)
            if rows is not None:
                replayed[stage] = {row["id"]: row for row in rows}
        computed = {stage for stage in stages if stage not in replayed}
        records = self._map(self._segment_task(computed, replayed), segments)
        artifacts = {
            stage: [rec.rows[stage] for rec in records if rec.rows.get(stage)] for stage in stages
        }
        for stage in stages:
            if stage in computed:
                write_artifact(self._artifact(stage), stage, self.config_hash, artifacts[stage])

        gate_rows = artifacts["gate"]
        result.gated_in = sum(1 for r in gate_rows if r["gated_in"])
        result.gated_out = len(gate_rows) - result.gated_in
        if "triggers" in artifacts:
            result.trigger_failures = [r["id"] for r in artifacts["triggers"] if r["failed"]]
        repairs = [rec.repair for rec in records if rec.repair is not None]
        result.argument_degraded = [e.segment_id for e in repairs if e.degraded]
        result.formatting_attempts = sum(e.formatting_attempts for e in repairs)
        if "final" in artifacts:
            final_rows = artifacts["final"]
            predictions_path = self.out_dir / "predictions.jsonl"
            write_rows(predictions_path, final_rows)
            result.predictions_path = predictions_path
        if stop >= STAGE_ORDER.index("score"):
            predictions = {
                row["id"]: [_parse_event(obj, row["id"]) for obj in row["event"]]
                for row in final_rows
            }
            gold_by_id = {ls.segment.id: list(ls.gold_events) for ls in gold}
            result.report = score(
                predictions,
                gold_by_id,
                set_semantics=cfg.set_semantics,
                gated_out=result.gated_out,
                extraction_failed=len(result.trigger_failures),
            )
            report_path = self.out_dir / "report.json"
            write_json(report_path, result.report.to_dict())
            result.report_path = report_path

        result.provider_calls = self._collect_calls()
        result.texts_embedded = self._embedder.texts_embedded if self._embedder else 0
        run_meta = {
            "config_hash": self.config_hash,
            "started_at": started,
            "finished_at": time.time(),
            "until": until,
            "resumed_stages": result.resumed_stages,
            "provider_calls": result.provider_calls,
            "texts_embedded": result.texts_embedded,
            "gated_in": result.gated_in,
            "gated_out": result.gated_out,
            "trigger_failures": result.trigger_failures,
            "argument_degraded": result.argument_degraded,
            "formatting_attempts": result.formatting_attempts,
            "score": result.report.to_dict() if result.report else None,
        }
        write_json(self.out_dir / "run.json", run_meta)
        return result

    def _collect_calls(self) -> dict:
        calls: Counter = Counter()
        for wrapper in self._providers.values():
            calls.update(wrapper.counts)
        out = {stage: calls[stage] for stage in sorted(calls)}
        out["total"] = sum(calls.values())
        return out
