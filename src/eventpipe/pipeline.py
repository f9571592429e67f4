"""Pipeline execution: gate, triggers, arguments, final, score.

A run has two phases over the segments, both on one worker pool. The gate
phase fetches every learned verdict in batches, then runs each segment's
rule, learned and LLM verdicts. Between the phases, every segment that will
retrieve few-shot examples has its text embedded, all in one embed_batch
call. The extraction phase then runs trigger recognition, argument
extraction and repair per segment from the stored query vector, each
argument reply parsed once. Each stage has one JSONL artifact whose header
line records the stage name, the config hash and the inputs digest (the
contents of the input files); its rows are projections of the per-segment
records, written in stage order once both phases finish, so a crash mid-run
leaves only the completion cache to resume from. Under --resume a stage
with a matching artifact is replayed instead of recomputed; an artifact
built from other input contents is recomputed, and a config hash mismatch
aborts rather than silently mixing runs. Artifacts carry no wall-clock
data, so two identical runs produce byte-identical stage files (timestamps
live only in run.json).
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

import numpy as np

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
from .retrieval import (
    FewShotExample,
    SupportIndex,
    build_index,
    embed_texts,
    load_index,
    save_index,
)

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


def write_artifact(
    path: Path, stage: str, config_hash: str, inputs: str, rows: Sequence[dict]
) -> None:
    """Write a stage artifact: self-describing header line, then sorted rows."""
    write_rows(path, [{"stage": stage, "config_hash": config_hash, "inputs": inputs}, *rows])


def read_artifact(path: Path, stage: str, config_hash: str, inputs: str) -> list[dict] | None:
    """Load a stage artifact's rows; raise ResumeError on a foreign header.

    None if the file is absent or was built from other input contents
    (another inputs digest): the stage is then recomputed. Only the header
    is read in that case.
    """
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
    if header.get("inputs") != inputs:
        return None
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
    inputs: str = ""
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


def _gated_in(rows: dict[str, dict | None]) -> bool:
    return bool(rows.get("gate") and rows["gate"]["gated_in"])


def _has_triggers(rows: dict[str, dict | None]) -> bool:
    """Whether the segment's trigger row exists, did not fail and holds predictions."""
    row = rows.get("triggers")
    return bool(row and not row["failed"] and row["predictions"])


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

    # --- two-phase flow ------------------------------------------------------

    def _artifact(self, stage: str) -> Path:
        return self.out_dir / ARTIFACT_NAMES[stage]

    def _load_if_resuming(self, stage: str) -> list[dict] | None:
        if not self.resume:
            return None
        rows = read_artifact(self._artifact(stage), stage, self.config_hash, self._result.inputs)
        if rows is not None:
            self._result.resumed_stages.append(stage)
        return rows

    def _gate(self, segments: list[Segment], pool: ThreadPoolExecutor) -> list[dict]:
        """The gate phase: learned verdicts fetched in batches, then a verdict triple per segment."""
        cfg = self.config
        ontology, cache = self.ontology, self.cache
        lexicon = build_lexicon(self.support)
        learned = [False] * len(segments)
        if cfg.learned:
            provider = build_verdict_provider(cfg.learned)
            learned = learned_classify(segments, provider, threshold=cfg.gate_threshold)
        # A precomputed LLM verdict file replaces the presence prompt.
        llm_file: list[bool | None] = [None] * len(segments)
        if cfg.gate_llm_file:
            probabilities = FileVerdictProvider(cfg.gate_llm_file).presence_probabilities(segments)
            llm_file = [p >= 0.5 for p in probabilities]
        presence_llm = None if cfg.gate_llm_file else self.llm_for("presence")

        def gate(seg: Segment, learned: bool, llm: bool | None) -> dict:
            rule = rule_classify(seg, lexicon)
            if llm is None:
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

        return list(pool.map(gate, segments, learned, llm_file))

    def _queries(
        self, segments: list[Segment], records: list[SegmentRecord], computed: set[str]
    ) -> dict[str, np.ndarray]:
        """Unit query vectors of the segments that will retrieve, from one embed_batch call.

        With triggers computed, those are the gated-in segments; with only
        arguments computed, the segments whose trigger row holds predictions.
        A blank text retrieves nothing and is not embedded. Only a retrieving
        stage builds the index, so replaying both embeds nothing.
        """
        if not computed & {"triggers", "arguments"} or self.index is None:
            return {}
        retrieves = _gated_in if "triggers" in computed else _has_triggers
        wanted = [
            seg
            for seg, record in zip(segments, records)
            if seg.text.strip() and retrieves(record.rows)
        ]
        if not wanted:
            return {}
        vectors = embed_texts([seg.text for seg in wanted], self.embedder)
        return {seg.id: vec for seg, vec in zip(wanted, vectors)}

    def _extraction_task(self, computed: set[str], queries: dict[str, np.ndarray]):
        """The extraction phase's pool task: one segment's triggers, arguments and repair."""
        cfg = self.config
        ontology, cache = self.ontology, self.cache
        # queries is empty unless a retrieving stage built the index.
        index = self.index if queries else None
        trigger_llm = self.llm_for("trigger") if "triggers" in computed else None
        argument_llm = self.llm_for("argument") if "arguments" in computed else None
        format_llm = self.llm_for("format") if "final" in computed else None
        retry = dict(cache=cache, max_attempts=cfg.max_attempts, templates_dir=cfg.templates)
        extraction = dict(k=cfg.retrieval_k, corrective=cfg.corrective, **retry)

        def process(seg: Segment, record: SegmentRecord) -> None:
            rows = record.rows
            query = queries.get(seg.id)
            if "triggers" in computed and _gated_in(rows):
                found = extract_triggers(seg, index, ontology, trigger_llm, query, **extraction)
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
            triggers = []
            if _has_triggers(rows):
                triggers = [
                    TriggerPrediction(seg.id, p["trigger"], p["type"])
                    for p in rows["triggers"]["predictions"]
                ]
            result = None
            if "arguments" in computed and triggers:
                result = extract_arguments(
                    seg,
                    triggers,
                    index,
                    ontology,
                    argument_llm,
                    query,
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
        result.inputs = cfg.inputs_digest()
        started = time.time()

        stop = STAGE_ORDER.index(until)
        stages = [stage for stage in ARTIFACT_NAMES if STAGE_ORDER.index(stage) <= stop]
        replayed = {}
        for stage in stages:
            rows = self._load_if_resuming(stage)
            if rows is not None:
                replayed[stage] = {row["id"]: row for row in rows}
        computed = {stage for stage in stages if stage not in replayed}
        # A segment missing from a replayed artifact never reached that stage.
        records = [
            SegmentRecord({stage: by_id.get(seg.id) for stage, by_id in replayed.items()})
            for seg in segments
        ]
        # One pool serves both phases. Each phase resolves its shared
        # resources before it maps: the lazy properties and llm_for are
        # check-then-set, so resolving them in pool threads could build a
        # second cache or provider.
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            if "gate" in computed:
                for record, row in zip(records, self._gate(segments, pool)):
                    record.rows["gate"] = row
            if computed - {"gate"}:
                queries = self._queries(segments, records, computed)
                list(pool.map(self._extraction_task(computed, queries), segments, records))
        artifacts = {
            stage: [rec.rows[stage] for rec in records if rec.rows.get(stage)] for stage in stages
        }
        for stage in stages:
            if stage in computed:
                write_artifact(
                    self._artifact(stage), stage, self.config_hash, result.inputs, artifacts[stage]
                )

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
            "inputs": result.inputs,
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
