"""Pipeline execution: gate, triggers, arguments, final, score.

A run has two phases over the segments. With more than one worker and a
chat provider that waits on the network, both run on one worker pool, which
overlaps the waits; otherwise both run on the calling thread, where no thread
hand-off adds CPU. The gate phase fetches every learned verdict in batches,
then runs each segment's rule, learned and LLM verdicts. Between the phases,
the query phase embeds the text of every segment that will retrieve few-shot
examples, all in one embed_batch call, and scores them in one search, which
reads the support matrix once per group of up to 64 queries, in row blocks
that run as tasks on the pool, if there is one. It keeps each segment's top-k
rows and, when same_type_filter is on and arguments are computed, each event
type's shortlist. The extraction phase then runs trigger recognition,
argument extraction and repair per segment with those examples (a same-type
argument search, which needs the predicted types, rescores there the union
of those types' shortlists and reads no other row), each argument reply
parsed once.
Each stage has a record in STAGES and one JSONL artifact, whose header line
records the stage name, the config hash and the inputs digest (of the input
files' contents); later stages read its rows as they are, computed or replayed.
The artifacts are written in stage order once both phases finish, so a crash
mid-run leaves only the completion cache to resume from. Under --resume the
stages are replayed in order up to the first one without a matching artifact
(absent, or built from other input contents); that stage and every later one
are recomputed, so no replayed row rests on a recomputed one. A config hash
mismatch in any present artifact aborts rather than silently mixing runs;
of an artifact after the first recomputed stage only that header is read.
Artifacts carry no wall-clock data, so two identical runs produce
byte-identical stage files (timestamps live only in run.json).

Every input file is read in one place, Pipeline._input, once per run; the
inputs digest is taken of the bytes read there, and each loader parses those
same bytes. Each computed stage's template is parsed once, before the first
provider call, so a template edited during a run takes effect at the next run.
"""
from __future__ import annotations

import hashlib
import io
import json
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence

from .config import (
    ConfigError,
    PipelineConfig,
    build_embedding_provider,
    build_llm_provider,
    build_verdict_provider,
)
from .evaluate import ScoreReport, events_by_id, score
from .extract import (
    PostprocessEntry,
    extract_arguments,
    extract_triggers,
    recover_json_tail,
    repair_arguments,
    retrieve_examples,
)
from .gate import (
    FileVerdictProvider,
    build_lexicon,
    learned_classify,
    llm_classify,
    rule_classify,
    vote,
)
from .llm import LlmProvider, ResponseCache
from .model import (
    DatasetError,
    LabeledRows,
    Ontology,
    Segment,
    check_event,
    check_rows,
    iter_json_records,
    load_gold,
    load_ontology,
    load_transcripts,
    write_json,
    write_rows,
)
from .prompts import PromptBundle, Template, load_template
from .retrieval import (
    EmbeddingProvider,
    Hits,
    SupportIndex,
    build_index,
    embed_texts,
    load_index,
    save_index,
    search,
)

__all__ = [
    "CountingLlm",
    "Pipeline",
    "ResumeError",
    "RunResult",
    "STAGES",
    "STAGE_ORDER",
    "read_artifact",
    "write_artifact",
]


@dataclass(frozen=True)
class Stage:
    """An artifact stage: its name (of <name>.jsonl), prompt stage, row fields and event field."""

    name: str
    prompt: str
    fields: tuple[str, ...]
    events: str | None = None


_REPLY_FIELDS = ("raw", "attempts", "failed", "examples")  # beside a reply row's id and events
# Every artifact stage, in stage order. A trigger prediction is an event without arguments.
STAGES = (
    Stage("gate", "presence", ("id", "rule", "learned", "llm", "gated_in")),
    Stage("triggers", "trigger", ("id", "predictions", *_REPLY_FIELDS), "predictions"),
    Stage("arguments", "argument", ("id", "events", *_REPLY_FIELDS), "events"),
    Stage("final", "format", ("id", "event"), "event"),
)
STAGE_ORDER = (*(stage.name for stage in STAGES), "score")

class ResumeError(ConfigError):
    """A resumed artifact does not belong to this configuration."""


def write_artifact(
    path: Path, stage: str, config_hash: str, inputs: str, rows: Sequence[dict]
) -> None:
    """Write a stage artifact: self-describing header line, then sorted rows."""
    write_rows(path, [{"stage": stage, "config_hash": config_hash, "inputs": inputs}, *rows])


def _artifact_records(
    path: Path, stage: str, config_hash: str, inputs: str
) -> Iterator[tuple[int, dict]] | None:
    """The records after a stage artifact's checked header line; ResumeError on a foreign one.

    None if the file is absent or was built from other input contents
    (another inputs digest). Only the header line is read.
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
    return records if header.get("inputs") == inputs else None


def read_artifact(
    path: Path, stage: str, config_hash: str, inputs: str, ontology: Ontology
) -> list[dict] | None:
    """Load a stage artifact's rows, as read; raise ResumeError on a foreign header.

    None if the file is absent or was built from other input contents
    (another inputs digest): the stage is then recomputed. Only the header
    is read in that case. A row without the stage's fields, with a field
    that check_rows rejects, or whose event list holds an event that
    check_event rejects against the ontology, is a DatasetError naming the
    line.
    """
    records = _artifact_records(path, stage, config_hash, inputs)
    if records is None:
        return None
    rows = []
    (spec,) = [s for s in STAGES if s.name == stage]
    for lineno, row in check_rows(path, records, spec.fields):
        try:
            for obj in row[spec.events] if spec.events else ():
                check_event(obj, row["id"], ontology)
        except DatasetError as exc:
            raise DatasetError(f"{path}: line {lineno}: {exc}") from exc
        rows.append(row)
    return rows


class CountingLlm(LlmProvider):
    """Wrapper that counts actual provider completions, labeled by stage."""

    def __init__(self, inner: LlmProvider):
        self.inner = inner
        self.counts: Counter = Counter()
        self._lock = threading.Lock()

    @property
    def provider_id(self) -> str:
        return self.inner.provider_id

    @property
    def waits(self) -> bool:
        return self.inner.waits

    def complete(self, bundle: PromptBundle) -> str:
        with self._lock:
            self.counts[bundle.stage] += 1
        return self.inner.complete(bundle)


# RunResult fields that run.json leaves out: where the outputs went, the
# stage rows, which the artifacts hold, and the report, which it holds as "score".
_NOT_IN_RUN_JSON = ("report", "output_dir", "predictions_path", "report_path", "rows")


@dataclass
class RunResult:
    """What a run did; run.json is written from it (see to_dict)."""

    report: ScoreReport | None
    config_hash: str
    output_dir: Path
    until: str
    inputs: str = ""
    started_at: float = 0.0
    finished_at: float = 0.0
    provider_calls: dict = field(default_factory=dict)
    texts_embedded: int = 0
    gated_in: int = 0
    gated_out: int = 0
    trigger_failures: list[str] = field(default_factory=list)
    # Counted from the repairs this run made: None when it replayed the final
    # stage, whose rows do not record their repair.
    argument_degraded: list[str] | None = field(default_factory=list)
    formatting_attempts: int | None = 0
    resumed_stages: list[str] = field(default_factory=list)
    predictions_path: Path | None = None
    report_path: Path | None = None
    # Each artifact stage's rows, computed or replayed, by stage.
    rows: dict[str, list[dict]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The run.json record."""
        record = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name not in _NOT_IN_RUN_JSON
        }
        record["score"] = self.report.to_dict() if self.report else None
        return record


@dataclass
class SegmentRecord:
    """One segment's artifact row per stage (None: not reached), and its repair outcome."""

    rows: dict[str, dict | None]
    repair: PostprocessEntry | None = None


def _gated_in(rows: dict[str, dict | None]) -> bool:
    return bool(rows.get("gate") and rows["gate"]["gated_in"])


def _has_triggers(rows: dict[str, dict | None]) -> bool:
    """Whether the segment's trigger row exists, did not fail and holds predictions."""
    row = rows.get("triggers")
    return bool(row and not row["failed"] and row["predictions"])


class Pipeline:
    """One configured run over one corpus, with stage-level resume.

    A Pipeline serves one run: a second run() raises. Its lazy resources
    (ontology, support, gold, cache, the embedding provider and the index,
    cached properties built on first access, and the LLM providers) may be
    loaded before the run. The Pipeline counts the texts it embeds itself.
    """

    def __init__(self, config: PipelineConfig, *, resume: bool = False):
        self.config = config
        self.resume = resume
        self.out_dir = Path(config.output_dir)
        self.config_hash = config.config_hash()
        self._providers: dict[str, CountingLlm] = {}
        # Texts passed to the embedder: the support set when the index is
        # built, and the query texts. Both are counted on the calling thread.
        self._texts_embedded = 0
        # sha256 of the bytes read from each input file, by path (None: absent).
        self._digests: dict[str, str | None] = {}
        # Bytes read for the inputs digest that no loader has taken yet, by path.
        self._unparsed: dict[str, bytes] = {}
        self._result: RunResult | None = None

    # --- input files and lazy shared resources -----------------------------

    def _input(self, path: str) -> Iterator[bytes]:
        """An input file's bytes, in lines as its loader reads them: the only place one is read.

        The lines are hashed as they are read, and the sha256 is recorded for
        the inputs digest once the last is read. Bytes inputs_digest read (and
        hashed) ahead are handed out once instead. A file read again must hold
        the same bytes.
        """
        if path in self._unparsed:
            yield from io.BytesIO(self._unparsed.pop(path))
            return
        sha256 = hashlib.sha256()
        try:
            fh = Path(path).open("rb")
        except FileNotFoundError:
            self._record(path, None)
            raise
        with fh:
            for piece in fh:
                sha256.update(piece)
                yield piece
        self._record(path, sha256.hexdigest())

    def _record(self, path: str, digest: str | None) -> None:
        if self._digests.setdefault(path, digest) != digest:
            raise DatasetError(f"{path}: input file changed during the run")

    def _data(self, path: str | None) -> Iterator[bytes] | None:
        """The data argument of the loader of that input file: None for no path."""
        return self._input(path) if path else None

    def inputs_digest(self) -> str:
        """The digest of every input file's contents (PipelineConfig.inputs_digest).

        A file not read yet is read now, and its bytes are held until its
        loader takes them, so the digest describes the bytes that are parsed.
        A missing file counts as absent; the stage that reads it reports it.
        """
        for path in self.config.input_files().values():
            if path not in self._digests:
                try:
                    self._unparsed[path] = data = Path(path).read_bytes()
                except FileNotFoundError:
                    self._record(path, None)
                else:
                    self._record(path, hashlib.sha256(data).hexdigest())
        return self.config.inputs_digest(self._digests)

    def template(self, stage: str) -> Template:
        """A prompt stage's template: the override file's, if any, else the packaged one."""
        path = self.config.input_files().get(f"templates/{stage}")
        return load_template(stage, self.config.templates, data=self._data(path))

    @cached_property
    def ontology(self) -> Ontology:
        path = self.config.ontology
        return load_ontology(path, data=self._data(path))

    @cached_property
    def support(self) -> LabeledRows:
        """Parsed on first use, so a fully resumed run does not parse it."""
        path = self.config.support
        return load_gold(path, self.ontology, data=self._data(path))

    @cached_property
    def gold(self) -> LabeledRows:
        """The gold file, parsed on first use and held until run() takes it.

        A caller that needs the gold after the run takes it first, and the run
        checks and scores against that same parse; a finished run holds none.
        """
        path = self.config.gold
        return load_gold(path, self.ontology, data=self._data(path))

    @cached_property
    def cache(self) -> ResponseCache | None:
        return ResponseCache(self.config.cache) if self.config.cache else None

    def llm_for(self, stage: str) -> CountingLlm:
        pcfg = self.config.llm_for_stage(stage)
        key = json.dumps(pcfg.to_dict(), sort_keys=True)
        if key not in self._providers:
            provider = build_llm_provider(pcfg, data=self._data(pcfg.script))
            self._providers[key] = CountingLlm(provider)
        return self._providers[key]

    @cached_property
    def embedder(self) -> EmbeddingProvider:
        return build_embedding_provider(self.config.embedding)

    def support_examples(self) -> LabeledRows:
        """Support rows whose text normalizes to something (strip() tells the same)."""
        support = self.support
        rows = [row for row, text in enumerate(support.texts) if text.strip()]
        return support if len(rows) == len(support) else support.take(rows)

    @cached_property
    def index(self) -> SupportIndex | None:
        """Built (or loaded) on first use so fully resumed runs embed nothing.

        A saved index built with another embedding config or from other
        support ids or texts is rebuilt and saved again.
        """
        if self.config.retrieval_k <= 0:
            return None
        examples = self.support_examples()
        index_path = self.config.index
        embedding = self.config.embedding.to_dict()
        saved = index_path and Path(index_path).exists()
        index = load_index(index_path, examples, embedding=embedding) if saved else None
        if index is None:
            index = build_index(examples, self.embedder)
            self._texts_embedded += len(examples)
            if index_path:
                save_index(index, index_path, embedding=embedding)
        return index

    # --- two-phase flow ------------------------------------------------------

    def _artifact(self, stage: str) -> Path:
        return self.out_dir / f"{stage}.jsonl"

    def _gate(
        self, segments: list[Segment], pool: ThreadPoolExecutor | None, template: Template | None
    ) -> list[dict]:
        """The gate phase: learned verdicts fetched in batches, then each segment's gate row.

        The rows are mapped on pool, or on the caller without one. template is
        the presence template, None when a verdict file replaces the prompt.
        """
        cfg = self.config
        ontology, cache = self.ontology, self.cache
        lexicon = build_lexicon(self.support)
        learned = [False] * len(segments)
        if cfg.learned:
            provider = build_verdict_provider(cfg.learned, data=self._data(cfg.learned.path))
            learned = learned_classify(segments, provider, threshold=cfg.gate_threshold)
        # A precomputed LLM verdict file replaces the presence prompt.
        llm_file: list[bool | None] = [None] * len(segments)
        if cfg.gate_llm_file:
            verdicts = FileVerdictProvider(cfg.gate_llm_file, data=self._data(cfg.gate_llm_file))
            llm_file = [p >= 0.5 for p in verdicts.presence_probabilities(segments)]
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
                    template=template,
                )
            row = {"id": seg.id, "rule": rule, "learned": learned, "llm": llm}
            row["gated_in"] = vote(row, cfg.gate_policy)
            return row

        return list((map if pool is None else pool.map)(gate, segments, learned, llm_file))

    def _queries(
        self,
        segments: list[Segment],
        records: list[SegmentRecord],
        computed: set[str],
        pool: ThreadPoolExecutor | None,
    ) -> dict[str, Hits]:
        """The query phase: the search hits of each retrieving segment, from one search.

        With triggers computed, the gated-in segments retrieve; with only
        arguments computed, those whose trigger row holds predictions. A blank
        text retrieves nothing and is not embedded. One embed_batch call
        embeds the texts, and one search scores them against every row: it
        ranks the top k of the trigger stage and, without same_type_filter,
        of the argument stage, and with the filter and the argument stage
        computed it keeps each event type's shortlist for that stage. The
        search scans the support matrix in row blocks on the pool, which is
        idle between the phases, or on the caller without one. Only a
        retrieving stage builds the index, so replaying both embeds nothing.
        """
        if not computed & {"triggers", "arguments"} or self.index is None:
            return {}
        cfg = self.config
        retrieves = _gated_in if "triggers" in computed else _has_triggers
        wanted = [
            seg
            for seg, record in zip(segments, records)
            if seg.text.strip() and retrieves(record.rows)
        ]
        if not wanted:
            return {}
        self._texts_embedded += len(wanted)
        vectors = embed_texts([seg.text for seg in wanted], self.embedder)
        by_type = cfg.same_type_filter and "arguments" in computed
        hits = search(self.index, vectors, cfg.retrieval_k, by_type=by_type, pool=pool)
        return dict(zip((seg.id for seg in wanted), hits))

    def _extraction_task(
        self, computed: set[str], found: dict[str, Hits], templates: dict[str, Template]
    ):
        """The extraction phase's per-segment task: one segment's triggers, arguments and repair.

        found holds the query phase's hits; templates holds the template of
        each computed stage, by stage name.
        """
        cfg = self.config
        ontology, cache = self.ontology, self.cache
        # found is empty unless a retrieving stage built the index.
        index = self.index if found else None
        llms = {
            stage.name: self.llm_for(stage.prompt) for stage in STAGES[1:] if stage.name in computed
        }
        retry = dict(cache=cache, max_attempts=cfg.max_attempts)
        extraction = dict(corrective=cfg.corrective, **retry)

        def process(seg: Segment, record: SegmentRecord) -> None:
            rows = record.rows
            hits = found.get(seg.id)
            if "triggers" in computed and _gated_in(rows):
                rows["triggers"] = extract_triggers(
                    seg, retrieve_examples(index, hits) if hits else [], ontology, llms["triggers"],
                    template=templates["triggers"], **extraction,
                )
            triggers = rows["triggers"]["predictions"] if _has_triggers(rows) else []
            recovered = None
            if "arguments" in computed and triggers:
                shots = []
                if hits:
                    types = [t["type"] for t in triggers] if cfg.same_type_filter else None
                    shots = retrieve_examples(index, hits, types)
                rows["arguments"], recovered = extract_arguments(
                    seg, triggers, shots, ontology, llms["arguments"],
                    template=templates["arguments"], **extraction,
                )
            elif "final" in computed and rows.get("arguments") and rows["arguments"]["failed"]:
                # A replayed failed row: repair reads the records its reply holds.
                recovered = recover_json_tail(rows["arguments"]["raw"])
            if "final" in computed:
                if rows.get("arguments"):
                    record.repair = repair_arguments(
                        rows["arguments"], recovered, triggers, ontology, llms["final"],
                        template=templates["final"], **retry,
                    )
                events = record.repair.events if record.repair else []
                rows["final"] = {"id": seg.id, "event": events}

        return process

    # --- orchestration ------------------------------------------------------

    def run(self, until: str = "score") -> RunResult:
        if until not in STAGE_ORDER:
            raise ConfigError(f"unknown stage {until!r}; expected one of {STAGE_ORDER}")
        if self._result is not None:
            raise RuntimeError("a Pipeline serves one run; build a new one for the next run")
        cfg = self.config
        result = self._result = RunResult(None, self.config_hash, self.out_dir, until)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        transcripts = load_transcripts(cfg.transcripts, data=self._data(cfg.transcripts))
        gold = self.gold
        del self.gold
        gold_ids = set(gold.ids)
        stray = sorted(s.id for s in transcripts if s.id not in gold_ids)
        if stray:
            raise DatasetError(f"transcript ids missing from gold: {stray[:5]}")
        segments = sorted(transcripts, key=lambda s: s.id)
        # The other inputs are parsed only by the stages that compute, from
        # the bytes this reads for the digest.
        result.inputs = self.inputs_digest()
        result.started_at = time.time()

        stages = STAGES[: STAGE_ORDER.index(until) + 1]
        # Replay stops at the first stage that is recomputed, because each
        # later stage reads its rows. Every later artifact present still has
        # its header read, so one with a foreign config hash aborts the run,
        # but not its rows, which the run overwrites.
        replayed = {}
        for stage in stages if self.resume else ():
            path = self._artifact(stage.name)
            if stage is not stages[len(replayed)]:
                _artifact_records(path, stage.name, self.config_hash, result.inputs)
                continue
            rows = read_artifact(path, stage.name, self.config_hash, result.inputs, self.ontology)
            if rows is not None:
                replayed[stage.name] = {row["id"]: row for row in rows}
        result.resumed_stages = list(replayed)
        computed = {stage.name for stage in stages} - replayed.keys()
        # Each computed stage's template is parsed, in stage order, before
        # any provider call; a verdict file replaces the presence prompt.
        templates = {
            stage.name: self.template(stage.prompt)
            for stage in stages
            if stage.name in computed and not (stage.name == "gate" and cfg.gate_llm_file)
        }
        # A segment missing from a replayed artifact never reached that stage.
        records = [
            SegmentRecord({stage: by_id.get(seg.id) for stage, by_id in replayed.items()})
            for seg in segments
        ]
        # A pool only overlaps provider waits: a run opens one when it has more
        # than one worker and a stage that calls a provider (a key of
        # templates) calls a chat provider that waits on the network.
        # Otherwise handing the GIL between threads costs CPU and saves
        # nothing, and both phases map on this thread. Every such provider is
        # built here, so one that cannot be built fails before any call.
        waits = [self.llm_for(stage.prompt).waits for stage in stages if stage.name in templates]
        threaded = cfg.workers > 1 and any(waits)
        # One pool serves both phases. Each phase resolves its shared
        # resources before it maps: llm_for is check-then-set, and a
        # cached_property locks its first access only on Python <= 3.11, so
        # resolving them in pool threads could build a second cache or provider.
        with ThreadPoolExecutor(max_workers=cfg.workers) if threaded else nullcontext() as pool:
            if "gate" in computed:
                verdicts = self._gate(segments, pool, templates.get("gate"))
                for record, row in zip(records, verdicts):
                    record.rows["gate"] = row
            if computed - {"gate"}:
                found = self._queries(segments, records, computed, pool)
                process = self._extraction_task(computed, found, templates)
                list((map if pool is None else pool.map)(process, segments, records))
        self._unparsed.clear()  # inputs of stages that were replayed
        artifacts = result.rows = {
            s.name: [rec.rows[s.name] for rec in records if rec.rows.get(s.name)] for s in stages
        }
        for name, rows in artifacts.items():
            if name in computed:
                write_artifact(self._artifact(name), name, self.config_hash, result.inputs, rows)

        gate_rows = artifacts["gate"]
        result.gated_in = sum(1 for r in gate_rows if r["gated_in"])
        result.gated_out = len(gate_rows) - result.gated_in
        if "triggers" in artifacts:
            result.trigger_failures = [r["id"] for r in artifacts["triggers"] if r["failed"]]
        if "final" in replayed:
            result.argument_degraded = result.formatting_attempts = None
        else:
            repairs = [rec.repair for rec in records if rec.repair is not None]
            result.argument_degraded = [e.segment_id for e in repairs if e.degraded]
            result.formatting_attempts = sum(e.formatting_attempts for e in repairs)
        if "final" in artifacts:
            final_rows = artifacts["final"]
            predictions_path = self.out_dir / "predictions.jsonl"
            write_rows(predictions_path, final_rows)
            result.predictions_path = predictions_path
        if until == "score":
            result.report = score(
                {row["id"]: row["event"] for row in final_rows},
                events_by_id(gold),
                set_semantics=cfg.set_semantics,
                gated_out=result.gated_out,
                extraction_failed=len(result.trigger_failures),
            )
            report_path = self.out_dir / "report.json"
            write_json(report_path, result.report.to_dict())
            result.report_path = report_path

        result.provider_calls = self._collect_calls()
        result.texts_embedded = self._texts_embedded
        result.finished_at = time.time()
        write_json(self.out_dir / "run.json", result.to_dict())
        return result

    def _collect_calls(self) -> dict:
        calls: Counter = Counter()
        for wrapper in self._providers.values():
            calls.update(wrapper.counts)
        out = {stage: calls[stage] for stage in sorted(calls)}
        out["total"] = sum(calls.values())
        return out
