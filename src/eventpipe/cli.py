"""Command-line entry points for running, scoring, and inspecting the pipeline.

Exit codes: 0 success, 2 configuration error, 3 input error, 4 provider error,
5 verification error.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from ._http import ProviderError
from .config import ConfigError, PipelineConfig
from .evaluate import EvaluationError, run_ablation, score
from .extract import RawStageOutput, postprocess
from .gate import (
    POLICY_NAMES,
    GateError,
    VerdictError,
    VotePolicy,
    agreement_table,
    load_verdict_triples,
)
from .llm import CacheError, FormatFailureError, MockMissError
from .model import (
    DatasetError,
    ValidationError,
    event_to_dict,
    load_gold,
    load_ontology,
    read_rows,
    write_json,
    write_rows,
)
from .pipeline import Pipeline
from .prompts import TemplateError
from .retrieval import EmbeddingError, build_index, save_index

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_PROVIDER = 4
EXIT_VERIFICATION = 5

ALL_POLICIES = ",".join(POLICY_NAMES)


def _events_by_id(labeled) -> dict:
    return {ls.segment.id: list(ls.gold_events) for ls in labeled}


def cmd_run(args) -> int:
    config = PipelineConfig.load(args.config)
    result = Pipeline(config, resume=args.resume).run()
    print(result.report.render())
    print(f"predictions: {result.predictions_path}")
    print(f"report: {result.report_path}")
    print(f"provider calls: {result.provider_calls.get('total', 0)}")
    if result.resumed_stages:
        print(f"resumed stages: {', '.join(result.resumed_stages)}")
    return EXIT_OK


def cmd_score(args) -> int:
    ontology = load_ontology(args.ontology)
    gold = load_gold(args.gold, ontology)
    predictions = load_gold(args.predictions, ontology)
    report = score(
        _events_by_id(predictions),
        _events_by_id(gold),
        set_semantics=args.set_semantics,
    )
    print(report.render())
    if args.out:
        write_json(args.out, report.to_dict())
    return EXIT_OK


def _parse_policies(spec: str) -> list[VotePolicy]:
    policies = [VotePolicy.parse(tok.strip()) for tok in spec.split(",") if tok.strip()]
    if not policies:
        raise ConfigError("no gate policies given")
    return policies


def cmd_ablate(args) -> int:
    config = PipelineConfig.load(args.config)
    policies = _parse_policies(args.policies)
    # Extraction runs once with the gate disabled; each policy then only
    # filters which segments' predictions count, so no provider calls repeat.
    ablation_config = dataclasses.replace(
        config,
        gate_policy="without",
        output_dir=str(Path(config.output_dir) / "ablation"),
    )
    pipe = Pipeline(ablation_config, resume=True)
    result = pipe.run()
    verdicts = load_verdict_triples(Path(ablation_config.output_dir) / "gate.jsonl")
    ontology = pipe.ontology
    gold = _events_by_id(load_gold(config.gold, ontology))
    predictions = _events_by_id(load_gold(result.predictions_path, ontology))
    table = run_ablation(gold, verdicts, predictions, policies, set_semantics=config.set_semantics)
    print(table.render())
    out_path = Path(ablation_config.output_dir) / "ablation.json"
    write_json(out_path, table.to_dict())
    print(f"ablation report: {out_path}")
    return EXIT_OK


def cmd_agreement(args) -> int:
    triples = load_verdict_triples(args.verdicts)
    table = agreement_table(triples.values())
    print(table.render())
    return EXIT_OK


def cmd_build_index(args) -> int:
    config = PipelineConfig.load(args.config)
    out = args.out or config.index
    if not out:
        raise ConfigError("no index path: pass --out or set config.paths.index")
    pipe = Pipeline(config)
    index = build_index(pipe.support_examples(), pipe.embedder)
    save_index(index, out, embedding=config.embedding.to_dict())
    print(f"index: {out} ({len(index)} examples, dimension {index.dimension})")
    return EXIT_OK


def _cmd_stage(args, until: str) -> int:
    config = PipelineConfig.load(args.config)
    result = Pipeline(config, resume=args.resume).run(until=until)
    print(f"gated in: {result.gated_in}  gated out: {result.gated_out}")
    if until in ("triggers", "arguments", "final"):
        print(f"trigger failures: {len(result.trigger_failures)}")
    if until == "final":
        print(f"argument degraded: {len(result.argument_degraded)}")
        print(f"predictions: {result.predictions_path}")
    print(f"artifacts: {result.output_dir}")
    return EXIT_OK


def cmd_gate(args) -> int:
    return _cmd_stage(args, "gate")


def cmd_extract_triggers(args) -> int:
    return _cmd_stage(args, "triggers")


def cmd_extract_args(args) -> int:
    return _cmd_stage(args, "arguments")


def cmd_format(args) -> int:
    if not args.raw_file:
        return _cmd_stage(args, "final")
    config = PipelineConfig.load(args.config)
    pipe = Pipeline(config)
    ontology, template = pipe.ontology, pipe.template("format")
    raws = []
    for lineno, rec in read_rows(args.raw_file, ("raw",)):
        attempts = rec.get("attempts", 1)
        if not isinstance(rec["raw"], str) or type(attempts) is not int or attempts < 1:
            raise DatasetError(
                f"{args.raw_file}: line {lineno} needs a string 'raw' and, if given, "
                "an integer 'attempts' >= 1"
            )
        raws.append(RawStageOutput(rec["id"], "argument", rec["raw"], attempts))
    report = postprocess(
        raws,
        ontology,
        pipe.llm_for("format"),
        cache=pipe.cache,
        max_attempts=config.max_attempts,
        template=template,
    )
    rows = [
        {"id": entry.segment_id, "event": [event_to_dict(ev) for ev in entry.events]}
        for entry in report.entries
        if not entry.excluded
    ]
    out = Path(args.out) if args.out else Path(config.output_dir) / "formatted.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    write_rows(out, rows)
    excluded = report.excluded_ids
    print(f"formatted: {out} ({len(rows)} segments, {len(excluded)} excluded)")
    if excluded:
        print(f"excluded ids: {', '.join(excluded[:10])}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eventpipe",
        description="Structured event extraction from speech transcripts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_command(name: str, func, help_text: str, resume: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="pipeline config JSON file")
        if resume:
            p.add_argument(
                "--resume",
                action="store_true",
                help="reuse stage artifacts whose config hash matches",
            )
        p.set_defaults(func=func)
        return p

    add_config_command("run", cmd_run, "run all stages and score the predictions")

    p = sub.add_parser("score", help="score a predictions file against gold")
    p.add_argument("--predictions", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--ontology", default=None)
    p.add_argument("--set-semantics", action="store_true", help="dedupe tuples before matching")
    p.add_argument("--out", default=None, help="also write the report as JSON")
    p.set_defaults(func=cmd_score)

    p = add_config_command("ablate", cmd_ablate, "score gate policies over one extraction run", resume=False)
    p.add_argument("--policies", default=ALL_POLICIES, help=f"comma list (default: {ALL_POLICIES})")

    p = sub.add_parser("agreement", help="print the 2x2x2 classifier agreement table")
    p.add_argument("verdicts", help="verdict file or gate stage artifact (JSONL)")
    p.set_defaults(func=cmd_agreement)

    p = add_config_command("build-index", cmd_build_index, "embed the support set and save the index", resume=False)
    p.add_argument("--out", default=None, help="index file path (default: config.paths.index)")

    add_config_command("gate", cmd_gate, "run only the event-presence gate")
    add_config_command("extract-triggers", cmd_extract_triggers, "run through trigger recognition")
    add_config_command("extract-args", cmd_extract_args, "run through argument extraction")
    p = add_config_command("format", cmd_format, "run through post-processing (or reformat a raw file)")
    p.add_argument("--raw-file", default=None, help="standalone mode: JSONL of {id, raw} records")
    p.add_argument("--out", default=None, help="standalone mode: output predictions path")

    return parser


_ERROR_CODES = (
    (EXIT_CONFIG, (ConfigError, GateError, TemplateError)),
    (EXIT_INPUT, (DatasetError, ValidationError, FileNotFoundError)),
    (EXIT_PROVIDER, (ProviderError, MockMissError, CacheError, EmbeddingError)),
    (EXIT_VERIFICATION, (VerdictError, FormatFailureError, EvaluationError)),
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        for code, types in _ERROR_CODES:
            if isinstance(exc, types):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
