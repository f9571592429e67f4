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
from .evaluate import EvaluationError, events_by_id, run_ablation, score
from .extract import postprocess
from .gate import (
    POLICIES,
    GateError,
    VerdictError,
    agreement_table,
    check_policy,
    load_verdict_triples,
)
from .llm import CacheError, MockMissError
from .model import (
    DatasetError,
    load_gold,
    load_ontology,
    read_rows,
    write_json,
    write_rows,
)
from .pipeline import STAGES, Pipeline
from .prompts import TemplateError
from .retrieval import EmbeddingError, build_index, save_index

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_PROVIDER = 4
EXIT_VERIFICATION = 5

ALL_POLICIES = ",".join(POLICIES)


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
    try:
        report = score(
            events_by_id(predictions),
            events_by_id(gold),
            set_semantics=args.set_semantics,
        )
    except EvaluationError as exc:
        raise EvaluationError(f"{args.predictions} against {args.gold}: {exc}") from exc
    print(report.render())
    if args.out:
        write_json(args.out, report.to_dict())
    return EXIT_OK


def _parse_policies(spec: str) -> list[str]:
    policies = [check_policy(tok) for tok in spec.split(",") if tok]
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
    gold = events_by_id(pipe.gold)  # the run checks and scores against this same parse
    rows = pipe.run().rows
    verdicts = {row["id"]: row for row in rows["gate"]}
    predictions = {row["id"]: row["event"] for row in rows["final"]}
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


def cmd_stage(args) -> int:
    """Run through the stage the subcommand names (args.until) and print its counts."""
    config = PipelineConfig.load(args.config)
    until = args.until
    result = Pipeline(config, resume=args.resume).run(until=until)
    print(f"gated in: {result.gated_in}  gated out: {result.gated_out}")
    if until in ("triggers", "arguments", "final"):
        print(f"trigger failures: {len(result.trigger_failures)}")
    if until == "final":
        degraded = result.argument_degraded
        print(f"argument degraded: {'replayed' if degraded is None else len(degraded)}")
        print(f"predictions: {result.predictions_path}")
    print(f"artifacts: {result.output_dir}")
    return EXIT_OK


def cmd_format(args) -> int:
    if not args.raw_file:
        return cmd_stage(args)
    config = PipelineConfig.load(args.config)
    pipe = Pipeline(config)
    final = STAGES[-1]
    ontology, template = pipe.ontology, pipe.template(final.prompt)
    rows = read_rows(args.raw_file, ("raw",), optional=("attempts",))
    raws = [(str(rec["id"]), rec["raw"]) for _, rec in rows]
    entries = postprocess(raws, ontology, pipe.model(final, template))
    rows = [{"id": e.segment_id, "event": e.events} for e in entries if not e.excluded]
    out = Path(args.out) if args.out else Path(config.output_dir) / "formatted.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    write_rows(out, rows)
    excluded = [e.segment_id for e in entries if e.excluded]
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

    def add_config_command(name: str, func, help_text: str, resume: bool = True, until=None):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="pipeline config JSON file")
        if resume:
            p.add_argument(
                "--resume",
                action="store_true",
                help="reuse stage artifacts whose config hash matches",
            )
        p.set_defaults(func=func, until=until)
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

    add_config_command("gate", cmd_stage, "run only the event-presence gate", until="gate")
    add_config_command("extract-triggers", cmd_stage, "run through trigger recognition", until="triggers")
    add_config_command("extract-args", cmd_stage, "run through argument extraction", until="arguments")
    p = add_config_command("format", cmd_format, "run through post-processing (or reformat a raw file)", until="final")
    p.add_argument("--raw-file", default=None, help="standalone mode: JSONL of {id, raw} records")
    p.add_argument("--out", default=None, help="standalone mode: output predictions path")

    return parser


_ERROR_CODES = (
    (EXIT_CONFIG, (ConfigError, GateError, TemplateError)),
    (EXIT_INPUT, (DatasetError, OSError)),
    (EXIT_PROVIDER, (ProviderError, MockMissError, CacheError, EmbeddingError)),
    (EXIT_VERIFICATION, (VerdictError, EvaluationError)),
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
