"""Structured event extraction from speech transcripts.

A modular pipeline: an ensemble gate filters event-free segments, semantic
retrieval selects few-shot examples, a chat LLM extracts triggers and
role-labeled arguments in stages, JSON recovery repairs free-form replies, and
exact-match scoring reports micro P/R/F1 for trigger and argument
classification.
"""
from .evaluate import ScoreReport, prf, run_ablation, score
from .gate import agreement_table, vote
from .model import (
    LabeledRows,
    LabeledSegment,
    Ontology,
    Segment,
    load_gold,
    load_ontology,
    load_transcripts,
    normalize,
)
from .retrieval import SupportIndex, build_index, search

__version__ = "0.1.0"

__all__ = [
    "LabeledRows",
    "LabeledSegment",
    "Ontology",
    "ScoreReport",
    "Segment",
    "SupportIndex",
    "agreement_table",
    "build_index",
    "load_gold",
    "load_ontology",
    "load_transcripts",
    "normalize",
    "prf",
    "run_ablation",
    "score",
    "search",
    "vote",
]
