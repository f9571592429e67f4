"""Benchmark workloads: generator and pipeline parameters, each with its reason.

Every parameter is a (value, reason) pair so the choice is documented where
it is made. `params(name)` strips the reasons for the code that uses them.
"""
from __future__ import annotations

# Reply-mix shares are fractions of the gated-in segments that reach a stage.
# They are exact counts per corpus (rounded, then shuffled by the seed), not
# independent draws, so two seeds differ in which segments get which reply
# but never in how many.
_REPLY_MIX = {
    "trigger_prose": (0.08, "prose-wrapped JSON exercises tail recovery"),
    "trigger_retry": (0.04, "an unparseable first reply costs one retry"),
    "trigger_bad_type": (0.03, "an out-of-ontology type rejects the reply and costs one retry"),
    "trigger_no_event": (0.03, "an explicit no-event answer ends the segment after triggers"),
    "trigger_fail": (0.02, "three unparseable replies make a trigger failure"),
    "argument_prose": (0.08, "prose-wrapped JSON exercises tail recovery"),
    "argument_retry": (0.04, "an unparseable first reply costs one retry"),
    "argument_bad_role": (0.04, "a disallowed role rejects the reply under strict matching"),
    "argument_repair": (0.06, "three unparseable replies send the segment to format repair"),
    "hallucinate": (0.05, "an extra predicted event gives the scorer false positives"),
}

_COMMON = {
    "workers": (2, "one pool thread per core of a 2-core machine; the pool is the closed-loop client"),
    "max_attempts": (3, "the documented default retry budget"),
    "gate_policy": ("all", "the paper's strictest gate; every classifier runs on every segment"),
    "event_share": (0.60, "segments that carry gold events; the rest are filler"),
    "gated_out_event_share": (0.10, "event segments vetoed by the learned or LLM judge cost recall"),
    "presence_reask": (0.05, "an unparseable YES/NO verdict costs one re-ask"),
    "segment_tokens": (24, "a short transcript segment"),
    "support_tokens": (20, "support rows a little shorter than queries"),
    "setup_samples": (1, "set-up takes over a second, so one sample per repeat suffices"),
    **_REPLY_MIX,
}

WORKLOADS: dict[str, dict] = {
    "retrieval-19k": {
        "why": "retrieval and gate CPU cannot hide behind provider latency here",
        **_COMMON,
        "support_rows": (19_000, "the paper's support-set scale: every query scans 19k rows"),
        "segments": (40, "about 40 searches per stage keep one repeat near 3 s"),
        "retrieval_k": (10, "the paper's few-shot count"),
        "same_type_filter": (True, "adds the per-row predicate to every argument-stage search"),
        "remote_delay_ms": (None, "scripted mock in process: no provider latency"),
        "replay": (False, "cold completion cache: every completion is a provider call"),
        "stray_brackets": (0, "prose replies stay short so parsing stays cheap"),
    },
    "remote-20ms": {
        "why": "wall time is set by provider wait, request count and connection set-up",
        **_COMMON,
        "support_rows": (2_000, "a small support set keeps search negligible next to 20 ms replies"),
        "segments": (80, "about 350 remote requests per repeat, near 4.5 s of wall time"),
        "retrieval_k": (10, "the paper's few-shot count"),
        "same_type_filter": (True, "same retrieval settings as retrieval-19k"),
        "remote_delay_ms": (20, "a fast hosted model; large enough to dominate local CPU"),
        "replay": (False, "cold completion cache: every completion is a provider call"),
        "stray_brackets": (0, "prose replies stay short so parsing stays cheap"),
    },
    "replay-malformed": {
        "why": "rerun after a tweak: the cache answers everything and reply parsing dominates",
        **_COMMON,
        "support_rows": (2_000, "only the gate lexicon reads it, since k=0"),
        "segments": (300, "about 50 long replies per repeat, near 3.5 s of wall time"),
        "retrieval_k": (0, "zero-shot: retrieval is bypassed, so search changes must not show"),
        "same_type_filter": (False, "irrelevant without retrieval"),
        "remote_delay_ms": (None, "scripted mock; it must never be called after pre-warming"),
        "replay": (True, "one unmeasured run pre-warms the cache; every completion is a hit"),
        "setup_samples": (10, "set-up takes ~40 ms; averaging ten smooths ~30 ms host hiccups"),
        "trigger_prose": (0.15, "about 15% of trigger replies are long malformed prose"),
        "argument_prose": (0.15, "about 15% of argument replies are long malformed prose"),
        "stray_brackets": (3_000, "thousands of stray, non-nested [ and { per prose reply"),
    },
}


def params(name: str) -> dict:
    """Parameter values of a workload, without their reasons."""
    spec = WORKLOADS[name]
    return {key: value[0] for key, value in spec.items() if key != "why"}
