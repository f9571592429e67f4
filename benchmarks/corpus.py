"""Seeded synthetic corpus for the eventpipe benchmark.

    PYTHONPATH=src python3 benchmarks/corpus.py --workload NAME --seed N --out DIR

Writes the program's inputs (support.jsonl, transcripts.jsonl, gold.jsonl,
verdicts.jsonl, script.json) and the answer key expected.json: every
segment's gate verdicts and final events, and the report counts.

Trigger words, filler words and argument names are disjoint pseudo-word
sets, so the rule gate admits exactly the segments that carry a trigger word,
and every other verdict is written into the inputs. The scripted replies
eventually state each gated-in segment's predicted events, so the final
events are known before the program runs. The vocabulary is fixed; the seed
chooses texts, events, verdicts and which segments get which reply.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter
from pathlib import Path

from eventpipe import load_ontology, normalize

from workloads import WORKLOADS, params

VOCAB_SEED = 20_250_421
TRIGGERS_PER_TYPE = 6
FILLER_WORDS = 800
NAME_WORDS = 400
UNKNOWN_TYPE = "Celebrate"
_CONSONANTS = "bdfgklmprstvz"
_VOWELS = "aeiou"


class Vocabulary:
    """Disjoint trigger, filler and name pseudo-words."""

    def __init__(self, event_types: tuple[str, ...]):
        rng = random.Random(VOCAB_SEED)
        needed = len(event_types) * TRIGGERS_PER_TYPE + FILLER_WORDS + NAME_WORDS
        words: list[str] = []
        seen: set[str] = set()
        while len(words) < needed:
            word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(3))
            if word not in seen:
                seen.add(word)
                words.append(word)
        self.triggers = {
            etype: words[i * TRIGGERS_PER_TYPE : (i + 1) * TRIGGERS_PER_TYPE]
            for i, etype in enumerate(event_types)
        }
        start = len(event_types) * TRIGGERS_PER_TYPE
        self.fillers = words[start : start + FILLER_WORDS]
        self.names = words[start + FILLER_WORDS :]


def _exact_kinds(rng: random.Random, count: int, shares: dict[str, float], rest: str) -> list[str]:
    """`count` labels with each share rounded to an exact count, shuffled."""
    kinds: list[str] = []
    for kind, share in shares.items():
        kinds.extend([kind] * round(share * count))
    if len(kinds) > count:
        raise ValueError(f"reply shares {shares} exceed 100%")
    kinds.extend([rest] * (count - len(kinds)))
    rng.shuffle(kinds)
    return kinds


class Generator:
    def __init__(self, workload: str, seed: int):
        self.p = params(workload)
        self.rng = random.Random(seed)
        self.ontology = load_ontology()
        self.vocab = Vocabulary(self.ontology.event_types)
        all_roles = sorted({r for rs in self.ontology.roles_by_type.values() for r in rs})
        self.bad_role = {
            t: next(r for r in all_roles if r not in self.ontology.role_set_for(t))
            for t in self.ontology.event_types
        }

    def events(self, count: int, first: tuple[str, str] | None = None) -> list[dict]:
        """`count` events of distinct types with distinct argument names."""
        rng = self.rng
        types = rng.sample(self.ontology.event_types, count)
        triggers = [rng.choice(self.vocab.triggers[t]) for t in types]
        if first is not None:
            triggers[0], types[0] = first
            if types.count(types[0]) > 1:
                types[1] = next(t for t in self.ontology.event_types if t != types[0])
                triggers[1] = rng.choice(self.vocab.triggers[types[1]])
        names = iter(rng.sample(self.vocab.names, 2 * count))
        out = []
        for trigger, etype in zip(triggers, types):
            roles = self.ontology.roles_for(etype)
            picked = rng.sample(roles, min(len(roles), rng.choice((1, 2))))
            out.append(
                {
                    "trigger": trigger,
                    "type": etype,
                    "arguments": [{"name": next(names), "role": r} for r in picked],
                }
            )
        return out

    def text(self, events: list[dict], tokens: int) -> str:
        words = [ev["trigger"] for ev in events]
        words += [a["name"] for ev in events for a in ev["arguments"]]
        words += self.rng.choices(self.vocab.fillers, k=tokens - len(words))
        self.rng.shuffle(words)
        return " ".join(words)

    def stray_prose(self) -> str:
        """Long prose with stray, never nested, [ and { openers."""
        rng, fillers = self.rng, self.vocab.fillers
        lines, line = ["Let me think this through step by step."], []
        for _ in range(self.p["stray_brackets"]):
            line.append(rng.choice("[{") + rng.choice(fillers))
            line.append(rng.choice(fillers))
            if len(line) >= 12:
                lines.append(" ".join(line))
                line = []
        lines.append(" ".join(line))
        return "\n".join(lines)

    def prose(self, payload: str, text: str) -> str:
        if self.p["stray_brackets"]:
            return f"{self.stray_prose()}\nAnswer: {payload}"
        return f"Here is what I found.\nTranscript: {text}\nAnswer: {payload}"

    def trigger_reply(self, kind: str, predicted: list[dict], text: str) -> str | list[str]:
        clean = json.dumps([{"trigger": e["trigger"], "type": e["type"]} for e in predicted])
        unparseable = f"I could not find a clear structure in: {text}"
        if kind == "prose":
            return self.prose(clean, text)
        if kind == "retry":
            return [unparseable, clean]
        if kind == "bad_type":
            return [json.dumps([{"trigger": predicted[0]["trigger"], "type": UNKNOWN_TYPE}]), clean]
        if kind == "no_event":
            return "There are no events in this transcript."
        if kind == "fail":
            return unparseable
        return clean

    def argument_reply(self, kind: str, predicted: list[dict], text: str) -> str | list[str]:
        clean = json.dumps(predicted)
        # Quoting the transcript makes the reply unique; the stub routes format repairs by it.
        unparseable = f"I could not assign roles for: {text}"
        if kind == "prose":
            return self.prose(clean, text)
        if kind == "retry":
            return [unparseable, clean]
        if kind == "bad_role":
            first = predicted[0]
            extra = {"name": self.rng.choice(self.vocab.names), "role": self.bad_role[first["type"]]}
            bad = [{**first, "arguments": first["arguments"] + [extra]}] + predicted[1:]
            return [json.dumps(bad), clean]
        if kind == "repair":
            return unparseable
        return clean

    def support(self) -> list[dict]:
        rows = []
        all_triggers = [(w, t) for t, ws in self.vocab.triggers.items() for w in ws]
        for i in range(self.p["support_rows"]):
            if i < len(all_triggers):
                events = self.events(self.rng.choice((1, 2)), first=all_triggers[i])
            elif self.rng.random() < 0.1:
                events = []
            else:
                events = self.events(self.rng.choice((1, 2)))
            text = self.text(events, self.p["support_tokens"])
            rows.append({"id": f"sup-{i + 1:05d}", "text": text, "event": events})
        return rows

    def corpus(self) -> dict:
        p, rng = self.p, self.rng
        n = p["segments"]
        n_event = round(p["event_share"] * n)
        n_vetoed = round(p["gated_out_event_share"] * n_event)
        categories = (
            ["in"] * (n_event - n_vetoed)
            + ["learned_out"] * (n_vetoed // 2)
            + ["llm_out"] * (n_vetoed - n_vetoed // 2)
            + ["filler"] * (n - n_event)
        )
        rng.shuffle(categories)
        ids = [f"seg-{i + 1:05d}" for i in range(n)]
        gold, texts, verdicts, script, expected_gate = {}, {}, [], {}, {}
        for seg_id, category in zip(ids, categories):
            events = [] if category == "filler" else self.events(rng.choice((1, 1, 2)))
            texts[seg_id] = self.text(events, p["segment_tokens"])
            gold[seg_id] = events
            rule = category != "filler"
            learned = category != "learned_out" if rule else rng.random() < 0.5
            llm = category != "llm_out" if rule else rng.random() < 0.5
            prob = rng.uniform(0.6, 0.99) if learned else rng.uniform(0.01, 0.4)
            verdicts.append({"id": seg_id, "p": round(prob, 3)})
            word = rng.choice(("YES", "Yes.", "YES, it describes an event.") if llm
                              else ("NO", "No.", "NO, nothing happens here."))
            script[f"{seg_id}/presence"] = word
            expected_gate[seg_id] = {"rule": rule, "learned": learned, "llm": llm,
                                     "gated_in": category == "in"}
        if len(set(texts.values())) != n:
            raise ValueError("segment texts collide; the stub routes requests by text")
        for seg_id in rng.sample(ids, round(p["presence_reask"] * n)):
            script[f"{seg_id}/presence"] = ["Hard to say from this transcript.",
                                            script[f"{seg_id}/presence"]]

        final = {seg_id: [] for seg_id in ids}
        filler_set = set(self.vocab.fillers)
        gated_in = [s for s, c in zip(ids, categories) if c == "in"]
        trigger_kinds = _exact_kinds(
            rng, len(gated_in),
            {k: p[f"trigger_{k}"] for k in ("prose", "retry", "bad_type", "no_event", "fail")},
            "clean",
        )
        extracted = [s for s, k in zip(gated_in, trigger_kinds) if k not in ("no_event", "fail")]
        argument_kinds = dict(zip(extracted, _exact_kinds(
            rng, len(extracted),
            {k: p[f"argument_{k}"] for k in ("prose", "retry", "bad_role", "repair")},
            "clean",
        )))
        hallucinated = set(rng.sample(extracted, round(p["hallucinate"] * len(extracted))))
        for seg_id, kind in zip(gated_in, trigger_kinds):
            text = texts[seg_id]
            predicted = [dict(ev) for ev in gold[seg_id]]
            if seg_id in hallucinated:
                fillers = [w for w in text.split() if w in filler_set]
                taken = {ev["type"] for ev in predicted}
                etype = rng.choice([t for t in self.ontology.event_types if t not in taken])
                predicted.append({"trigger": rng.choice(fillers), "type": etype, "arguments": []})
            script[f"{seg_id}/trigger"] = self.trigger_reply(kind, predicted, text)
            if kind in ("no_event", "fail"):
                continue
            script[f"{seg_id}/argument"] = self.argument_reply(argument_kinds[seg_id], predicted, text)
            if argument_kinds[seg_id] == "repair":
                script[f"{seg_id}/format"] = json.dumps(predicted)
            final[seg_id] = predicted

        return {
            "support": self.support(),
            "transcripts": [{"id": s, "text": texts[s]} for s in ids],
            "gold": [{"id": s, "event": gold[s]} for s in ids],
            "verdicts": verdicts,
            "script": script,
            "expected": {
                "segments": n,
                "gate": expected_gate,
                "final": final,
                "report": _report_counts(final, gold, gated_out=n - len(gated_in),
                                         extraction_failed=trigger_kinds.count("fail")),
            },
        }


def _report_counts(final: dict, gold: dict, *, gated_out: int, extraction_failed: int) -> dict:
    """Exact-match TC and AC counts, computed independently of eventpipe.evaluate."""
    def tc(events):
        return Counter((normalize(e["trigger"]), e["type"]) for e in events)

    def ac(events):
        return Counter((normalize(a["name"]), a["role"], e["type"])
                       for e in events for a in e["arguments"])

    out = {"gated_out": gated_out, "extraction_failed": extraction_failed}
    for task, count in (("tc", tc), ("ac", ac)):
        tp = n_pred = n_gold = 0
        for seg_id, gold_events in gold.items():
            pred, ref = count(final[seg_id]), count(gold_events)
            tp += sum((pred & ref).values())
            n_pred += sum(pred.values())
            n_gold += sum(ref.values())
        out[task] = {"tp": tp, "n_pred": n_pred, "n_gold": n_gold}
    return out


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows), encoding="utf-8")


def write_corpus(workload: str, seed: int, out: Path) -> None:
    data = Generator(workload, seed).corpus()
    out.mkdir(parents=True, exist_ok=True)
    for name in ("support", "transcripts", "gold", "verdicts"):
        _write_jsonl(out / f"{name}.jsonl", data[name])
    for name in ("script", "expected"):
        (out / f"{name}.json").write_text(json.dumps(data[name], sort_keys=True), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    write_corpus(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
