"""Span tracing of privmarket's public functions, installed from outside.

`Tracer.install` replaces each function named in `WRAPPED` in every
privmarket module that holds it (the defining module and every module that
imported the name), and wraps the listed class methods on their class.
`uninstall` puts the originals back, so untraced rounds run the program
exactly as shipped. A wrapped call records one span: name, parent span,
round, start and end. Spans stay in memory until `summary` derives per-round
calls and self time (duration minus the time its child spans cover) and
`save` writes them out.

A name the program no longer has is skipped and reports zero calls, so the
benchmark keeps running when a later change removes a function.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import privmarket
from privmarket import cli, envelope, ldp, ledger, protocol, simulate

LAYERS = {"ldp": ldp, "envelope": envelope, "ledger": ledger,
          "protocol": protocol, "simulate": simulate, "cli": cli}
MODULES = (privmarket, *LAYERS.values())

# layer -> public names wrapped; "Class.method" wraps a method on the class.
WRAPPED = {
    "ldp": ("encode_one_hot", "randomize_response", "accumulate_counts", "estimate_frequencies"),
    "envelope": ("hmac_derive", "derive_session_key", "digest", "encrypt", "decrypt",
                 "encode_bit_vector", "decode_bit_vector", "unpack_bit_vector_stream"),
    "ledger": ("commit_response", "verify_event_chain", "EventLog.append", "EventLog.to_bytes",
               "EventLog.from_bytes", "CommitmentIndex.add", "CommitmentIndex.index_of"),
    "protocol": ("setup_survey", "operator_prepare_and_commit", "parse_config_file",
                 "build_and_finalize_filter", "operator_deliver", "authority_verify_delivery",
                 "authority_deposit_and_await_reveal", "sysop_reveal_secret", "sysop_payout",
                 "settle_and_decrypt"),
    "simulate": ("substream", "sample_true_choices"),
    "cli": ("cmd_inspect_ledger", "cmd_estimate", "cmd_demo"),
}
SPAN_NAMES = tuple(f"{layer}.{name}" for layer, names in WRAPPED.items() for name in names)


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_hashed(c, args, kwargs, result):
    c["envelope.bytes_hashed"] += len(_arg(args, kwargs, 0, "data"))


def _count_key_hashed(c, args, kwargs, result):
    s1, s2 = _arg(args, kwargs, 0, "s1"), _arg(args, kwargs, 1, "s2")
    c["envelope.bytes_hashed"] += len(s1.value) + len(s2.value)


def _count_encrypted(c, args, kwargs, result):
    c["envelope.bytes_encrypted"] += len(_arg(args, kwargs, 1, "plaintext"))


def _count_parsed(c, args, kwargs, result):
    c["ledger.bytes_parsed"] += len(_arg(args, kwargs, 1, "data"))


def _count_accepted(c, args, kwargs, result):
    c["protocol.deliveries_accepted"] += result.value == "accepted"


def _count_eligible(c, args, kwargs, result):
    c["protocol.filter_eligible"] += sum(result.bits)
    c["protocol.filter_bits"] += len(result.bits)


# span name -> hook(counters, args, kwargs, result), run after each traced call
COUNTER_HOOKS = {
    "envelope.digest": _count_hashed,
    "envelope.derive_session_key": _count_key_hashed,
    "envelope.encrypt": _count_encrypted,
    "ledger.EventLog.from_bytes": _count_parsed,
    "protocol.authority_verify_delivery": _count_accepted,
    "protocol.build_and_finalize_filter": _count_eligible,
}

# per-layer metric name -> unit, in the order they are reported
LAYER_METRICS = {
    **{f"{span}.{kind}": unit for span in SPAN_NAMES for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"{layer}.self_s": "s" for layer in WRAPPED},
    "envelope.bytes_hashed": "B",
    "envelope.bytes_encrypted": "B",
    "ledger.events_appended": "count",
    "ledger.bytes_parsed": "B",
    "protocol.config_parses_per_survey": "count",
    "envelope.key_derivations_per_survey": "count",
    "simulate.substreams_per_trial": "count",
    "protocol.delivery_accept_ratio": "ratio",
    "protocol.filter_eligible_ratio": "ratio",
    "trace.spans_per_round": "count",
    "trace.overhead_ratio": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Tracer:
    def __init__(self):
        self.names = SPAN_NAMES
        self.name_id = array("i")
        self.parent = array("i")
        self.round_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.rounds = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []
        for nid, span in enumerate(SPAN_NAMES):
            layer, _, qualname = span.partition(".")
            hook = COUNTER_HOOKS.get(span)
            owner_name, _, method = qualname.rpartition(".")
            if owner_name:
                owner = getattr(LAYERS[layer], owner_name, None)
                raw = vars(owner).get(method) if owner is not None else None
                if isinstance(raw, classmethod):
                    self._patches.append((owner, method, raw, classmethod(self._wrap(nid, raw.__func__, hook))))
                elif raw is not None:
                    self._patches.append((owner, method, raw, self._wrap(nid, raw, hook)))
                continue
            original = getattr(LAYERS[layer], qualname, None)
            if original is None:
                continue
            wrapped = self._wrap(nid, original, hook)
            for module in MODULES:
                if getattr(module, qualname, None) is original:
                    self._patches.append((module, qualname, original, wrapped))

    def _wrap(self, name_id: int, fn, hook):
        name_ids, parents, round_ids = self.name_id, self.parent, self.round_id
        starts, ends, stack, counters = self.start, self.end, self._stack, self.counters
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            round_ids.append(tracer.rounds)
            ends.append(0)
            stack.append(i)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def run_round(self, fn, *args):
        """Call fn(*args) with tracing installed, as one traced round."""
        self.install()
        try:
            return fn(*args)
        finally:
            self.uninstall()
            self.rounds += 1

    def self_ns(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-span name ids and self times in ns."""
        name_id = np.array(self.name_id, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        duration = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        return name_id, duration - covered

    def summary(self, untraced_round_s: float, traced_round_s: float) -> dict[str, float]:
        """Every per-layer metric, normalised per traced round."""
        rounds = max(self.rounds, 1)
        name_id, self_ns = self.self_ns()
        calls = np.bincount(name_id, minlength=len(self.names)) / rounds
        self_s = np.bincount(name_id, weights=self_ns, minlength=len(self.names)) / 1e9 / rounds
        per_span = dict(zip(self.names, zip(calls.tolist(), self_s.tolist())))
        out: dict[str, float] = {}
        for span, (n, s) in per_span.items():
            out[f"{span}.calls"] = n
            out[f"{span}.self_s"] = s
        for layer in WRAPPED:
            out[f"{layer}.self_s"] = sum(s for span, (_, s) in per_span.items()
                                         if span.startswith(layer + "."))
        c = {name: value / rounds for name, value in self.counters.items()}
        surveys = per_span["protocol.setup_survey"][0]
        out.update({
            "envelope.bytes_hashed": c.get("envelope.bytes_hashed", 0.0),
            "envelope.bytes_encrypted": c.get("envelope.bytes_encrypted", 0.0),
            "ledger.events_appended": per_span["ledger.EventLog.append"][0],
            "ledger.bytes_parsed": c.get("ledger.bytes_parsed", 0.0),
            "protocol.config_parses_per_survey": _ratio(per_span["protocol.parse_config_file"][0], surveys),
            "envelope.key_derivations_per_survey": _ratio(per_span["envelope.hmac_derive"][0], surveys),
            "simulate.substreams_per_trial": _ratio(per_span["simulate.substream"][0],
                                                    per_span["simulate.sample_true_choices"][0]),
            "protocol.delivery_accept_ratio": _ratio(c.get("protocol.deliveries_accepted", 0.0),
                                                     per_span["protocol.authority_verify_delivery"][0]),
            "protocol.filter_eligible_ratio": _ratio(c.get("protocol.filter_eligible", 0.0),
                                                     c.get("protocol.filter_bits", 0.0)),
            "trace.spans_per_round": len(self.start) / rounds,
            "trace.overhead_ratio": traced_round_s / untraced_round_s - 1.0,
        })
        return out

    def save(self, path: Path) -> None:
        """Write every span (name table, ids, parents, rounds, start/end ns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            round=np.array(self.round_id, dtype=np.int32),
            start_ns=np.array(self.start, dtype=np.int64),
            end_ns=np.array(self.end, dtype=np.int64),
        )
