"""Which public functions the traced run wraps, and the per-layer metrics.

Span names double as metric stems: ``session.verb`` gives
``session.verb_us``.  Time metrics are mean busy microseconds per op,
inclusive of callees, except ``kb.knowledge_base.init_self_us`` which is
the self time of ``KnowledgeBase.__init__`` (its DNF atom walk).
"""

from __future__ import annotations

import os

from tracing import Tracer, install

#: Spans whose inclusive busy time per op is reported as ``<span>_us``.
_INCLUSIVE_SPANS = (
    "serve.protocol.read_request",
    "serve.protocol.render_response",
    "serve.store.save",
    "session.verb",
    "session.state",
    "logic.parser.parse",
    "logic.enumeration.models",
    "logic.enumeration.form_formula",
    "logic.implicants.minimal_formula",
    "session.registry.apply",
    "operators.update.winslett",
    "operators.update.forbus",
)


class LayerProbe:
    """A tracer plus the side observations some wrappers make."""

    def __init__(self):
        self.tracer = Tracer()
        self.contexts: dict[int, object] = {}
        self.snapshot_bytes: list[int] = []

    def install(self) -> None:
        """Wrap the public entry points of every measured layer."""
        import repro.cli  # noqa: F401  (loads every module that binds a name)
        import repro.distances.kernels as kernels
        import repro.engine.pool  # noqa: F401
        import repro.engine.weighted  # noqa: F401
        import repro.logic.enumeration as enumeration
        import repro.logic.implicants as implicants
        import repro.logic.parser as parser
        import repro.serve.protocol as protocol
        import repro.serve.server  # noqa: F401
        from repro.kb.knowledge_base import KnowledgeBase
        from repro.operators.update import ForbusUpdate, WinslettUpdate
        from repro.serve.store import SessionStore
        from repro.session.registry import ContextRegistry, ExecutionContext
        from repro.session.session import Session

        def keep_context(_record, context):
            self.contexts[id(context)] = context

        def keep_size(_record, path):
            self.snapshot_bytes.append(os.path.getsize(path))

        install(
            self.tracer,
            functions=[
                ("logic.parser.parse", parser, "parse"),
                ("logic.enumeration.models", enumeration, "models"),
                ("logic.enumeration.form_formula", enumeration, "form_formula"),
                ("logic.implicants.minimal_formula", implicants, "minimal_formula"),
                ("serve.protocol.read_request", protocol, "read_request"),
                ("serve.protocol.render_response", protocol, "render_response"),
                ("distances.kernels.distance_matrix", kernels, "distance_matrix"),
            ],
            methods=[
                ("kb.knowledge_base.init", KnowledgeBase, "__init__"),
                *[
                    ("session.verb", Session, verb)
                    for verb in ("revise", "update", "fit", "arbitrate", "merge", "contract")
                ],
                ("session.state", Session, "state"),
                ("session.registry.apply", ExecutionContext, "apply_model_sets"),
                ("session.registry.context_for", ContextRegistry, "context_for", keep_context),
                ("operators.update.winslett", WinslettUpdate, "apply_models"),
                ("operators.update.forbus", ForbusUpdate, "apply_models"),
                ("serve.store.save", SessionStore, "save", keep_size),
            ],
        )

    def batched_hit_ratios(self) -> dict:
        """Key/result cache hit ratios over the dense contexts seen."""
        totals = {"keys": [0, 0], "results": [0, 0]}
        for context in self.contexts.values():
            info = context.cache_info()
            if info is None:
                continue
            for name in totals:
                totals[name][0] += info[name].hits
                totals[name][1] += info[name].misses
        return {
            "engine.batched.key_hit_ratio": ratio(*totals["keys"]),
            "engine.batched.result_hit_ratio": ratio(*totals["results"]),
        }

    def metrics(self, ops: int) -> dict:
        """Span-derived per-layer metrics, per op."""
        return span_metrics(self.tracer.summary(), ops, self.snapshot_bytes)

    def coverage(self, wall_seconds: float) -> float:
        """Sum of every span's self time over the traced wall time.

        Root spans wrap whole ops (and the harness's per-op preparation),
        so this says how much of the traced phase the spans account for.
        """
        summary = self.tracer.summary()
        return sum(entry["self_s"] for entry in summary.values()) / wall_seconds


def span_metrics(summary: dict, ops: int, snapshot_bytes=()) -> dict:
    """Per-op layer metrics from a :meth:`Tracer.summary`."""
    result = {
        f"{span}_us": summary.get(span, {}).get("busy_s", 0.0) * 1e6 / ops
        for span in _INCLUSIVE_SPANS
    }
    init = summary.get("kb.knowledge_base.init", {})
    result["kb.knowledge_base.init_self_us"] = init.get("self_s", 0.0) * 1e6 / ops
    calls = summary.get("logic.enumeration.models", {}).get("calls", 0)
    result["logic.enumeration.models_calls"] = calls / ops
    if snapshot_bytes:
        result["serve.store.snapshot_bytes_mean"] = sum(snapshot_bytes) / len(
            snapshot_bytes
        )
    return result


def ratio(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0
