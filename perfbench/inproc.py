"""The process under test for the in-process workloads.

Run by ``run.py`` as a fresh interpreter per measurement, so set-up time
and peak memory start clean::

    python3 perfbench/inproc.py --workload session-replay --seed 1 \
        --seconds 10 --trace 0 --spawned-at <monotonic time> --out <directory>

``--setup-only`` stops once the first op could be sent and prints the
set-up time.  Otherwise the untraced phase runs for ``--seconds``; with
``--trace 1`` a traced phase of the same length follows, on fresh inputs.
Answers stream to record files in ``--out``, timings go to its
``result.json``; the parent checks the answers against the reference after
this process has exited.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from array import array
from contextlib import nullcontext

from streams import REPLAY_VERBS, ClientStream, audit_checksum, model_bits, update_inputs

_clock = time.perf_counter

#: Audit pass size: scenarios per (operator, axiom) cell, and weighted
#: scenarios per axiom.  Fixed per seed because ``stop_at_first`` is off.
AUDIT_MAX_SCENARIOS = 500
AUDIT_WEIGHTED_SCENARIOS = 500
AUDIT_ATOMS = 3
AUDIT_JOBS = 2


def _peak_rss_mib(children: bool = False) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def _spans(probe, name):
    return nullcontext() if probe is None else probe.tracer.span(name)


class Phase:
    """One timed phase: latencies and completion times in compact arrays,
    answer records streamed to a file so they do not grow this process."""

    def __init__(self, seconds, records_path):
        self._records = open(records_path, "w", encoding="utf-8", buffering=1 << 20)
        self.latencies = array("d")
        self.done = array("d")
        self.sizes = array("q")
        self.start = _clock()
        self.deadline = self.start + seconds

    def record(self, item) -> None:
        self._records.write(json.dumps(item) + "\n")

    def op_done(self, began, size=1) -> bool:
        """Log one finished op (``size`` ops for an audit pass); False once
        the phase's time is up."""
        now = _clock()
        self.latencies.append(now - began)
        self.done.append(now - self.start)
        self.sizes.append(size)
        return now < self.deadline

    def finish(self) -> dict:
        elapsed = _clock() - self.start
        self._records.close()
        return {
            "start": self.start,
            "ops": sum(self.sizes),
            "elapsed": elapsed,
            "latencies": list(self.latencies),
            "done": list(self.done),
            "sizes": list(self.sizes),
        }


class _SessionWorkload:
    """Set-up shared by the in-process session workloads (8 atoms)."""

    def __init__(self, seed):
        from repro.logic.random_formulas import random_vocabulary
        from repro.session import Session

        self.seed = seed
        self.session_class = Session
        self.vocabulary = random_vocabulary(8)
        self.atoms = list(self.vocabulary.atoms)


class SessionReplay(_SessionWorkload):
    """8 atoms on ``repro.session.Session``: revise/arbitrate/fit, each
    followed by ``state()``; one op is the verb call plus ``state()``."""

    def run(self, name, phase, probe):
        stream = ClientStream(self.seed, name, self.vocabulary, REPLAY_VERBS)
        session = None
        while True:
            kind, verb, formula = stream.next()
            if kind == "query":
                began = _clock()
                with _spans(probe, "harness.op"):
                    kb = getattr(session, verb)(formula)
                    state = session.state()
                more = phase.op_done(began)
                answer = [state["formula"], state["models"], model_bits(kb.model_set)]
                phase.record([kind, verb, formula, True, answer])
                stream.observe(state["models"])
                if not more:
                    return
                continue
            with _spans(probe, "harness.prep"):
                if kind == "create":
                    session = self.session_class(
                        stream.session_id,
                        atoms=self.atoms,
                        formula=formula,
                        operators=stream.operators,
                    )
                    count = len(session.kb.model_set)
                    phase.record([kind, verb, formula, True, [formula, count]])
                    stream.observe(count)
                else:
                    session = None
                    phase.record([kind, verb, formula, True, None])
                    stream.observe(None)


class UpdateHeavy(_SessionWorkload):
    """8 atoms: each op is one ``update`` on a fresh ``Session`` with a broad
    random ψ, alternating the Winslett and Forbus operators."""

    def run(self, name, phase, probe):
        index = 0
        while True:
            operator, psi, mu = update_inputs(self.seed, name, index, self.vocabulary)
            with _spans(probe, "harness.prep"):
                session = self.session_class(
                    f"u{index}",
                    atoms=self.atoms,
                    formula=psi,
                    operators={"update": operator},
                )
            began = _clock()
            with _spans(probe, "harness.op"):
                kb = session.update(mu)
            more = phase.op_done(began)
            phase.record(model_bits(kb.model_set))
            index += 1
            if not more:
                return


def audit_pass(seed, jobs, max_scenarios=None, weighted_scenarios=None):
    """One audit pass: the boolean matrix, then the weighted audit."""
    from repro.bench.experiments import standard_operators
    from repro.core.weighted import WeightedModelFitting
    from repro.engine.pool import run_audit
    from repro.engine.weighted import run_weighted_audit
    from repro.logic.random_formulas import random_vocabulary
    from repro.postulates.axioms import ALL_AXIOMS

    vocabulary = random_vocabulary(AUDIT_ATOMS)
    boolean = run_audit(
        standard_operators(),
        list(ALL_AXIOMS),
        vocabulary,
        max_scenarios=max_scenarios or AUDIT_MAX_SCENARIOS,
        rng=seed,
        stop_at_first=False,
        jobs=jobs,
    )
    weighted = run_weighted_audit(
        WeightedModelFitting(),
        vocabulary=vocabulary,
        scenarios=weighted_scenarios or AUDIT_WEIGHTED_SCENARIOS,
        rng=seed,
        stop_at_first=False,
        jobs=jobs,
    )
    return boolean, weighted


class Audit:
    """``run_audit`` over the standard operators and every axiom, then
    ``run_weighted_audit`` of weighted model-fitting, both at 3 atoms with
    ``jobs=2``; one op is one scenario checked, one pass is both audits."""

    def __init__(self, seed):
        self.seed = seed
        # Set-up includes pool spawn and arena publish: one minimal pass.
        audit_pass(seed, AUDIT_JOBS, 1, 1)

    def run(self, name, phase, probe):
        while True:
            began = _clock()
            with _spans(probe, "harness.op"):
                boolean, weighted = audit_pass(self.seed, AUDIT_JOBS)
            more = phase.op_done(began, boolean.stats.scenarios + weighted.stats.scenarios)
            phase.record(
                {
                    "checksum": audit_checksum(boolean.results, weighted.results),
                    "pool": _engine_record(boolean.stats),
                    "weighted": _engine_record(weighted.stats),
                }
            )
            if not more:
                return


def _engine_record(stats) -> dict:
    return {
        "scenarios": stats.scenarios,
        "chunks": stats.chunks,
        "chunk_seconds": stats.chunk_seconds,
        "elapsed_seconds": stats.elapsed_seconds,
        "key_hits": stats.key_hits,
        "key_misses": stats.key_misses,
        "result_hits": stats.result_hits,
        "result_misses": stats.result_misses,
        "retries": stats.retries,
        "degraded": stats.chunks_degraded,
        "shm_bytes": stats.shm_bytes,
    }


WORKLOADS = {
    "session-replay": SessionReplay,
    "update-heavy": UpdateHeavy,
    "audit": Audit,
}


def _run_phase(workload, name, args, probe=None) -> dict:
    phase = Phase(args.seconds, os.path.join(args.out, f"{name}-records.jsonl"))
    try:
        workload.run(name, phase, probe)
    finally:
        result = phase.finish()
    return result


def _traced_phase(workload, args) -> dict:
    """The same workload on fresh inputs with every layer wrapped."""
    from layers import LayerProbe, ratio
    from repro.session import default_registry

    probe = LayerProbe()
    probe.install()
    traced = _run_phase(workload, "traced", args, probe)
    layer = probe.metrics(traced["ops"])
    layer.update(probe.batched_hit_ratios())
    contexts = default_registry().cache_info()
    layer["session.registry.context_hit_ratio"] = ratio(contexts.hits, contexts.misses)
    if args.workload == "audit":
        matrix = probe.tracer.summary().get("distances.kernels.distance_matrix", {})
        passes = len(traced["sizes"])
        layer["distances.kernels.matrix_builds"] = matrix.get("calls", 0) / passes
        layer["distances.kernels.matrix_s"] = matrix.get("busy_s", 0.0) / passes
    traced["layer"] = layer
    traced["coverage"] = probe.coverage(traced["elapsed"])
    if args.spans_out:
        probe.tracer.dump(args.spans_out)
    return traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", help="directory for the result and the records")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"setup_s": setup_s, "phases": {"plain": _run_phase(workload, "plain", args)}}
    result["peak_rss_mib"] = _peak_rss_mib(children=args.workload == "audit")
    if args.trace:
        result["phases"]["traced"] = _traced_phase(workload, args)
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
