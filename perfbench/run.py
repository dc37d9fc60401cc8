"""The repository benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 10 --trace 0

Workloads (``perfbench/WORKLOADS.md`` records why each exists):

* ``serve-small``    — ``repro serve`` out of process, 2 closed-loop HTTP clients;
* ``session-replay`` — in-process ``Session`` verbs, each followed by ``state()``;
* ``update-heavy``   — in-process Winslett/Forbus updates on fresh sessions
  (runnable by hand; dropped from ``BENCHMARK.json`` as unsteady);
* ``audit``          — the postulate audit through the parallel engine.

With ``--trace 0`` the end-to-end metrics are measured untraced.  With
``--trace 1`` the untraced phase is followed by a traced phase of the same
length whose spans give the per-layer metrics.  Timing metrics are taken
over the run's quiet time, in which the host stole no CPU time from this
virtual machine (``quiet.py``).  Every answer is checked
against a plain-operator reference after the timed phases; a mismatch fails
the run.  The last line of standard output is the JSON result; the line
before it records the environment and the op accounting.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("serve-small", "session-replay", "update-heavy", "audit")

#: Each of these switches which code path runs, so a run refuses them.
GUARDED_ENV = ("REPRO_FAULTS", "REPRO_SHM", "REPRO_SYMBOLIC_THRESHOLD", "REPRO_OBS")

#: Fresh-process set-ups per run; ``setup_s`` is the median of the quiet
#: ones, or of the :data:`MIN_QUIET_SETUPS` least stolen.
SETUP_SAMPLES = 5
MIN_QUIET_SETUPS = 3

#: Fewest quiet seconds, ops and audit passes a timing metric is taken over
#: (see :mod:`quiet`); a run on a busy host falls back to its calmest ones.
#: 1000 ops leave 10 samples beyond ``p99_ms``.
MIN_QUIET_SECONDS = 1.0
MIN_QUIET_OPS = 1000
MIN_QUIET_PASSES = 3

#: Timeout of one in-process child (set-up, phases and writing records).
CHILD_TIMEOUT = 150.0

#: Bound on |span self-time sum / traced wall time - 1| for the in-process
#: op paths: beyond it the spans miss part of the work.
COVERAGE_TOLERANCE = 0.10


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _ops(phase) -> list:
    """(began, done, seconds, size) of every op, in ``perf_counter`` time."""
    start = phase["start"]
    sizes = phase.get("sizes") or [1] * len(phase["done"])
    return [
        (start + done - seconds, start + done, seconds, size)
        for done, seconds, size in zip(phase["done"], phase["latencies"], sizes)
    ]


def _quiet_rate(phase, monitor) -> float:
    """Ops completed per second of the phase's quiet time (see :mod:`quiet`),
    so the host's bursts of steal time do not move the figure."""
    start = phase["start"]
    return monitor.quiet_rate(
        [start + done for done in phase["done"]],
        start, start + phase["elapsed"], MIN_QUIET_SECONDS,
    )


def _pass_rate(phase, monitor) -> float:
    """Median over the audit's quiet passes of a pass's scenarios over its
    wall time."""
    passes = monitor.quiet(_ops(phase), lambda op: op[:2], MIN_QUIET_PASSES)
    return statistics.median(size / seconds for _, _, seconds, size in passes)


def _setup_s(setups, monitor) -> float:
    """Median set-up time over the quiet set-ups ((spawned, seconds) pairs)."""
    quiet = monitor.quiet(setups, lambda setup: (setup[0], setup[0] + setup[1]),
                          MIN_QUIET_SETUPS)
    return statistics.median(seconds for _, seconds in quiet)


def _latency_metrics(phase, monitor, minimum) -> dict:
    """p50 and p99 over the ops that ran in quiet time."""
    ops = monitor.quiet(_ops(phase), lambda op: op[:2], minimum)
    latencies = [seconds for _, _, seconds, _ in ops]
    if len(latencies) < 2:
        raise BenchError(f"only {len(latencies)} ops completed; no latency percentiles")
    p99 = statistics.quantiles(latencies, n=100, method="inclusive")[98]
    return {"p50_ms": statistics.median(latencies) * 1e3, "p99_ms": p99 * 1e3,
            "latency_samples": len(latencies)}


# -- serve-small ----------------------------------------------------------------


def _serve_small(args, scratch, monitor) -> dict:
    import serve_small
    from repro.logic.random_formulas import random_vocabulary
    from streams import SERVE_ASK_EVERY, SERVE_VERBS, ClientStream, check_stream

    vocabulary = random_vocabulary(serve_small.ATOMS)
    problems = []

    def serve_phase(phase, launcher_args=None, samples=1):
        setups = []
        for sample in range(samples):
            store = tempfile.mkdtemp(prefix=f"{phase}-store-", dir=scratch)
            server = serve_small.ServerProcess(ROOT, store, launcher_args)
            try:
                seconds = server.start()
                setups.append((server.spawned, seconds))
                if sample < samples - 1:
                    problems.extend(server.stop())
                    continue
                load = serve_small.drive(
                    server.port, args.seed, phase, args.seconds, vocabulary
                )
                load["peak_rss_mib"] = server.peak_rss_mib()
                if launcher_args is not None:
                    status, load["server_metrics"] = server.get("/metrics")
                    if status != 200:
                        raise BenchError(f"/metrics answered {status}")
                problems.extend(server.stop())
            finally:
                server.kill()
        load["setup_s"] = _setup_s(setups, monitor)
        return load

    phases = {"plain": serve_phase("plain", samples=SETUP_SAMPLES)}
    if args.trace:
        summary_path = os.path.join(scratch, "serve-summary.json")
        phases["traced"] = serve_phase(
            "traced",
            ["--summary-out", summary_path, "--spans-out", _spans_path(args.workload)],
        )
        with open(summary_path, encoding="utf-8") as handle:
            phases["traced"].update(json.load(handle))

    attempted = failed = 0
    for phase, load in phases.items():
        load["ops"] = 0
        for tag, client in load["clients"].items():
            records = client["records"]
            attempted += len(records)
            failed += sum(1 for record in records if not record[3])
            load["ops"] += len(client["latencies"])
            stream = ClientStream(args.seed, tag, vocabulary, SERVE_VERBS, SERVE_ASK_EVERY)
            _, error = check_stream(stream, records)
            if error:
                problems.append(f"{phase} {tag}: {error}")

    for load in phases.values():
        completions = sorted(
            (offset, seconds)
            for client in load["clients"].values()
            for offset, (_, seconds) in zip(client["done"], client["latencies"])
        )
        load["done"] = [offset for offset, _ in completions]
        load["latencies"] = [seconds for _, seconds in completions]
    plain = phases["plain"]
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "quiet_share": monitor.quiet_share(plain["start"], plain["start"] + plain["elapsed"]),
        "end_to_end": {
            "ops_per_s": _quiet_rate(plain, monitor),
            **_latency_metrics(plain, monitor, MIN_QUIET_OPS),
            "setup_s": plain["setup_s"],
            "peak_rss_mib": plain["peak_rss_mib"],
        },
    }
    if args.trace:
        result["per_layer"] = _serve_layers(phases, monitor)
    return result


def _serve_layers(phases, monitor) -> dict:
    from layers import ratio, span_metrics

    plain, traced = phases["plain"], phases["traced"]
    summary = traced["summary"]
    layer = span_metrics(summary, traced["ops"], traced["snapshot_bytes"])
    counters = traced["server_metrics"]["counters"]
    histograms = traced["server_metrics"]["histograms"]
    requests = histograms["serve.request_seconds"]
    worker_busy = summary.get("serve.worker.batch", {}).get("busy_s", 0.0)
    layer["serve.server.wait_us"] = (
        (requests["total"] - worker_busy) * 1e6 / requests["count"]
    )
    layer["serve.server.batch_size_mean"] = histograms["serve.batch_size"]["mean"]
    layer["serve.server.coalesced_ratio"] = counters.get("serve.coalesced", 0) / max(
        counters.get("serve.queries", 0), 1
    )
    layer["serve.server.shed"] = counters.get("serve.shed", 0)

    def hits(name):
        return ratio(
            counters.get(f"cache.{name}.hits", 0), counters.get(f"cache.{name}.misses", 0)
        )

    layer["session.registry.context_hit_ratio"] = hits("session.contexts")
    layer["engine.batched.key_hit_ratio"] = hits("engine.keys")
    layer["engine.batched.result_hit_ratio"] = hits("engine.results")
    by_verb = {"ask": [], "mutate": []}
    for client in plain["clients"].values():
        for verb, seconds in client["latencies"]:
            if verb == "ask":
                by_verb["ask"].append(seconds)
            elif verb not in ("create", "delete"):
                by_verb["mutate"].append(seconds)
    layer["client.ask_p50_ms"] = statistics.median(by_verb["ask"]) * 1e3
    layer["client.mutate_p50_ms"] = statistics.median(by_verb["mutate"]) * 1e3
    layer["trace.overhead_frac"] = 1 - _quiet_rate(traced, monitor) / _quiet_rate(
        plain, monitor
    )
    return layer


# -- in-process workloads ------------------------------------------------------


def _child(args, extra, timeout=CHILD_TIMEOUT):
    """Run ``inproc.py``; returns its output and the time it was spawned."""
    spawned = time.monotonic()
    command = [
        sys.executable,
        os.path.join(HERE, "inproc.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--spawned-at", repr(spawned),
        *extra,
    ]
    env = dict(os.environ, PYTHONPATH=SRC)
    completed = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True
    )
    if completed.returncode != 0:
        raise BenchError(f"{args.workload} process exited {completed.returncode}")
    return completed.stdout, spawned


def _inprocess(args, scratch, monitor) -> dict:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        output, spawned = _child(args, ["--setup-only"], timeout=60.0)
        setups.append((spawned, json.loads(output)["setup_s"]))
    extra = ["--out", scratch]
    if args.trace:
        extra += ["--spans-out", _spans_path(args.workload)]
    _, spawned = _child(args, extra)
    with open(os.path.join(scratch, "result.json"), encoding="utf-8") as handle:
        child = json.load(handle)
    setups.append((spawned, child["setup_s"]))
    phases = child["phases"]

    problems = []
    audit_reference = _serial_audit_checksum(args.seed) if args.workload == "audit" else None
    for name in phases:
        with open(os.path.join(scratch, f"{name}-records.jsonl"), encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        error = _check_inprocess(args, name, records, audit_reference)
        if error:
            problems.append(f"{name}: {error}")
        if args.workload == "audit":
            phases[name]["records"] = records
    plain = phases["plain"]
    # The audit's passes are its samples: no per-scenario timing exists.
    rate = _pass_rate if args.workload == "audit" else _quiet_rate
    minimum = MIN_QUIET_PASSES if args.workload == "audit" else MIN_QUIET_OPS
    result = {
        "attempted": sum(data["ops"] for data in phases.values()),
        "failed": 0,
        "problems": problems,
        "quiet_share": monitor.quiet_share(plain["start"], plain["start"] + plain["elapsed"]),
        "end_to_end": {
            "ops_per_s": rate(plain, monitor),
            **_latency_metrics(plain, monitor, minimum),
            "setup_s": _setup_s(setups, monitor),
            "peak_rss_mib": child["peak_rss_mib"],
        },
    }
    if args.trace:
        traced = phases["traced"]
        layer = traced["layer"]
        layer["trace.overhead_frac"] = 1 - rate(traced, monitor) / rate(plain, monitor)
        if args.workload == "audit":
            layer.update(_engine_layers(traced["records"]))
        elif abs(traced["coverage"] - 1) > COVERAGE_TOLERANCE:
            problems.append(
                f"span self times cover {traced['coverage']:.3f} of the traced "
                "wall time; the op path is not fully traced"
            )
        result["per_layer"] = layer
        result["coverage"] = traced["coverage"]
    return result


def _check_inprocess(args, phase, records, audit_reference):
    from repro.logic.random_formulas import random_vocabulary
    from streams import REPLAY_VERBS, ClientStream, check_stream, check_updates

    if args.workload == "session-replay":
        stream = ClientStream(args.seed, phase, random_vocabulary(8), REPLAY_VERBS)
        return check_stream(stream, records)[1]
    if args.workload == "update-heavy":
        return check_updates(args.seed, phase, random_vocabulary(8), records)[1]
    for index, record in enumerate(records):
        if record["checksum"] != audit_reference:
            return f"audit pass {index} differs from the serial harness"
    return None


def _serial_audit_checksum(seed) -> str:
    """Checksum of the serial harness (``jobs=1``) on the audit's inputs."""
    from inproc import audit_pass
    from streams import audit_checksum

    boolean, weighted = audit_pass(seed, jobs=1)
    return audit_checksum(boolean.results, weighted.results)


def _engine_layers(records) -> dict:
    from inproc import AUDIT_JOBS
    from layers import ratio

    layer = {}
    for engine in ("pool", "weighted"):
        stats = [record[engine] for record in records]

        def total(key):
            return sum(entry[key] for entry in stats)

        passes = len(stats)
        layer.update({
            f"engine.{engine}.scenarios": total("scenarios") / passes,
            f"engine.{engine}.chunks": total("chunks") / passes,
            f"engine.{engine}.busy_s": total("chunk_seconds") / passes,
            f"engine.{engine}.idle_frac": 1 - total("chunk_seconds") / (
                total("elapsed_seconds") * AUDIT_JOBS
            ),
            f"engine.{engine}.key_hit_ratio": ratio(total("key_hits"), total("key_misses")),
            f"engine.{engine}.result_hit_ratio": ratio(
                total("result_hits"), total("result_misses")
            ),
            f"engine.{engine}.retries": total("retries"),
            f"engine.{engine}.degraded": total("degraded"),
        })
    layer["engine.shm.bytes"] = sum(
        record["pool"]["shm_bytes"] + record["weighted"]["shm_bytes"] for record in records
    ) / len(records)
    return layer


# -- driver ------------------------------------------------------------------------


def _spans_path(workload) -> str:
    directory = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, f"spans-{workload}.json")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, _frame):
    """SIGTERM unwinds like an error, so every server and child is stopped."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    guarded = [name for name in GUARDED_ENV if name in os.environ]
    if guarded:
        print(f"refusing to run: {', '.join(guarded)} set (each changes the code path)",
              file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"refusing to run: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from quiet import StealMonitor

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)

    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root)
    try:
        runner = _serve_small if args.workload == "serve-small" else _inprocess
        with StealMonitor() as monitor:
            result = runner(args, scratch, monitor)
    except (BenchError, subprocess.TimeoutExpired, RuntimeError, OSError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    error_rate = failed / attempted if attempted else 1.0
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not result["problems"]
    latency_samples = result["end_to_end"].pop("latency_samples")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": _environment(),
        "attempted": attempted,
        "succeeded": attempted - failed,
        "failed": failed,
        "error_rate": error_rate,
        "quiet_share": result["quiet_share"],
        "end_to_end": result["end_to_end"],
        "latency_samples": latency_samples,
    }
    if args.trace:
        values = dict(result["per_layer"], error_rate=error_rate)
        undeclared = set(values) - {entry["name"] for entry in declared["per_layer"]}
        if undeclared:
            print(f"benchmark failed: undeclared metrics {sorted(undeclared)}", file=sys.stderr)
            return 1
        record["span_coverage"] = result.get("coverage")
        # A layer the workload never reaches did no work in it: 0.
        metrics = {
            entry["name"]: {"value": values.get(entry["name"], 0.0), "unit": entry["unit"]}
            for entry in declared["per_layer"]
        }
    else:
        metrics = {
            entry["name"]: {"value": result["end_to_end"][entry["name"]], "unit": entry["unit"]}
            for entry in declared["end_to_end"]
        }
    print(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
