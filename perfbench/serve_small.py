"""serve-small: the shipped ``repro serve`` out of process, driven over HTTP.

The server runs as ``python -m repro serve --store <tmpdir> --port 0`` with
every other setting at its shipped default (the traced run starts it through
``serve_launcher.py`` instead).  This process is the load generator: one
thread per keep-alive connection, each a closed loop over its own
:class:`~streams.ClientStream`.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

from streams import SERVE_ASK_EVERY, SERVE_VERBS, ClientStream

ATOMS = 4
CLIENTS = 2
HOST = "127.0.0.1"

#: Seconds a request, a start-up or a shutdown may take before it counts
#: as failed.
REQUEST_TIMEOUT = 30.0
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0

_EXPECTED_STATUS = {"create": 201, "query": 200, "delete": 200}


class ServerProcess:
    """One ``repro serve`` process: spawn, health-check, SIGTERM."""

    def __init__(self, root, store, launcher_args=None):
        self.root = root
        self.store = store
        self.launcher_args = launcher_args
        self.process = None
        self.port = None
        self.spawned = None

    def start(self) -> float:
        """Spawn and wait for ``/healthz``; returns the set-up seconds."""
        serve = ["serve", "--store", self.store, "--port", "0"]
        if self.launcher_args is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            launcher = os.path.join(self.root, "perfbench", "serve_launcher.py")
            command = [sys.executable, launcher, *self.launcher_args, *serve]
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.spawned = spawned = time.monotonic()
        self.process = subprocess.Popen(
            command, cwd=self.root, env=env, stdout=subprocess.PIPE, text=True
        )
        line = self.process.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        while True:
            try:
                status, _ = self.get("/healthz")
            except OSError:
                status = None
            if status == 200:
                return time.monotonic() - spawned
            if time.monotonic() - spawned > START_TIMEOUT:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.005)

    def get(self, path):
        connection = http.client.HTTPConnection(HOST, self.port, timeout=REQUEST_TIMEOUT)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> list:
        """SIGTERM and wait; returns the problems seen (empty when clean)."""
        problems = []
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            problems.append("server ignored SIGTERM")
        if self.process.returncode != 0:
            problems.append(f"server exited {self.process.returncode} on SIGTERM")
        leftovers = [name for name in os.listdir(self.store) if ".tmp" in name]
        if leftovers:
            problems.append(f"store temp files left behind: {leftovers}")
        return problems

    def kill(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait()


def _client(port, stream, seconds, barrier, out):
    connection = http.client.HTTPConnection(HOST, port, timeout=REQUEST_TIMEOUT)
    records, latencies, done = [], [], []
    barrier.wait()
    deadline = time.perf_counter() + seconds
    try:
        while time.perf_counter() < deadline:
            kind, verb, formula = stream.next()
            if kind == "create":
                method, path = "POST", "/v1/sessions"
                body = {"id": stream.session_id, "atoms": list(stream.vocabulary.atoms),
                        "formula": formula, "operators": stream.operators}
            elif kind == "delete":
                method, path, body = "DELETE", f"/v1/sessions/{stream.session_id}", None
            else:
                method, path = "POST", f"/v1/sessions/{stream.session_id}/query"
                body = {"op": verb, "formula": formula}
            payload = None if body is None else json.dumps(body)
            began = time.perf_counter()
            try:
                connection.request(method, path, body=payload,
                                   headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                raw = response.read()
                elapsed = time.perf_counter() - began
                if response.status != _EXPECTED_STATUS[kind]:
                    raise ValueError(f"HTTP {response.status}: {raw[:200]!r}")
                reply = json.loads(raw)
                if kind == "delete":
                    answer = None
                elif verb == "ask":
                    answer = reply["answer"]
                else:
                    answer = [reply["session"]["formula"], reply["session"]["models"]]
            except (OSError, http.client.HTTPException, ValueError, KeyError) as error:
                records.append([kind, verb, formula, False, repr(error)])
                break
            latencies.append((verb or kind, elapsed))
            done.append(began + elapsed)
            records.append([kind, verb, formula, True, answer])
            stream.observe(answer[1] if isinstance(answer, list) else answer)
    finally:
        connection.close()
        out.update(records=records, latencies=latencies, done=done)


def drive(port, seed, phase, seconds, vocabulary) -> dict:
    """Run the closed-loop clients for ``seconds``; returns their records."""
    barrier = threading.Barrier(CLIENTS + 1)
    clients = {}
    threads = []
    for index in range(CLIENTS):
        tag = f"{phase}-c{index}"
        stream = ClientStream(seed, tag, vocabulary, SERVE_VERBS, SERVE_ASK_EVERY)
        clients[tag] = {}
        threads.append(
            threading.Thread(
                target=_client, args=(port, stream, seconds, barrier, clients[tag])
            )
        )
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join(seconds + 2 * REQUEST_TIMEOUT)
        if thread.is_alive():
            raise RuntimeError("load client did not finish")
    elapsed = time.perf_counter() - start
    for client in clients.values():
        client["done"] = [moment - start for moment in client["done"]]
    return {"start": start, "elapsed": elapsed, "clients": clients}
