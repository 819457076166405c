"""The engine process of one benchmark run.

Started fresh for every set-up, so no process-wide state (plug-in caches,
compiled programs, mapped files) carries over between runs or between the
traced and untraced figures of different runs.  It registers the datasets,
answers one first query right after the first registration, warms up, and
then prints one ``READY`` line.  After that it takes line commands on
stdin:

``exit``           stop and exit (a set-up-only process).
``trace``          install the layer wrappers of :mod:`tracing`.
``report PATH``    write spans, counters and peak RSS to ``PATH``, exit.
``run PATH``       (library workloads) run the closed-loop load described
                   by the JSON file ``PATH``, write its records and exit.
                   Untraced, the load prints ``PAUSE`` after each segment
                   and waits for a ``go`` line.

Usage: ``python host.py CONFIG.json`` — the config is written by ``run.py``.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import sys
import threading
import time

import queries
import tracing


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def register(engine, kind: str, name: str, path: str) -> None:
    if kind == "json":
        engine.register_json(name, path)
    elif kind == "csv":
        engine.register_csv(name, path)
    else:
        engine.register_binary_columns(name, path)


def new_engine(config: dict):
    from repro import ProteusEngine

    return ProteusEngine(cache_budget_bytes=config["cache_budget_bytes"])


def set_up(config: dict):
    """Create the engine, register, answer the first query, warm up."""
    engine = new_engine(config)
    first = first_result(engine, config)
    for registration in config["registrations"][1:]:
        register(engine, *registration)
    for text, args in config["warm_queries"]:
        engine.query(text, *args).rows
    return engine, first


def first_result(engine, config: dict) -> list:
    """``[milliseconds, rows]`` from registering the first dataset to the
    first answer over it."""
    text, args = config["first_query"]
    started = time.perf_counter()
    register(engine, *config["registrations"][0])
    rows = engine.query(text, *args).rows
    return [(time.perf_counter() - started) * 1000.0, [list(row) for row in rows]]


# ---------------------------------------------------------------------------
# Library load (raw_refresh): two clients in this process, one re-registers
# ---------------------------------------------------------------------------


class VersionGate:
    """Readers-writer gate around the re-registered dataset: a
    re-registration waits for in-flight queries on it and holds new ones
    back.  Queries on other datasets never wait.

    The gate works around an engine defect: a query that races
    ``register_json`` of the same name can answer from a mix of the old and
    the new file, which matches neither version.  Plug-in state and field
    caches are keyed by dataset name, and the racing query refills them from
    the old file after the re-registration dropped them.  Once the engine is
    fixed, the gate can go.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writing = False

    @contextlib.contextmanager
    def read(self):
        with self._cond:
            while self._writing:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                self._cond.notify_all()

    @contextlib.contextmanager
    def write(self):
        with self._cond:
            self._writing = True
            while self._readers:
                self._cond.wait()
        try:
            yield
        finally:
            with self._cond:
                self._writing = False
                self._cond.notify_all()


class RefreshLoad:
    """Closed loop over ``engine.query`` with ad hoc literal texts.

    Client 0 re-registers the JSON dataset to the next file version every
    ``reregister_every`` of its queries; its next query reads that dataset
    and times the first result on the new version.  Version numbers are
    sequence numbers: ``pending`` is set before the registration call and
    ``committed`` after it, so a query that started at ``committed == a``
    and ended at ``pending == b`` may answer for any version in ``a..b``.
    """

    def __init__(self, engine, spec: dict, recorder=None):
        self.engine = engine
        self.spec = spec
        self.recorder = recorder
        self.committed = spec["start_version"]
        self.pending = spec["start_version"]
        self.records: list[list] = []
        self.first_results: list[list] = []
        self.builds: list[float] = []
        self.errors: list[str] = []
        self.gate = VersionGate()

    def run(self, seconds: float, clients: int) -> float:
        deadline = time.perf_counter() + seconds
        threads = [
            threading.Thread(target=self._client, args=(cid, deadline), name=f"client-{cid}")
            for cid in range(clients)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return started

    def _client(self, cid: int, deadline: float) -> None:
        spec = self.spec
        pool = spec["pool"]
        rng = random.Random(spec["seed"] * 1000 + cid + 17 * spec["phase"])
        picks = queries.dealt(range(len(pool)), rng)
        json_picks = queries.dealt([i for i, entry in enumerate(pool) if entry[1]], rng)
        versions = spec["version_files"]
        count = 0
        registered_at = None
        while time.perf_counter() < deadline:
            if cid == 0 and count and count % spec["reregister_every"] == 0:
                seq = self.committed + 1
                with self.gate.write():
                    self.pending = seq
                    registered_at = time.perf_counter()
                    self.engine.register_json(spec["json_name"], versions[seq % len(versions)])
                    self.committed = seq
            pick = next(json_picks if registered_at is not None else picks)
            versioned = pool[pick][1]
            rid = f"q{cid}-{spec['phase']}-{count}"
            if self.recorder is not None:
                self.recorder.request = rid
                span = self.recorder.open("client.request")
            t0 = time.perf_counter()
            try:
                with self.gate.read() if versioned else contextlib.nullcontext():
                    low = self.committed
                    rows = [list(row) for row in self.engine.query(pool[pick][0]).rows]
            except Exception as exc:  # noqa: BLE001 - a failed query is counted
                rows = None
                self.errors.append(f"{type(exc).__name__}: {exc}")
            t1 = time.perf_counter()
            if self.recorder is not None:
                self.recorder.close(span)
                self.recorder.request = None
            self.records.append([pick, low, self.pending, rows, t0, t1])
            if registered_at is not None:
                self.first_results.append([len(self.records) - 1, t1 - registered_at])
                if self.recorder is not None:
                    info = self.engine.structural_index_info(spec["json_name"])
                    self.builds.append(info["build_seconds"])
                registered_at = None
            count += 1


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        config = json.load(handle)
    engine, first = set_up(config)
    server = None
    port = 0
    if config["http"]:
        from repro.serve import ProteusServer

        server = ProteusServer(engine).start()
        port = server.port
    recorder = None
    before = None
    try:
        print("READY " + json.dumps({"port": port, "first": first}), flush=True)
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "exit":
                return 0
            if command == "trace":
                recorder = tracing.Recorder()
                tracing.install(recorder, engine, server)
                before = tracing.engine_counters(engine)
                print("OK", flush=True)
            elif command == "report":
                if server is not None:
                    server.stop()
                    server = None
                report = {
                    "peak_rss_mb": peak_rss_mb(),
                    "spans": recorder.spans if recorder else [],
                    "before": before,
                    "after": tracing.engine_counters(engine),
                }
                _write(argument, report)
                print("DONE", flush=True)
                return 0
            elif command == "run":
                with open(argument, encoding="utf-8") as handle:
                    spec = json.load(handle)
                _write(argument, run_library(engine, spec))
                print("DONE", flush=True)
                return 0
    finally:
        if server is not None:
            server.stop()
    return 1


def run_library(engine, spec: dict) -> dict:
    """``spec["segments"]`` untraced phases, each followed by a pause until
    the load generator has timed a set-up, or (with ``spec["trace"]``) an
    untraced and a traced phase."""
    phases = []
    version = 0
    durations = [spec["seconds"] / spec["segments"]] * spec["segments"]
    if spec["trace"]:
        durations = [spec["seconds"] / 2.0, spec["seconds"] / 2.0]
    recorder = None
    before = None
    for phase, seconds in enumerate(durations):
        if spec["trace"] and phase == 1:
            recorder = tracing.Recorder()
            tracing.install(recorder, engine)
            before = tracing.engine_counters(engine)
        load = RefreshLoad(engine, dict(spec, phase=phase, start_version=version), recorder)
        started = load.run(seconds, spec["clients"])
        version = load.committed
        phases.append({
            "started": started,
            "records": load.records,
            "first_results": load.first_results,
            "builds": load.builds,
            "errors": load.errors[:20],
        })
        if not spec["trace"]:
            print("PAUSE", flush=True)
            if sys.stdin.readline().strip() != "go":
                raise RuntimeError("load generator did not resume the load")
    return {
        "phases": phases,
        "peak_rss_mb": peak_rss_mb(),
        "spans": recorder.spans if recorder else [],
        "before": before,
        "after": tracing.engine_counters(engine),
    }


def _write(path: str, payload: dict) -> None:
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(path + ".tmp", path)


if __name__ == "__main__":
    sys.exit(main())
