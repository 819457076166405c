"""The repository benchmark: served analytics and raw-file refresh, end to
end and per layer.

    python3 perfbench/run.py --workload serve_analytics --seed 1 --seconds 40 --trace 0

Workloads (closed loop, ``CLIENTS`` clients, each waits for its reply):

``serve_analytics``  HTTP ``POST /v1/query`` to one ``ProteusServer``:
                     parameterized aggregates, group-bys, a binary join, a
                     top-K and a null-key group-by (Volcano after TIER009).
``raw_refresh``      ``engine.query`` with ad hoc literal texts over a raw
                     JSON and a raw CSV file; one client re-registers the
                     JSON file to its next version every few queries.

Each run generates (or reuses) its seeded inputs, starts the engine in a
fresh process, runs the load for ``--seconds`` (with ``--trace 0``, in
segments, with a timed set-up of another fresh process before the load and
after each segment), checks every answer against NumPy
references and prints one JSON result as its last line.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` splits the time in an
untraced and a traced half and reports the per-layer metrics plus the
tracing overhead.  Exit status 1 means a failed, refused or wrong answer,
2 a broken set-up.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

import queries
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

#: Closed-loop clients: at most two, and never more than the cores.
CLIENTS = max(1, min(2, os.cpu_count() or 1))
#: Engine set-ups before the load of a ``--trace 0`` run.  One more follows
#: each segment, so ``setup_s``, the median of all, samples the whole run.
SETUPS = 3
#: ``raw_refresh``: client 0 re-registers after this many of its queries.
#: The first queries on a new version (and the queries that wait for their
#: scans) are the slow mode of the latencies, here about 3-5% of them, so
#: ``p99_ms`` falls inside that mode.  With half as many re-registrations
#: the mode is about 1.5% of the queries, and ``p99_ms`` sits on the cliff
#: between the modes, where it jumps between runs.
REREGISTER_EVERY = 16
#: ``--trace 0`` runs the load in this many segments; ``qps`` and ``p50_ms``
#: are medians over them, so a slow phase of a shared machine moves one
#: segment rather than the figure.  After each segment the clients pause
#: while one more set-up is timed in a fresh process (in ``serve_analytics``
#: it gives a ``first_result_ms`` sample too).
SEGMENTS = 5
#: Seconds to wait for an engine process to become ready or finish.
HOST_TIMEOUT = 150.0

END_TO_END_UNITS = {
    "qps": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "first_result_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class SetupError(RuntimeError):
    """The engine process could not be started or driven."""


# ---------------------------------------------------------------------------
# Engine processes
# ---------------------------------------------------------------------------


class Host:
    """One engine process (``host.py``), driven by line commands."""

    def __init__(self, config_path: str, *args: str):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "host.py"), config_path, *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT,
            text=True, bufsize=1,
        )

    def expect(self, prefix: str, timeout: float = HOST_TIMEOUT) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith(prefix):
            raise SetupError(f"engine process: expected {prefix!r}, got {line!r}")
        return line[len(prefix):].strip()

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.send("exit")
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


# ---------------------------------------------------------------------------
# HTTP closed loop
# ---------------------------------------------------------------------------


def http_query(port: int, request: bytes) -> tuple[int, bytes, int]:
    """One HTTP/1.0 exchange: ``(status, raw response, body offset)``."""
    with socket.create_connection(("127.0.0.1", port)) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head = raw.find(b"\r\n\r\n")
    status = int(raw[9:12]) if raw.startswith(b"HTTP/") else 0
    return status, raw, head + 4


def request_bytes(instance, query_id: str | None) -> bytes:
    body = {"query": instance.text, "args": list(instance.args)}
    if query_id is not None:
        body["query_id"] = query_id
    payload = json.dumps(body).encode()
    return (b"POST /v1/query HTTP/1.0\r\nHost: bench\r\nContent-Type: application/json"
            b"\r\nContent-Length: %d\r\n\r\n" % len(payload)) + payload


class HttpLoad:
    """Closed-loop HTTP clients.  Answers are not parsed while timing: each
    client keeps one copy of every distinct ``columns``/``data`` prefix per
    instance (byte comparison), and each record points at its copy, so all
    answers are checked after the run."""

    def __init__(self, port: int, instances, weights, seed: int):
        self.port = port
        self.instances = instances
        self.deck = queries.deck(weights)
        self.seed = seed
        self.failures: list[str] = []
        self._lock = threading.Lock()

    def phase(self, seconds: float, phase: int, traced: bool) -> dict:
        """Records ``(instance, t0, t1, answer prefix or None, bytes, id)``."""
        deadline = time.perf_counter() + seconds
        per_client: list[list] = [[] for _ in range(CLIENTS)]
        threads = [
            threading.Thread(target=self._client,
                             args=(cid, deadline, phase, traced, per_client[cid]))
            for cid in range(CLIENTS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return {"started": started, "records": [r for c in per_client for r in c]}

    def _client(self, cid, deadline, phase, traced, out) -> None:
        picks = queries.dealt(self.deck, random.Random(self.seed * 1000 + cid * 7 + phase))
        variants: dict[int, list[bytes]] = {}
        for n in itertools.count():
            if time.perf_counter() >= deadline:
                break
            index = next(picks)
            rid = f"c{cid}-{phase}-{n}" if traced else None
            request = request_bytes(self.instances[index], rid)
            t0 = time.perf_counter()
            try:
                status, raw, body = http_query(self.port, request)
            except OSError as exc:
                status, raw, body = 0, str(exc).encode(), 0
            t1 = time.perf_counter()
            answer = None
            if status == 200:
                end = raw.rfind(b'"row_count":')
                known = variants.setdefault(index, [])
                for prefix in known:
                    if len(prefix) == end - body and raw.startswith(prefix, body):
                        answer = prefix
                        break
                else:
                    answer = raw[body:end]
                    known.append(answer)
            else:
                with self._lock:
                    self.failures.append(raw[:300].decode(errors="replace"))
            out.append((index, t0, t1, answer, len(raw), rid))


def decode_prefix(prefix: bytes) -> list[tuple]:
    """Rows of a response prefix ``{"columns": [...], "data": {...}, ``."""
    payload = json.loads(prefix.rstrip().rstrip(b",") + b"}")
    columns = [payload["data"][name] for name in payload["columns"]]
    return list(zip(*columns))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def serve_config(tables, files):
    instances, weights = queries.serve_instances(tables)
    first = next(i for i in instances if "li_json" in i.text)
    warm, seen = [], {}
    for instance in instances:
        if seen.setdefault(instance.cls, 0) < 2:
            seen[instance.cls] += 1
            warm.append([instance.text, list(instance.args)])
    config = {
        "http": True,
        "cache_budget_bytes": 256 * 2**20,
        "registrations": [
            ["json", "li_json", files["li_json"]],
            ["binary", "li", files["li"]],
            ["binary", "ord", files["ord"]],
            ["json", "events", files["events"]],
        ],
        "first_query": [first.text, list(first.args)],
        "warm_queries": warm,
    }
    return config, instances, weights, first


def refresh_config(args, tables, files):
    import data

    pool = queries.refresh_instances(tables)
    first = next(i for i in pool if i.versioned)
    working_set = sum(
        col.nbytes for name in ("v0", "csv") for col in tables[name].values()
    )
    config = {
        "http": False,
        # About half the numeric working set: larger than the cache.
        "cache_budget_bytes": working_set // 2,
        "registrations": [["json", "lj", files["v0"]], ["csv", "oc", files["csv"]]],
        "first_query": [first.text, []],
        "warm_queries": [[i.text, []] for i in pool[:16]],
    }
    spec = {
        "pool": [[i.text, i.versioned] for i in pool],
        "version_files": [files[f"v{v}"] for v in range(data.REFRESH_VERSIONS)],
        "json_name": "lj",
        "reregister_every": REREGISTER_EVERY,
        "clients": CLIENTS,
        "seed": args.seed,
    }
    return config, pool, first, spec


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


class Checker:
    """Compares answers with NumPy references (computed once per instance
    and data version).  ``plant_wrong`` corrupts the first reference it
    computes — the self-test's proof that the gate can fail."""

    def __init__(self, reference, plant_wrong: bool = False):
        self.reference = reference
        self.plant_wrong = plant_wrong
        self._cache: dict = {}
        self.mismatches: list[str] = []

    def expected(self, instance, version=None):
        key = (instance.key, version)
        if key not in self._cache:
            rows = self.reference(instance, version)
            if self.plant_wrong:
                self.plant_wrong = False
                rows = [tuple(_corrupt(v) for v in rows[0])] + list(rows[1:])
            self._cache[key] = rows
        return self._cache[key]

    def check(self, instance, rows, versions=(None,)) -> bool:
        for version in versions:
            if queries.same_rows(rows, self.expected(instance, version), instance.ordered):
                return True
        if len(self.mismatches) < 5:
            self.mismatches.append(
                f"{instance.key} {instance.text!r} {instance.args}: got {rows[:3]!r} "
                f"expected {self.expected(instance, versions[0])[:3]!r}"
            )
        return False


def _corrupt(value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value + 1
    return "planted"


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def latency_summary(parts: list[tuple[list[float], float]]) -> dict:
    """Figures of the correctly answered queries' latencies, given as
    ``(latencies, elapsed seconds)`` per segment of the load: ``qps`` and
    ``p50_ms`` are medians over the segments, ``p99_ms`` pools them all."""
    pooled = [latency for latencies, _elapsed in parts for latency in latencies]
    return {
        "qps": statistics.median(
            len(latencies) / elapsed if elapsed > 0 else 0.0 for latencies, elapsed in parts),
        "p50_ms": 1000.0 * statistics.median(
            percentile(latencies, 0.50) for latencies, _elapsed in parts),
        "p99_ms": 1000.0 * percentile(pooled, 0.99),
        "samples": len(pooled),
    }


def stamp(probe_at_start: float) -> dict:
    import numpy

    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="ascii") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="ascii") as handle:
                    ref = handle.read().strip()
        commit = ref
    digest = hashlib.sha256()
    for folder, dirs, names in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(names):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    digest.update(handle.read())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "clients": CLIENTS,
        # At the start and at the end of the run.
        "cpu_probe_ms": [probe_at_start, cpu_probe_ms()],
    }


def cpu_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the machine ran
    this run, independent of the engine.  Shared machines drift by tens of
    percent over minutes; compare runs with this before blaming the code."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        times.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def write_config(config: dict, tag: str) -> str:
    path = os.path.join(WORK_DIR, f"host-{tag}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config, handle)
    return path


def ready(host: Host) -> tuple[float, dict]:
    """Wait for ``host`` to be set up: ``(seconds since start, payload)``."""
    try:
        payload = json.loads(host.expect("READY "))
    except BaseException:
        host.close()
        raise
    return time.perf_counter() - host.started, payload


def setup_sample(config_path: str) -> tuple[float, dict]:
    """One timed set-up in a fresh engine process, which then exits."""
    host = Host(config_path)
    sample = ready(host)
    host.close()
    return sample


def start_host(config_path: str, trace: int) -> tuple[Host, list[tuple[float, dict]]]:
    """The engine process that serves the load, started after ``SETUPS - 1``
    set-up-only processes (none with ``--trace 1``).  Returns it and the
    set-up samples, the last one its own."""
    samples = [setup_sample(config_path) for _ in range(0 if trace else SETUPS - 1)]
    host = Host(config_path)
    samples.append(ready(host))
    return host, samples


def run_http(args, tables, files, checker_plant):
    config, instances, weights, first = serve_config(tables, files)
    checker = Checker(lambda inst, _version: queries.serve_reference(tables, inst),
                      checker_plant)
    config_path = write_config(config, f"{args.workload}-{args.seed}")
    host, samples = start_host(config_path, args.trace)
    report_path = os.path.join(WORK_DIR, f"report-{args.workload}-{args.seed}.json")
    try:
        load = HttpLoad(samples[-1][1]["port"], instances, weights, args.seed)
        # A few unmeasured requests: every class once over the socket.
        for cls in queries.ANALYTICS:
            index = next(i for i, inst in enumerate(instances) if inst.cls == cls.name)
            http_query(load.port, request_bytes(instances[index], None))
        if args.trace:
            untraced = [load.phase(args.seconds / 2.0, 0, False)]
            host.send("trace")
            host.expect("OK")
            measured = [untraced, [load.phase(args.seconds / 2.0, 1, True)]]
        else:
            segments = []
            for n in range(SEGMENTS):
                segments.append(load.phase(args.seconds / SEGMENTS, n, False))
                samples.append(setup_sample(config_path))
            measured = [segments]
        host.send(f"report {report_path}")
        host.expect("DONE")
    finally:
        host.close()
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)
    os.remove(report_path)
    os.remove(config_path)

    # Correctness, outside every timed region: each distinct answer once.
    firsts = [payload["first"] for _seconds, payload in samples]
    verdicts: dict = {}
    segments = [segment for phase in measured for segment in phase]
    for segment in segments:
        for index, _t0, _t1, answer, _size, _rid in segment["records"]:
            if answer is not None and (index, answer) not in verdicts:
                verdicts[index, answer] = checker.check(
                    instances[index], decode_prefix(answer))
    wrong = sum(
        not checker.check(first, [tuple(r) for r in rows]) for _ms, rows in firsts
    )
    summaries = []
    for phase in measured:
        parts = []
        for segment in phase:
            records = segment["records"]
            good = [r for r in records if r[3] is not None and verdicts[r[0], r[3]]]
            wrong += sum(1 for r in records if r[3] is not None) - len(good)
            elapsed = max((r[2] for r in records), default=segment["started"]) \
                - segment["started"]
            parts.append(([r[2] - r[1] for r in good], elapsed))
        summaries.append(latency_summary(parts))
    result = {
        "attempted": sum(len(s["records"]) for s in segments) + len(firsts),
        "failed": wrong + len(load.failures),
        "mismatches": checker.mismatches,
        "failures": load.failures[:5],
    }
    if not args.trace:
        metrics = dict(summaries[0])
        metrics.update(
            first_result_ms=statistics.median(ms for ms, _rows in firsts),
            setup_s=statistics.median(seconds for seconds, _payload in samples),
            peak_rss_mb=report["peak_rss_mb"],
        )
        return result, metrics
    client_spans = [
        [0, "client.request", r[1], r[2], 0, r[5], {"bytes": r[4]}]
        for r in measured[1][0]["records"] if r[3] is not None
    ]
    layers = tracing.layer_metrics(report["spans"], client_spans, report["before"],
                                   report["after"], [], over_http=True)
    return result, overhead_metrics(layers, summaries[0], summaries[1])


def overhead_metrics(layers: dict, untraced: dict, traced: dict) -> dict:
    layers = dict(layers)
    layers["trace.untraced_qps"] = (untraced["qps"], "1/s")
    layers["trace.traced_qps"] = (traced["qps"], "1/s")
    layers["trace.untraced_p50_ms"] = (untraced["p50_ms"], "ms")
    layers["trace.traced_p50_ms"] = (traced["p50_ms"], "ms")
    layers["trace.qps_ratio"] = (traced["qps"] / max(untraced["qps"], 1e-9), "ratio")
    layers["trace.p50_ratio"] = (traced["p50_ms"] / max(untraced["p50_ms"], 1e-9), "ratio")
    return layers


def run_library(args, tables, files, checker_plant):
    import data

    config, pool, first, spec = refresh_config(args, tables, files)

    def reference(instance, version):
        columns = tables["csv"] if version is None else tables[f"v{version}"]
        return queries.refresh_reference(columns, instance)

    checker = Checker(reference, checker_plant)
    config_path = write_config(config, f"raw_refresh-{args.seed}")
    host, samples = start_host(config_path, args.trace)
    spec_path = os.path.join(WORK_DIR, f"run-raw_refresh-{args.seed}.json")
    try:
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(dict(spec, seconds=args.seconds, trace=bool(args.trace),
                           segments=SEGMENTS), handle)
        host.send(f"run {spec_path}")
        if not args.trace:
            for _ in range(SEGMENTS):
                host.expect("PAUSE", timeout=HOST_TIMEOUT + args.seconds)
                samples.append(setup_sample(config_path))
                host.send("go")
        host.expect("DONE", timeout=HOST_TIMEOUT + args.seconds)
    finally:
        host.close()
    with open(spec_path, encoding="utf-8") as handle:
        report = json.load(handle)
    os.remove(spec_path)
    os.remove(config_path)

    versions = data.REFRESH_VERSIONS
    wrong = failed = attempted = 0
    parts, first_ms = [], []
    for phase in report["phases"]:
        ok = []
        for pick, low, high, rows, t0, t1 in phase["records"]:
            attempted += 1
            if rows is None:
                failed += 1
                continue
            instance = pool[pick]
            candidates = sorted({seq % versions for seq in range(low, high + 1)}) \
                if instance.versioned else [None]
            if checker.check(instance, [tuple(r) for r in rows], candidates):
                ok.append(t1 - t0)
            else:
                wrong += 1
        first_ms += [seconds * 1000.0 for _index, seconds in phase["first_results"]]
        elapsed = max((r[5] for r in phase["records"]), default=phase["started"]) \
            - phase["started"]
        parts.append((ok, elapsed))
    for _seconds, payload in samples:
        attempted += 1
        if not checker.check(first, [tuple(r) for r in payload["first"][1]], [0]):
            wrong += 1
    result = {
        "attempted": attempted,
        "failed": wrong + failed,
        "mismatches": checker.mismatches,
        "failures": [e for p in report["phases"] for e in p["errors"]][:5],
    }
    if not args.trace:
        metrics = latency_summary(parts)
        metrics.update(
            first_result_ms=statistics.median(first_ms) if first_ms else 0.0,
            setup_s=statistics.median(seconds for seconds, _payload in samples),
            peak_rss_mb=report["peak_rss_mb"],
        )
        return result, metrics
    traced = report["phases"][1]
    spans = report["spans"]
    client_spans = [s for s in spans if s[1] == "client.request"]
    layers = tracing.layer_metrics(
        [s for s in spans if s[1] != "client.request"], client_spans,
        report["before"], report["after"], traced["builds"], over_http=False)
    return result, overhead_metrics(
        layers, latency_summary(parts[:1]), latency_summary(parts[1:]))


WORKLOADS = ("serve_analytics", "raw_refresh")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the self-test uses tiny inputs)")
    parser.add_argument("--plant-wrong-answer", action="store_true",
                        help="corrupt one reference answer (self-test only)")
    args = parser.parse_args(argv)
    # A terminated run still stops its engine processes (``finally`` blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    probe_at_start = cpu_probe_ms()
    sys.path[:0] = [SRC, BENCH_DIR]
    import data

    os.makedirs(WORK_DIR, exist_ok=True)
    family = "refresh" if args.workload == "raw_refresh" else "serve"
    tables, files = data.materialize(WORK_DIR, family, args.seed, args.scale)
    try:
        if family == "serve":
            result, metrics = run_http(args, tables, files, args.plant_wrong_answer)
        else:
            result, metrics = run_library(args, tables, files, args.plant_wrong_answer)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    # Failed and refused queries fail the run like wrong answers: a query
    # class that errors out fast must not pass as a faster run.
    correct = result["failed"] == 0
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "error_rate": result["failed"] / max(result["attempted"], 1),
        "stamp": stamp(probe_at_start),
    }
    if args.trace:
        out = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    else:
        info["samples"] = metrics["samples"]
        info["samples_beyond_p99"] = int(metrics["samples"] * 0.01)
        out = {name: {"value": metrics[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    for line in result["mismatches"]:
        print(f"perfbench: WRONG ANSWER {line}", file=sys.stderr)
    for line in result["failures"]:
        print(f"perfbench: failed query: {line}", file=sys.stderr)
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": out,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
