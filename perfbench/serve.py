"""The ``serve-http`` workload: the recommendation server under an
open-loop client.

The benchmark trains a small seeded forest, exports it as a model
registry, and starts ``python -m repro.serve`` on an ephemeral port in
its own process (or, traced, ``perfbench/serve_launcher.py``, which
installs the server-side wrappers first).  This process is the only
client: two threads, each owning one keep-alive connection, send a
schedule built before timing starts.

Traffic: a hot set of :data:`HOT_SET` recurring feature vectors (decision
cache hits once warmed) plus :data:`UNSEEN_SHARE` of never-seen vectors
(cache inserts and batched inference beside the hits).  Phases, in order:

1. **fixed** — Poisson arrivals at :data:`FIXED_RATE`, about a third of
   the two-connection capacity; every request is timed from the moment it
   was *due*, so a stalled connection shows up as latency.  The schedule
   is replayed :data:`FIXED_REPLAYS` times (unseen vectors drawn afresh
   each time) and each position keeps its fastest replay, which removes
   the machine's passing interference but not the schedule's queueing;
2. **ramp** — a Poisson step at each of :data:`RAMP_RATES`; a step
   passes when its p99 meets :data:`SLO_P99_MS`, nothing failed, and
   the backlog (requests due but not answered) did not grow from the
   step's first half to its second;
3. **capacity** — both connections send back to back; the capacity is
   the completion rate of the fastest of :data:`CAPACITY_WINDOWS` equal
   time windows.

``/metrics`` is read only after the last phase.  Every 200 answer is
checked bit for bit against direct ``predict_ppm_batch`` scoring plus
elbow selection over the same registry; a mismatch is a failure.
"""

from __future__ import annotations

import json
import os
import re
import resource
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from perfbench import layers
from perfbench.common import OUT_DIR, ROOT, SRC, median, peak_rss_mb, per, percentile
from repro.core.features import FEATURE_NAMES
from repro.core.selection import elbow_point
from repro.core.training import DEFAULT_N_GRID
from repro.export.format import save_model_file
from repro.export.runtime import PortableModelRuntime, PortablePPMScorer
from repro.ml.forest import RandomForestRegressor

MODEL = "ae_pl"
HOT_SET = 64
UNSEEN_SHARE = 0.25
#: About a third of what two connections sustain with the 2 ms window.
#: At half (300 req/s) the p99 is mostly queueing behind the other
#: connection, which a slowed machine inflates several-fold; here it is
#: mostly the window and the service time.
FIXED_RATE = 200.0
RAMP_RATES = (250.0, 350.0, 450.0, 550.0)
#: The latency limit a ramp step's p99 must meet.
SLO_P99_MS = 20.0
#: Shares of ``--seconds`` given to each fixed-rate replay, each ramp
#: step and the capacity phase.
FIXED_SHARE, STEP_SHARE, CAPACITY_SHARE = 0.2, 0.04, 0.15
FIXED_REPLAYS = 3
CAPACITY_WINDOWS = 8
#: A request this late when a connection frees up is dropped as unsent.
MAX_LATE_S = 2.0
SOCKET_TIMEOUT_S = 10.0
SERVER_TIMEOUT_MS = 5000
BOOT_TIMEOUT_S = 60.0
#: Server boots per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 5


# --- inputs -----------------------------------------------------------------
def train_registry_model(seed: int) -> tuple[RandomForestRegressor, float]:
    """A seeded power-law forest (random features, valid PPM targets);
    returns the model and its fit time."""
    rng = np.random.default_rng([seed, 1])
    X = rng.random((120, len(FEATURE_NAMES)))
    Y = np.column_stack(
        [
            -np.abs(rng.random(120)) - 0.1,
            np.abs(rng.random(120)) * 50 + 10,
            np.abs(rng.random(120)) * 2,
        ]
    )
    start = time.perf_counter()
    forest = RandomForestRegressor(n_estimators=8, random_state=seed).fit(X, Y)
    return forest, time.perf_counter() - start


def export_registry(forest: RandomForestRegressor, root: Path) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    save_model_file(forest, root / f"{MODEL}.json", metadata={"family": "power_law"})
    return root


class Traffic:
    """Seeded request bodies: hot vectors recur, unseen ones never do."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng([seed, 2])
        self.hot = [self._vector() for _ in range(HOT_SET)]
        self.features: dict[str, list[float]] = {}

    def _vector(self) -> list[float]:
        return [float(v) for v in self.rng.random(len(FEATURE_NAMES))]

    def kinds(self, n: int) -> list[int]:
        """A hot-set index per request, or -1 for a never-seen vector."""
        unseen = self.rng.random(n) < UNSEEN_SHARE
        hot = self.rng.integers(0, HOT_SET, size=n)
        return [-1 if u else int(h) for u, h in zip(unseen, hot)]

    def payloads(self, kinds: list[int]) -> list[bytes]:
        return [self.request(self._vector() if k < 0 else self.hot[k]) for k in kinds]

    def request(self, features: list[float]) -> bytes:
        request_id = f"r{len(self.features)}"
        self.features[request_id] = features
        body = json.dumps({"features": features, "query_id": request_id}).encode()
        head = (
            "POST /v1/recommend HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        return head.encode("latin-1") + body

    def poisson(self, rate: float, seconds: float) -> tuple[np.ndarray, list[int]]:
        """Due offsets and request kinds of one open-loop phase."""
        n = max(1, int(rate * seconds))
        offsets = np.cumsum(self.rng.exponential(1.0 / rate, size=n))
        return offsets - offsets[0], self.kinds(n)


def expected_answers(registry: Path, features: dict[str, list[float]]) -> dict:
    """The oracle: one direct batch scoring plus the service's selection
    (elbow over the default grid, clamped to [1, 48])."""
    scorer = PortablePPMScorer(PortableModelRuntime(registry), MODEL)
    ids = list(features)
    answers = {}
    for request_id, ppm in zip(ids, scorer.predict_ppm_batch([features[i] for i in ids])):
        curve = ppm.predict_curve(DEFAULT_N_GRID)
        chosen = int(np.clip(elbow_point(DEFAULT_N_GRID, curve), 1, 48))
        runtime = float(curve[np.nonzero(DEFAULT_N_GRID == chosen)[0][0]])
        answers[request_id] = (chosen, runtime)
    return answers


# --- transport --------------------------------------------------------------
class Connection:
    """One keep-alive HTTP/1.1 connection; blocking, one request at a time."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.sock: socket.socket | None = None
        self.buffer = b""

    def _connect(self) -> socket.socket:
        if self.sock is None:
            self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=SOCKET_TIMEOUT_S)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.buffer = b""
        return self.sock

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def _fill(self, sock: socket.socket) -> None:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk

    def roundtrip(self, payload: bytes) -> tuple[int, bytes]:
        sock = self._connect()
        try:
            sock.sendall(payload)
            while b"\r\n\r\n" not in self.buffer:
                self._fill(sock)
            head, _, rest = self.buffer.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            status = int(lines[0].split()[1])
            headers = dict(line.lower().split(": ", 1) for line in lines[1:])
            length = int(headers.get("content-length", "0"))
            self.buffer = rest
            while len(self.buffer) < length:
                self._fill(sock)
            body, self.buffer = self.buffer[:length], self.buffer[length:]
            if headers.get("connection") == "close":
                self.close()
            return status, body
        except (OSError, ValueError, IndexError):
            self.close()
            raise

    def get(self, path: str) -> tuple[int, bytes]:
        return self.roundtrip(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())


class ServerProcess:
    """``repro.serve`` in its own process, ready once ``/healthz`` is 200."""

    def __init__(self, registry: Path, trace_out: Path | None = None) -> None:
        args = [
            "--registry", str(registry), "--model", MODEL, "--port", "0",
            "--timeout-ms", str(SERVER_TIMEOUT_MS),
        ]
        if trace_out is None:
            command = [sys.executable, "-m", "repro.serve", *args]
        else:
            launcher = ROOT / "perfbench" / "serve_launcher.py"
            command = [sys.executable, str(launcher), "--trace-out", str(trace_out), "--", *args]
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
        )
        try:
            self.port = self._read_port()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        line = self.proc.stdout.readline()
        found = re.search(r"http://[^:]+:(\d+)", line)
        if found is None:
            raise RuntimeError(f"server did not start: {line!r}")
        return int(found.group(1))

    def _wait_healthy(self) -> None:
        deadline = time.perf_counter() + BOOT_TIMEOUT_S
        while True:
            probe = Connection(self.port)
            try:
                if probe.get("/healthz")[0] == 200:
                    return
            except OSError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.002)
            finally:
                probe.close()

    def stop(self) -> None:
        """Graceful drain (SIGTERM), then reap the process."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def boot(forest: RandomForestRegressor, root: Path, trace_out: Path | None = None):
    """Export the registry and start a server; returns it and the set-up
    seconds (export through the first ``/healthz`` 200)."""
    start = time.perf_counter()
    registry = export_registry(forest, root)
    server = ServerProcess(registry, trace_out)
    return server, time.perf_counter() - start


# --- load -------------------------------------------------------------------
@dataclass
class Phase:
    """One phase's requests, in schedule order."""

    name: str
    rate: float
    payloads: list[bytes]
    offsets: np.ndarray | None = None  # None: closed loop
    start: float = 0.0
    end: float = 0.0
    due: list[float] = field(default_factory=list)
    sent: list[float] = field(default_factory=list)
    done: list[float] = field(default_factory=list)
    status: list[int] = field(default_factory=list)
    bodies: list[bytes] = field(default_factory=list)
    lags: list[float] = field(default_factory=list)

    @property
    def completed(self) -> list[int]:
        return [i for i, s in enumerate(self.status) if s == 200]

    def latencies_from_due(self) -> list[float]:
        return [self.done[i] - self.due[i] for i in self.completed]

    def failed(self) -> int:
        return sum(1 for s in self.status if s != 200)


def _sleep_until(when: float) -> None:
    remaining = when - time.perf_counter()
    if remaining > 0.0005:
        time.sleep(remaining - 0.0004)
    while time.perf_counter() < when:
        time.sleep(0)  # yield the interpreter lock to the other sender


def drive(connections: list[Connection], phase: Phase, seconds: float) -> None:
    """Send a phase's schedule over the connections, one thread each.

    Open loop (``offsets`` set): each free connection takes the next
    request and sends it when due; if none is free it goes as soon as
    one is (and counts as late).  Closed loop: each connection sends its
    next request as soon as the previous answer arrives, for
    ``seconds``.
    """
    n = len(phase.payloads)
    phase.due = [0.0] * n
    phase.sent = [0.0] * n
    phase.done = [0.0] * n
    phase.status = [0] * n
    phase.bodies = [b""] * n
    lock = threading.Lock()
    cursor = iter(range(n))
    phase.start = time.perf_counter() + 0.01
    stop_at = phase.start + seconds

    def work(connection: Connection) -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            if phase.offsets is None:
                now = due = time.perf_counter()
                if now >= stop_at:
                    phase.status[i] = -3  # never due: the phase ended
                    continue
            else:
                due = phase.start + float(phase.offsets[i])
                now = time.perf_counter()
                if now < due:
                    _sleep_until(due)
                    now = time.perf_counter()
                    phase.lags.append(now - due)
                elif now - due > MAX_LATE_S:
                    phase.due[i], phase.status[i] = due, -2  # unsent
                    continue
            phase.due[i], phase.sent[i] = due, now
            try:
                status, body = connection.roundtrip(phase.payloads[i])
            except (OSError, ValueError, IndexError):
                status, body = -1, b""
            phase.done[i] = time.perf_counter()
            phase.status[i], phase.bodies[i] = status, body

    helper = threading.Thread(target=work, args=(connections[1],))
    helper.start()
    try:
        work(connections[0])
    finally:
        helper.join()
    phase.end = time.perf_counter()
    if phase.offsets is None:
        # Requests the closed loop never reached were never attempted.
        keep = [i for i, s in enumerate(phase.status) if s != -3]
        for name in ("due", "sent", "done", "status", "bodies"):
            values = getattr(phase, name)
            setattr(phase, name, [values[i] for i in keep])


def backlog_grows(phase: Phase) -> bool:
    """Whether requests due but unanswered grew within the step.

    The backlog at each request's due time is the count of requests due
    by then minus those answered by then; the step's backlog *grows* when
    its second half averages more than 1.5x its first half plus one.
    """
    due = np.asarray(phase.due)
    done = np.sort(np.asarray([d if d else np.inf for d in phase.done]))
    backlog = np.arange(1, len(due) + 1) - np.searchsorted(done, due, side="right")
    half = len(backlog) // 2
    if half == 0:
        return False
    return float(backlog[half:].mean()) > 1.5 * float(backlog[:half].mean()) + 1.0


def step_passes(phase: Phase) -> bool:
    p99_ms = percentile(phase.latencies_from_due(), 99) * 1e3
    return phase.failed() == 0 and p99_ms <= SLO_P99_MS and not backlog_grows(phase)


# --- the run ----------------------------------------------------------------
def run(seed: int, seconds: float, traced: bool, log: Callable[[str], None]) -> dict[str, Any]:
    work_dir = OUT_DIR / f"serve-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    forest, train_s = train_registry_model(seed)
    traffic = Traffic(seed)
    warmup = [traffic.request(v) for v in traffic.hot]
    offsets, kinds = traffic.poisson(FIXED_RATE, FIXED_SHARE * seconds)
    phases = [
        Phase(f"fixed#{k}", FIXED_RATE, traffic.payloads(kinds), offsets)
        for k in range(FIXED_REPLAYS)
    ]
    for rate in RAMP_RATES:
        offsets, kinds = traffic.poisson(rate, STEP_SHARE * seconds)
        phases.append(Phase(f"ramp@{rate:g}", rate, traffic.payloads(kinds), offsets))
    capacity_cap = int(2000 * CAPACITY_SHARE * seconds)
    phases.append(Phase("capacity", 0.0, traffic.payloads(traffic.kinds(capacity_cap))))

    setups = []
    try:
        if not traced:
            for k in range(SETUP_SAMPLES - 1):
                server, elapsed = boot(forest, work_dir / f"setup-{k}")
                server.stop()
                setups.append(elapsed)
        trace_out = work_dir / "trace.json" if traced else None
        server, elapsed = boot(forest, work_dir / "registry", trace_out)
        setups.append(elapsed)
        try:
            connections = [Connection(server.port), Connection(server.port)]
            for payload in warmup:
                connections[0].roundtrip(payload)
            for phase in phases:
                duration = CAPACITY_SHARE * seconds if phase.offsets is None else 0.0
                drive(connections, phase, duration)
                p99_ms = percentile(phase.latencies_from_due(), 99) * 1e3
                log(
                    f"{phase.name}: {len(phase.status)} requests, "
                    f"{phase.failed()} failed, "
                    f"{per(len(phase.completed), phase.end - phase.start):.1f} req/s, "
                    f"p99 {p99_ms:.2f} ms from due, backlog grows: {backlog_grows(phase)}"
                )
            status, body = connections[0].get("/metrics")
            server_metrics = json.loads(body) if status == 200 else {}
            for connection in connections:
                connection.close()
        finally:
            server.stop()
        server_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
        trace = json.loads(trace_out.read_text()) if trace_out is not None else None
        answers = expected_answers(work_dir / "registry", traffic.features)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    mismatches = 0
    for phase in phases:
        for i in phase.completed:
            reply = json.loads(phase.bodies[i])
            want = answers.get(reply.get("query_id"))
            if want is None or (reply["executors"], reply["estimated_runtime_s"]) != want:
                mismatches += 1
                phase.status[i] = -4  # wrong answer: counted as failed
    attempted = sum(len(p.status) for p in phases)
    failed = sum(p.failed() for p in phases)
    log(f"{attempted} requests, {failed} failed, {mismatches} wrong answers")
    return {
        "phases": phases,
        "setups": setups,
        "train_s": train_s,
        "server_metrics": server_metrics,
        "peak_rss_mb": server_rss,
        "trace": trace,
        "spans": trace.pop("spans") if trace is not None else None,
        "correct": mismatches == 0,
        "attempted": attempted,
        "failed": failed,
    }


def _phases(outcome: dict[str, Any]) -> tuple[list[Phase], list[Phase], Phase]:
    phases = outcome["phases"]
    return phases[:FIXED_REPLAYS], phases[FIXED_REPLAYS:-1], phases[-1]


def fastest_replay(replays: list[Phase]) -> list[float]:
    """Per schedule position, the smallest latency from due over the
    replays that answered it."""
    best = []
    for position in range(len(replays[0].status)):
        answered = [
            r.done[position] - r.due[position]
            for r in replays
            if r.status[position] == 200
        ]
        if answered:
            best.append(min(answered))
    return best


def capacity_rate(phase: Phase) -> float:
    """Completions per second in the phase's fastest time window."""
    width = (phase.end - phase.start) / CAPACITY_WINDOWS
    counts = [0] * CAPACITY_WINDOWS
    for i in phase.completed:
        window = int((phase.done[i] - phase.start) / width)
        counts[min(max(window, 0), CAPACITY_WINDOWS - 1)] += 1
    return per(max(counts), width)


def end_to_end(outcome: dict[str, Any]) -> dict[str, float]:
    fixed, _, capacity = _phases(outcome)
    latencies = fastest_replay(fixed)
    return {
        "setup_s": median(outcome["setups"]),
        "throughput_per_s": capacity_rate(capacity),
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p99_ms": percentile(latencies, 99) * 1e3,
        "peak_rss_mb": outcome["peak_rss_mb"],
    }


def per_layer(outcome: dict[str, Any]) -> dict[str, float]:
    replays, ramp, _ = _phases(outcome)
    fixed = replays[0]
    trace = outcome["trace"]
    out = layers.serve_metrics(trace)
    prediction = outcome["server_metrics"].get("prediction", {})
    handle = trace["handle_by_request"]
    outside_us = []
    for i in fixed.completed:
        reply = json.loads(fixed.bodies[i])
        served = handle.get(reply["query_id"])
        if served is not None:
            outside_us.append((fixed.done[i] - fixed.sent[i] - served) * 1e6)
    passing = [step.rate for step in ramp if step_passes(step)]
    lags = [lag for phase in outcome["phases"] for lag in phase.lags]
    e2e = end_to_end(outcome)
    out.update(
        {
            "serve_prediction.hit_rate": float(prediction.get("hit_rate", 0.0)),
            "client.send_lag_p99_ms": percentile(lags, 99) * 1e3,
            "client.outside_server_us_p50": percentile(outside_us, 50),
            "max_rps_under_slo": max(passing, default=0.0),
            "error_share": per(outcome["failed"], outcome["attempted"]),
            "train_s": outcome["train_s"],
            "traced.throughput_per_s": e2e["throughput_per_s"],
            "traced.latency_p50_ms": e2e["latency_p50_ms"],
            "traced.latency_p99_ms": e2e["latency_p99_ms"],
        }
    )
    return out
