"""Workloads ``serve-mixed`` and ``serve-fleet``: ``repro serve`` under load.

Both start a ``repro serve`` subprocess and drive it closed-loop from the
benchmark process over two keep-alive HTTP connections, one thread each.
Each connection owns half of the tenants and sends its next request only
when the previous reply has arrived.  The benchmark process, its threads
and the server all run on one CPU (``common.pin_to_one_cpu``).

``serve-mixed`` is the server as ``repro serve`` starts it, under the
traffic of the ``bench_serve`` clean plan (``benchmarks/bench_serve.py``),
repeated in rounds: each round is 16 fresh tenants, each sent two
400-event trains and 128 score streams of 200 events on the load
generator's cells (stide/4, t-stide/6, markov/2).  A tenant's second train
comes after its first 64 scores, so WAL appends, snapshots, cache
invalidation and the refit on the next score run beside the reads.  Fresh
tenants keep the work of every round the same: if the window's trains went
to the same tenants, their streams, and with them the cost of each refit,
would grow for as long as the window runs, and the tail latency would
depend on how many requests a run managed to send.

``serve-fleet`` is the server with its tiered model store (``--models-dir``,
``--hot-cap-mb 1``) under the traffic of ``bench_fleet``
(``benchmarks/bench_fleet.py``): Zipf(1.1)-skewed touches, where a touch is
a train of one 32-event batch followed by a score of the same batch, and
each tenant runs one delta-capable family at window 6.  Set-up trains the
128 tenants with two 400-event chunks and fits each tenant's model once, as
``bench_fleet`` provisions.  Their models hold more bytes than the 1 MiB hot
tier, so touches hit hot models, revive evicted ones from the mmap shards
with a delta replay, and delta-update them in place; none may refit.

Every reply is checked after the timed window, so checking takes no CPU
from the server while it is measured: each 200 score must equal
``create_detector(...).fit(...).score_stream(...)`` bit for bit, and each
train ack must echo ``stream_digest`` of the events the client has sent.

Set-up (server start, then the initial training) is done three times and
the median reported; the last server is the measured one.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from common import (
    ROOT,
    WORK,
    Context,
    Outcome,
    child_env,
    latency_metrics,
    percentile,
    pin_to_one_cpu,
    process_peak_rss_mb,
)
from layers import layer_table
from tracing import ledger

CONNECTIONS = 2
ALPHABET = 8
SETUPS = 3
READY_TIMEOUT_S = 60.0
#: ``bench_fleet``'s window and families: one delta family per tenant.
FLEET_WINDOW = 6
FLEET_FAMILIES = ("stide", "t-stide", "markov")


@dataclass(frozen=True)
class Profile:
    """The traffic and server flags of one serve workload."""

    name: str
    tenants: int
    initial_chunks: int
    initial_events: int
    #: Events per train request after set-up.
    train_events: int
    #: Events per score request (``serve-fleet`` scores the trained batch).
    test_events: int
    #: ``serve-mixed``: trains and scores sent to each tenant of a round.
    round_trains: int = 0
    round_scores: int = 0
    #: ``serve-fleet``: the Zipf exponent of the touches.
    zipf: float = 0.0
    server_args: tuple[str, ...] = ()

    @property
    def fleet(self) -> bool:
        return self.zipf > 0

    def fleet_cell(self, tenant: int) -> tuple[str, int]:
        return FLEET_FAMILIES[tenant % len(FLEET_FAMILIES)], FLEET_WINDOW


MIXED = Profile(
    name="serve-mixed", tenants=16, initial_chunks=2, initial_events=400,
    train_events=400, test_events=200, round_trains=2, round_scores=128,
)
FLEET = Profile(
    name="serve-fleet", tenants=128, initial_chunks=2, initial_events=400,
    train_events=32, test_events=32, zipf=1.1, server_args=("--hot-cap-mb", "1"),
)
#: Self-test sizes.  The toy fleet has fewer, longer-trained tenants whose
#: models still hold more bytes than the 1 MiB hot tier.
TOY = {
    "serve-mixed": replace(MIXED, tenants=4, initial_events=120, train_events=60,
                           test_events=40, round_scores=8),
    "serve-fleet": replace(FLEET, tenants=64, initial_events=1000),
}


def events(seed: int, tenant: int, kind: str, index: int, length: int) -> list[int]:
    """A seeded sticky walk over the alphabet (learnable structure)."""
    rng = random.Random(f"serve|{seed}|{tenant}|{kind}|{index}")
    state = rng.randrange(ALPHABET)
    out = []
    for _ in range(length):
        state = (state + 1) % ALPHABET if rng.random() < 0.6 else rng.randrange(ALPHABET)
        out.append(state)
    return out


def script(profile: Profile, seed: int, connection: int, tenants: list[int]):
    """The endless seeded request sequence of one connection.

    A request is ``(kind, tenant, index, cell, events)``.  ``serve-mixed``
    sends rounds; round ``r`` uses tenants ``r * tenants + k`` for the
    connection's set-up tenants ``k``, which take turns in a seeded order,
    and each tenant's requests are a train, then an equal share of its
    scores, and so on, so the share of trains and of the refits they cause
    is the same for every seed and every round.  ``serve-fleet`` draws
    tenant ``k`` with weight ``(k + 1) ** -zipf``, so every seed puts the
    same families on its hottest tenants.
    """
    from repro.serve.loadgen import DEFAULT_CELLS

    rng = random.Random(f"{profile.name}|{seed}|connection-{connection}")
    trains: dict[int, int] = defaultdict(int)
    scores: dict[int, int] = defaultdict(int)

    def train(tenant: int) -> tuple:
        index = trains[tenant]
        trains[tenant] += 1
        return ("train", tenant, index, None,
                events(seed, tenant, "train", index, profile.train_events))

    def score(tenant: int, cell, sent: list[int] | None = None) -> tuple:
        index = scores[tenant]
        scores[tenant] += 1
        if sent is None:
            sent = events(seed, tenant, "test", index, profile.test_events)
        return ("score", tenant, index, cell, sent)

    if profile.fleet:
        weights = [(tenant + 1) ** -profile.zipf for tenant in tenants]
        while True:
            for tenant in rng.choices(tenants, weights, k=256):
                touch = train(tenant)
                yield touch
                yield score(tenant, profile.fleet_cell(tenant), touch[4])
    steps = profile.round_trains + profile.round_scores
    train_every = steps // profile.round_trains
    for round_ in itertools.count(1):
        order = [round_ * profile.tenants + tenant for tenant in tenants]
        for step in range(steps):
            rng.shuffle(order)
            for tenant in order:
                if step % train_every == 0:
                    yield train(tenant)
                else:
                    yield score(tenant, DEFAULT_CELLS[scores[tenant] % len(DEFAULT_CELLS)])


@dataclass
class Record:
    """One request and its reply, kept for the checks after the window."""

    kind: str
    tenant: int
    events: list[int]
    cell: tuple[str, int] | None
    status: int
    reply: dict
    latency_s: float


class Client:
    """One keep-alive connection; ``http.client`` reopens it if closed."""

    def __init__(self, port: int) -> None:
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        try:
            self._conn.request(method, path, body=payload, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as error:
            self._conn.close()
            return 599, {"reason": f"connection: {error}"}
        try:
            return response.status, json.loads(raw) if raw else {}
        except ValueError:
            return response.status, {"reason": "unparseable body"}

    def close(self) -> None:
        self._conn.close()


@dataclass
class Session:
    """One server process, its two connections and what they sent."""

    seed: int
    profile: Profile
    directory: Path
    spans_path: Path | None = None
    process: subprocess.Popen | None = None
    clients: list[Client] = field(default_factory=list)
    records: dict[int, list[Record]] = field(default_factory=lambda: defaultdict(list))

    def tenants_of(self, connection: int) -> list[int]:
        return list(range(connection, self.profile.tenants, CONNECTIONS))

    def start(self) -> None:
        ready = self.directory / "ready"
        serve_args = [
            "serve", "--state-dir", str(self.directory / "state"),
            "--ready-file", str(ready), *self.profile.server_args,
        ]
        if self.profile.fleet:
            serve_args += ["--models-dir", str(self.directory / "models")]
        if self.spans_path is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [
                sys.executable, str(Path(__file__).with_name("traced_server.py")),
                str(self.spans_path), *serve_args,
            ]
        log = open(self.directory / "server.log", "wb")
        try:
            self.process = subprocess.Popen(
                command, cwd=ROOT, env=child_env(), stdout=log, stderr=log
            )
        finally:
            log.close()
        deadline = time.monotonic() + READY_TIMEOUT_S
        while not (ready.exists() and ready.read_text().strip()):
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    "server did not start: "
                    + (self.directory / "server.log").read_text(errors="replace")[-2000:]
                )
            time.sleep(0.01)
        port = int(ready.read_text())
        self.clients = [Client(port) for _ in range(CONNECTIONS)]

    def _send(self, client: Client, op: tuple) -> Record:
        kind, tenant, index, cell, sent = op
        if kind == "train":
            body = {"events": sent, "alphabet_size": ALPHABET, "request_id": f"train-{index}"}
        else:
            body = {"family": cell[0], "window": cell[1], "events": sent,
                    "request_id": f"score-{index}"}
        started = time.perf_counter()
        status, reply = client.call("POST", f"/v1/tenants/tenant-{tenant:03d}/{kind}", body)
        record = Record(kind, tenant, sent, cell, status, reply,
                        time.perf_counter() - started)
        self.records[tenant].append(record)
        return record

    def _parallel(self, work) -> list:
        """Run ``work(connection)`` on every connection, one thread each."""
        results: list = [None] * CONNECTIONS
        errors: list[BaseException] = []

        def target(connection: int) -> None:
            try:
                results[connection] = work(connection)
            except BaseException as error:  # re-raised on the caller's thread
                errors.append(error)

        threads = [threading.Thread(target=target, args=(c,)) for c in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return results

    def train_initial(self) -> None:
        """Train every set-up tenant, then score it once.

        ``serve-fleet`` scores each tenant's own cell, so every model is
        fitted and stored; ``serve-mixed`` cycles through the load
        generator's cells, so each detector's code has run before the
        window.
        """
        from repro.serve.loadgen import DEFAULT_CELLS

        size = self.profile.initial_events

        def work(connection: int) -> None:
            client = self.clients[connection]
            for tenant in self.tenants_of(connection):
                for index in range(self.profile.initial_chunks):
                    # Initial chunks use negative indices: the window's
                    # requests count up from 0.
                    sent = events(self.seed, tenant, "initial", index, size)
                    self._send(client, ("train", tenant, -1 - index, None, sent))
                if self.profile.fleet:
                    cell = self.profile.fleet_cell(tenant)
                else:
                    cell = DEFAULT_CELLS[tenant % len(DEFAULT_CELLS)]
                sent = events(self.seed, tenant, "initial-test", 0, size)
                self._send(client, ("score", tenant, -1, cell, sent))

        self._parallel(work)

    def drive(self, seconds: float | None = None, counts: list[int] | None = None):
        """Closed-loop load until ``seconds`` pass or ``counts`` ops are sent.

        Returns ``(start, end, records)``: the window's bounds and its
        records per connection, in send order.
        """
        bounds: dict[str, float] = {}
        barrier = threading.Barrier(
            CONNECTIONS, action=lambda: bounds.update(start=time.perf_counter())
        )
        window: list[list[Record]] = [[] for _ in range(CONNECTIONS)]

        def work(connection: int) -> float:
            ops = script(self.profile, self.seed, connection, self.tenants_of(connection))
            barrier.wait()
            if counts is None:
                deadline = bounds["start"] + seconds
                while time.perf_counter() < deadline:
                    window[connection].append(self._send(self.clients[connection], next(ops)))
            else:
                while len(window[connection]) < counts[connection]:
                    window[connection].append(self._send(self.clients[connection], next(ops)))
            return time.perf_counter()

        # The replies pile up in ``window`` for the checks after it; with
        # the collector on, its passes over them would stall the load
        # generator more and more as the window goes on.
        gc.disable()
        try:
            ends = self._parallel(work)
        finally:
            gc.enable()
        return bounds["start"], max(ends), window

    def stats(self) -> dict:
        status, data = self.clients[0].call("GET", "/v1/stats")
        if status != 200:
            raise RuntimeError(f"/v1/stats answered {status}")
        return data

    def stop(self) -> None:
        for client in self.clients:
            client.close()
        if self.process is not None and self.process.poll() is None:
            # SIGTERM, not SIGINT: a process started in the background
            # inherits SIGINT ignored.
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def verify(session: Session, outcome: Outcome, tamper=None) -> None:
    """Check every reply against a local reference; count each failure."""
    from repro.detectors.registry import create_detector
    from repro.runtime.store import stream_digest

    tampered = tamper is None
    for tenant, records in session.records.items():
        accumulated = np.empty(0, dtype=np.int64)
        references: dict[tuple[str, int], tuple[int, object]] = {}
        for record in records:
            outcome.attempted += 1
            where = f"tenant {tenant} {record.kind}"
            if record.status != 200:
                outcome.fail(f"{where}: HTTP {record.status} {record.reply.get('reason')}")
                continue
            if record.kind == "train":
                accumulated = np.concatenate(
                    [accumulated, np.asarray(record.events, dtype=np.int64)]
                )
                if record.reply.get("digest") != stream_digest(accumulated):
                    outcome.fail(f"{where}: ack digest differs from the client's")
                continue
            family, window = record.cell
            held = references.get(record.cell)
            if held is None or held[0] != len(accumulated):
                detector = create_detector(family, window, ALPHABET).fit(accumulated)
                references[record.cell] = held = (len(accumulated), detector)
            expected = np.asarray(held[1].score_stream(record.events), dtype=float)
            scores = record.reply.get("scores", [])
            if not tampered:
                scores, tampered = tamper(scores), True
            got = np.asarray(scores, dtype=float)
            if got.shape != expected.shape or not np.array_equal(got, expected):
                outcome.fail(f"{where} {family}/{window}: scores differ from the reference")


def tier_counts(stats: dict) -> dict[str, int]:
    """Model-tier counters from ``/v1/stats`` (``serve-fleet`` only)."""
    memory = stats["memory"]
    hot, store = memory["hot_tier"], memory["model_store"]
    return {
        "hot_hits": hot["hits"], "hot_misses": hot["misses"],
        "evictions": hot["evictions"], "warm_hits": store["warm_hits"],
        "cold_hits": store["cold_hits"],
    }


def check_revivals(outcome: Outcome, before: dict, after: dict) -> dict[str, int]:
    """Every hot miss in the window must be revived from a lower tier.

    A miss that neither the mmap shards nor the cold store answers is a
    refit, which a provisioned fleet must never need.
    """
    delta = {name: after[name] - before[name] for name in after}
    refits = delta["hot_misses"] - delta["warm_hits"] - delta["cold_hits"]
    if refits > 0:
        outcome.fail(f"{refits} hot misses in the window found no stored model", refits)
    return delta


def run_mixed(ctx: Context, outcome: Outcome) -> None:
    run(ctx, outcome, TOY["serve-mixed"] if ctx.toy else MIXED)


def run_fleet(ctx: Context, outcome: Outcome) -> None:
    run(ctx, outcome, TOY["serve-fleet"] if ctx.toy else FLEET)


def run(ctx: Context, outcome: Outcome, profile: Profile) -> None:
    if profile.fleet:
        traffic = (
            f"Zipf({profile.zipf}) touches = train {profile.train_events} events "
            f"+ score them, families {'/'.join(FLEET_FAMILIES)} at window "
            f"{FLEET_WINDOW}, server flags {' '.join(profile.server_args)} --models-dir"
        )
    else:
        traffic = (
            f"rounds of fresh tenants, each sent {profile.round_trains} trains of "
            f"{profile.train_events} events and {profile.round_scores} scores of "
            f"{profile.test_events} events"
        )
    cpu = pin_to_one_cpu()
    outcome.note(
        f"{profile.name}: closed loop, {CONNECTIONS} keep-alive connections, "
        f"{profile.tenants} tenants x {profile.initial_chunks} initial chunks of "
        f"{profile.initial_events} events; {traffic}; seed {ctx.seed}; "
        f"server and load generator on CPU {cpu}"
    )
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix="serve-") as scratch:
        scratch = Path(scratch)
        setups = []
        count = 1 if ctx.trace else SETUPS
        for index in range(count):
            directory = scratch / f"setup-{index}"
            directory.mkdir()
            session = Session(ctx.seed, profile, directory)
            started = time.perf_counter()
            try:
                session.start()
                session.train_initial()
            except BaseException:
                session.stop()
                raise
            setups.append(time.perf_counter() - started)
            if index < count - 1:
                session.stop()
                verify(session, outcome)
        try:
            before = tier_counts(session.stats()) if profile.fleet else None
            start, end, window = session.drive(seconds=ctx.seconds)
            if profile.fleet:
                tiers = check_revivals(outcome, before, tier_counts(session.stats()))
                outcome.note(
                    f"{profile.name} model tiers in the window: "
                    + ", ".join(f"{name} {value}" for name, value in tiers.items())
                )
            peak_rss = process_peak_rss_mb(session.process.pid)
        finally:
            session.stop()
        verify(session, outcome, ctx.tamper)
        outcome.set("setup_s", statistics.median(setups))
        outcome.set("peak_rss_mb", peak_rss)
        _window_metrics(outcome, profile, window, end - start)
        if ctx.trace:
            _traced(ctx, outcome, profile, scratch, window, end - start)


def _window_metrics(outcome: Outcome, profile: Profile, window, wall: float) -> None:
    records = [record for ops in window for record in ops]
    scores = [r.latency_s for r in records if r.kind == "score" and r.status == 200]
    trains = [r.latency_s for r in records if r.kind == "train" and r.status == 200]
    latency_metrics(outcome, f"{profile.name} score requests", scores, wall)
    outcome.note(
        f"{profile.name} train requests: {len(trains)} samples, p50 "
        f"{percentile(trains, 50) * 1e3:.3f} ms" if trains else
        f"{profile.name} train requests: none in the window"
    )


def _children(spans: list[dict], layer: str, parent_layer: str) -> int:
    """Spans of ``layer`` opened directly inside a ``parent_layer`` span."""
    names = {span["id"]: span["name"] for span in spans}
    return sum(
        1 for span in spans
        if span["name"].startswith(layer) and names.get(span["parent"]) == parent_layer
    )


def _traced(ctx, outcome, profile: Profile, scratch: Path, window, untraced_wall: float) -> None:
    """Replay the window's exact requests on a traced server."""
    directory = scratch / "traced"
    directory.mkdir()
    spans_path = directory / "spans.json"
    session = Session(ctx.seed, profile, directory, spans_path=spans_path)
    try:
        session.start()
        session.train_initial()
        before = session.stats()
        start, end, _ = session.drive(counts=[len(ops) for ops in window])
        after = session.stats()
    finally:
        session.stop()
    verify(session, outcome)
    document = json.loads(spans_path.read_text(encoding="utf-8"))
    spans = [span for span in document["spans"] if start <= span["start"] <= end]
    table = layer_table(ledger(spans, start, end))
    # Fits, delta updates and replays are counted from the window's spans:
    # a fit or an update_batch under detector_for is a refit or a replay,
    # an update_batch under ingest is a delta update.
    table["serve.fit"] = _children(spans, "detectors.fit.", "serve.tenants.detector_for")
    table["serve.delta.update"] = _children(spans, "detectors.update.", "serve.tenants.ingest")
    table["serve.delta.replay"] = _children(
        spans, "detectors.update.", "serve.tenants.detector_for"
    )
    if profile.fleet:
        if table["serve.fit"]:
            outcome.fail(f"{table['serve.fit']} refits in the traced window")
        tiers = check_revivals(outcome, tier_counts(before), tier_counts(after))
        lookups = tiers["hot_hits"] + tiers["hot_misses"]
        table["runtime.shardstore.hot_hit_ratio"] = tiers["hot_hits"] / lookups if lookups else 0.0
    diverged = document["metrics"]["counters"].get("serve.delta.diverged", 0)
    if diverged:
        outcome.fail(f"serve.delta.diverged = {diverged:g}", int(diverged))
    # Set-up does no scoring in serve-mixed and one score per tenant in
    # serve-fleet, so nearly all batch waits fall in the window.
    waits = document["metrics"]["histograms"].get("serve.batch.wait_us")
    table["serve.batching.wait.s"] = waits[1] / 1e6 if waits else 0.0
    batch = after["batch"]
    table["serve.batching.occupancy_mean"] = batch["occupancy_mean"]
    for reason, flushes in batch["flushes"].items():
        table[f"serve.batching.flush.{reason}"] = flushes - before["batch"]["flushes"].get(reason, 0)
    table["trace_overhead_s"] = (end - start) - untraced_wall
    outcome.ledger = table
    outcome.spans = spans
