"""serve-mixed: an open-loop client against ``python -m repro serve``.

The server runs as its own process on the wiki proxy with an empty
layout store.  This process is the one client: it opens ``CONNECTIONS``
unix-socket connections and sends requests on a seeded Poisson schedule
without waiting for replies, matching replies to requests by ``id``.
Requests come in whole rounds of ``ROUND`` (see :func:`schedule`):

* one canary query with fixed sources (the same every round and every
  seed) whose top-5 holds sink nodes;
* ``ROUND - 2`` PPR queries of 1-3 seeded sources (any node);
* one edge-update batch from ``graphs.updates.random_batches``, always on
  connection 1 so the updates commit in order.

Latency is timed from each request's scheduled send time.  After the run
the replies are checked against ``checks.py`` references computed on an
edge set this client keeps itself, replaying the update batches up to
each reply's epoch.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import (
    EdgeSet,
    check_ppr_reply,
    PPR_REL,
    ppr_iterates,
    sink_mask,
    top_matches,
)
from common import (
    ROOT,
    WORK,
    Tracer,
    median,
    metric,
    percentile,
    print_kinds,
    program_env,
)

GRAPH, SCALE = "wiki", 2.0
#: server defaults this client relies on (``repro serve``'s flags).
ITERATIONS, DAMPING, TOP = 20, 0.85, 5
#: offered load (requests per second) and round make-up.
RATE = 4.0
ROUND = 8
CONNECTIONS = 2
UPDATE_SIZE = 8
#: server starts per run; ``setup_s`` is their median.
SERVER_STARTS = 3
START_TIMEOUT_S = 20.0
REPLY_TIMEOUT_S = 60.0
HEALTH_PROBES = 20
RSS_PERIOD_S = 0.1
#: the server's environment.  Two malloc arenas, so the server's peak
#: RSS does not depend on how many of its threads happen to allocate
#: (glibc's default allows eight arenas per core).  Five runs without
#: the cap spread by 0.19 (quartiles over median); with it, 0.14 at the
#: same load and 0.02 at the committed load.
SERVER_ENV = {**program_env(), "MALLOC_ARENA_MAX": "2"}
#: candidates scanned (in node-id order) for the canary query.
CANARY_CANDIDATES = 256


def schedule(seed: int, seconds: float, num_nodes: int) -> list:
    """Whole rounds of requests due within ``seconds`` (at least one
    round): ``(due_s, kind, connection, payload)``."""
    rng = np.random.default_rng(seed)
    dues, t = [], 0.0
    while True:
        t += rng.exponential(1.0 / RATE)
        if t > seconds and len(dues) >= ROUND and len(dues) % ROUND == 0:
            break
        dues.append(t)
    requests = []
    for i, due in enumerate(dues):
        position = i % ROUND
        if position == 0:
            requests.append((due, "canary", 0, None))
        elif position == ROUND - 1:
            requests.append((due, "update", 1, i // ROUND))
        else:
            sources = rng.choice(
                num_nodes, size=int(rng.integers(1, 4)), replace=False
            )
            requests.append(
                (due, "query", int(rng.integers(0, CONNECTIONS)),
                 sorted(int(s) for s in sources))
            )
    return requests


def choose_canary(a) -> list[int]:
    """A fixed query whose top-5 carries several sink nodes, so the
    sink-step fault shows on it at every epoch: a node ``u`` with two
    sink out-neighbours, queried together with them.  Among the first
    ``CANARY_CANDIDATES`` such nodes (by id) it takes the one with the
    most top-5 sinks, then the largest smallest sink-step error."""
    sinks = sink_mask(a)
    candidates = []
    for u in range(a.shape[0]):
        targets = a.indices[a.indptr[u]:a.indptr[u + 1]]
        targets = np.unique(targets[sinks[targets]])
        if targets.size >= 2:
            candidates.append([u, int(targets[0]), int(targets[1])])
        if len(candidates) == CANARY_CANDIDATES:
            break
    exact, ahead = ppr_iterates(a, candidates, ITERATIONS, DAMPING)
    best, best_key = None, None
    for j, sources in enumerate(candidates):
        faulted = np.where(sinks, ahead[:, j], exact[:, j])
        top = np.argsort(faulted)[-TOP:]
        rel = np.abs(ahead[top, j] - exact[top, j]) / exact[top, j]
        in_top = sinks[top]
        if not in_top.any():
            continue
        key = (int(in_top.sum()), float(rel[in_top].min()))
        if best_key is None or key > best_key:
            best, best_key = sources, key
    if best is None or best_key[1] < 1e2 * PPR_REL:
        raise RuntimeError("no canary query carries the sink-step fault")
    return best


# --------------------------------------------------------------------- #
# server lifecycle
# --------------------------------------------------------------------- #
def request(path: str, message: dict, timeout: float = 5.0) -> dict:
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(path)
        sock.sendall(json.dumps(message).encode() + b"\n")
        data = b""
        while not data.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    return json.loads(data)


class Server:
    """One ``python -m repro serve --socket`` process."""

    def __init__(self, out: Path, index: int) -> None:
        run = out.relative_to(ROOT)
        # relative to the checkout root (the cwd of both sides), which
        # keeps the path inside the unix-socket length limit
        self.socket = str(run / f"s{index}.sock")
        store = run / f"store-{index}"
        self.log = open(out / f"server-{index}.log", "wb")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--graph", GRAPH,
             "--scale", str(SCALE), "--socket", self.socket,
             "--store-dir", str(store)],
            cwd=ROOT,
            env=SERVER_ENV,
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        self.start_s = None

    def wait_ready(self) -> None:
        """Poll ``health`` until it answers; ``start_s`` is the time
        from process start to that first reply."""
        t0 = self.t0
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} at start"
                )
            try:
                if request(self.socket, {"op": "health"})["ok"]:
                    break
            except OSError:
                pass
            if time.perf_counter() - t0 > START_TIMEOUT_S:
                raise RuntimeError("server did not answer health in time")
            time.sleep(0.002)
        self.start_s = time.perf_counter() - t0

    def rss_mb(self, field: str = "VmRSS") -> float:
        """Resident memory now (``VmRSS``) or at peak (``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no {field} in the server's status")

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                try:
                    request(self.socket, {"op": "stop"})
                except (OSError, ValueError):
                    pass
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=30)
        finally:
            self.log.close()


# --------------------------------------------------------------------- #
# open-loop client
# --------------------------------------------------------------------- #
async def drive(server: Server, requests: list, batches: list, canary):
    """Send every request at its due time; returns per-request
    ``(due, sent, received, reply)`` in event-loop seconds and the
    server's resident memory sampled every ``RSS_PERIOD_S``."""
    path = server.socket
    loop = asyncio.get_running_loop()
    rss: list[float] = []

    async def sampler():
        while True:
            rss.append(server.rss_mb())
            await asyncio.sleep(RSS_PERIOD_S)

    sampling = asyncio.create_task(sampler())
    conns = [
        await asyncio.open_unix_connection(path) for _ in range(CONNECTIONS)
    ]
    expected = [0] * CONNECTIONS
    for _, _, conn, _ in requests:
        expected[conn] += 1
    done: dict[int, tuple] = {}

    async def reader(stream, count):
        for _ in range(count):
            line = await stream.readline()
            if not line:
                return
            reply = json.loads(line)
            done[int(reply["id"])] = (loop.time(), reply)

    readers = [
        asyncio.create_task(reader(conns[c][0], expected[c]))
        for c in range(CONNECTIONS)
    ]
    start = loop.time() + 0.05
    sent = []
    for rid, (due, kind, conn, payload) in enumerate(requests):
        delay = start + due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        if kind == "update":
            message = {"op": "update", **batches[payload].to_json()}
        else:
            sources = canary if kind == "canary" else payload
            message = {"op": "query", "sources": sources, "top": TOP}
        message["id"] = rid
        sent.append(loop.time())
        conns[conn][1].write(json.dumps(message).encode() + b"\n")
    for _, writer in conns:
        await writer.drain()
    try:
        await asyncio.wait_for(asyncio.gather(*readers), REPLY_TIMEOUT_S)
    finally:
        sampling.cancel()
        for task in readers:
            task.cancel()
        for _, writer in conns:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
    return [
        (start + due, sent[rid]) + done.get(rid, (None, None))
        for rid, (due, _, _, _) in enumerate(requests)
    ], rss


def health_rtts(path: str) -> list[float]:
    samples = []
    for _ in range(HEALTH_PROBES):
        t0 = time.perf_counter()
        request(path, {"op": "health"})
        samples.append(time.perf_counter() - t0)
    return samples


# --------------------------------------------------------------------- #
# checking
# --------------------------------------------------------------------- #
def check_replies(graph, requests, results, batches, canary):
    """Per-kind (attempted, failed), wrong-output messages, the number
    of seeded replies that carried the sink-step fault, and whether the
    checker rejected a perturbed served score."""
    csr = graph.csr
    n = graph.num_nodes
    edges = EdgeSet(
        n, np.repeat(np.arange(n), np.diff(csr.indptr)), csr.indices
    )
    kinds = {k: [0, 0] for k in ("query", "canary", "update")}
    wrong: list[str] = []
    by_epoch: dict[int, list[int]] = {}
    next_epoch = 1
    for rid, (_, kind, _, payload) in enumerate(requests):
        kinds[kind][0] += 1
        reply = results[rid][3]
        if reply is None or not reply.get("ok"):
            kinds[kind][1] += 1
            print(f"request {rid} ({kind}) failed: {reply}", file=sys.stderr)
            continue
        if kind == "update":
            if reply["epoch"] != next_epoch:
                kinds[kind][1] += 1
                wrong.append(
                    f"update {rid}: epoch {reply['epoch']}, "
                    f"expected {next_epoch}"
                )
            next_epoch += 1
        else:
            by_epoch.setdefault(int(reply["epoch"]), []).append(rid)
    sink_step = 0
    selftest = None
    for epoch in range(next_epoch):
        if epoch:
            batch = batches[epoch - 1]
            edges.apply(
                np.stack([batch.insert_src, batch.insert_dst], axis=1),
                np.stack([batch.delete_src, batch.delete_dst], axis=1),
            )
        rids = by_epoch.get(epoch, [])
        if not rids:
            continue
        a = edges.matrix()
        sinks = sink_mask(a)
        source_sets = [
            canary if requests[r][1] == "canary" else requests[r][3]
            for r in rids
        ]
        exact, ahead = ppr_iterates(a, source_sets, ITERATIONS, DAMPING)
        for j, rid in enumerate(rids):
            kind = requests[rid][1]
            top = results[rid][3]["top"]
            verdict = check_ppr_reply(
                top, exact[:, j], ahead[:, j], sinks, TOP
            )
            if verdict == "wrong":
                kinds[kind][1] += 1
                wrong.append(f"{kind} {rid}: top-{TOP} matches no reference")
            elif kind == "canary" and verdict == "sink-step":
                # the named Post-Phase fault: counted as failed
                kinds[kind][1] += 1
            elif verdict == "sink-step":
                sink_step += 1
            if selftest is None and verdict == "ok":
                bad = [list(p) for p in top]
                bad[0][1] *= 1 + 1e-6
                selftest = not top_matches(bad, exact[:, j], TOP)
    if by_epoch and selftest is None:
        selftest = False
    return (
        {k: tuple(v) for k, v in kinds.items()},
        wrong,
        sink_step,
        bool(selftest),
    )


def serve_workload(seed: int, seconds: float, trace: bool):
    from repro.graphs import load_dataset, random_batches, save_csr

    out = WORK / f"serve-mixed-seed{seed}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tracer = Tracer()
    servers: list[Server] = []
    try:
        # the server builds the same proxy from the dataset registry
        graph = load_dataset(GRAPH, scale=SCALE)
        csr = graph.csr
        n = graph.num_nodes
        a0 = EdgeSet(
            n, np.repeat(np.arange(n), np.diff(csr.indptr)), csr.indices
        ).matrix()
        canary = choose_canary(a0)
        out_nodes = np.flatnonzero(np.diff(a0.indptr) > 0)
        requests = schedule(seed, seconds, n)
        batches = random_batches(
            graph, len(requests) // ROUND, UPDATE_SIZE, seed=seed
        )

        for i in range(SERVER_STARTS):
            with tracer.span("serve.process_start", op=f"start-{i}"):
                servers.append(Server(out, i))
                servers[-1].wait_ready()
            if i < SERVER_STARTS - 1:
                servers[-1].stop()
        server = servers[-1]
        results, rss_samples = asyncio.run(
            drive(server, requests, batches, canary)
        )
        rtts = health_rtts(server.socket)
        report = request(server.socket, {"op": "report"})["report"]
        rss = server.rss_mb("VmHWM")
        server.stop()

        kinds, wrong, sink_step, selftest_ok = check_replies(
            graph, requests, results, batches, canary
        )
        layer_kinds, layer_ok, layer_wrong = {}, True, []
        figures = serve_figures(requests, results, rtts)
        figures["setup_s"] = median([s.start_s for s in servers])
        figures["peak_rss_mb"] = rss
        figures["rss_p50_mb"] = median(rss_samples)
        layers = None
        if trace:
            for rid, (due, sent, received, _) in enumerate(results):
                tracer.spans.append(
                    {"id": f"r{rid}", "name": f"serve.{requests[rid][1]}",
                     "parent": None, "op": rid,
                     "start_ns": int(due * 1e9),
                     "end_ns": int((received or sent) * 1e9)}
                )
            layers, layer_kinds, layer_ok, layer_wrong = traced_layers(
                graph, a0, out, seed, out_nodes, save_csr
            )
            tracer.dump(out / "client-spans.jsonl")
            for name in ("client-spans.jsonl", "spans.jsonl"):
                target = WORK / "traces" / f"serve-mixed-seed{seed}-{name}"
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(out / name, target)
                print(f"spans written to {target.relative_to(ROOT)}")
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(out, ignore_errors=True)

    wrong += layer_wrong
    selftest_ok = selftest_ok and layer_ok
    for message in wrong:
        print(f"WRONG {message}", file=sys.stderr)
    print_kinds(kinds)
    # the traced worker's operations are checked too, but kept out of the
    # totals so the failed share is the same as in an untraced run
    print_kinds({f"traced {k}": v for k, v in layer_kinds.items()})
    print(
        f"canary query: sources {canary}, fails every round on the "
        "sink-step fault (sink scores one propagation step ahead)"
    )
    print(
        f"seeded replies carrying the sink-step fault: {sink_step} "
        f"of {kinds['query'][0]}"
    )
    print(f"checker self-test: perturbed score rejected = {selftest_ok}")
    print(
        f"rounds {len(requests) // ROUND}; server batches "
        f"{report['batches']}, downgrades {report['downgrades']}, "
        f"updates applied {report['updates_applied']}"
    )
    for name, value in figures.items():
        print(f"{name} {value:.4f}")
    attempted = sum(k[0] for k in kinds.values())
    failed = sum(k[1] for k in kinds.values())
    correct = selftest_ok and not wrong
    if trace:
        from batch import per_layer, report_trace

        report_trace(layers)
        return correct, attempted, failed, per_layer(layers["per_layer"])
    return correct, attempted, failed, {
        "setup_s": metric(figures["setup_s"], "s"),
        "main_p50_ms": metric(figures["query_p50_ms"], "ms"),
        "side_p50_ms": metric(figures["update_p50_ms"], "ms"),
        "peak_rss_mb": metric(figures["peak_rss_mb"], "MB"),
    }


def serve_figures(requests, results, rtts) -> dict:
    query, update, lateness, waits, server_lat, sizes = [], [], [], [], [], []
    for rid, (due, sent, received, reply) in enumerate(results):
        lateness.append(sent - due)
        if reply is None or not reply.get("ok"):
            continue
        latency = received - due
        if requests[rid][1] == "update":
            update.append(latency)
            continue
        query.append(latency)
        server_lat.append(reply["latency"])
        waits.append(latency - reply["latency"])
        sizes.append(reply["batch_size"])
    return {
        "query_p50_ms": 1e3 * median(query),
        "query_p90_ms": 1e3 * percentile(query, 90),
        "update_p50_ms": 1e3 * median(update),
        "client_lateness_p50_ms": 1e3 * median(lateness),
        "client_lateness_max_ms": 1e3 * max(lateness),
        "serve.batch_size_mean": float(np.mean(sizes)),
        "serve.server_latency_p50_ms": 1e3 * median(server_lat),
        "serve.connection_wait_p50_ms": 1e3 * median(waits),
        "serve.protocol.health_rtt_ms": 1e3 * median(rtts),
    }


def traced_layers(graph, a, out: Path, seed: int, out_nodes, save_csr):
    """Per-layer figures of the wiki graph the server serves, from the
    same traced worker the batch workloads use; its PageRank and BFS
    outputs are checked like a batch workload's."""
    from batch import TRACE_SETUPS, check_batch, load_outputs, run_worker

    path = out / "graph.csr.npz"
    save_csr(graph, path)
    rng = np.random.default_rng(seed)
    sources = [int(s) for s in rng.choice(out_nodes, size=8)]
    spec = {
        "csr": str(path),
        "out": str(out),
        "seed": seed,
        "seconds": 0,
        "setups": 0,
        "trace_setups": TRACE_SETUPS,
        "trace": 1,
        "round": [],
        "source_pool": sources,
    }
    result = run_worker(spec, out, 0)
    kinds, selftest_ok, wrong = check_batch(result, load_outputs(out), a)
    return result, kinds, selftest_ok, wrong
