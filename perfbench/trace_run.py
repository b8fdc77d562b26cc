"""The traced run (`--trace 1`): per-layer metrics for one workload.

The end-to-end metrics never come from here.  This run serves a fixed
number of ops (not a timed window), so every count it reports is exact
for a seed:

1. A0: a `wm_cli serve` subprocess answers setup only, then `report`.
2. A1: a subprocess answers setup plus the fixed op stream, then
   `report`.  Report deltas A1 - A0 give the server-side counts (GC words,
   WAL records and bytes, snapshots, router traffic and migrations); the
   client counts wire bytes and its own time per op.
3. A2 (sharded workloads only): the same request lines at `--shards 0`.
   Its response bodies must equal A1's byte for byte; the difference of
   the median op times is the router hop.
4. B: `wm_perfbench trace` replays A1's request lines in-process through
   the layers' public functions (see ocaml/trace_replay.ml), writes the
   spans as Perfetto JSON to `.perfbench_out/` and prints the timings.
"""

import json
import os
import statistics
import subprocess
import time

import gen
import run

TRACE_OPS = {"cold-solve": 24, "durable-edit": 256, "routed-warm": 64}

# (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = [
    ("core.enumerate_ms_per_op", "ms"),
    ("core.enumerate_share", "ratio"),
    ("core.prepare_ms_per_op", "ms"),
    ("core.eval_ms_per_op", "ms"),
    ("core.one_aug_ms_per_op", "ms"),
    ("core.round_ms", "ms"),
    ("core.rounds_per_op", "count"),
    ("core.pairs_tried_per_op", "count"),
    ("core.black_box_calls_per_op", "count"),
    ("core.paths_per_pair", "ratio"),
    ("core.gainless_round_share", "ratio"),
    ("core.repair_ms_per_op", "ms"),
    ("stream.passes_per_op", "count"),
    ("mpc.rounds_per_op", "count"),
    ("algos.greedy_ms_per_op", "ms"),
    ("graph.patch_ms_per_op", "ms"),
    ("graph.digest_ms_per_op", "ms"),
    ("graph.to_binary_ms_per_op", "ms"),
    ("graph.parse_ms_per_load", "ms"),
    ("serve.parse_us_per_line", "us"),
    ("serve.render_us_per_line", "us"),
    ("serve.handle_ms_per_op", "ms"),
    ("serve.cache.hit_share", "ratio"),
    ("serve.wal.append_ms_per_record", "ms"),
    ("serve.snapshot.write_ms", "ms"),
    ("serve.wal.records_per_op", "count"),
    ("serve.wal.bytes_per_op", "bytes"),
    ("serve.snapshot.bytes_per_op", "bytes"),
    ("shard.hop_ms_per_op", "ms"),
    ("shard.transport_bytes_per_op", "bytes"),
    ("shard.transport_messages_per_op", "count"),
    ("shard.migrations_per_op", "count"),
    ("wire.req_bytes_per_op", "bytes"),
    ("wire.resp_bytes_per_op", "bytes"),
    ("gc.minor_words_per_op", "words"),
    ("gc.top_heap_mb", "MB"),
    ("obs.timer_keys", "count"),
    ("obs.report_kb", "KB"),
    ("bench.client_ms_per_op", "ms"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
]

REPORT = '{"schema":"WM_REQ_v1","id":999999,"verb":"report"}'


def report(c):
    """Ask the live server for its BENCH_v1 report; returns (report, bytes)."""
    c.srv.send([REPORT])
    line = c.srv.recv()
    r = json.loads(line)
    if r.get("status") != "ok":
        raise run.BenchError("report verb failed: %s" % line[:200])
    return r["report"], len(line)


def serve_fixed(name, seed, work, nops, shards=None):
    """Setup plus `nops` ops against one subprocess, then `report`."""
    w = gen.Workload(name, seed)
    c, _ = run.start(w, gen.SPECS[name], work, shards)
    setup_lines, setup_resps = len(c.log), len(c.responses)
    req0, resp0 = c.srv.req_bytes, c.srv.resp_bytes
    c.client_ns = 0  # warm-up ops are setup, not ops
    ops, lat = [], []
    for i in range(nops):
        before = len(c.log)
        lat.append(c.op(i, w.next_op()))
        ops.append(c.log[before:])
    wire = (c.srv.req_bytes - req0, c.srv.resp_bytes - resp0)
    rep, size = report(c)
    c.srv.close()
    return {
        "client": c, "setup": c.log[:setup_lines],
        "setup_bodies": c.responses[:setup_resps], "ops": ops, "lat": lat,
        "bodies": c.responses[setup_resps:], "wire": wire, "report": rep,
        "report_bytes": size,
    }


def get(rep, *path, default=0):
    for k in path:
        if not isinstance(rep, dict) or k not in rep:
            return default
        rep = rep[k]
    return rep


def snapshot_bytes(rep):
    """Snapshot bytes as billed to the `core.recovery` ledger (words * 8)."""
    rows = get(rep, "ledger", "core.recovery", default=[])
    return sum(8 * r.get("words", 0) for r in rows
               if isinstance(r, dict) and r.get("label") == "checkpoint")


def dispatch_bytes(rep):
    """Router<->worker bytes of the op traffic, from the `shard.ops` ledger.
    The meter totals also count the workers' replies to the report fetch
    itself, whose size varies with the timings inside them."""
    rows = get(rep, "ledger", "shard.ops", default=[])
    return sum(r.get("words", 0) for r in rows
               if isinstance(r, dict) and r.get("label") in ("send", "recv"))


def run_traced(name, seed, work):
    spec = gen.SPECS[name]
    nops = TRACE_OPS[name]
    a0 = serve_fixed(name, seed, work, 0)
    a1 = serve_fixed(name, seed, work, nops)
    c = a1["client"]
    if a0["setup_bodies"] != a1["setup_bodies"]:
        raise run.BenchError("setup response bodies differ between two "
                             "servers fed the same seed")
    hop_ms = 0.0
    if spec["shards"]:
        a2 = serve_fixed(name, seed, work, nops, shards=0)
        if a2["bodies"] != a1["bodies"]:
            raise run.BenchError("--shards %d response bodies differ from "
                                 "--shards 0" % spec["shards"])
        hop_ms = (statistics.median(a1["lat"])
                  - statistics.median(a2["lat"])) / 1e6
    r0, r1 = a0["report"], a1["report"]

    def delta(*path):
        return (get(r1, *path) - get(r0, *path)) / nops

    solves = [s for s in c.solves if s[0] >= 0]
    outdir = os.path.join(run.ROOT, ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)
    trace_path = os.path.join(outdir, "trace-%s-%d.json" % (name, seed))
    inp = os.path.join(work, "trace-input.json")
    with open(inp, "w") as f:
        json.dump({"setup": a1["setup"], "ops": a1["ops"],
                   "shards": spec["shards"], "wal": spec["wal"],
                   "dir": work}, f)
    t0 = time.perf_counter()
    r = subprocess.run([run.HELPER, "trace", inp, trace_path],
                       capture_output=True, text=True, timeout=170)
    if r.returncode != 0:
        raise run.BenchError("traced replay failed: %s" % r.stderr.strip())
    traced = json.loads(r.stdout.strip().splitlines()[-1])
    run.log("%s seed=%d: traced replay of %d ops took %.1f s; spans in %s"
            % (name, seed, nops, time.perf_counter() - t0, trace_path))
    m = dict(traced)
    m.update({
        "stream.passes_per_op": sum(s[2]["passes"] for s in solves
                                    if s[2]["algo"] == "streaming") / nops,
        "mpc.rounds_per_op": sum(s[2]["mpc_rounds"] for s in solves) / nops,
        "serve.cache.hit_share": sum(1 for s in solves if s[3]) / len(solves),
        "serve.wal.records_per_op": delta("durability", "wal_records"),
        "serve.wal.bytes_per_op": delta("durability", "wal_bytes"),
        "serve.snapshot.bytes_per_op":
            (snapshot_bytes(r1) - snapshot_bytes(r0)) / nops,
        "shard.hop_ms_per_op": hop_ms,
        "shard.transport_bytes_per_op":
            (dispatch_bytes(r1) - dispatch_bytes(r0)) / nops,
        "shard.transport_messages_per_op":
            delta("shard", "transport", "messages"),
        "shard.migrations_per_op": delta("shard", "router", "migrations"),
        "wire.req_bytes_per_op": a1["wire"][0] / nops,
        "wire.resp_bytes_per_op": a1["wire"][1] / nops,
        "gc.minor_words_per_op": delta("gc", "minor_words"),
        "gc.top_heap_mb": get(r1, "gc", "top_heap_words") * 8 / 1e6,
        "obs.timer_keys": len(get(r1, "obs", "timers", default={})),
        "obs.report_kb": a1["report_bytes"] / 1024.0,
        "bench.client_ms_per_op": c.client_ns / 1e6 / nops,
    })
    metrics = {k: (m[k], u) for k, u in PER_LAYER}
    for k, (v, u) in metrics.items():
        run.log("  %-34s %14.6g %s" % (k, v, u))
    attempted = c.sent
    return attempted, attempted - c.ok, metrics
