#!/usr/bin/env python3
"""End-to-end benchmark of `wm_cli serve`.

Usage (from the repository root):

    python3 perfbench/run.py --workload cold-solve --seed 1 --seconds 15 --trace 0

Builds `bin/wm_cli.exe` and the `perfbench/ocaml` helper from source, then
drives generated WM_REQ_v1 traffic through a real `wm_cli serve --jobs 1`
subprocess from one closed-loop client on its stdin/stdout.  One *op* is
timed from its first request line to its last response line; its trailing
blank line is the batch boundary that forces the queued solve.  Warm-up
ops run before the timed window and are charged to `setup_s`.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs a fixed op
stream instead and prints the per-layer metrics (see README.md).  The
last stdout line is always one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Any correctness violation exits
non-zero without printing that line.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import gen  # noqa: E402

# trace_run imports this module by name; make that the running instance.
sys.modules.setdefault("run", sys.modules[__name__])

ROOT = os.path.dirname(HERE)
SETUP_REPS = 3
RSS_AT_OPS = 100  # peak RSS is read after this many timed ops (work-normalised)
OPT_STRIDE = 37
WATCHDOG_S = 175  # a run (after the build) must finish within this  # durable-edit: exact optimum on every 37th op (n=1000 graphs)
CLI = os.path.join(ROOT, "_build", "default", "bin", "wm_cli.exe")
HELPER = os.path.join(ROOT, "_build", "default", "perfbench", "ocaml",
                      "wm_perfbench.exe")


class BenchError(Exception):
    """A correctness violation or a broken run: exit non-zero, no result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Build and process hygiene

def build():
    for need in ("dune-project", os.path.join("bin", "wm_cli.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("not a source checkout: %s missing" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "bin/wm_cli.exe",
         "perfbench/ocaml/wm_perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise BenchError("build failed")


LIVE = []  # every serve process group still running


def reap_all():
    while LIVE:
        LIVE.pop().kill()


def on_signal(signum, _frame):
    reap_all()
    if signum == signal.SIGALRM:
        log("perfbench: FAILED: run exceeded %d s" % WATCHDOG_S)
    sys.exit(128 + signum)


def tree_hwm_kb(pid):
    """Summed VmHWM (peak RSS) of a process and all its descendants."""
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        try:
            with open("/proc/%d/status" % p) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
            with open("/proc/%d/task/%d/children" % (p, p)) as f:
                todo.extend(int(c) for c in f.read().split())
        except OSError:
            pass
    return total


class Serve:
    """One `wm_cli serve` subprocess in its own process group, so it and any
    forked shard workers are killed together if a run aborts."""

    def __init__(self, flags, cwd):
        self.err = open(os.path.join(cwd, "serve.stderr"), "ab")
        self.p = subprocess.Popen(
            [CLI, "serve", "--jobs", "1"] + flags, cwd=cwd,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.err,
            start_new_session=True)
        LIVE.append(self)
        self.req_bytes = 0
        self.resp_bytes = 0

    def send(self, lines):
        data = ("\n".join(lines) + "\n").encode()
        self.req_bytes += len(data)
        self.p.stdin.write(data)
        self.p.stdin.flush()

    def recv(self):
        line = self.p.stdout.readline()
        if not line:
            raise BenchError("server closed its output (exit %s)"
                             % self.p.poll())
        self.resp_bytes += len(line)
        return line

    def close(self):
        """Orderly shutdown; falls back to killing the process group."""
        try:
            self.send(['{"schema":"WM_REQ_v1","id":0,"verb":"shutdown"}'])
            self.p.stdin.close()
            self.p.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired, ValueError):
            pass
        self.kill()

    def kill(self):
        try:
            os.killpg(self.p.pid, signal.SIGKILL)
        except OSError:
            pass
        self.p.wait()
        for f in (self.p.stdin, self.p.stdout, self.err):
            try:
                f.close()
            except (OSError, ValueError):
                pass
        if self in LIVE:
            LIVE.remove(self)


# ----------------------------------------------------------------------
# One served session: setup, warm-up, then either a timed window or a
# fixed number of ops.

def flags_for(spec, work, shards=None):
    flags = []
    if spec["wal"]:
        wal = os.path.join(work, "wal")
        shutil.rmtree(wal, ignore_errors=True)
        flags += ["--wal-dir", wal]
    s = spec["shards"] if shards is None else shards
    if s:
        flags += ["--shards", str(s)]
    return flags


class Client:
    """Closed-loop client state for one server: digests and the response log."""

    def __init__(self, w, srv):
        self.w = w
        self.srv = srv
        self.digests = [None] * len(w.sessions)
        self.rid = 1
        self.sent = 0  # request lines (blank boundary lines excluded)
        self.ok = 0
        self.solves = []  # (op index, session, result dict, cached)
        self.log = []  # every request line sent, in order
        self.responses = []  # every response line received, in order
        self.client_ns = 0  # op time spent in the client itself

    def check(self, line):
        try:
            r = json.loads(line)
        except ValueError:
            raise BenchError("unparsable response %r" % line[:200])
        if r.get("status") == "ok":
            self.ok += 1
        self.responses.append(line)
        return r

    def load_all(self, work):
        lines = []
        for k, text in enumerate(self.w.graph_texts()):
            name = "g%d.wm" % k
            path = os.path.join(work, name)
            if not os.path.exists(path):
                with open(path, "w") as f:
                    f.write(text)
            lines.append(gen.load_line(name, self.rid))
            self.rid += 1
        self.srv.send(lines)
        self.log.extend(lines)
        self.sent += len(lines)
        for k in range(len(lines)):
            r = self.check(self.srv.recv())
            if r.get("status") != "ok":
                raise BenchError("load failed: %s" % r)
            self.digests[k] = r["digest"]

    def op(self, index, op):
        """Run one op; returns its latency in ns (first request line sent to
        last response line read)."""
        k = op["session"]
        sess = self.w.sessions[k]
        t0 = time.perf_counter_ns()
        io_ns = 0
        for phase in gen.op_phases(op):
            lines = phase(self.digests[k], self.rid)
            self.rid += 1
            self.sent += 1
            t_io = time.perf_counter_ns()
            self.srv.send(lines)
            raw = self.srv.recv()
            io_ns += time.perf_counter_ns() - t_io
            self.log.extend(lines)
            r = self.check(raw)
            if r.get("status") != "ok":
                continue  # counted as a failure through ok_share
            if "result" not in r:  # mutation response
                if (r["previous_digest"] != self.digests[k]
                        or r["n"] != sess.n or r["m"] != len(sess.edges)):
                    raise BenchError("mutation response disagrees with the "
                                     "client's shadow graph: %s" % r)
                self.digests[k] = r["digest"]
            else:
                if r["digest"] != self.digests[k]:
                    raise BenchError("solve answered on the wrong session")
                res = r["result"]
                if res.get("valid") is not True:
                    raise BenchError("invalid matching served: %s" % r)
                self.solves.append((index, k, res, r.get("cached", False)))
        ns = time.perf_counter_ns() - t0
        self.client_ns += ns - io_ns
        return ns


def start(w, spec, work, shards=None):
    """Spawn, load and answer the warm-up ops; returns (client, seconds)."""
    t0 = time.perf_counter()
    srv = Serve(flags_for(spec, work, shards), work)
    c = Client(w, srv)
    c.load_all(work)
    for i, op in enumerate(w.warmup_ops()):
        c.op(-1 - i, op)
    return c, time.perf_counter() - t0


def percentile(xs, q):
    if len(xs) < 2:
        return xs[-1]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


# ----------------------------------------------------------------------
# Correctness: exact optima outside the timed window.

def optima(graph_texts, work):
    if not graph_texts:
        return []
    path = os.path.join(work, "opt.wm")
    with open(path, "w") as f:
        f.write("".join(graph_texts))
    r = subprocess.run([HELPER, "optimum", path], capture_output=True,
                       text=True, timeout=170)
    if r.returncode != 0:
        raise BenchError("optimum helper failed: %s" % r.stderr.strip())
    return [int(x) for x in r.stdout.split()]


def graph_states(name, seed, indices):
    """Regenerate the op stream and capture the touched session's graph text
    right after each requested timed op index."""
    w = gen.Workload(name, seed)
    for _ in w.warmup_ops():
        pass
    want, got = set(indices), {}
    for i in range(max(want) + 1 if want else 0):
        op = w.next_op()
        if i in want:
            got[i] = w.sessions[op["session"]].text()
    return got


def weight_ratio(name, seed, client, work):
    """Mean served weight / exact optimum over the checked ok solves; raises
    if any served weight exceeds its optimum."""
    solves = [s for s in client.solves if s[0] >= 0]
    if name == "cold-solve":
        opt = optima(gen.Workload(name, seed).graph_texts(), work)
        pairs = [(res["weight"], opt[k]) for _, k, res, _ in solves]
    else:
        if name == "durable-edit":
            solves = [s for s in solves if s[0] % OPT_STRIDE == 0]
        states = graph_states(name, seed, [s[0] for s in solves])
        idx = sorted(states)
        opt = dict(zip(idx, optima([states[i] for i in idx], work)))
        pairs = [(res["weight"], opt[i]) for i, _, res, _ in solves]
    for served, best in pairs:
        if served > best:
            raise BenchError("served weight %d exceeds the optimum %d"
                             % (served, best))
    if not pairs:
        raise BenchError("no ok solve to check")
    return statistics.fmean(s / b for s, b in pairs)


# ----------------------------------------------------------------------
# The untraced run: end-to-end metrics.

def run_e2e(name, seed, seconds, work):
    spec = gen.SPECS[name]
    setups, bodies = [], set()
    for rep in range(SETUP_REPS):
        w = gen.Workload(name, seed)
        c, s = start(w, spec, work)
        setups.append(s)
        bodies.add(b"".join(c.responses))
        if rep < SETUP_REPS - 1:
            c.srv.close()
    if len(bodies) != 1:
        raise BenchError("warm-up response bodies differ between identical "
                         "setups of one seed")
    lat = []
    t_start = time.perf_counter_ns()
    deadline = t_start + int(seconds * 1e9)
    t_end = t_start
    rss_kb = None
    while t_end < deadline:
        lat.append(c.op(len(lat), w.next_op()))
        t_end = time.perf_counter_ns()
        if len(lat) == RSS_AT_OPS:
            rss_kb = tree_hwm_kb(c.srv.p.pid)
    if rss_kb is None:
        rss_kb = tree_hwm_kb(c.srv.p.pid)
    c.srv.close()
    timed_ops = len(lat)
    attempted = c.sent
    ratio = weight_ratio(name, seed, c, work)
    ms = sorted(x / 1e6 for x in lat)
    metrics = {
        "ops_per_s": (timed_ops / ((t_end - t_start) / 1e9), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (percentile(ms, 90), "ms"),
        "weight_ratio": (ratio, "ratio"),
        "ok_share": (c.ok / attempted, "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    log("%s seed=%d: %d timed ops, setups %s, body hash %s"
        % (name, seed, timed_ops, ["%.3f" % s for s in setups],
           hashlib.sha256(bodies.pop()).hexdigest()[:16]))
    return attempted, attempted - c.ok, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGALRM):
        signal.signal(sig, on_signal)
    scratch = os.path.join(ROOT, ".perfbench_run")
    work = None
    try:
        build()
        signal.alarm(WATCHDOG_S)
        gen.self_check(args.workload, args.seed)
        os.makedirs(scratch, exist_ok=True)
        work = tempfile.mkdtemp(prefix="run-", dir=scratch)
        if args.trace:
            import trace_run
            attempted, failed, metrics = trace_run.run_traced(
                args.workload, args.seed, work)
        else:
            attempted, failed, metrics = run_e2e(
                args.workload, args.seed, args.seconds, work)
    except (BenchError, AssertionError) as e:
        log("perfbench: FAILED: %s" % e)
        return 1
    finally:
        reap_all()
        if work:
            shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
