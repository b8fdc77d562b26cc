"""Deterministic workload generator for the wm_cli serve benchmark.

Everything the server receives is derived here from the workload seed:
the graph files (DIMACS-style ``p wm`` text) and the op templates.  An op
template names its session by index, never by digest; the client fills
in the session's current content digest, which it learns from the
server's load and mutation responses (a digest is a hash over the whole
edge list, too slow to recompute client-side per op).  ``render`` turns
a template into request lines with a symbolic ``@s<k>`` digest, which is
the byte stream the generator test pins.

The edit generator tracks each session's vertex sides and edge set, so
every delta it emits is valid: additions name absent left-right pairs,
removals name present edges, reverts undo exactly the previous delta.
"""

import json

MASK64 = (1 << 64) - 1


class Rng:
    """splitmix64: a fixed, version-independent stream for a given seed."""

    def __init__(self, seed):
        self.state = (seed * 0x9E3779B97F4A7C15 + 0x1234567) & MASK64

    def next64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, k):
        return self.next64() % k

    def fork(self, salt):
        return Rng((self.next64() ^ (salt * 0xD1B54A32D192ED03)) & MASK64)


WEIGHT_MAX = 100
LIGHT = 10  # routed-warm churns edges no heavier than this
# cold-solve's epsilon: the practical parameters cap a solve at
# ceil(4 / epsilon) = 5 rounds, so every cold solve runs exactly five.
EPS = 0.8


class Session:
    """Client-side shadow of one served graph: sides and weighted edges."""

    def __init__(self, rng, n, m):
        self.n = n
        self.edges = {}
        half = n // 2
        while len(self.edges) < m:
            u = rng.below(half)
            v = half + rng.below(n - half)
            if (u, v) not in self.edges:
                self.edges[(u, v)] = 1 + rng.below(WEIGHT_MAX)
        self.lefts = list(range(half))
        self.rights = list(range(half, n))
        self.keys = list(self.edges)  # removal candidates, kept in sync
        self.pos = {e: i for i, e in enumerate(self.keys)}

    def text(self):
        lines = ["p wm %d %d" % (self.n, len(self.edges))]
        lines += ["e %d %d %d" % (u, v, w) for (u, v), w in self.edges.items()]
        return "\n".join(lines) + "\n"

    def _insert(self, e, w):
        self.edges[e] = w
        self.pos[e] = len(self.keys)
        self.keys.append(e)

    def _delete(self, e):
        w = self.edges.pop(e)
        i = self.pos.pop(e)
        last = self.keys.pop()
        if last != e:
            self.keys[i] = last
            self.pos[last] = i
        return w

    def pick_absent(self, rng, k, wmax=WEIGHT_MAX):
        out = []
        while len(out) < k:
            e = (self.lefts[rng.below(len(self.lefts))],
                 self.rights[rng.below(len(self.rights))])
            if e not in self.edges and e not in out:
                out.append(e)
        return [(u, v, 1 + rng.below(wmax)) for u, v in out]

    def pick_present(self, rng, k, wmax=WEIGHT_MAX, avoid=()):
        out = []
        while len(out) < k:
            e = self.keys[rng.below(len(self.keys))]
            if e not in out and e not in avoid and self.edges[e] <= wmax:
                out.append(e)
        return out

    def apply(self, delta):
        """Apply a validated delta; returns the inverse delta when one exists."""
        kind, arg = delta
        if kind == "add_edges":
            for u, v, w in arg:
                assert (u, v) not in self.edges, "invalid generated addition"
                self._insert((u, v), w)
            return ("remove_edges", [(u, v) for u, v, _ in arg])
        if kind == "remove_edges":
            back = []
            for e in arg:
                assert e in self.edges, "invalid generated removal"
                back.append((e[0], e[1], self._delete(e)))
            return ("add_edges", back)
        if kind == "add_vertices":
            for _ in range(arg):
                (self.lefts if self.n % 2 == 0 else self.rights).append(self.n)
                self.n += 1
            return None
        raise ValueError(kind)


def mutation_line(delta, digest, rid):
    kind, arg = delta
    req = {"schema": "WM_REQ_v1", "id": rid, "verb": kind, "digest": digest}
    if kind == "add_vertices":
        req["count"] = arg
    else:
        req["edges"] = [list(t) for t in arg]
    return json.dumps(req, separators=(",", ":"))


def solve_line(algo, seed, digest, rid, epsilon=None):
    req = {"schema": "WM_REQ_v1", "id": rid, "verb": "solve", "digest": digest,
           "algo": algo, "seed": seed}
    if epsilon is not None:
        req["epsilon"] = epsilon
    return json.dumps(req, separators=(",", ":"))


def load_line(path, rid):
    return json.dumps({"schema": "WM_REQ_v1", "id": rid, "verb": "load",
                       "path": path}, separators=(",", ":"))


# ----------------------------------------------------------------------
# Workloads.  An op is a dict {"session", "delta" (or None), "algo",
# "seed", optionally "epsilon"}; the closed loop draws ops until its window
# ends.

SPECS = {
    "cold-solve": {"sessions": 64, "n": 80, "m": 650, "shards": 0,
                   "wal": False, "warmup": 4},
    "durable-edit": {"sessions": 4, "n": 1000, "m": 8000, "shards": 0,
                     "wal": True, "warmup": 8},
    "routed-warm": {"sessions": 16, "n": 80, "m": 650, "shards": 2,
                    "wal": False, "warmup": 16},
}


class Workload:
    def __init__(self, name, seed):
        if name not in SPECS:
            raise ValueError("unknown workload %r" % name)
        self.name = name
        self.spec = SPECS[name]
        root = Rng(seed * 7919 + sum(map(ord, name)))
        self.graph_rng = root.fork(1)
        self.op_rng = root.fork(2)
        self.seed_base = 1 + root.below(1 << 30)
        s = self.spec
        self.sessions = [Session(self.graph_rng, s["n"], s["m"])
                         for _ in range(s["sessions"])]
        # Fixed per-session solve seeds for the warm/cached workloads.
        self.session_seed = [self.seed_base + k for k in range(s["sessions"])]
        self._undo = [None] * s["sessions"]
        self._count = [0] * s["sessions"]
        self._issued = 0

    # The graphs as loaded (before any op touches them).
    def graph_texts(self):
        return [s.text() for s in self.sessions]

    def warmup_ops(self):
        """Setup-phase ops, answered before the timed window opens.  Lazy:
        each op's delta reaches the shadow graph only when it is drawn."""
        for _ in range(self.spec["warmup"]):
            yield self.next_op()

    def next_op(self):
        i = self._issued
        self._issued += 1
        name = self.name
        k = i % self.spec["sessions"]
        if name == "cold-solve":
            # Alternate streaming/mpc per op while each session sees both;
            # a seed never used before in the run keeps every solve cold.
            algo = ("streaming", "mpc")[(i + i // len(self.sessions)) % 2]
            return {"session": k, "delta": None, "algo": algo,
                    "seed": self.seed_base + 4096 + i, "epsilon": EPS}
        if name == "routed-warm" and i < self.spec["sessions"]:
            # Priming solve: the warm-start state later re-solves repair.
            return {"session": k, "delta": None, "algo": "streaming",
                    "seed": self.session_seed[k]}
        sess = self.sessions[k]
        j = self._count[k]
        self._count[k] += 1
        rng = self.op_rng
        if name == "durable-edit":
            if j % 4 == 3 and self._undo[k] is not None:
                delta = self._undo[k]
            else:
                r = rng.below(8)
                if j % 4 != 2 and r == 0:
                    delta = ("add_vertices", 1)
                elif r % 2 == 0:
                    delta = ("add_edges", sess.pick_absent(rng, 4))
                else:
                    delta = ("remove_edges", sess.pick_present(rng, 4))
            algo = "greedy"
        else:
            # routed-warm: churn light edges (weight <= LIGHT), adding two
            # and removing two in turn.  A near-optimal matching holds
            # almost none of them, so the repaired warm start rarely finds
            # a gain and nearly every re-solve is one round: a single cost
            # class, with m flat.  A removal never takes back both edges
            # just added, so the digest is new every op and no re-solve
            # is a cache hit.
            if j % 2 == 0:
                delta = ("add_edges", sess.pick_absent(rng, 2, LIGHT))
            else:
                just_added = set(self._undo[k][1])
                delta = ("remove_edges",
                         sess.pick_present(rng, 2, LIGHT, avoid=just_added))
            algo = "streaming"
        self._undo[k] = sess.apply(delta)
        return {"session": k, "delta": delta, "algo": algo,
                "seed": self.session_seed[k]}


def op_phases(op):
    """The request round trips of one op, as builders (digest, id) -> lines.
    A mutation is itself a batch boundary and answers at once; the solve
    that follows must name the session's new digest, so it goes out only
    after the mutation's response.  The solve's trailing blank line is the
    boundary that forces the queued solve."""
    def mutate(digest, rid):
        return [mutation_line(op["delta"], digest, rid)]

    def solve(digest, rid):
        return [solve_line(op["algo"], op["seed"], digest, rid,
                           op.get("epsilon")), ""]

    return ([mutate] if op["delta"] is not None else []) + [solve]


def render(name, seed, ops):
    """The symbolic request stream (digests as @s<k>) of setup plus ``ops``
    timed ops, as one string — what the generator test compares."""
    w = Workload(name, seed)
    out = []
    for k, text in enumerate(w.graph_texts()):
        out.append("# graph %d\n%s" % (k, text))
        out.append(load_line("g%d.wm" % k, k + 1))
    rid = len(w.sessions) + 1
    for op in list(w.warmup_ops()) + [w.next_op() for _ in range(ops)]:
        for phase in op_phases(op):
            lines = phase("@s%d" % op["session"], rid)
            rid += 1
            out.extend(lines)
    return "\n".join(out) + "\n"


def self_check(name, seed, ops=64):
    """The generator is a pure function of (workload, seed): rendering twice
    gives the same bytes, and the next seed gives different ones."""
    a = render(name, seed, ops)
    if a != render(name, seed, ops) or a == render(name, seed + 1, ops):
        raise AssertionError("request stream is not a function of the seed")
