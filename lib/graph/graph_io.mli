(** Reading and writing graphs and matchings in a DIMACS-style text
    format.

    Format ("wm" problem line, 0-based vertex ids):
    {v
    c optional comments
    p wm <n> <m>
    e <u> <v> <w>      (one line per edge)
    v}
    Matchings use the same edge lines under a [p matching <n> <k>]
    header.  The format round-trips exactly (edge order preserved).

    Parsers validate strictly and never crash mid-parse: NaN, infinite,
    fractional or negative weights, self-loops, endpoints outside
    [\[0, n)], duplicate edges, counts that disagree with the header —
    each raises {!Parse_error} naming the offending line. *)

exception Parse_error of { line : int; msg : string }
(** [line] is 1-based; document-level problems (missing header, edge
    count mismatch) report the last line of the input. *)

val digest : Weighted_graph.t -> string
(** Content digest of a graph: 64-bit FNV-1a over the canonicalized
    (endpoint-sorted, edge-sorted) edge list plus the vertex count,
    rendered as 16 lowercase hex digits.  Invariant under endpoint
    order and edge order, so any two structurally equal graphs digest
    identically — the session key of the serving layer and the
    [instance.digest] field of WM_STATS_v1 reports.

    Cost: O(n + m log d) for maximum degree d — one walk of the CSR
    index in vertex order, each vertex's edges to higher neighbours
    sorted in a per-domain scratch buffer — and, once that buffer has
    grown, no allocation beyond the result string.  The definition
    (which bytes are hashed, in which order) is that of the original
    sort-then-hash implementation; [test_perf] checks the two agree and
    pins digest values, because session keys, WAL and snapshot bytes,
    shard placement and cache keys are all derived from them. *)

val to_string : Weighted_graph.t -> string

val of_string : string -> Weighted_graph.t
(** Raises {!Parse_error} with a line-numbered message on malformed
    input. *)

val write_file : string -> Weighted_graph.t -> unit

val read_file : string -> Weighted_graph.t

val matching_to_string : Matching.t -> string

val matching_of_string : string -> Matching.t

(** {1 Binary codec}

    Compact binary frames for durable state (the serving layer's
    snapshots and write-ahead log).  Graph frames embed the content
    digest; {!of_binary} recomputes it from the decoded structure and
    raises {!Parse_error} (line 0) on any mismatch, so a corrupted
    snapshot is detected rather than restored. *)

val to_binary : Weighted_graph.t -> string
(** ["WMB1"]-tagged LEB128 frame: n, m, the edges in stored order, and
    the 16-hex-digit {!digest} as a trailer. *)

val of_binary : string -> Weighted_graph.t
(** Decode and verify a {!to_binary} frame.  Raises {!Parse_error}
    (with [line = 0]) on truncation, malformed structure, or a digest
    that does not match the decoded content. *)

val matching_to_binary : Matching.t -> string

val matching_of_binary : string -> Matching.t
(** Raises {!Parse_error} (line 0) on a malformed frame or an edge set
    that is not a matching. *)
