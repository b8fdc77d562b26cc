(** GC accounting snapshots.

    [minor_words] is [Gc.minor_words ()]: exact to the word, but it
    counts only the {e calling domain}'s allocations, so a delta taken
    around a parallel region misses what worker domains allocated and
    shifts with [--jobs].  The other tallies come from [Gc.quick_stat],
    which is {e program-wide} on OCaml 5 (it includes work done by live
    child domains, merged when a domain is joined) but only advances at
    minor collections — which is why it is not used for
    [minor_words]: its deltas are quantised to whole minor heaps, and a
    1000-cell list reads as 0 words.

    Word counts are reported as integers: [float] minor-word tallies
    are far below 2^62 for any realistic run, and integer fields are
    what {!Ledger} rows and BENCH_v1 reports carry. *)

type snapshot = {
  minor_words : int;
  promoted_words : int;
  major_words : int;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  top_heap_words : int;  (** lifetime peak major-heap size (not a delta) *)
}

val snapshot : unit -> snapshot
(** Current tallies: the calling domain's exact [minor_words], the
    program-wide [Gc.quick_stat] figures for the rest. *)

val delta : before:snapshot -> snapshot -> snapshot
(** [delta ~before after] subtracts the cumulative tallies;
    [top_heap_words] is carried from [after] (it is a peak, not a
    cumulative count). *)

val since_start : unit -> snapshot
(** Delta against a baseline captured when this module was initialised
    (process start, before any experiment work). *)

val fields : snapshot -> (string * int) list
(** The snapshot as ledger-row fields, in declaration order. *)

val to_json : snapshot -> Json.t
(** The snapshot as a JSON object with the same field names. *)

val block_json : ledger:Ledger.t -> snapshot -> Json.t
(** The BENCH_v1 top-level ["gc"] block: the snapshot's fields plus the
    per-round aggregate derived from the ledger's ["gc"] section —
    [rounds] (rows labelled ["round"], one per [Main_alg.improve_once])
    and [minor_words_per_round] (their mean [minor_words] delta, the
    round hot path's allocation constant that the bench-diff gate
    pins). *)
