(* Performance-contract tests for the allocation-free kernels:
   Arena.Stamp / Arena.Ints semantics, minor-word budgets for the hot
   iterators (Weighted_graph.iter_neighbors, Tau.iter_homogeneous, the
   cached Layered fill), the canonical equal-gain tie-break, the stable
   weight-ordered stream arrangement, the scale-tier generators, and
   Graph_io.digest against its sort-then-hash definition (values,
   allocation, and cost at a hub).

   The budget tests measure [Gc.minor_words] deltas (domain-local, so
   they are exact for single-domain code) after a warm-up call that
   pays one-time costs: slot initialisation, arena growth, CSR
   indexing.  Budgets are loose by an order of magnitude against the
   arena implementations, and tight by orders of magnitude against the
   list/Hashtbl implementations they replaced — they catch
   reintroduced per-element allocation, not codegen noise. *)

module E = Wm_graph.Edge
module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module P = Wm_graph.Prng
module Gen = Wm_graph.Gen
module Arena = Wm_graph.Arena
module ES = Wm_stream.Edge_stream
module A = Wm_core.Aug
module Tau = Wm_core.Tau
module Layered = Wm_core.Layered
module AC = Wm_core.Aug_class

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Minor words allocated by [f ()], as an int. *)
let words f =
  let a = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. a)

(* ------------------------------------------------------------------ *)
(* Arena primitives *)

let test_stamp () =
  let s = Arena.Stamp.create () in
  Arena.Stamp.reset s 10;
  check_bool "empty after reset" false (Arena.Stamp.mem s 3);
  Arena.Stamp.mark s 3;
  check_bool "marked" true (Arena.Stamp.mem s 3);
  check_bool "others untouched" false (Arena.Stamp.mem s 4);
  check_bool "add new" true (Arena.Stamp.add s 4);
  check_bool "add seen" false (Arena.Stamp.add s 4);
  (* A reset is a fresh epoch: old marks are invisible without any
     clearing pass. *)
  Arena.Stamp.reset s 10;
  check_bool "reset forgets" false (Arena.Stamp.mem s 3);
  (* Growing the universe preserves the fresh-epoch contract. *)
  Arena.Stamp.reset s 1000;
  check_bool "grown empty" false (Arena.Stamp.mem s 999);
  Arena.Stamp.mark s 999;
  check_bool "grown mark" true (Arena.Stamp.mem s 999)

let test_stamp_reset_allocation_free () =
  let s = Arena.Stamp.create () in
  Arena.Stamp.reset s 4096;
  (* warm: backing array now sized *)
  let w =
    words (fun () ->
        for _ = 1 to 1000 do
          Arena.Stamp.reset s 4096;
          Arena.Stamp.mark s 7
        done)
  in
  (* A bool-array replacement would clear or allocate 4096 slots per
     reset; the epoch bump must stay O(1) and allocation-free. *)
  check_bool (Printf.sprintf "1000 resets cost %d words" w) true (w < 256)

let test_ints () =
  let v = Arena.Ints.create () in
  check "fresh length" 0 (Arena.Ints.length v);
  for i = 0 to 99 do
    Arena.Ints.push v (i * i)
  done;
  check "length" 100 (Arena.Ints.length v);
  check "get" (49 * 49) (Arena.Ints.get v 49);
  let d = Arena.Ints.data v in
  check "data prefix" (99 * 99) d.(99);
  Arena.Ints.clear v;
  check "cleared" 0 (Arena.Ints.length v);
  Arena.Ints.push v 5;
  check "reuse after clear" 5 (Arena.Ints.get v 0)

let test_ints_push_allocation_free () =
  let v = Arena.Ints.create () in
  for i = 0 to 9999 do
    Arena.Ints.push v i
  done;
  (* warm: capacity grown *)
  Arena.Ints.clear v;
  let w =
    words (fun () ->
        for i = 0 to 9999 do
          Arena.Ints.push v i
        done)
  in
  (* A list accumulator costs 3 words per element (30k words here). *)
  check_bool (Printf.sprintf "10k pushes cost %d words" w) true (w < 256)

(* ------------------------------------------------------------------ *)
(* Allocation budgets for the hot iterators *)

let test_iter_neighbors_budget () =
  let g = Gen.gnp (P.create 11) ~n:400 ~p:0.02 ~weights:(Gen.Uniform (1, 100)) in
  let acc = ref 0 in
  let visit _ e = acc := !acc + E.weight e in
  let sweep () =
    for v = 0 to G.n g - 1 do
      G.iter_neighbors g v visit
    done
  in
  sweep ();
  (* warm: CSR adjacency index built *)
  let w = words sweep in
  check_bool
    (Printf.sprintf "sweep of %d edges cost %d words" (G.m g) w)
    true (w < 256);
  check_bool "visited both directions" true (!acc >= 2 * G.m g)

let test_iter_homogeneous_budget () =
  let tp = Tau.make_params ~granularity:(1.0 /. 32.0) ~max_layers:9 ~slack:0.0 in
  let a_values = [ 3; 5; 9 ] and b_values = [ 4; 8 ] in
  let emitted = ref 0 in
  let reprs = ref [] in
  let visit pr =
    incr emitted;
    if not (List.exists (fun p -> p == pr) !reprs) then reprs := pr :: !reprs
  in
  let run () = Tau.iter_homogeneous tp ~a_values ~b_values visit in
  run ();
  (* warm *)
  emitted := 0;
  reprs := [];
  let w = words run in
  check_bool "enumerates a real pair space" true (!emitted > 50);
  (* The contract is per-emission reuse: every pair of a given length is
     the same physical scratch record, so the emission count never
     shows up in the allocation profile.  (An absolute budget on the
     whole call would mostly measure [is_good]'s arithmetic on
     rejected candidates, which both implementations pay.) *)
  check_bool
    (Printf.sprintf "%d emissions share %d scratch records" !emitted
       (List.length !reprs))
    true
    (* at most one scratch per admissible length k <= max_layers *)
    (List.length !reprs <= 9);
  check_bool (Printf.sprintf "call cost %d words" w) true (w < 8192)

(* The cached Layered fill: with a prepared pair-invariant cache, a
   build that retains no Y edge must allocate only the scratch-growth
   warm-up — the steady state is allocation-free. *)
let test_layered_trivial_build_budget () =
  let g, m = Gen.paper_fig1 () in
  let side = [| false; false; true; false; false; true |] in
  let gp = Layered.parametrize_with ~side g m in
  let tp = Tau.make_params ~granularity:0.125 ~max_layers:5 ~slack:0.0 in
  let scale = 8.0 in
  let cache = Layered.prepare tp gp ~scale in
  let granule = 0.125 *. scale in
  let mid = Tau.bucket_up ~granule 5 in
  (* b-bucket 31 matches no edge weight, so every Y edge is filtered
     and the build short-circuits to Trivial. *)
  let pair = { Tau.a = [| 0; mid; 0 |]; b = [| 31; 31 |] } in
  let run () =
    match Layered.build_opt ~cache tp gp pair ~scale with
    | Layered.Trivial _ -> ()
    | Layered.Graph _ -> Alcotest.fail "expected a trivial build"
  in
  run ();
  (* warm: per-domain scratch slot initialised *)
  let w = words (fun () -> for _ = 1 to 100 do run () done) in
  check_bool (Printf.sprintf "100 trivial builds cost %d words" w) true
    (w < 2048)

(* The trivial-pair pre-check decides from the prepare cache alone and
   allocates nothing itself: on a graph with thousands of Y edges, a
   pair that scans a populated bucket group and still comes out trivial
   costs only the call's own blocks, independent of the graph. *)
let test_trivial_precheck_budget () =
  let g = Gen.gnp (P.create 5) ~n:300 ~p:0.08 ~weights:(Gen.Uniform (1, 8)) in
  let m = Wm_algos.Greedy.by_weight g in
  let gp = Layered.parametrize (P.create 6) g m in
  let tp = Tau.make_params ~granularity:(1.0 /. 32.0) ~max_layers:9 ~slack:0.0 in
  let scale = 8.0 in
  let cache = Layered.prepare tp gp ~scale in
  (* Every weight buckets down to 4..32 at this granule, so the group of
     b = 16 is populated; no matched edge buckets up to 40 and no vertex
     is free for a non-zero threshold, so none of it survives. *)
  let pair = { Tau.a = [| 40; 40 |]; b = [| 16 |] } in
  let run () =
    match Layered.build_opt ~cache tp gp pair ~scale with
    | Layered.Trivial _ -> ()
    | Layered.Graph _ -> Alcotest.fail "expected a trivial build"
  in
  run ();
  let w = words (fun () -> for _ = 1 to 1000 do run () done) in
  check_bool
    (Printf.sprintf "1000 pre-checks over %d edges cost %d words" (G.m g) w)
    true
    (* six words per call: the boxed [~scale] float and [Some cache] at
       the call site, and the [Trivial] result *)
    (w <= 6 * 1000 + 64)

(* ------------------------------------------------------------------ *)
(* Oracles for the tau-pair hot path *)

module Obs = Wm_obs.Obs
module Params = Wm_core.Params

(* A random instance whose matching has crossing and non-crossing edges
   (under the random bipartition) and free vertices: a random partial
   matching, a greedy near-maximal one, or none at all. *)
let random_instance seed =
  let rng = P.create seed in
  let n = 6 + P.int rng 40 in
  let weights =
    match P.int rng 3 with
    | 0 -> Gen.Uniform (1, 20)
    | 1 -> Gen.Geometric_classes 6
    | _ -> Gen.Uniform (1, 300)
  in
  let g = Gen.gnp rng ~n ~p:(0.1 +. P.float rng 0.4) ~weights in
  (* [Main_alg.scales_for] is empty exactly when the graph has no edge,
     and the properties draw a scale from it: give an edgeless draw one
     edge. *)
  let g = if G.m g > 0 then g else G.patch g ~add:[ E.make 0 1 1 ] () in
  let m =
    match P.int rng 4 with
    | 0 -> M.create n
    | 1 -> Wm_algos.Greedy.by_weight g
    | _ ->
        let m = M.create n in
        Array.iter
          (fun e -> if P.int rng 3 > 0 then ignore (M.try_add m e))
          (P.shuffle rng (G.edges g));
        m
  in
  (rng, Layered.parametrize rng g m)

let pick rng l = List.nth l (P.int rng (List.length l))

(* Bucket values present in the data, as the enumeration sees them. *)
let reference_present params (gp : Layered.parametrized) ~scale =
  let tp = Params.tau_params params in
  let granule = params.Params.granularity *. scale in
  let cap = Tau.max_granules tp in
  let a = ref [] and b = ref [] in
  G.iter_edges
    (fun e ->
      let u, v = E.endpoints e in
      if gp.Layered.side.(u) <> gp.Layered.side.(v) then
        if M.mem gp.Layered.matching e then begin
          let k = Tau.bucket_up ~granule (E.weight e) in
          if k <= cap then a := k :: !a
        end
        else begin
          let k = Tau.bucket_down ~granule (E.weight e) in
          if k >= 2 && k <= cap then b := k :: !b
        end)
    gp.Layered.graph;
  (List.sort_uniq Int.compare !a, List.sort_uniq Int.compare !b)

(* The pre-rewrite walk, kept as the oracle: each step folds the CSR
   slice to count the unmatched edges, draws, then iterates to the drawn
   one.  Captures come back newest first. *)
let reference_walks params rng (gp : Layered.parametrized) ~scale ~count =
  let tp = Params.tau_params params in
  let g = gp.Layered.graph and m = gp.Layered.matching in
  let n = G.n g in
  if n = 0 then []
  else begin
    let granule = params.Params.granularity *. scale in
    let pairs = ref [] in
    for _ = 1 to count do
      let start = P.int rng n in
      let a_buckets = ref [] and b_buckets = ref [] in
      let cur = ref start in
      (match M.edge_at m start with
      | Some e ->
          a_buckets := [ Tau.bucket_up ~granule (E.weight e) ];
          cur := E.other e start
      | None -> a_buckets := [ 0 ]);
      let steps = 1 + P.int rng (params.Params.max_layers - 1) in
      (try
         for _ = 1 to steps do
           let unmatched =
             G.fold_neighbors g !cur
               (fun acc _ e -> if M.mem m e then acc else acc + 1)
               0
           in
           if unmatched = 0 then raise Exit;
           let idx = P.int rng unmatched in
           let picked = ref None and seen = ref 0 in
           G.iter_neighbors g !cur (fun _ e ->
               if not (M.mem m e) then begin
                 if !seen = idx then picked := Some e;
                 incr seen
               end);
           let o = Option.get !picked in
           b_buckets := Tau.bucket_down ~granule (E.weight o) :: !b_buckets;
           let x = E.other o !cur in
           match M.edge_at m x with
           | Some e' ->
               a_buckets := Tau.bucket_up ~granule (E.weight e') :: !a_buckets;
               cur := E.other e' x
           | None ->
               a_buckets := 0 :: !a_buckets;
               raise Exit
         done
       with Exit -> ());
      if !b_buckets <> [] then
        match
          Tau.capture_path tp ~a_buckets:(List.rev !a_buckets)
            ~b_buckets:(List.rev !b_buckets)
        with
        | Some pr -> pairs := pr :: !pairs
        | None -> ()
    done;
    !pairs
  end

(* First-wins dedup on structural keys — the polymorphic seen-set the
   specialised one replaced. *)
let reference_dedup pairs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun pr ->
      let key = (Array.to_list pr.Tau.a, Array.to_list pr.Tau.b) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    pairs

(* The homogeneous family without the iterator's pruning: every
   (length, value, value, ends) candidate through [Tau.is_good]. *)
let reference_homogeneous tp ~a_values ~b_values =
  let out = ref [] in
  for k = 1 to tp.Tau.max_layers - 1 do
    List.iter
      (fun av ->
        List.iter
          (fun bv ->
            List.iter
              (fun (first, last) ->
                let a = Array.make (k + 1) av in
                a.(0) <- first;
                a.(k) <- last;
                let pr = { Tau.a; b = Array.make k bv } in
                if Tau.is_good tp pr then out := pr :: !out)
              [ (av, av); (0, av); (av, 0); (0, 0) ])
          (List.sort_uniq Int.compare b_values))
      (List.sort_uniq Int.compare a_values)
  done;
  List.rev !out

let reference_candidates params rng gp ~scale =
  let tp = Params.tau_params params in
  let a_values, b_values = reference_present params gp ~scale in
  if b_values = [] then []
  else begin
    let walked, sampled =
      if params.Params.tau_samples > 0 then begin
        let w =
          reference_walks params rng gp ~scale ~count:params.Params.tau_samples
        in
        let s =
          Tau.sample tp rng ~a_values ~b_values
            ~count:(params.Params.tau_samples / 4)
        in
        (w, s)
      end
      else ([], [])
    in
    let all =
      reference_dedup
        (reference_homogeneous tp ~a_values ~b_values @ walked @ sampled)
    in
    List.filteri (fun i _ -> i < params.Params.tau_budget) all
  end

let same_pairs = List.equal (fun p q -> p.Tau.a = q.Tau.a && p.Tau.b = q.Tau.b)

let prop_walk_oracle =
  QCheck2.Test.make
    ~name:"walk_pairs and candidate_pairs match the reference walk" ~count:60
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng, gp = random_instance seed in
      let params =
        Params.practical ~epsilon:(pick rng [ 0.8; 0.3; 0.1 ]) ()
      in
      List.for_all
        (fun scale ->
          let r1 = P.copy rng and r2 = P.copy rng in
          let walked = AC.walk_pairs params r1 gp ~scale ~count:80 in
          let expected =
            reference_dedup (reference_walks params r2 gp ~scale ~count:80)
          in
          let r3 = P.copy rng and r4 = P.copy rng in
          let cands = AC.candidate_pairs params r3 gp ~scale in
          let expected_cands = reference_candidates params r4 gp ~scale in
          same_pairs walked expected
          && P.state r1 = P.state r2
          && same_pairs cands expected_cands
          && P.state r3 = P.state r4)
        (Wm_core.Main_alg.scales_for params gp.Layered.graph))

let layered_counters () =
  List.map
    (Obs.counter_value Obs.default)
    [ "core.layered.builds"; "core.layered.edges"; "core.layered.edges_max" ]

(* [build_opt ~cache]'s verdict, edge count and counter deltas against
   the uncached full build of the same pair. *)
let precheck_agrees tp gp cache ~scale pair =
  Obs.reset Obs.default;
  let lay = Layered.build tp gp pair ~scale in
  let full = G.m lay.Layered.lgraph and x_len = M.size lay.Layered.init in
  let expected = layered_counters () in
  Obs.reset Obs.default;
  let verdict = Layered.build_opt ~cache tp gp pair ~scale in
  layered_counters () = expected
  &&
  match verdict with
  | Layered.Trivial x -> full = x_len && x = x_len
  | Layered.Graph lay' ->
      full > x_len
      && Array.for_all2 E.equal (G.edges lay'.Layered.lgraph)
           (G.edges lay.Layered.lgraph)

let prop_trivial_precheck =
  QCheck2.Test.make
    ~name:"cached trivial pre-check agrees with the uncached build" ~count:60
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng, gp = random_instance seed in
      let params = Params.practical ~epsilon:(pick rng [ 0.8; 0.3 ]) () in
      let tp = Params.tau_params params in
      let scale =
        pick rng (Wm_core.Main_alg.scales_for params gp.Layered.graph)
      in
      let cache = Layered.prepare tp gp ~scale in
      let a_values, b_values = reference_present params gp ~scale in
      (* Arbitrary shapes too, beyond the good ones, with thresholds
         drawn from every bucket in the data: those past the cap land in
         the cache's overflow slot, and zero ends exercise the
         free-vertex rule. *)
      let granule = params.Params.granularity *. scale in
      let ups = ref [ 0 ] and downs = ref [ 0 ] in
      G.iter_edges
        (fun e ->
          let w = E.weight e in
          if M.mem gp.Layered.matching e then
            ups := Tau.bucket_up ~granule w :: !ups
          else downs := Tau.bucket_down ~granule w :: !downs)
        gp.Layered.graph;
      let arbitrary =
        List.init 60 (fun _ ->
            let k = 1 + P.int rng 4 in
            let draw l = if P.bool rng then 0 else pick rng l in
            { Tau.a = Array.init (k + 1) (fun _ -> draw !ups);
              b = Array.init k (fun _ -> draw !downs) })
      in
      let pairs =
        Tau.homogeneous tp ~a_values ~b_values
        @ AC.walk_pairs params rng gp ~scale ~count:60
        @ Tau.sample tp rng ~a_values ~b_values ~count:40
        @ arbitrary
      in
      let ok = List.for_all (precheck_agrees tp gp cache ~scale) pairs in
      (* A coarse granularity makes exhaustive enumeration small. *)
      let coarse = Tau.make_params ~granularity:0.25 ~max_layers:4 ~slack:0.0 in
      let coarse_cache = Layered.prepare coarse gp ~scale in
      ok
      && List.for_all
           (precheck_agrees coarse gp coarse_cache ~scale)
           (Tau.enumerate coarse ~max_pairs:150))

(* ------------------------------------------------------------------ *)
(* Canonical tie-breaking *)

let test_canonical_key_path_reversal () =
  let p1 = A.Path [ E.make 0 1 5; E.make 1 2 3 ] in
  let p2 = A.Path [ E.make 1 2 3; E.make 0 1 5 ] in
  check_bool "reversed presentation, same key" true
    (A.canonical_key p1 = A.canonical_key p2);
  let q = A.Path [ E.make 2 3 5 ] in
  check_bool "distinct paths, distinct keys" true
    (A.canonical_key p1 <> A.canonical_key q)

let test_canonical_key_cycle_rotation () =
  let e01 = E.make 0 1 2
  and e12 = E.make 1 2 7
  and e23 = E.make 2 3 2
  and e30 = E.make 3 0 7 in
  let c1 = A.Cycle [ e01; e12; e23; e30 ] in
  let c2 = A.Cycle [ e12; e23; e30; e01 ] in
  let c3 = A.Cycle [ e30; e23; e12; e01 ] in
  check_bool "rotated, same key" true (A.canonical_key c1 = A.canonical_key c2);
  check_bool "reversed orientation, same key" true
    (A.canonical_key c1 = A.canonical_key c3)

(* Equal-gain one-augmentations must come out in canonical-key order
   regardless of the instance's edge presentation: the gain sort alone
   left the order to the enumeration, which made transcripts depend on
   graph construction order. *)
let test_one_augmentations_tie_break () =
  let edges_fwd = [ E.make 0 1 5; E.make 2 3 5 ] in
  let edges_rev = [ E.make 2 3 5; E.make 0 1 5 ] in
  let first_edge g =
    match AC.one_augmentations g (M.create 4) with
    | A.Path [ e ] :: _ -> e
    | _ -> Alcotest.fail "expected single-edge path augmentations"
  in
  let e1 = first_edge (G.create ~n:4 edges_fwd) in
  let e2 = first_edge (G.create ~n:4 edges_rev) in
  check_bool "presentation-independent winner" true (E.equal e1 e2);
  (* And the winner is the canonically least walk, 0-1. *)
  check_bool "canonical winner" true (E.equal e1 (E.make 0 1 5))

(* ------------------------------------------------------------------ *)
(* Stable weight-ordered arrangement (the radix sort) *)

let collect stream =
  let out = ref [] in
  ES.iter stream (fun e -> out := e :: !out);
  List.rev !out

let test_arrange_matches_stable_sort () =
  (* Few distinct weights force heavy ties, so stability is load-bearing
     in the expected sequence. *)
  let g = Gen.gnp (P.create 3) ~n:120 ~p:0.05 ~weights:(Gen.Uniform (1, 4)) in
  let given = collect (ES.of_graph g) in
  let incr_got = collect (ES.of_graph ~order:ES.Increasing_weight g) in
  let decr_got = collect (ES.of_graph ~order:ES.Decreasing_weight g) in
  let by f = List.stable_sort (fun a b -> Stdlib.compare (f a) (f b)) given in
  check_bool "nontrivial instance" true (List.length given > 200);
  check_bool "increasing = stable sort" true
    (List.equal E.equal incr_got (by E.weight));
  check_bool "decreasing = stable reverse sort" true
    (List.equal E.equal decr_got (by (fun e -> -E.weight e)))

(* ------------------------------------------------------------------ *)
(* Scale-tier generator validity *)

let check_simple_graph ?bip_left g =
  let n = G.n g in
  let seen = Hashtbl.create (G.m g) in
  G.iter_edges
    (fun e ->
      let u, v = E.endpoints e in
      check_bool "endpoint range" true (u >= 0 && u < n && v >= 0 && v < n);
      check_bool "no self-loop" true (u <> v);
      check_bool "positive weight" true (E.weight e >= 1);
      let key = (Stdlib.min u v * n) + Stdlib.max u v in
      check_bool "no duplicate edge" false (Hashtbl.mem seen key);
      Hashtbl.replace seen key ();
      match bip_left with
      | None -> ()
      | Some left ->
          check_bool "crosses the bipartition" true
            ((u < left) <> (v < left)))
    g;
  check "edge count consistent" (G.m g) (Hashtbl.length seen)

let test_power_law_scale_valid () =
  let g =
    Gen.power_law_scale (P.create 7) ~n:2000 ~attach:6
      ~weights:(Gen.Geometric_classes 8)
  in
  check "vertex count" 2000 (G.n g);
  check_bool "roughly attach*n edges" true (G.m g > 5 * 2000 && G.m g <= 6 * 2000);
  check_simple_graph g

let test_geometric_scale_valid () =
  let g =
    Gen.geometric_scale (P.create 8) ~n:2000 ~avg_degree:10.0
      ~weights:(Gen.Uniform (1, 100))
  in
  check "vertex count" 2000 (G.n g);
  (* Expected degree 10 with Poisson-like spread. *)
  let avg = 2.0 *. float_of_int (G.m g) /. 2000.0 in
  check_bool (Printf.sprintf "average degree %.1f near 10" avg) true
    (avg > 5.0 && avg < 20.0);
  check_simple_graph g

let test_bipartite_skew_scale_valid () =
  let g =
    Gen.bipartite_skew_scale (P.create 9) ~left:1000 ~right:1000 ~edges:8000
      ~exponent:1.5
      ~weights:(Gen.Uniform (1, 50))
  in
  check "vertex count" 2000 (G.n g);
  check "exact edge count" 8000 (G.m g);
  check_simple_graph ~bip_left:1000 g

(* Scale generators must be a pure function of the seed — the T11 rows
   and the @scale-smoke fixtures rely on it. *)
let test_scale_generators_deterministic () =
  let dig () =
    Wm_graph.Graph_io.digest
      (Gen.power_law_scale (P.create 21) ~n:1000 ~attach:5
         ~weights:(Gen.Uniform (1, 9)))
  in
  Alcotest.(check string) "same seed, same graph" (dig ()) (dig ())

(* ------------------------------------------------------------------ *)
(* Graph_io.digest: the sort-free walk against the sort-then-hash
   definition *)

module IO = Wm_graph.Graph_io

(* The original implementation, kept verbatim as the oracle: normalise,
   sort the boxed triples polymorphically, FNV-1a over n and then every
   (u, v, w). *)
let reference_digest g =
  let edges =
    Array.map
      (fun e ->
        let u, v = E.endpoints e in
        (Stdlib.min u v, Stdlib.max u v, E.weight e))
      (G.edges g)
  in
  Array.sort compare edges;
  let h = ref 0xcbf29ce484222325L in
  let feed_byte b =
    h := Int64.mul (Int64.logxor !h (Int64.of_int (b land 0xff))) 0x100000001b3L
  in
  let feed_int x =
    for i = 0 to 7 do
      feed_byte (x asr (8 * i))
    done
  in
  feed_int (G.n g);
  Array.iter
    (fun (u, v, w) ->
      feed_int u;
      feed_int v;
      feed_int w)
    edges;
  Printf.sprintf "%016Lx" !h

(* Weights from 1 up to past 2^32, so every byte of the hashed ints is
   exercised. *)
let random_weight rng =
  match P.int rng 3 with
  | 0 -> 1 + P.int rng 20
  | 1 -> 1 + P.int rng 1_000_000_000
  | _ -> (P.int rng (1 lsl 28) lsl 32) lor P.int rng (1 lsl 30)

(* A random simple graph with its edges shuffled and half of them given
   endpoint-reversed, then (sometimes) grown by [G.patch]: fresh
   isolated vertices, additions reaching into them, and removals. *)
let random_digest_graph seed =
  let rng = P.create seed in
  let n = P.int rng 50 in
  let seen = Hashtbl.create 64 in
  let edges = ref [] in
  if n >= 2 then
    for _ = 1 to P.int rng (3 * n) do
      let u = P.int rng n and v = P.int rng n in
      if u <> v && not (Hashtbl.mem seen (min u v, max u v)) then begin
        Hashtbl.add seen (min u v, max u v) ();
        let w = random_weight rng in
        edges := (if P.bool rng then E.make v u w else E.make u v w) :: !edges
      end
    done;
  let g = G.of_array ~n (P.shuffle rng (Array.of_list !edges)) in
  if P.bool rng then g
  else begin
    let k = P.int rng 4 in
    let n' = n + k in
    let add =
      if n' < 2 || k = 0 then []
      else
        List.init (P.int rng 5) (fun i -> (n + (i mod k), P.int rng n'))
        |> List.filter (fun (u, v) -> u <> v)
        |> List.sort_uniq (fun (a, b) (c, d) ->
               compare (min a b, max a b) (min c d, max c d))
        |> List.map (fun (u, v) -> E.make v u (random_weight rng))
    in
    let remove =
      List.filteri (fun i _ -> i mod 3 = 0) (List.map E.endpoints !edges)
      |> List.map (fun (u, v) -> (v, u))
    in
    G.patch g ~add_vertices:k ~add ~remove ()
  end

let prop_digest_oracle =
  QCheck2.Test.make ~name:"digest equals the sort-then-hash definition"
    ~count:300
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let g = random_digest_graph seed in
      let d = IO.digest g in
      let rebuilt =
        G.of_array ~n:(G.n g)
          (Array.map
             (fun e ->
               let u, v = E.endpoints e in
               E.make v u (E.weight e))
             (Array.of_list (List.rev (G.edge_list g))))
      in
      d = reference_digest g && d = IO.digest rebuilt)

(* A star whose hub run comes out of the CSR slice in reverse leaf
   order: the worst case for an insertion sort. *)
let reversed_star leaves =
  G.create ~n:(leaves + 1)
    (List.init leaves (fun i -> E.make (leaves - i) 0 (1 + (i mod 7))))

let test_digest_edge_cases () =
  let check_ref name g =
    Alcotest.(check string) name (reference_digest g) (IO.digest g)
  in
  check_ref "n = 0" (G.empty 0);
  check_ref "isolated vertices only" (G.empty 7);
  check_ref "patched-in isolated vertices"
    (G.patch (G.create ~n:3 [ E.make 2 0 5 ]) ~add_vertices:4
       ~add:[ E.make 6 1 (1 lsl 40) ] ());
  check_ref "hub of degree 10^4" (reversed_star 10_000);
  (* Pinned values of the definition: session keys, WAL and snapshot
     file names, ring placement and cache keys are all derived from
     these bytes, so any change to them is a format break. *)
  let pin name expected g = Alcotest.(check string) name expected (IO.digest g) in
  pin "empty graph" "a8c7f832281a39c5" (G.empty 0);
  pin "small graph with a weight past 2^32" "0807d803647f912b"
    (G.create ~n:5
       [ E.make 3 1 (1 lsl 33); E.make 0 4 7; E.make 2 0 1; E.make 4 3 12 ]);
  pin "gnp(200, 0.05)" "981a1be4e5637778"
    (Gen.gnp (P.create 1) ~n:200 ~p:0.05 ~weights:(Gen.Uniform (1, 1000)))

(* After a warm-up that grows the per-domain run buffer, a digest
   allocates only its 16-character result: nothing per edge. *)
let test_digest_budget () =
  let g = Gen.gnm (P.create 4) ~n:1000 ~m:8000 ~weights:(Gen.Uniform (1, 1000)) in
  ignore (IO.digest g);
  let w = words (fun () -> for _ = 1 to 10 do ignore (IO.digest g) done) in
  check_bool
    (Printf.sprintf "10 digests of %d edges cost %d words" (G.m g) w)
    true (w < 10 * 256)

(* Near-linear at a hub: a reversed star and a path have the same n and
   m, but one run of length 20,000 against 20,000 runs of length 1.  A
   quadratic run sort makes the star hundreds of times slower; the
   bound leaves a wide margin for timer noise. *)
let test_digest_hub_near_linear () =
  let leaves = 20_000 in
  let star = reversed_star leaves in
  let path =
    G.create ~n:(leaves + 1) (List.init leaves (fun i -> E.make i (i + 1) 3))
  in
  let best g =
    let t = ref infinity in
    for _ = 1 to 5 do
      let t0 = Unix.gettimeofday () in
      ignore (IO.digest g);
      t := Float.min !t (Unix.gettimeofday () -. t0)
    done;
    !t
  in
  let t_star = best star and t_path = best path in
  check_bool
    (Printf.sprintf "star %.2f ms vs path %.2f ms" (1e3 *. t_star)
       (1e3 *. t_path))
    true
    (t_star <= (8.0 *. t_path) +. 0.005)

let () =
  Alcotest.run "perf"
    [
      ( "arena",
        [
          Alcotest.test_case "stamp semantics" `Quick test_stamp;
          Alcotest.test_case "stamp reset is O(1)" `Quick
            test_stamp_reset_allocation_free;
          Alcotest.test_case "ints semantics" `Quick test_ints;
          Alcotest.test_case "ints push allocation-free" `Quick
            test_ints_push_allocation_free;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "iter_neighbors" `Quick test_iter_neighbors_budget;
          Alcotest.test_case "tau iterator" `Quick test_iter_homogeneous_budget;
          Alcotest.test_case "layered trivial build" `Quick
            test_layered_trivial_build_budget;
          Alcotest.test_case "trivial pre-check" `Quick
            test_trivial_precheck_budget;
        ] );
      ( "oracles",
        List.map QCheck_alcotest.to_alcotest
          [ prop_walk_oracle; prop_trivial_precheck; prop_digest_oracle ] );
      ( "digest",
        [
          Alcotest.test_case "edge cases and pinned values" `Quick
            test_digest_edge_cases;
          Alcotest.test_case "no per-edge allocation" `Quick test_digest_budget;
          Alcotest.test_case "near-linear at a hub" `Quick
            test_digest_hub_near_linear;
        ] );
      ( "tie-break",
        [
          Alcotest.test_case "path key reversal-invariant" `Quick
            test_canonical_key_path_reversal;
          Alcotest.test_case "cycle key rotation-invariant" `Quick
            test_canonical_key_cycle_rotation;
          Alcotest.test_case "one_augmentations canonical order" `Quick
            test_one_augmentations_tie_break;
        ] );
      ( "arrange",
        [
          Alcotest.test_case "radix = stable sort" `Quick
            test_arrange_matches_stable_sort;
        ] );
      ( "scale-gen",
        [
          Alcotest.test_case "power-law valid" `Quick test_power_law_scale_valid;
          Alcotest.test_case "geometric valid" `Quick test_geometric_scale_valid;
          Alcotest.test_case "bip-skew valid" `Quick
            test_bipartite_skew_scale_valid;
          Alcotest.test_case "seed-deterministic" `Quick
            test_scale_generators_deterministic;
        ] );
    ]
