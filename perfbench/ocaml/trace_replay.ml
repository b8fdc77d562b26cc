(* The traced run: replay a recorded op stream in-process through the
   layers' public functions, timing each call from outside.

   Main pass: every request line goes through [Protocol.parse_request] ->
   [Server.handle_request] (or [Server.flush] for the blank boundary
   line; behind a [Router] for sharded workloads) -> [Json.to_string] of
   each response.  Those three spans are the op's direct children, so
   [trace.unattributed_share] is the op wall time they leave uncovered.

   Replay pass (after the main pass, so it never inflates an op's wall
   time): a shadow session store re-applies every mutation through
   [Weighted_graph.patch] / [Graph_io.digest] / [Graph_io.to_binary],
   re-runs every served solve round by round through
   [Main_alg.improve_once] — with each scale's [Layered.parametrize],
   [Aug_class.candidate_pairs], [Layered.prepare] and [Aug_class.run]
   timed on copies of the round-start state — and re-runs greedy solves
   through [Greedy.by_weight].  Every replayed result must equal the
   served one (weight and rounds), or the breakdown would describe other
   work; a mismatch exits 1. *)

module J = Wm_obs.Json
module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module P = Wm_graph.Prng
module E = Wm_graph.Edge
module Server = Wm_serve.Server
module Protocol = Wm_serve.Protocol

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("trace: " ^ s); exit 1) fmt
let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Spans: kept in memory, written once at the end. *)

type span = { name : string; track : int; op : int; t0 : float; t1 : float }

let spans = ref []

let timed ~track ~op name f =
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  spans := { name; track; op; t0; t1 } :: !spans;
  v

(* Sums per span name over the timed ops, for the metric table (setup
   replays carry op id -1). *)
let total name =
  List.fold_left
    (fun acc s ->
      if s.name = name && s.op >= 0 then acc +. (s.t1 -. s.t0) else acc)
    0.0 !spans

let count name =
  List.fold_left
    (fun acc s -> if s.name = name && s.op >= 0 then acc + 1 else acc)
    0 !spans

(* Perfetto / Chrome trace_event JSON: complete ("X") events, the op id
   in [args.op] of every span (-1 for setup replays), and one flow arrow
   per op from its main pass span to its replay spans. *)
let write_trace path =
  let base =
    List.fold_left (fun acc s -> Float.min acc s.t0) infinity !spans
  in
  let us t = J.Float (Float.round ((t -. base) *. 1e7) /. 10.0) in
  let ev s =
    J.Obj
      [
        ("name", J.Str s.name);
        ("cat", J.Str (if s.track = 1 then "served" else "replay"));
        ("ph", J.Str "X");
        ("ts", us s.t0);
        ("dur", J.Float (Float.round ((s.t1 -. s.t0) *. 1e7) /. 10.0));
        ("pid", J.Int 1);
        ("tid", J.Int s.track);
        ("args", J.Obj [ ("op", J.Int s.op) ]);
      ]
  in
  let flows =
    List.concat_map
      (fun s ->
        if (s.name = "op" || s.name = "replay") && s.op >= 0 then
          [
            J.Obj
              [
                ("name", J.Str "op");
                ("cat", J.Str "op");
                ("ph", J.Str (if s.name = "op" then "s" else "f"));
                ("bp", J.Str "e");
                ("id", J.Int s.op);
                ("ts", us s.t0);
                ("pid", J.Int 1);
                ("tid", J.Int s.track);
              ];
          ]
        else [])
      !spans
  in
  let doc =
    J.Obj
      [
        ("traceEvents", J.List (List.rev_map ev !spans @ flows));
        ("displayTimeUnit", J.Str "ms");
      ]
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc (J.to_string doc))

(* ------------------------------------------------------------------ *)
(* Input *)

let member k j =
  match J.member k j with Some v -> v | None -> fail "missing field %s" k

let to_int = function J.Int i -> i | _ -> fail "expected an int"
let to_str = function J.Str s -> s | _ -> fail "expected a string"
let to_list = function J.List l -> l | _ -> fail "expected a list"
let int_field k j = to_int (member k j)

(* ------------------------------------------------------------------ *)
(* Main pass *)

let make_server ~shards ~wal_dir =
  let config = { (Server.default_config ()) with Server.wal_dir } in
  if shards = 0 then Server.create config
  else
    let spawn k =
      Wm_shard.Endpoint.of_server ~shard:k
        (Server.create
           (Wm_shard.Router.worker_config ~base:config ~shard:k ~wal_root:None))
    in
    Wm_shard.Router.server (Wm_shard.Router.create ~shards ~spawn ~config ())

let handle srv ~op line =
  if line = "" then timed ~track:1 ~op "serve.handle" (fun () -> Server.flush srv)
  else
    let req =
      timed ~track:1 ~op "serve.parse" (fun () -> Protocol.parse_request line)
    in
    match req with
    | Error e -> fail "request did not parse: %s" e
    | Ok r ->
        timed ~track:1 ~op "serve.handle" (fun () -> Server.handle_request srv r)

let main_pass srv ~ops =
  Array.mapi
      (fun op lines ->
        timed ~track:1 ~op "op" (fun () ->
            List.concat_map
              (fun line ->
                let rs = handle srv ~op line in
                List.iter
                  (fun r ->
                    ignore
                      (timed ~track:1 ~op "serve.render" (fun () -> J.to_string r)))
                  rs;
                rs)
              lines))
    ops

(* ------------------------------------------------------------------ *)
(* Replay pass *)

type acc = {
  mutable solves : int;  (** replayed core solves *)
  mutable rounds : int;
  mutable gainless : int;
  mutable pairs : int;
  mutable bb_calls : int;
  mutable paths : int;
  mutable enum_s : float;
  mutable prep_s : float;
  mutable eval_s : float;
  mutable one_aug_s : float;
  mutable repair_s : float;
  mutable greedy : int;
  mutable greedy_s : float;
  mutable mutations : int;
  mutable patch_s : float;
  mutable digest_s : float;
  mutable binary_s : float;
  mutable loads : int;
  mutable parse_s : float;
}

let acc =
  {
    solves = 0; rounds = 0; gainless = 0; pairs = 0; bb_calls = 0; paths = 0;
    enum_s = 0.; prep_s = 0.; eval_s = 0.; one_aug_s = 0.;
    repair_s = 0.; greedy = 0; greedy_s = 0.; mutations = 0; patch_s = 0.;
    digest_s = 0.; binary_s = 0.; loads = 0; parse_s = 0.;
  }

let clock f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Shadow sessions: digest -> (session id, graph); warm-start matchings
   keyed by (session id, canonical params), as the server keeps them. *)
let graphs : (string, int * G.t) Hashtbl.t = Hashtbl.create 16
let warm : (int * string, M.t) Hashtbl.t = Hashtbl.create 16
let next_session = ref 0

(* One replayed improvement round, with the per-scale breakdown measured
   on copies of the round-start state so the real round is untouched. *)
let replay_round ~count ~op params rng g m =
  let tp = Wm_core.Params.tau_params params in
  let rc = P.copy rng and mc = M.copy m in
  let tasks =
    List.map (fun s -> (s, P.split rc)) (Wm_core.Main_alg.scales_for params g)
  in
  List.iter
    (fun (scale, crng) ->
      let crng2 = P.copy crng in
      let gp, t_par = clock (fun () -> Wm_core.Layered.parametrize crng g mc) in
      let _, t_enum =
        clock (fun () -> Wm_core.Aug_class.candidate_pairs params crng gp ~scale)
      in
      let _, t_prep = clock (fun () -> Wm_core.Layered.prepare tp gp ~scale) in
      let _, t_run =
        clock (fun () -> Wm_core.Aug_class.run params crng2 g mc ~scale)
      in
      if count then begin
        acc.enum_s <- acc.enum_s +. t_enum;
        acc.prep_s <- acc.prep_s +. t_par +. t_prep;
        acc.eval_s <- acc.eval_s +. Float.max 0. (t_run -. t_par -. t_enum -. t_prep)
      end)
    tasks;
  let _, t_one = clock (fun () -> Wm_core.Aug_class.one_augmentations g mc) in
  let r =
    timed ~track:2 ~op "core.round" (fun () ->
        Wm_core.Main_alg.improve_once params rng g m)
  in
  if count then begin
    acc.one_aug_s <- acc.one_aug_s +. t_one;
    acc.rounds <- acc.rounds + 1;
    if r.Wm_core.Main_alg.gain = 0 then acc.gainless <- acc.gainless + 1;
    List.iter
      (fun (_, (s : Wm_core.Aug_class.stats)) ->
        acc.pairs <- acc.pairs + s.pairs_tried;
        acc.bb_calls <- acc.bb_calls + s.black_box_calls;
        acc.paths <- acc.paths + s.paths_found)
      r.Wm_core.Main_alg.class_stats
  end;
  r

(* The drivers' improvement loop with faults off (Model_driver.streaming /
   mpc): patience 4 cold, 1 warm, as the server runs them. *)
let replay_core ~count ~op (params : Protocol.solve_params) g init =
  let p = Wm_core.Params.practical ~epsilon:params.Protocol.epsilon () in
  let g =
    match params.Protocol.algo with
    | Protocol.Streaming ->
        Wm_stream.Edge_stream.to_ordered_graph (Wm_stream.Edge_stream.of_graph g)
    | _ -> g
  in
  let rng = P.create params.Protocol.seed in
  let m =
    match init with
    | None -> M.create (G.n g)
    | Some m0 ->
        let m, t = clock (fun () -> Wm_core.Model_driver.repair g m0) in
        if count then acc.repair_s <- acc.repair_s +. t;
        m
  in
  let patience = if init = None then 4 else 1 in
  let dry = ref 0 and i = ref 0 in
  while !dry < patience && !i < p.Wm_core.Params.max_iterations do
    let r = replay_round ~count ~op p rng g m in
    incr i;
    if r.Wm_core.Main_alg.gain = 0 then incr dry else dry := 0
  done;
  (m, !i)

let result_int k resp = int_field k (member "result" resp)

let replay_line ~count ~op line resps =
  let check_ok r =
    if to_str (member "status" r) <> "ok" then fail "op %d: non-ok response" op
  in
  match Protocol.parse_request line with
  | Error e -> fail "request did not parse: %s" e
  | Ok { Protocol.verb; _ } -> (
      match verb with
      | Protocol.Load { path = Some path; _ } ->
          (* Loads happen only in setup, so they count there too. *)
          let g, t = clock (fun () -> Wm_graph.Graph_io.read_file path) in
          acc.loads <- acc.loads + 1;
          acc.parse_s <- acc.parse_s +. t;
          let d = Wm_graph.Graph_io.digest g in
          Hashtbl.replace graphs d (!next_session, g);
          incr next_session
      | Protocol.Add_edges { digest = Some d; _ }
      | Protocol.Remove_edges { digest = Some d; _ }
      | Protocol.Add_vertices { digest = Some d; _ } ->
          let r = List.hd resps in
          check_ok r;
          let sid, g = Hashtbl.find graphs d in
          let add_vertices, add, remove =
            match verb with
            | Protocol.Add_edges { edges; _ } ->
                (0, List.map (fun (u, v, w) -> E.make u v w) edges, [])
            | Protocol.Remove_edges { edges; _ } -> (0, [], edges)
            | Protocol.Add_vertices { count; _ } -> (count, [], [])
            | _ -> assert false
          in
          let g', t_patch =
            clock (fun () -> G.patch g ~add_vertices ~add ~remove ())
          in
          let d', t_digest = clock (fun () -> Wm_graph.Graph_io.digest g') in
          let _, t_bin = clock (fun () -> Wm_graph.Graph_io.to_binary g') in
          if d' <> to_str (member "digest" r) then
            fail "op %d: shadow digest differs from the served one" op;
          if count then begin
            acc.mutations <- acc.mutations + 1;
            acc.patch_s <- acc.patch_s +. t_patch;
            acc.digest_s <- acc.digest_s +. t_digest;
            acc.binary_s <- acc.binary_s +. t_bin
          end;
          Hashtbl.remove graphs d;
          Hashtbl.replace graphs d' (sid, g')
      | Protocol.Solve { digest = Some d; params; _ } -> (
          let r = List.hd resps in
          check_ok r;
          let sid, g = Hashtbl.find graphs d in
          let cached = member "cached" r = J.Bool true in
          let weight = result_int "weight" r in
          match params.Protocol.algo with
          | Protocol.Greedy ->
              if not cached then begin
                let m, t = clock (fun () -> Wm_algos.Greedy.by_weight g) in
                if M.weight m <> weight then fail "op %d: greedy replay differs" op;
                if count then begin
                  acc.greedy <- acc.greedy + 1;
                  acc.greedy_s <- acc.greedy_s +. t
                end
              end
          | Protocol.Streaming | Protocol.Mpc ->
              if cached then fail "op %d: unexpected cache hit on a core solve" op;
              let key = (sid, Protocol.canonical_params params) in
              let init = Hashtbl.find_opt warm key in
              let m, rounds =
                timed ~track:2 ~op "replay" (fun () ->
                    replay_core ~count ~op params g init)
              in
              if M.weight m <> weight || rounds <> result_int "rounds" r then
                fail "op %d: replayed solve (weight %d, %d rounds) differs from \
                      the served one (weight %d, %d rounds)"
                  op (M.weight m) rounds weight (result_int "rounds" r);
              if count then acc.solves <- acc.solves + 1;
              Hashtbl.replace warm key m)
      | _ -> ())

(* Pair each request line with the responses it produced (the boundary
   line "" produces the queued solve's response). *)
let replay_op ~count ~op lines resps =
  let pending = ref None and rest = ref resps in
  List.iter
    (fun line ->
      if line = "" then begin
        match !pending with
        | Some l ->
            let r = List.hd !rest in
            rest := List.tl !rest;
            replay_line ~count ~op l [ r ];
            pending := None
        | None -> ()
      end
      else
        match Protocol.parse_request line with
        | Ok { Protocol.verb = Protocol.Solve _; _ } -> pending := Some line
        | _ ->
            let r, tl =
              match !rest with
              | r :: tl -> ([ r ], tl)
              | [] -> ([], [])
            in
            rest := tl;
            replay_line ~count ~op line r)
    lines

(* ------------------------------------------------------------------ *)
(* Durability re-timing (WAL-backed workloads) *)

let fresh_dir base name =
  let d = Filename.concat base name in
  if Sys.file_exists d then
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
  else Sys.mkdir d 0o755;
  d

let wal_retime ~wal_dir ~work =
  let records, _ = Wm_serve.Wal.scan ~dir:wal_dir in
  let dir = fresh_dir work "wal-retime" in
  let log = Wm_serve.Wal.open_log ~dir ~head:0 ~physical:0 in
  let t =
    List.fold_left
      (fun acc r -> acc +. snd (clock (fun () -> ignore (Wm_serve.Wal.append log r))))
      0.0 records
  in
  Wm_serve.Wal.close log;
  (t, List.length records)

let snapshot_retime ~work =
  let dir = fresh_dir work "snap-retime" in
  let n = ref 0 in
  let t =
    Hashtbl.fold
      (fun digest (origin, graph) acc ->
        incr n;
        let s =
          { Wm_serve.Snapshot.origin; lsn = 0; digest; generation = 0; graph; warm = [] }
        in
        acc +. snd (clock (fun () -> ignore (Wm_serve.Snapshot.write ~dir s))))
      graphs 0.0
  in
  (t, !n)

(* ------------------------------------------------------------------ *)

(* Cost of recording one span, for trace.overhead_share. *)
let span_cost () =
  let saved = !spans in
  let k = 100_000 in
  let t0 = now () in
  for _ = 1 to k do
    timed ~track:0 ~op:0 "calibrate" ignore
  done;
  let c = (now () -. t0) /. float_of_int k in
  spans := saved;
  c

let round_timer_count srv =
  let r = Server.report_json srv in
  match
    Option.bind (J.member "obs" r) (fun o ->
        Option.bind (J.member "timers" o) (J.member "core.main_alg.round"))
  with
  | Some t -> int_field "count" t
  | None -> 0

let run ~input ~out =
  Wm_par.Pool.set_default_jobs 1;
  let doc =
    match J.of_string (In_channel.with_open_bin input In_channel.input_all) with
    | Ok j -> j
    | Error e -> fail "bad input: %s" e
  in
  let strs j = List.map to_str (to_list j) in
  let setup = strs (member "setup" doc) in
  let ops = Array.of_list (List.map strs (to_list (member "ops" doc))) in
  let shards = int_field "shards" doc in
  let work = to_str (member "dir" doc) in
  let wal_dir =
    if member "wal" doc = J.Bool true then Some (fresh_dir work "wal-trace") else None
  in
  Sys.chdir work;
  let srv = make_server ~shards ~wal_dir in
  let setup_resps = List.concat_map (Server.handle_line srv) setup in
  let rounds_before = round_timer_count srv in
  let resp = main_pass srv ~ops in
  let server_rounds = round_timer_count srv - rounds_before in
  (* Setup lines replay uncounted, to bring the shadow store to the
     state the timed ops start from. *)
  replay_op ~count:false ~op:(-1) setup setup_resps;
  let served_rounds = ref 0 in
  Array.iteri
    (fun op lines ->
      List.iter
        (fun r ->
          match J.member "result" r with
          | Some res when J.member "cached" r <> Some (J.Bool true) ->
              served_rounds := !served_rounds + int_field "rounds" res
          | _ -> ())
        resp.(op);
      replay_op ~count:true ~op lines resp.(op))
    ops;
  if server_rounds <> !served_rounds || acc.rounds <> !served_rounds then
    fail "round totals disagree: server timer %d, responses %d, replay %d"
      server_rounds !served_rounds acc.rounds;
  let wal_s, wal_records =
    match wal_dir with Some d -> wal_retime ~wal_dir:d ~work | None -> (0., 0)
  in
  let snap_s, snaps =
    if wal_dir <> None then snapshot_retime ~work else (0., 0)
  in
  let cost = span_cost () in
  let nops = float_of_int (Array.length ops) in
  let op_wall = total "op" in
  let covered = total "serve.parse" +. total "serve.handle" +. total "serve.render" in
  let lines = float_of_int (count "serve.parse") in
  let main_spans = List.length (List.filter (fun s -> s.track = 1) !spans) in
  let per_op x = x /. nops in
  let ms x = 1000. *. x in
  let ratio a b = if b > 0. then a /. b else 0. in
  let fi = float_of_int in
  let per n x = if n > 0 then x /. fi n else 0. in
  let metrics =
    [
      ("core.enumerate_ms_per_op", ms (per acc.solves acc.enum_s));
      ("core.enumerate_share", ratio acc.enum_s (total "core.round"));
      ("core.prepare_ms_per_op", ms (per acc.solves acc.prep_s));
      ("core.eval_ms_per_op", ms (per acc.solves acc.eval_s));
      ("core.one_aug_ms_per_op", ms (per acc.solves acc.one_aug_s));
      ("core.round_ms", ms (ratio (total "core.round") (fi acc.rounds)));
      ("core.rounds_per_op", per acc.solves (fi acc.rounds));
      ("core.pairs_tried_per_op", per acc.solves (fi acc.pairs));
      ("core.black_box_calls_per_op", per acc.solves (fi acc.bb_calls));
      ("core.paths_per_pair", ratio (fi acc.paths) (fi acc.pairs));
      ("core.gainless_round_share", ratio (fi acc.gainless) (fi acc.rounds));
      ("core.repair_ms_per_op", ms (per acc.solves acc.repair_s));
      ("algos.greedy_ms_per_op", ms (per acc.greedy acc.greedy_s));
      ("graph.patch_ms_per_op", ms (per acc.mutations acc.patch_s));
      ("graph.digest_ms_per_op", ms (per acc.mutations acc.digest_s));
      ("graph.to_binary_ms_per_op", ms (per acc.mutations acc.binary_s));
      ("graph.parse_ms_per_load", ms (per acc.loads acc.parse_s));
      ("serve.parse_us_per_line", 1e6 *. ratio (total "serve.parse") lines);
      ("serve.render_us_per_line",
        1e6 *. ratio (total "serve.render") (fi (count "serve.render")));
      ("serve.handle_ms_per_op", ms (per_op (total "serve.handle")));
      ("serve.wal.append_ms_per_record", ms (per wal_records wal_s));
      ("serve.snapshot.write_ms", ms (per snaps snap_s));
      ("trace.unattributed_share", ratio (op_wall -. covered) op_wall);
      ("trace.overhead_share", ratio (fi main_spans *. cost) op_wall);
    ]
  in
  write_trace out;
  print_endline
    (J.to_string (J.Obj (List.map (fun (k, v) -> (k, J.Float v)) metrics)))
