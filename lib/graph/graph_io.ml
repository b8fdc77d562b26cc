let to_string g =
  let buf = Buffer.create (64 + (Weighted_graph.m g * 16)) in
  Buffer.add_string buf
    (Printf.sprintf "p wm %d %d\n" (Weighted_graph.n g) (Weighted_graph.m g));
  Weighted_graph.iter_edges
    (fun e ->
      let u, v = Edge.endpoints e in
      Buffer.add_string buf (Printf.sprintf "e %d %d %d\n" u v (Edge.weight e)))
    g;
  Buffer.contents buf

(* Content digest: 64-bit FNV-1a over n, then the edge list in
   (u, v, w) order with u < v.  Edges are stored normalised and no two
   share endpoints, so that order is canonical: the digest is invariant
   under the order the endpoints were given in and the order the edges
   were added — two graphs with the same vertex count and edge set
   always hash alike, however they were constructed or serialized.

   The order is produced without a global sort: vertices are visited
   in increasing order, and at each [u] the edges whose smaller
   endpoint is [u] (a subset of its CSR slice) are copied as (v, w)
   pairs into a per-domain run buffer and heapsorted by [v] in place:
   O(n + m log d) for maximum degree d, so a hub costs O(d log d), and
   no allocation proportional to m.  The hash state lives in a local
   [ref] that no closure captures and [fnv_int] is inlined, so
   ocamlopt keeps the [Int64] unboxed. *)
let run_slot = Arena.slot Arena.Ints.create

(* Pair [i] of a run is [a.(2i)] (the v endpoint) and [a.(2i + 1)]
   (the weight); runs never repeat a [v]. *)
let swap_pairs (a : int array) i j =
  let v = a.(2 * i) and w = a.((2 * i) + 1) in
  a.(2 * i) <- a.(2 * j);
  a.((2 * i) + 1) <- a.((2 * j) + 1);
  a.(2 * j) <- v;
  a.((2 * j) + 1) <- w

let rec sift_down (a : int array) root len =
  let child = (2 * root) + 1 in
  if child < len then begin
    let child =
      if child + 1 < len && a.(2 * (child + 1)) > a.(2 * child) then child + 1
      else child
    in
    if a.(2 * child) > a.(2 * root) then begin
      swap_pairs a root child;
      sift_down a child len
    end
  end

let sort_run (a : int array) d =
  for root = (d / 2) - 1 downto 0 do
    sift_down a root d
  done;
  for last = d - 1 downto 1 do
    swap_pairs a 0 last;
    sift_down a 0 last
  done

let fnv_prime = 0x100000001b3L

(* One FNV-1a step per byte of [x], least significant first. *)
let[@inline] fnv_byte h x =
  Int64.mul (Int64.logxor h (Int64.of_int (x land 0xff))) fnv_prime

let[@inline] fnv_int h x =
  let h = fnv_byte h x in
  let h = fnv_byte h (x asr 8) in
  let h = fnv_byte h (x asr 16) in
  let h = fnv_byte h (x asr 24) in
  let h = fnv_byte h (x asr 32) in
  let h = fnv_byte h (x asr 40) in
  let h = fnv_byte h (x asr 48) in
  fnv_byte h (x asr 56)

let digest g =
  let run = Arena.get run_slot in
  let h = ref (fnv_int 0xcbf29ce484222325L (Weighted_graph.n g)) in
  for u = 0 to Weighted_graph.n g - 1 do
    Arena.Ints.clear run;
    for i = 0 to Weighted_graph.degree g u - 1 do
      let e = Weighted_graph.incident_edge g u i in
      if e.Edge.u = u then begin
        Arena.Ints.push run e.Edge.v;
        Arena.Ints.push run e.Edge.w
      end
    done;
    let a = Arena.Ints.data run and d = Arena.Ints.length run / 2 in
    sort_run a d;
    for i = 0 to d - 1 do
      h := fnv_int (fnv_int (fnv_int !h u) a.(2 * i)) a.((2 * i) + 1)
    done
  done;
  Printf.sprintf "%016Lx" !h

type header = { kind : string; n : int; count : int }

exception Parse_error of { line : int; msg : string }

let parse_fail line msg = raise (Parse_error { line; msg })

(* Weight tokens get the most specific diagnostic we can produce: the
   integer parse rejects NaN/infinity/fractional/overflowing tokens
   alike, so classify via the float parse before giving up. *)
let parse_weight fail w =
  match int_of_string_opt w with
  | Some value ->
      if value < 0 then fail (Printf.sprintf "negative weight %d" value)
      else value
  | None -> (
      match float_of_string_opt w with
      | Some f when Float.is_nan f -> fail "NaN weight"
      | Some f when not (Float.is_finite f) -> fail "infinite weight"
      | Some _ ->
          fail
            (Printf.sprintf "weight %s is not representable as a \
                             non-negative integer"
               w)
      | None -> fail (Printf.sprintf "bad weight %s" w))

let parse_lines s =
  let header = ref None in
  let edges = ref [] in
  let count = ref 0 in
  let seen = Hashtbl.create 64 in
  let lines = String.split_on_char '\n' s in
  (* A trailing newline makes [split_on_char] emit a phantom empty
     element past the final line; end-of-input diagnostics ("missing
     problem line", count mismatches) must point at the real last line,
     not one past it. *)
  let last_line =
    match List.length lines with
    | len when len > 1 && List.nth lines (len - 1) = "" -> len - 1
    | len -> len
  in
  List.iteri
    (fun lineno line ->
      let fail msg = parse_fail (lineno + 1) msg in
      let line = String.trim line in
      if line = "" || line.[0] = 'c' then ()
      else
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | [ "p"; kind; n; count ] -> (
            if !header <> None then fail "duplicate problem line";
            match (int_of_string_opt n, int_of_string_opt count) with
            | Some n, Some count when n >= 0 && count >= 0 ->
                header := Some { kind; n; count }
            | _ -> fail "bad problem line")
        | "p" :: _ -> fail "bad problem line"
        | [ "e"; u; v; w ] -> (
            let n =
              match !header with
              | None -> fail "edge before problem line"
              | Some h -> h.n
            in
            match (int_of_string_opt u, int_of_string_opt v) with
            | Some u, Some v ->
                let range_check x =
                  if x < 0 || x >= n then
                    fail
                      (Printf.sprintf "endpoint %d out of range [0, %d)" x n)
                in
                range_check u;
                range_check v;
                if u = v then fail (Printf.sprintf "self-loop at vertex %d" u);
                let w = parse_weight fail w in
                let key = (Stdlib.min u v, Stdlib.max u v) in
                (match Hashtbl.find_opt seen key with
                | Some first ->
                    fail
                      (Printf.sprintf "duplicate edge %d-%d (first at line %d)"
                         (fst key) (snd key) first)
                | None -> Hashtbl.add seen key (lineno + 1));
                incr count;
                edges := Edge.make u v w :: !edges
            | _ -> fail "bad edge line")
        | _ -> fail "unrecognised line")
    lines;
  match !header with
  | None -> parse_fail last_line "missing problem line"
  | Some h ->
      if !count <> h.count then
        parse_fail last_line
          (Printf.sprintf "problem line announces %d edges, found %d" h.count
             !count);
      (h, List.rev !edges)

let of_string s =
  let h, edges = parse_lines s in
  if h.kind <> "wm" then
    parse_fail 1 (Printf.sprintf "expected 'p wm', got 'p %s'" h.kind);
  Weighted_graph.create ~n:h.n edges

let matching_to_string m =
  let edges = Matching.edges m in
  let buf = Buffer.create (64 + (List.length edges * 16)) in
  Buffer.add_string buf
    (Printf.sprintf "p matching %d %d\n" (Matching.n m) (Matching.size m));
  List.iter
    (fun e ->
      let u, v = Edge.endpoints e in
      Buffer.add_string buf (Printf.sprintf "e %d %d %d\n" u v (Edge.weight e)))
    edges;
  Buffer.contents buf

let matching_of_string s =
  let h, edges = parse_lines s in
  if h.kind <> "matching" then
    parse_fail 1 (Printf.sprintf "expected 'p matching', got 'p %s'" h.kind);
  match Matching.of_edges h.n edges with
  | m -> m
  | exception Invalid_argument msg -> parse_fail 1 msg

let write_file path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic) |> of_string)

(* ------------------------------------------------------------------ *)
(* Binary codec (durable snapshots / WAL payloads).

   Frame layout (graphs):   "WMB1" | varint n | varint m
                            | m * (varint u, varint v, varint w)
                            | 16-byte digest (hex, as produced by
                              [digest])
   Frame layout (matchings): "WMM1" | varint n | varint k
                            | k * (varint u, varint v, varint w)

   Varints are unsigned LEB128 over non-negative ints.  Edges are
   emitted in stored order, so encode/decode round-trips the structure
   exactly (same [edges] array, same digest).  [of_binary] recomputes
   the digest of the decoded graph and refuses a frame whose embedded
   digest disagrees — a flipped byte inside a snapshot can corrupt the
   varint stream in ways that still parse, and the digest check is what
   turns that into a detected failure instead of a silently wrong
   session. *)

let add_varint buf x =
  if x < 0 then invalid_arg "Graph_io.to_binary: negative value";
  let rec go x =
    if x < 0x80 then Buffer.add_char buf (Char.chr x)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (x land 0x7f)));
      go (x lsr 7)
    end
  in
  go x

let read_varint s pos =
  let rec go acc shift pos =
    if pos >= String.length s then
      parse_fail 0 "binary frame truncated inside varint"
    else
      let b = Char.code s.[pos] in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b < 0x80 then (acc, pos + 1) else go acc (shift + 7) (pos + 1)
  in
  go 0 0 pos

let binary_magic_graph = "WMB1"
let binary_magic_matching = "WMM1"

let encode_edges buf iter =
  iter (fun e ->
      let u, v = Edge.endpoints e in
      add_varint buf u;
      add_varint buf v;
      add_varint buf (Edge.weight e))

let to_binary g =
  let buf = Buffer.create (16 + (Weighted_graph.m g * 4)) in
  Buffer.add_string buf binary_magic_graph;
  add_varint buf (Weighted_graph.n g);
  add_varint buf (Weighted_graph.m g);
  encode_edges buf (fun f -> Weighted_graph.iter_edges f g);
  Buffer.add_string buf (digest g);
  Buffer.contents buf

let expect_magic s magic =
  if
    String.length s < String.length magic
    || String.sub s 0 (String.length magic) <> magic
  then
    parse_fail 0
      (Printf.sprintf "binary frame lacks %s magic" magic)

let decode_edges s pos count =
  let edges = ref [] in
  let pos = ref pos in
  for _ = 1 to count do
    let u, p = read_varint s !pos in
    let v, p = read_varint s p in
    let w, p = read_varint s p in
    pos := p;
    edges := Edge.make u v w :: !edges
  done;
  (List.rev !edges, !pos)

let of_binary s =
  expect_magic s binary_magic_graph;
  let n, pos = read_varint s 4 in
  let m, pos = read_varint s pos in
  let edges, pos = decode_edges s pos m in
  if String.length s - pos <> 16 then
    parse_fail 0 "binary graph frame lacks trailing digest";
  let claimed = String.sub s pos 16 in
  let g =
    match Weighted_graph.create ~n edges with
    | g -> g
    | exception Invalid_argument msg -> parse_fail 0 msg
  in
  let actual = digest g in
  if actual <> claimed then
    parse_fail 0
      (Printf.sprintf "binary graph digest mismatch: frame says %s, content \
                       is %s"
         claimed actual);
  g

let matching_to_binary m =
  let edges = Matching.edges m in
  let buf = Buffer.create (16 + (List.length edges * 4)) in
  Buffer.add_string buf binary_magic_matching;
  add_varint buf (Matching.n m);
  add_varint buf (List.length edges);
  encode_edges buf (fun f -> List.iter f edges);
  Buffer.contents buf

let matching_of_binary s =
  expect_magic s binary_magic_matching;
  let n, pos = read_varint s 4 in
  let k, pos = read_varint s pos in
  let edges, pos = decode_edges s pos k in
  if pos <> String.length s then
    parse_fail 0 "binary matching frame has trailing bytes";
  match Matching.of_edges n edges with
  | m -> m
  | exception Invalid_argument msg -> parse_fail 0 msg
