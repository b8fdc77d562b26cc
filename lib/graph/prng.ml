(* The 64-bit state lives unboxed in an 8-byte buffer: a [mutable
   int64] field would box a fresh value on every draw. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let copy t = Bytes.copy t

let assign dst src = Bytes.blit src 0 dst 0 8

let[@inline] next t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix64 s

let bits64 t = next t

let split t = of_state (next t)

(* Rejection-free bounded sampling: take the top bits via modulo after
   masking the sign bit; bias is negligible for bounds far below 2^62 and
   we additionally reject in the unlikely biased tail for exactness. *)
let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let bound64 = Int64.of_int bound in
  let limit = Int64.sub (Int64.sub Int64.max_int bound64) 1L in
  let result = ref (-1) in
  while !result < 0 do
    let r = Int64.logand (next t) Int64.max_int in
    let v = Int64.rem r bound64 in
    if Int64.compare (Int64.sub r v) limit <= 0 then result := Int64.to_int v
  done;
  !result

let int_in t lo hi =
  if lo > hi then invalid_arg "Prng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle t a =
  let b = Array.copy a in
  shuffle_in_place t b;
  b

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle_in_place t a;
  a

let sample_without_replacement t k n =
  if k > n then invalid_arg "Prng.sample_without_replacement: k > n";
  (* Partial Fisher–Yates over a sparse map keeps this O(k) in memory. *)
  let map = Hashtbl.create (2 * k) in
  let get i = match Hashtbl.find_opt map i with Some v -> v | None -> i in
  Array.init k (fun i ->
      let j = int_in t i (n - 1) in
      let vi = get i and vj = get j in
      Hashtbl.replace map j vi;
      Hashtbl.replace map i vj;
      vj)

let exponential t lambda =
  let u = Stdlib.max 1e-300 (float t 1.0) in
  -.Float.log u /. lambda

let state t = get64 t 0

let set_state t s = set64 t 0 s
