(* The SplitMix64 state lives in 8 bytes, read and written as an
   unboxed int64, and [next] and [mix] are inlined into each draw: a
   mutable int64 field would box the state on every step and a
   non-inlined [mix] would box its result. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 seed;
  t

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix s

let int64 t = next t

let split t = create (next t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* Keep 62 bits so the conversion to OCaml's 63-bit int stays
     non-negative. *)
  let v = Int64.to_int (Int64.logand (next t) 0x3FFF_FFFF_FFFF_FFFFL) in
  v mod bound

let[@inline] float t =
  (* 53 random bits into [0, 1) *)
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits /. 9007199254740992.0

let bool t p = float t < p

let exponential t ~mean =
  let u = float t in
  (* avoid log 0 *)
  let u = if u <= 0. then 1e-12 else u in
  -.mean *. log u

let uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let zipf t ~n ~theta =
  if n <= 0 then invalid_arg "Rng.zipf: n <= 0";
  if theta <= 0. then int t n
  else begin
    (* Inverse-CDF sampling over the finite harmonic weights. Weights are
       recomputed per call only for small n; this is workload generation,
       not a hot path. *)
    let total = ref 0. in
    let w = Array.init n (fun i -> 1. /. Float.pow (float_of_int (i + 1)) theta) in
    Array.iter (fun x -> total := !total +. x) w;
    let target = float t *. !total in
    let rec go i acc =
      if i = n - 1 then i
      else
        let acc = acc +. w.(i) in
        if target < acc then i else go (i + 1) acc
    in
    go 0 0.
  end
