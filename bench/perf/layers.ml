(* Per-layer wall time and allocation, taken at the layer boundaries the
   rig wraps. Each wrapped call records its inclusive duration and
   attributes to its layer only the self part: its duration minus the
   time spent in wrapped calls nested inside it (a delivery that
   releases backpressure tokens runs source updates within it). Clocks
   are read only through [Monotonic_clock.now]. *)

type layer = {
  name : string;
  mutable calls : int;
  mutable self_ns : float;
  mutable self_words : float;
  mutable samples : float array;  (* inclusive ns per call *)
}

(* The time and words spent in wrapped calls nested in the open one. *)
type frame = { mutable child_ns : float; mutable child_words : float }

(* The wrapped calls currently open, innermost first. *)
type t = { mutable stack : frame list }

let create () = { stack = [] }

let now_ns () = Int64.to_float (Monotonic_clock.now ())

let layer name =
  { name; calls = 0; self_ns = 0.; self_words = 0.; samples = Array.make 1024 0. }

let record l ns =
  if l.calls = Array.length l.samples then begin
    let grown = Array.make (2 * l.calls) 0. in
    Array.blit l.samples 0 grown 0 l.calls;
    l.samples <- grown
  end;
  l.samples.(l.calls) <- ns;
  l.calls <- l.calls + 1

(* [wrap t l f x] runs [f x] as one call of layer [l]. *)
let wrap t l f x =
  let frame = { child_ns = 0.; child_words = 0. } in
  t.stack <- frame :: t.stack;
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = f x in
  let dt = now_ns () -. t0 in
  let dw = Gc.minor_words () -. w0 in
  (match t.stack with
  | _ :: (parent :: _ as rest) ->
      parent.child_ns <- parent.child_ns +. dt;
      parent.child_words <- parent.child_words +. dw;
      t.stack <- rest
  | _ -> t.stack <- []);
  l.self_ns <- l.self_ns +. dt -. frame.child_ns;
  l.self_words <- l.self_words +. dw -. frame.child_words;
  record l dt;
  r

(* Exact per-call quantile in microseconds (rank ceil(p * calls)). *)
let quantile_us l p =
  if l.calls = 0 then 0.
  else begin
    let a = Array.sub l.samples 0 l.calls in
    Array.sort Float.compare a;
    let rank = int_of_float (Float.ceil (p *. float_of_int l.calls)) in
    a.(max 0 (min (l.calls - 1) (rank - 1))) /. 1e3
  end

let self_s l = l.self_ns /. 1e9

(* Time a one-off phase (set-up steps, the standalone generator). *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, (now_ns () -. t0) /. 1e9)
