type link = {
  drop : float;
  duplicate : float;
  spike : float;
  spike_factor : float;
}

let reliable = { drop = 0.; duplicate = 0.; spike = 0.; spike_factor = 1. }

let check_p name p =
  if p < 0. || p >= 1. then
    invalid_arg (Printf.sprintf "Fault.lossy: %s ∉ [0,1)" name)

let lossy ?(drop = 0.) ?(duplicate = 0.) ?(spike = 0.) ?(spike_factor = 4.) ()
    =
  check_p "drop" drop;
  check_p "duplicate" duplicate;
  check_p "spike" spike;
  if spike_factor < 1. then invalid_arg "Fault.lossy: spike_factor < 1";
  { drop; duplicate; spike; spike_factor }

type window = { source : int; down_at : float; up_at : float }
type outage = { wh_down_at : float; wh_up_at : float }

type t = { link : link; crashes : window list; wh_crashes : outage list }

let none = { link = reliable; crashes = []; wh_crashes = [] }

let is_faulty t =
  t.link <> reliable || t.crashes <> [] || t.wh_crashes <> []

let crashed t ~source ~time =
  List.exists
    (fun w -> w.source = source && time >= w.down_at && time < w.up_at)
    t.crashes

let random rng ~n_sources ~horizon =
  let link =
    { drop = Rng.uniform rng ~lo:0.0 ~hi:0.3;
      duplicate = Rng.uniform rng ~lo:0.0 ~hi:0.2;
      spike = Rng.uniform rng ~lo:0.0 ~hi:0.15;
      spike_factor = Rng.uniform rng ~lo:2.0 ~hi:6.0 }
  in
  let crashes =
    if Rng.bool rng 0.5 then
      let source = Rng.int rng n_sources in
      let down_at = Rng.uniform rng ~lo:0.0 ~hi:(horizon *. 0.6) in
      let len = Rng.uniform rng ~lo:(horizon *. 0.05) ~hi:(horizon *. 0.3) in
      [ { source; down_at; up_at = down_at +. len } ]
    else []
  in
  { link; crashes; wh_crashes = [] }

(* Schedules for the crash-recovery property harness: the same moderate
   link faults as {!random} (drawn first, so the link part of a seed's
   schedule is unchanged) plus one or two guaranteed warehouse outages
   inside the horizon. *)
let random_recovery rng ~n_sources ~horizon =
  let base = random rng ~n_sources ~horizon in
  let down_at = Rng.uniform rng ~lo:(horizon *. 0.1) ~hi:(horizon *. 0.45) in
  let len =
    Rng.uniform rng ~lo:(horizon *. 0.05) ~hi:(horizon *. 0.2)
  in
  let first = { wh_down_at = down_at; wh_up_at = down_at +. len } in
  let wh_crashes =
    if Rng.bool rng 0.35 then
      let gap = Rng.uniform rng ~lo:(horizon *. 0.05) ~hi:(horizon *. 0.2) in
      let down2 = first.wh_up_at +. gap in
      let len2 = Rng.uniform rng ~lo:(horizon *. 0.05) ~hi:(horizon *. 0.15) in
      [ first; { wh_down_at = down2; wh_up_at = down2 +. len2 } ]
    else [ first ]
  in
  { base with wh_crashes }

(* Composed chaos schedules: heavier link faults than {!random}, one or
   two source-crash windows, a warehouse outage overlapping one of them
   with probability ~1/2, all inside the first 70% of the horizon so the
   run always has a healing tail. Every window closes: chaos runs must
   converge after the last heal (the permanent-outage path is exercised
   separately with explicit never-healing windows). *)
let chaos rng ~n_sources ~horizon =
  let link =
    { drop = Rng.uniform rng ~lo:0.05 ~hi:0.35;
      duplicate = Rng.uniform rng ~lo:0.0 ~hi:0.25;
      spike = Rng.uniform rng ~lo:0.0 ~hi:0.2;
      spike_factor = Rng.uniform rng ~lo:2.0 ~hi:8.0 }
  in
  let window () =
    let source = Rng.int rng n_sources in
    let down_at = Rng.uniform rng ~lo:(horizon *. 0.05) ~hi:(horizon *. 0.5) in
    let len = Rng.uniform rng ~lo:(horizon *. 0.05) ~hi:(horizon *. 0.25) in
    { source; down_at; up_at = Float.min (down_at +. len) (horizon *. 0.7) }
  in
  let first = window () in
  let crashes =
    if Rng.bool rng 0.5 then
      let second = window () in
      if second.source = first.source then [ first ] else [ first; second ]
    else [ first ]
  in
  let wh_crashes =
    if Rng.bool rng 0.5 then
      (* overlap the first source window half the time, else disjoint *)
      let down_at =
        if Rng.bool rng 0.5 then
          Rng.uniform rng ~lo:first.down_at
            ~hi:(Float.max first.up_at (first.down_at +. 1.))
        else Rng.uniform rng ~lo:(horizon *. 0.05) ~hi:(horizon *. 0.5)
      in
      let len =
        Rng.uniform rng ~lo:(horizon *. 0.03) ~hi:(horizon *. 0.15)
      in
      [ { wh_down_at = down_at;
          wh_up_at = Float.min (down_at +. len) (horizon *. 0.7) } ]
    else []
  in
  { link; crashes; wh_crashes }

(* The instant the last crash window heals ([0.] when none): chaos runs
   must converge within a bounded sim-time after it. *)
let last_heal t =
  let src = List.fold_left (fun m w -> Float.max m w.up_at) 0. t.crashes in
  List.fold_left (fun m o -> Float.max m o.wh_up_at) src t.wh_crashes

let pp ppf t =
  Format.fprintf ppf "drop=%g dup=%g spike=%g×%g" t.link.drop t.link.duplicate
    t.link.spike t.link.spike_factor;
  List.iter
    (fun w ->
      Format.fprintf ppf " crash(src%d %g..%g)" w.source w.down_at w.up_at)
    t.crashes;
  List.iter
    (fun o ->
      Format.fprintf ppf " crash(warehouse %g..%g)" o.wh_down_at o.wh_up_at)
    t.wh_crashes
