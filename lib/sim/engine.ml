type t = {
  queue : (unit -> unit) Event_queue.t;
  mutable clock : float;
  mutable executed : int;
  root_rng : Rng.t;
}

let create ?(seed = 0x5EEDL) () =
  { queue = Event_queue.create (); clock = 0.; executed = 0;
    root_rng = Rng.create seed }

let now t = t.clock
let clock t () = t.clock
let rng t = t.root_rng

let at t ~time f =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.at: time %g is in the past (now %g)" time t.clock);
  Event_queue.push t.queue ~time f

let schedule t ~delay f =
  if delay < 0. then invalid_arg "Engine.schedule: negative delay";
  at t ~time:(t.clock +. delay) f

let executed t = t.executed

let run ?until ?max_events t =
  let stop = ref None in
  while !stop = None do
    match Event_queue.peek_time t.queue with
    | None -> stop := Some `Drained
    | Some time -> (
        match until with
        | Some u when time > u ->
            t.clock <- u;
            stop := Some `Until
        | _ -> (
            match max_events with
            | Some m when t.executed >= m -> stop := Some `Max_events
            | _ -> (
                match Event_queue.pop t.queue with
                | None -> stop := Some `Drained
                | Some (time, f) ->
                    t.clock <- time;
                    t.executed <- t.executed + 1;
                    f ())))
  done;
  Option.get !stop
