(* Where a bench/perf workload spends its time, by call stack.

     dune exec bench/profile/profile.exe -- W [top] [frame ...]
     make profile W=nested-crash-reads [TOP=20] [FRAMES="Bag.total ..."]

   Runs workload W (bench/perf/workloads.ml, seed 42, full size) five
   times through [Experiment.run], checker off. A SIGPROF timer fires
   every millisecond of CPU time, and its handler records the OCaml
   call stack at the interrupted point. Then it prints the [top]
   (default 15) frames by self samples (the innermost frame) and by
   inclusive samples (on the stack at all), and, for each named
   [frame], its callers. A frame is a function name as the backtrace
   gives it (e.g. [Repro_relational__Bag.total]); a named frame matches
   every frame whose name ends with it. Samples land at allocation and
   poll points, so a tight loop that neither allocates nor polls is
   charged to its caller.

   SIGPROF never interrupts the collector itself, so a sample charges
   GC time to the allocation that triggered it. The last line therefore
   reads the collector from Runtime_events, the OCaml 5 runtime's own
   event ring: the share of wall time spent in minor collections (and,
   of that, in the remembered-set phase, where promotion happens) and
   in the rest of the collector (major slices and cycle ends), and the
   words promoted per update. *)

open Repro_harness

let depth = 64
let runs = 5

(* The frames of a sample, innermost first, without the handler's two. *)
let frames () =
  let name s =
    match Printexc.Slot.name s with
    | Some n -> Some n
    | None ->
        Option.map
          (fun (l : Printexc.location) ->
            Printf.sprintf "%s:%d" l.filename l.line_number)
          (Printexc.Slot.location s)
  in
  let rec drop = function
    | n :: rest when String.starts_with ~prefix:"Dune__exe__Profile." n ->
        drop rest
    | l -> l
  in
  match Printexc.backtrace_slots (Printexc.get_callstack depth) with
  | None -> []
  | Some slots -> drop (List.filter_map name (Array.to_list slots))

(* GC time from the runtime's event ring. [busy] is the union of every
   runtime phase (phases nest; an end whose begin predates [start] is
   ignored), [minor] the sum of EV_MINOR spans, [remembered] that of
   EV_MINOR_REMEMBERED_SET spans. Timestamps are nanoseconds. *)
type gc = {
  mutable depth : int;
  mutable busy_from : int64;
  mutable busy : int64;
  mutable minor_from : int64;
  mutable minor : int64;
  mutable minors : int;
  mutable remembered_from : int64;
  mutable remembered : int64;
  mutable promoted : int;  (* words *)
  mutable lost : int;
}

let gc_reader () =
  let g =
    { depth = 0; busy_from = 0L; busy = 0L; minor_from = 0L; minor = 0L;
      minors = 0; remembered_from = 0L; remembered = 0L; promoted = 0;
      lost = 0 }
  in
  let ns ts = Runtime_events.Timestamp.to_int64 ts in
  let since from ts = Int64.sub (ns ts) from in
  let runtime_begin _ ts (phase : Runtime_events.runtime_phase) =
    if g.depth = 0 then g.busy_from <- ns ts;
    g.depth <- g.depth + 1;
    match phase with
    | EV_MINOR -> g.minor_from <- ns ts
    | EV_MINOR_REMEMBERED_SET -> g.remembered_from <- ns ts
    | _ -> ()
  in
  let runtime_end _ ts (phase : Runtime_events.runtime_phase) =
    if g.depth > 0 then begin
      g.depth <- g.depth - 1;
      if g.depth = 0 then g.busy <- Int64.add g.busy (since g.busy_from ts);
      match phase with
      | EV_MINOR ->
          g.minor <- Int64.add g.minor (since g.minor_from ts);
          g.minors <- g.minors + 1
      | EV_MINOR_REMEMBERED_SET ->
          g.remembered <- Int64.add g.remembered (since g.remembered_from ts)
      | _ -> ()
    end
  in
  (* the runtime reports promotion in bytes *)
  let runtime_counter _ _ (c : Runtime_events.runtime_counter) v =
    if c = EV_C_MINOR_PROMOTED then
      g.promoted <- g.promoted + (v / (Sys.word_size / 8))
  in
  let callbacks =
    Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
      ~runtime_counter ~lost_events:(fun _ n -> g.lost <- g.lost + n) ()
  in
  Runtime_events.start ();
  let cursor = Runtime_events.create_cursor None in
  (g, fun () -> ignore (Runtime_events.read_poll cursor callbacks None : int))

let print_gc g ~wall_ns ~updates =
  let pct x = 100. *. Int64.to_float x /. wall_ns in
  let s x = Int64.to_float x /. 1e9 in
  let major = Int64.sub g.busy g.minor in
  Printf.printf
    "gc: minor %.1f%% (%.3f s, %d collections; remembered set %.1f%%), \
     major %.1f%% (%.3f s) of %.3f s wall; %.1f promoted words/update%s\n"
    (pct g.minor) (s g.minor) g.minors (pct g.remembered) (pct major)
    (s major) (wall_ns /. 1e9)
    (float_of_int g.promoted /. float_of_int (max 1 updates))
    (if g.lost > 0 then Printf.sprintf " (%d events lost)" g.lost else "")

let bump tbl k =
  Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let print_top title tbl ~top ~total =
  print_endline title;
  Hashtbl.fold (fun k n acc -> (n, k) :: acc) tbl []
  |> List.sort (fun (a, ka) (b, kb) ->
         if a <> b then compare b a else compare ka kb)
  |> List.iteri (fun i (n, k) ->
         if i < top then
           Printf.printf "  %6.1f%% %6d  %s\n"
             (100. *. float_of_int n /. float_of_int (max 1 total))
             n k)

let () =
  let name, top, named =
    match List.tl (Array.to_list Sys.argv) with
    | w :: n :: rest when int_of_string_opt n <> None ->
        (w, int_of_string n, rest)
    | w :: rest -> (w, 15, rest)
    | [] ->
        prerr_endline "usage: profile.exe WORKLOAD [top] [frame ...]";
        exit 2
  in
  let w =
    match Workloads.find name with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %s (one of: %s)\n" name
          (String.concat ", "
             (List.map (fun w -> w.Workloads.name) Workloads.all));
        exit 2
  in
  let sc = Workloads.instance w ~seed:42L ~scale:1.0 in
  let samples = ref [] in
  let gc, poll = gc_reader () in
  (* the ring is polled at every sample too, so it never wraps *)
  Sys.set_signal Sys.sigprof
    (Sys.Signal_handle
       (fun _ ->
         samples := frames () :: !samples;
         poll ()));
  let timer period =
    ignore
      (Unix.setitimer Unix.ITIMER_PROF
         { Unix.it_interval = period; it_value = period }
        : Unix.interval_timer_status)
  in
  poll ();
  let t0 = Monotonic_clock.now () in
  timer 0.001;
  for _ = 1 to runs do
    ignore
      (Experiment.run ~check:false sc (Workloads.algorithm w)
        : Experiment.result)
  done;
  timer 0.;
  let wall_ns = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) in
  poll ();
  let self = Hashtbl.create 256 and incl = Hashtbl.create 256 in
  let callers = Hashtbl.create 64 in
  let total = List.length !samples in
  List.iter
    (fun stack ->
      bump self (match stack with f :: _ -> f | [] -> "(no frame)");
      List.iter (bump incl) (List.sort_uniq compare stack);
      let rec walk = function
        | f :: (caller :: _ as rest) ->
            List.iter
              (fun q ->
                if String.ends_with ~suffix:q f then bump callers (q, caller))
              named;
            walk rest
        | _ -> ()
      in
      walk stack)
    !samples;
  Printf.printf "%s: %d samples of 1 ms CPU over %d runs\n" name total runs;
  print_top "self" self ~top ~total;
  print_top "inclusive" incl ~top ~total;
  List.iter
    (fun q ->
      let mine = Hashtbl.create 16 in
      Hashtbl.iter
        (fun (q', c) n -> if q' = q then Hashtbl.replace mine c n)
        callers;
      print_top ("callers of " ^ q) mine ~top ~total)
    named;
  print_gc gc ~wall_ns
    ~updates:(runs * sc.Repro_harness.Scenario.stream.n_updates)
