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
   charged to its caller. *)

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
  Sys.set_signal Sys.sigprof
    (Sys.Signal_handle (fun _ -> samples := frames () :: !samples));
  let timer period =
    ignore
      (Unix.setitimer Unix.ITIMER_PROF
         { Unix.it_interval = period; it_value = period }
        : Unix.interval_timer_status)
  in
  timer 0.001;
  for _ = 1 to runs do
    ignore
      (Experiment.run ~check:false sc (Workloads.algorithm w)
        : Experiment.result)
  done;
  timer 0.;
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
    named
