(* Smoke test for the benchmark, run by [dune runtest]:

     smoke.exe PERF_EXE BENCHMARK_JSON

   runs the whole suite at a small scale (every workload, one repeat),
   then re-reads its JSON output through [Jsonr] and fails unless the
   correctness gate passed and every metric BENCHMARK.json names is
   reported, finite, with the same unit and direction, for every
   workload it names. *)

module Jsonw = Repro_observability.Jsonw
module Jsonr = Repro_observability.Jsonr

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("smoke: " ^ s); exit 1) fmt

let member k j =
  match Jsonw.member k j with Some v -> v | None -> fail "missing field %S" k

let string k j =
  match member k j with Jsonw.String s -> s | _ -> fail "%S is not a string" k

let list k j =
  match member k j with Jsonw.List l -> l | _ -> fail "%S is not a list" k

let read_file path = In_channel.with_open_bin path In_channel.input_all

let run_suite perf out =
  let argv =
    [| perf; "--seed"; "42"; "--repeats"; "1"; "--scale"; "0.02";
       "--json-out"; out |]
  in
  let ic = Unix.open_process_args_in perf argv in
  let log = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ ->
      print_string log;
      fail "%s exited with an error" perf

(* [spec] (from BENCHMARK.json) is reported in [section] of [workload]. *)
let check_metric ~workload ~section spec =
  let name = string "name" spec in
  let reported =
    match Jsonw.member name (member section workload) with
    | Some m -> m
    | None -> fail "%s: %s metric %s is not reported" (string "name" workload) section name
  in
  (match member "value" reported with
  | Jsonw.Int _ -> ()
  | Jsonw.Float f when Float.is_finite f -> ()
  | _ -> fail "%s: %s is not a finite number" (string "name" workload) name);
  List.iter
    (fun k ->
      if string k reported <> string k spec then
        fail "%s: %s has %s %S, BENCHMARK.json says %S"
          (string "name" workload) name k (string k reported) (string k spec))
    [ "unit"; "better" ]

let () =
  let perf, bench =
    match Sys.argv with
    | [| _; perf; bench |] when Filename.is_implicit perf ->
        (Filename.concat Filename.current_dir_name perf, bench)
    | [| _; perf; bench |] -> (perf, bench)
    | _ -> fail "usage: smoke.exe PERF_EXE BENCHMARK_JSON"
  in
  let bench = Jsonr.parse_exn (read_file bench) in
  let out = Filename.temp_file "perf-smoke" ".json" in
  run_suite perf out;
  let doc = Jsonr.parse_exn (read_file out) in
  Sys.remove out;
  if member "correct" doc <> Jsonw.Bool true then fail "correctness gate failed";
  let reported = list "workloads" doc in
  List.iter
    (fun w ->
      let name = string "name" w in
      let workload =
        match List.find_opt (fun r -> string "name" r = name) reported with
        | Some r -> r
        | None -> fail "workload %s is not reported" name
      in
      List.iter (check_metric ~workload ~section:"end_to_end") (list "end_to_end" bench);
      List.iter (check_metric ~workload ~section:"per_layer") (list "per_layer" bench))
    (list "workloads" bench);
  Printf.printf "smoke: %d workloads, %d end-to-end and %d per-layer metrics reported\n"
    (List.length (list "workloads" bench))
    (List.length (list "end_to_end" bench))
    (List.length (list "per_layer" bench))
