open Repro_relational
open Repro_protocol

type verdict = Complete | Strong | Convergent | Degraded | Inconsistent

let verdict_to_string = function
  | Complete -> "complete"
  | Strong -> "strong"
  | Convergent -> "convergent"
  | Degraded -> "degraded"
  | Inconsistent -> "INCONSISTENT"

let pp_verdict ppf v = Format.pp_print_string ppf (verdict_to_string v)

let rank = function
  | Complete -> 0
  | Strong -> 1
  | Convergent -> 2
  | Degraded -> 3
  | Inconsistent -> 4

let compare_verdict a b = Int.compare (rank a) (rank b)

type observation = {
  initial_sources : Relation.t array;
  deliveries : Message.update list;
  initial_view : Bag.t;
  installs : (Message.txn_id list * Delta.t) list;
  final_view : Bag.t;
}

type deviation = {
  install : int;
  txns : Message.txn_id list;
  tuples : (Tuple.t * int * int) list;
}

type result = {
  verdict : verdict;
  detail : string;
  deviation : deviation option;
}

(* Apply one update to the replayed database, merging its view delta into
   [into]: ΔV = R0 ⋈ … ⋈ ΔRi ⋈ … ⋈ R(n-1) evaluated on the current
   state, then ΔRi is applied to Ri. *)
let apply_txn view rels into (u : Message.update) =
  let i = u.Message.txn.source in
  let n = View_def.n_sources view in
  let partial = ref (Partial.of_source_delta view i u.Message.delta) in
  (* source [j]'s relation as a partial, sharing its bag: joins only read
     it *)
  let leaf j = { Partial.lo = j; hi = j; data = Relation.as_bag rels.(j) } in
  for j = i - 1 downto 0 do
    partial := Algebra.join view (leaf j) !partial
  done;
  for j = i + 1 to n - 1 do
    partial := Algebra.join view !partial (leaf j)
  done;
  Bag.merge_into ~into (Algebra.select_project view !partial);
  match Relation.apply rels.(i) u.Message.delta with
  | Ok () -> ()
  | Error _ ->
      invalid_arg "Checker: delivery log contains a delete of absent tuples"

let initial_expected view initial =
  Relation.as_bag (Algebra.eval view (fun i -> initial.(i)))

(* ————— session guarantees over the read path ————— *)

type read_view = {
  session : int;
  issued_at : float;
  version : int;
  incorporated : int array;
  acked : int array;
}

type session_report = {
  reads_graded : int;
  monotonic_reads : bool;
  mr_violations : int;
  read_your_writes : bool;
  ryw_violations : int;
}

(* Grade the read log in serve order. Monotonic reads: per session, the
   observed install version never decreases (and neither does any
   component of the incorporated vector — a view that un-installed an
   update would be a regression even at the same version count).
   Read-your-writes: the served view reflects at least every update of
   the session's own source that the warehouse had acknowledged when the
   read was issued. *)
let check_sessions ~n_sources reads =
  if n_sources < 1 then invalid_arg "Checker.check_sessions: n_sources < 1";
  let last_version = Array.make n_sources (-1) in
  let last_inc = Array.make n_sources [||] in
  let mr_violations = ref 0 in
  let ryw_violations = ref 0 in
  let graded = ref 0 in
  List.iter
    (fun r ->
      if r.session < 0 || r.session >= n_sources then
        invalid_arg "Checker.check_sessions: session out of range";
      incr graded;
      let s = r.session in
      let component_regressed prev cur =
        Array.length prev = Array.length cur
        && (let bad = ref false in
            Array.iteri (fun i p -> if cur.(i) < p then bad := true) prev;
            !bad)
      in
      let regressed =
        r.version < last_version.(s)
        || (last_inc.(s) <> [||] && component_regressed last_inc.(s) r.incorporated)
      in
      if regressed then incr mr_violations;
      last_version.(s) <- max last_version.(s) r.version;
      last_inc.(s) <- Array.copy r.incorporated;
      if r.incorporated.(s) < r.acked.(s) then incr ryw_violations)
    reads;
  { reads_graded = !graded;
    monotonic_reads = !mr_violations = 0;
    mr_violations = !mr_violations;
    read_your_writes = !ryw_violations = 0;
    ryw_violations = !ryw_violations }

let pp_session_report ppf r =
  Format.fprintf ppf
    "%d reads graded; monotonic-reads %s (%d violations); read-your-writes \
     %s (%d violations)"
    r.reads_graded
    (if r.monotonic_reads then "OK" else "VIOLATED")
    r.mr_violations
    (if r.read_your_writes then "OK" else "violated")
    r.ryw_violations

(* Up to three smallest tuples of the nonempty difference bag [d] after
   install [k], with the observed count rebuilt from the initial view and
   the deltas of installs 0..k. *)
let deviation obs d k txns =
  let observed tup =
    List.fold_left
      (fun c (_, delta) -> c + Delta.count delta tup)
      (Bag.count obs.initial_view tup)
      (List.filteri (fun j _ -> j <= k) obs.installs)
  in
  { install = k; txns;
    tuples =
      List.filteri (fun i _ -> i < 3) (Bag.to_sorted_list d)
      |> List.map (fun (tup, diff) ->
             (tup, observed tup + diff, observed tup)) }

let pp_deviation ppf d =
  Format.fprintf ppf "install %d (%a):" d.install
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Message.pp_txn_id)
    d.txns;
  List.iteri
    (fun i (tup, e, o) ->
      Format.fprintf ppf "%s %a expected %d observed %d"
        (if i = 0 then "" else ";") Tuple.pp tup e o)
    d.tuples

(* One pass grades every level. [d] is the difference bag expected −
   observed: the replayed initial view minus the node's, then per install
   plus its batch's expected ΔV and minus its observed delta. An install
   is exact iff [d] is then empty — O(1), a bag stores no zero counts.
   Complete and Strong are two admission policies over the same replay:
   Complete admits exactly the next deliveries in delivery order; Strong
   admits any batch extending every source's incorporated prefix
   (sources are autonomous, so any interleaving that keeps per-source
   order is a legal serialization; a batch's end state does not depend
   on its interleaving, so it is replayed in delivery order). Both
   require every delivery incorporated. While both admit an install the
   replay is shared; once one rejects, the other carries on alone; a
   deviation fails both. Degraded admits like Strong but only requires
   [d] empty after the last install. Finishing the replay with the
   deliveries never admitted, minus the deltas never graded, leaves
   expected − final: the run converged iff it is empty. So the log is
   replayed once. *)
let check ?(degraded = false) view obs =
  (* The observed states are the initial view plus the installed deltas;
     a final view off that sum (a recovery that corrupted the view, say)
     is inconsistent whatever the history claims. *)
  let sum = Bag.copy obs.final_view in
  Bag.diff_into ~into:sum obs.initial_view;
  List.iter (fun (_, delta) -> Bag.diff_into ~into:sum delta) obs.installs;
  let log = Array.of_list obs.deliveries in
  let n_log = Array.length log in
  let by_txn = Hashtbl.create 64 in
  Array.iteri (fun k u -> Hashtbl.replace by_txn u.Message.txn k) log;
  let rels = Array.map Relation.copy obs.initial_sources in
  let d = initial_expected view obs.initial_sources in
  Bag.diff_into ~into:d obs.initial_view;
  let replayed = Array.make n_log false in
  let applied = ref 0 in
  let next_seq = Array.make (View_def.n_sources view) 0 in
  let complete = ref None and strong = ref None and at = ref None in
  let fail level why = if Option.is_none !level then level := Some why in
  let in_order batch =
    batch <> []
    && List.for_all (( = ) !applied) (List.mapi (fun j i -> i - j) batch)
  in
  let per_source_prefix batch =
    List.map (fun i -> log.(i).Message.txn) batch
    |> List.sort Message.compare_txn_id
    |> List.for_all (fun (t : Message.txn_id) ->
           t.seq = next_seq.(t.source)
           && (next_seq.(t.source) <- t.seq + 1; true))
  in
  let rec go k = function
    | [] -> []
    | (txns, delta) :: rest as pending -> (
        match List.find_opt (fun t -> not (Hashtbl.mem by_txn t)) txns with
        | Some t ->
            let why =
              Format.asprintf "install %d claims unknown txn %a" k
                Message.pp_txn_id t
            in
            fail complete why; fail strong why; pending
        | None ->
            let batch =
              List.sort Int.compare (List.map (Hashtbl.find by_txn) txns)
            in
            if !complete = None && not (in_order batch) then
              fail complete
                (Printf.sprintf
                   "install %d does not incorporate exactly the next %s in \
                    delivery order"
                   k
                   (match List.length txns with
                   | 0 | 1 -> "delivered update"
                   | n -> Printf.sprintf "%d delivered updates" n));
            if !strong = None && not (per_source_prefix batch) then
              fail strong
                (Printf.sprintf
                   "install %d skips over an earlier update of some source" k);
            if !complete <> None && !strong <> None then pending
            else begin
              List.iter
                (fun i ->
                  apply_txn view rels d log.(i);
                  replayed.(i) <- true)
                batch;
              applied := !applied + List.length batch;
              Bag.diff_into ~into:d delta;
              if Bag.is_empty d then go (k + 1) rest
              else begin
                at := Some (deviation obs d k txns);
                fail complete
                  (Printf.sprintf
                     "install %d deviates from the expected state" k);
                fail strong
                  (Printf.sprintf
                     "install %d deviates from its batch's database state" k);
                rest
              end
            end)
  in
  let pending = go 0 obs.installs in
  let degraded_err =
    if !strong = None && not (Bag.is_empty d) then
      Some "final view deviates from the incorporated updates' state"
    else !strong
  in
  if !applied < n_log then begin
    fail complete
      (Format.asprintf "update %a was never installed" Message.pp_txn_id
         log.(!applied).Message.txn);
    fail strong
      (Printf.sprintf "only %d of %d updates were ever incorporated" !applied
         n_log)
  end;
  Array.iteri (fun i u -> if not replayed.(i) then apply_txn view rels d u) log;
  List.iter (fun (_, delta) -> Bag.diff_into ~into:d delta) pending;
  let result verdict detail = { verdict; detail; deviation = !at } in
  let conv_err = "final view differs from the fully-updated database state" in
  if not (Bag.is_empty sum) then
    result Inconsistent
      "final view is not the initial view plus the installed deltas"
  else if not (Bag.is_empty d) then
    match degraded_err with
    | None when degraded ->
        result Degraded
          "breakers still open at end of run; view is exact over the \
           incorporated updates"
    | Some deg_err when degraded ->
        result Inconsistent
          (conv_err ^ "; and over the incorporated subset: " ^ deg_err)
    | _ -> result Inconsistent conv_err
  else
    match (!complete, !strong) with
    | None, _ ->
        result Complete
          "every update installed in delivery order with exact contents"
    | Some complete_err, None ->
        result Strong
          ("not complete (" ^ complete_err
         ^ ") but all batches order-preserving and exact")
    | Some _, Some strong_err ->
        result Convergent ("not strong (" ^ strong_err ^ ") but converged")
