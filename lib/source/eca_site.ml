open Repro_relational
open Repro_sim
open Repro_protocol

type t = {
  engine : Engine.t;
  view : View_def.t;
  tables : Base_table.t array;
  send : Message.to_warehouse -> unit;
  trace : Trace.t;
}

let create engine ~view ~inits ~send ~trace =
  let n = View_def.n_sources view in
  if Array.length inits <> n then
    invalid_arg "Eca_site.create: need one initial relation per position";
  { engine; view;
    tables = Array.mapi (fun i r -> Base_table.create ~source:i ~view r) inits;
    send; trace }

let table t i = t.tables.(i)

let local_update t ~source delta =
  let txn = Base_table.apply t.tables.(source) delta in
  let now = Engine.now t.engine in
  if Trace.enabled t.trace then
    Trace.emit t.trace ~time:now ~who:"eca-site" "apply %a = %a"
      Message.pp_txn_id txn Delta.pp delta;
  t.send
    (Message.Update_notice
       { txn; delta = Delta.copy delta; occurred_at = now; global = None });
  txn

(* Evaluate one term: a chain join over all positions where pinned
   positions contribute the pinned delta and the rest contribute the
   current base relation. Evaluation fans out from the lowest pinned
   position, so every intermediate stays delta-sized and each unpinned
   leg is an index probe — the old left-to-right fold joined the full
   relation prefix left of the pin on every update. Chain junctions
   evaluate their condition when the two adjacent ranges meet, exactly
   as the distributed sweep does, so the result is bag-identical. *)
let eval_term t (pins : Message.eca_term) : Partial.t =
  let n = View_def.n_sources t.view in
  let pinned j = List.assoc_opt j pins in
  match List.sort (fun (a, _) (b, _) -> Int.compare a b) pins with
  | [] -> invalid_arg "Eca_site.eval_terms: term pins no source"
  | (start, d0) :: _ ->
      let acc = ref (Partial.of_source_delta t.view start d0) in
      let leg j =
        match pinned j with
        | Some d ->
            let pp = Partial.of_source_delta t.view j d in
            acc :=
              (if j < !acc.Partial.lo then Algebra.join t.view pp !acc
               else Algebra.join t.view !acc pp)
        | None -> acc := Base_table.extend t.tables.(j) !acc
      in
      for j = start - 1 downto 0 do
        leg j
      done;
      for j = start + 1 to n - 1 do
        leg j
      done;
      !acc

let eval_terms t terms =
  match terms with
  | [] -> invalid_arg "Eca_site.eval_terms: empty expression"
  | first :: rest ->
      List.fold_left
        (fun acc term -> Partial.add acc (eval_term t term))
        (eval_term t first) rest

let handle t msg =
  let now = Engine.now t.engine in
  match msg with
  | Message.Eca_query { qid; terms } ->
      let partial = eval_terms t terms in
      if Trace.enabled t.trace then
        Trace.emit t.trace ~time:now ~who:"eca-site"
          "eca_query#%d (%d terms) -> %a" qid (List.length terms) Partial.pp
          partial;
      t.send (Message.Eca_answer { qid; partial })
  | Message.Sweep_query { qid; target; partial } ->
      let answer = Base_table.extend t.tables.(target) partial in
      t.send (Message.Answer { qid; source = target; partial = answer })
  | Message.Fetch { qid; target } ->
      t.send
        (Message.Snapshot
           { qid; source = target;
             relation = Relation.copy (Base_table.relation t.tables.(target)) })
