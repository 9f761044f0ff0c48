open Repro_relational
open Repro_sim
open Repro_protocol

type t = {
  engine : Engine.t;
  view : View_def.t;
  node_id : int;
  who : string;  (* the trace's name for the node *)
  tbl : Base_table.t;
  send : Message.to_warehouse -> unit;
  trace : Trace.t;
}

let create engine ~view ~id ~init ~send ~trace =
  if id < 0 || id >= View_def.n_sources view then
    invalid_arg "Source_node.create: id out of range";
  { engine; view; node_id = id; who = Printf.sprintf "source%d" id;
    tbl = Base_table.create ~source:id ~view init; send; trace }

let id t = t.node_id
let table t = t.tbl

let local_update ?global t delta =
  let txn = Base_table.apply t.tbl delta in
  let now = Engine.now t.engine in
  if Trace.enabled t.trace then
    Trace.emit t.trace ~time:now ~who:t.who "apply %a = %a" Message.pp_txn_id
      txn Delta.pp delta;
  t.send
    (Message.Update_notice
       { txn; delta = Delta.copy delta; occurred_at = now; global });
  txn

let handle t msg =
  let now = Engine.now t.engine in
  match msg with
  | Message.Sweep_query { qid; target; partial } ->
      if target <> t.node_id then
        invalid_arg "Source_node.handle: sweep query misrouted";
      let answer = Base_table.extend t.tbl partial in
      if Trace.enabled t.trace then
        Trace.emit t.trace ~time:now ~who:t.who "query#%d %a -> %a" qid
          Partial.pp partial Partial.pp answer;
      t.send (Message.Answer { qid; source = t.node_id; partial = answer })
  | Message.Fetch { qid; target } ->
      if target <> t.node_id then
        invalid_arg "Source_node.handle: fetch misrouted";
      if Trace.enabled t.trace then
        Trace.emit t.trace ~time:now ~who:t.who "fetch#%d" qid;
      t.send
        (Message.Snapshot
           { qid; source = t.node_id;
             relation = Relation.copy (Base_table.relation t.tbl) })
  | Message.Eca_query _ ->
      invalid_arg "Source_node.handle: Eca_query sent to a distributed source"
