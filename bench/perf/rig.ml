(* The traced rig: [Experiment.run]'s fault-free distributed wiring,
   rebuilt from public constructors so that every layer boundary an
   update crosses can be wrapped with a clock and an allocation counter.
   It must stay event-for-event identical to [Experiment.run] on the
   same scenario with faults and reads removed; the correctness gate in
   perf.ml checks that on every workload. The constructor calls it
   depends on are listed in README.md as its contract. *)

open Repro_relational
open Repro_sim
open Repro_source
open Repro_warehouse
open Repro_workload
open Repro_harness
module Backpressure = Repro_serving.Backpressure

type result = {
  view : Bag.t;  (** final materialized view *)
  sources : Relation.t array;  (** final base tables *)
  metrics : Metrics.t;
  events : int;
  maint_s : float;
  phases : (string * float) list;  (** set-up steps, in seconds *)
  layers : Layers.layer list;
      (** warehouse.deliver, source.query, source.apply,
          serving.backpressure and sim.engine (self time) *)
  minor_collections : int;  (** during maintenance *)
  major_collections : int;
}

(* [Experiment.run] splits the engine's root stream in this order on
   the distributed wiring, with or without faults: the initial data,
   one stream per up link, one per down link, then the update stream. *)
let data_and_links rng ~n =
  let data = Rng.split rng in
  let links = Array.init (2 * n) (fun _ -> Rng.split rng) in
  (data, links)

let no_faults (s : Scenario.t) =
  { s with faults = Fault.none; read_rate = 0.; read_burst = None }

let run (sc : Scenario.t) algorithm =
  let prof = Layers.create () in
  let deliver_l = Layers.layer "warehouse.deliver" in
  let query_l = Layers.layer "source.query" in
  let apply_l = Layers.layer "source.apply" in
  let bp_l = Layers.layer "serving.backpressure" in
  let engine_l = Layers.layer "sim.engine" in
  let n = sc.n_sources in
  let engine = Engine.create ~seed:sc.seed () in
  let rng = Engine.rng engine in
  let view = Chain.view ~n () in
  let data_rng, link_rngs = data_and_links rng ~n in
  let initial, populate_s =
    Layers.time (fun () ->
        Chain.populate view ~size:sc.init_size ~domain:sc.domain data_rng)
  in
  let initial_copy = Array.map Relation.copy initial in
  let initial_view, eval_s =
    Layers.time (fun () -> Algebra.eval view (fun i -> initial.(i)))
  in
  let node = ref None in
  let the_node () =
    match !node with
    | Some w -> w
    | None -> invalid_arg "Rig.run: message before wiring complete"
  in
  let trace = Trace.create () in
  let deliver = Layers.wrap prof deliver_l (fun m -> Node.deliver (the_node ()) m) in
  let up =
    Array.init n (fun i ->
        Channel.create engine ~latency:sc.latency ~rng:link_rngs.(i) ~deliver)
  in
  let sources, index_s =
    Layers.time (fun () ->
        Array.init n (fun i ->
            Source_node.create engine ~view ~id:i ~init:initial.(i)
              ~send:(fun m -> Channel.send up.(i) m)
              ~trace))
  in
  let down =
    Array.init n (fun i ->
        Channel.create engine ~latency:sc.latency ~rng:link_rngs.(n + i)
          ~deliver:(Layers.wrap prof query_l (Source_node.handle sources.(i))))
  in
  let metrics = Metrics.create () in
  let warehouse =
    Node.create engine ~view ~algorithm
      ~send:(fun i m -> Channel.send down.(i) m)
      ~init:initial_view ~metrics ?queue_capacity:sc.queue_capacity
      ~aux:(Aux_store.create ~view ~mode:sc.aux_mode ~initial:initial_copy ())
      ~stall_cap:sc.stall_cap ~record_history:false ~trace ()
  in
  node := Some warehouse;
  let local_update =
    Layers.wrap prof apply_l (fun (source, global, delta) ->
        let global =
          Option.map
            (fun (gid, parts) -> { Repro_protocol.Message.gid; parts })
            global
        in
        ignore (Source_node.local_update ?global sources.(source) delta))
  in
  let apply =
    match sc.queue_capacity with
    | None -> fun ~source ~global delta -> local_update (source, global, delta)
    | Some capacity ->
        let bp = Backpressure.create ~n_sources:n ~capacity in
        Node.add_incorporate_listener warehouse
          (Layers.wrap prof bp_l (Backpressure.release bp));
        let submit =
          Layers.wrap prof bp_l (fun (source, global, delta) ->
              Backpressure.submit bp ~source ~noop:(Delta.is_empty delta)
                (fun () -> local_update (source, global, delta)))
        in
        fun ~source ~global delta -> submit (source, global, delta)
  in
  let gc0 = Gc.quick_stat () in
  let outcome, maint_s =
    Layers.time (fun () ->
        Update_gen.drive engine (Rng.split rng) sc.stream ~view
          ~initial:initial_copy ~apply ();
        Layers.wrap prof engine_l (fun () -> Engine.run engine) ())
  in
  let gc1 = Gc.quick_stat () in
  if outcome <> `Drained || not (Node.idle warehouse) then
    invalid_arg "Rig.run: the run did not drain";
  { view = Bag.copy (Node.view_contents warehouse);
    sources = Array.map (fun s -> Base_table.relation (Source_node.table s)) sources;
    metrics; events = Engine.executed engine; maint_s;
    phases =
      [ ("workload.populate_s", populate_s);
        ("relational.initial_eval_s", eval_s);
        ("source.index_build_s", index_s) ];
    layers = [ deliver_l; query_l; apply_l; bp_l; engine_l ];
    minor_collections = gc1.minor_collections - gc0.minor_collections;
    major_collections = gc1.major_collections - gc0.major_collections }

(* The scenario's update stream on a fresh engine, handed to
   [apply initial] in place of the sources: the same initial data and
   the same deltas that [Experiment.run] and [run] feed their sources.
   Returns the view and the wall time of the stream alone. *)
let drive_stream (sc : Scenario.t) ~apply =
  let engine = Engine.create ~seed:sc.seed () in
  let rng = Engine.rng engine in
  let view = Chain.view ~n:sc.n_sources () in
  let data_rng, _ = data_and_links rng ~n:sc.n_sources in
  let initial =
    Chain.populate view ~size:sc.init_size ~domain:sc.domain data_rng
  in
  let apply = apply initial in
  let (), gen_s =
    Layers.time (fun () ->
        Update_gen.drive engine (Rng.split rng) sc.stream ~view ~initial
          ~apply ();
        ignore (Engine.run engine))
  in
  (view, gen_s)

(* Wall time of the update generator alone, applying nothing. *)
let gen_seconds sc =
  snd (drive_stream sc ~apply:(fun _ ~source:_ ~global:_ _ -> ()))

(* The final base tables, and the view [Algebra.eval] computes over
   them: the reference every run's final view must equal. *)
let reference sc =
  let tables = ref [||] in
  let view, _ =
    drive_stream sc ~apply:(fun initial ->
        tables := Array.map Relation.copy initial;
        fun ~source ~global:_ delta ->
          match Relation.apply !tables.(source) delta with
          | Ok () -> ()
          | Error _ -> invalid_arg "Rig.reference: delete of an absent tuple")
  in
  let tables = !tables in
  (tables, Relation.as_bag (Algebra.eval view (fun i -> tables.(i))))
