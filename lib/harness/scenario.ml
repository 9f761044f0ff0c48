open Repro_sim
open Repro_workload

type topology = Distributed | Centralized

type t = {
  name : string;
  n_sources : int;
  init_size : int;
  domain : int;
  stream : Update_gen.config;
  latency : Latency.t;
  topology : topology;
  faults : Fault.t;
  checkpoint_every : int;
  queue_capacity : int option;
  deadline : float option;
  breaker_k : int;
  probe_limit : int;
  stall_cap : int;
  read_rate : float;
  staleness_slo : float;
  read_cap : int;
  read_burst : Repro_serving.Read_gen.burst option;
  aux_mode : Repro_warehouse.Aux_store.mode;
  seed : int64;
}

let default =
  { name = "default"; n_sources = 3; init_size = 40; domain = 16;
    stream = Update_gen.default; latency = Latency.Uniform (0.5, 1.5);
    topology = Distributed; faults = Fault.none; checkpoint_every = 8;
    queue_capacity = None; deadline = None; breaker_k = 3;
    probe_limit = 0; stall_cap = 256; read_rate = 0.; staleness_slo = 2.0;
    read_cap = 16; read_burst = None;
    aux_mode = Repro_warehouse.Aux_store.Off; seed = 42L }

let presets =
  [ (* updates spaced far apart: no concurrency, every algorithm should be
       exact *)
    ( "sequential",
      { default with
        name = "sequential";
        stream =
          { Update_gen.default with
            n_updates = 60; mean_gap = 50.; fixed_gap = true } } );
    (* heavy interleaving: the regime the paper is about *)
    ( "concurrent",
      { default with
        name = "concurrent"; n_sources = 4;
        stream =
          { Update_gen.default with n_updates = 120; mean_gap = 0.7 } } );
    (* bursts of near-simultaneous updates *)
    ( "bursty",
      { default with
        name = "bursty"; n_sources = 4;
        stream =
          { Update_gen.default with
            n_updates = 120; mean_gap = 0.2; txn_size = 2 } } );
    (* alternating interference between the chain's endpoints: Nested
       SWEEP's worst case (paper §6.2) *)
    ( "adversarial",
      { default with
        name = "adversarial"; n_sources = 4;
        stream =
          { Update_gen.default with
            n_updates = 80; mean_gap = 0.3;
            placement = Update_gen.Alternating (0, 3) } } );
    (* everything on one site: ECA's home turf *)
    ( "centralized",
      { default with
        name = "centralized"; topology = Centralized;
        stream = { Update_gen.default with n_updates = 80; mean_gap = 0.7 } }
    );
    (* degraded network: loss, duplication, spikes and one source outage;
       protocol messages ride the reliable transport layer *)
    ( "degraded",
      { default with
        name = "degraded"; n_sources = 4;
        stream = { Update_gen.default with n_updates = 80; mean_gap = 1.5 };
        faults =
          { Fault.link =
              Fault.lossy ~drop:0.2 ~duplicate:0.1 ~spike:0.05
                ~spike_factor:4. ();
            crashes = [ { Fault.source = 1; down_at = 30.; up_at = 60. } ];
            wh_crashes = [] } } );
    (* warehouse crash/restart mid-run: WAL + checkpoint recovery, twice,
       over a mildly lossy network *)
    ( "crashy",
      { default with
        name = "crashy"; n_sources = 4;
        stream = { Update_gen.default with n_updates = 80; mean_gap = 1.5 };
        faults =
          { Fault.link = Fault.lossy ~drop:0.05 ~duplicate:0.05 ();
            crashes = [];
            wh_crashes =
              [ { Fault.wh_down_at = 20.; wh_up_at = 40. };
                { Fault.wh_down_at = 70.; wh_up_at = 85. } ] } } );
    (* everything at once: lossy links, two overlapping source outages,
       a warehouse crash inside one of them, query deadlines and circuit
       breakers armed. The chaos suite draws randomized variants of this
       with [Fault.chaos]; the preset is one representative schedule. *)
    ( "chaos",
      { default with
        name = "chaos"; n_sources = 4;
        stream = { Update_gen.default with n_updates = 80; mean_gap = 1.5 };
        deadline = Some 8.; breaker_k = 3; probe_limit = 0; stall_cap = 64;
        faults =
          { Fault.link =
              Fault.lossy ~drop:0.15 ~duplicate:0.1 ~spike:0.1
                ~spike_factor:4. ();
            crashes =
              [ { Fault.source = 1; down_at = 25.; up_at = 70. };
                { Fault.source = 3; down_at = 55.; up_at = 90. } ];
            wh_crashes = [ { Fault.wh_down_at = 40.; wh_up_at = 52. } ] } } );
    (* sustained read pressure over a busy write stream: the serving tier
       must stamp staleness honestly and never block a read *)
    ( "read-heavy",
      { default with
        name = "read-heavy"; n_sources = 4;
        stream = { Update_gen.default with n_updates = 120; mean_gap = 0.7 };
        read_rate = 8.0; staleness_slo = 2.0; read_cap = 16 } );
    (* a flash crowd (10× read burst) colliding with a source outage:
       maintenance lags behind the open breaker while reads spike, so the
       server must degrade gracefully — stale-but-stamped answers within
       the ceiling, shed beyond it or past the in-flight cap *)
    ( "flash-crowd",
      { default with
        name = "flash-crowd"; n_sources = 4;
        stream = { Update_gen.default with n_updates = 100; mean_gap = 1.0 };
        deadline = Some 8.; breaker_k = 3; probe_limit = 0; stall_cap = 64;
        read_rate = 4.0; staleness_slo = 2.0; read_cap = 12;
        read_burst =
          Some { Repro_serving.Read_gen.at = 30.; duration = 20.;
                 multiplier = 10. };
        faults =
          { Fault.link = Fault.lossy ~drop:0.05 ~duplicate:0.05 ();
            crashes = [ { Fault.source = 1; down_at = 25.; up_at = 55. } ];
            wh_crashes = [] } } );
    (* self-maintenance showcase (DESIGN.md §14): the concurrent regime
       with a skewed (Zipf) update placement and full aux projections —
       every sweep leg answered locally, messages/update ≪ 1 *)
    ( "self-maint",
      { default with
        name = "self-maint"; n_sources = 4;
        stream =
          { Update_gen.default with
            n_updates = 120; mean_gap = 0.7;
            placement = Update_gen.Zipf 1.1 };
        aux_mode = Repro_warehouse.Aux_store.Full } )
  ]

let find_preset name = List.assoc_opt name presets

let pp ppf t =
  Format.fprintf ppf
    "%s: n=%d init=%d domain=%d updates=%d gap=%g p_ins=%g lat=%a %s seed=%Ld"
    t.name t.n_sources t.init_size t.domain t.stream.Update_gen.n_updates
    t.stream.Update_gen.mean_gap t.stream.Update_gen.p_insert Latency.pp
    t.latency
    (match t.topology with
    | Distributed -> "distributed"
    | Centralized -> "centralized")
    t.seed;
  if t.read_rate > 0. then
    Format.fprintf ppf " reads[rate=%g slo=%g cap=%d%s]" t.read_rate
      t.staleness_slo t.read_cap
      (match t.read_burst with
      | Some b ->
          Format.asprintf " burst=%gx@@%g+%g" b.multiplier b.at b.duration
      | None -> "");
  if t.aux_mode <> Repro_warehouse.Aux_store.Off then
    Format.fprintf ppf " aux=%s"
      (Repro_warehouse.Aux_store.mode_to_string t.aux_mode);
  if Fault.is_faulty t.faults then
    Format.fprintf ppf " faults[%a]" Fault.pp t.faults
