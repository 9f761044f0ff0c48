open Repro_relational

let schemas ~n =
  Array.init n (fun i ->
      Schema.make
        (Printf.sprintf "R%d" i)
        [ Schema.attr ~key:true "k" Value.T_int;
          Schema.attr "a" Value.T_int;
          Schema.attr "b" Value.T_int ])

let view ?name ?(selection = Predicate.True) ?projection ~n () =
  let schemas = schemas ~n in
  let joins =
    Array.init (n - 1) (fun i ->
        (* Ri.b = R(i+1).a in global indices: each relation is 3 wide. *)
        Join_spec.natural ~left_attr:((i * 3) + 2) ~right_attr:((i + 1) * 3 + 1))
  in
  let projection =
    match projection with
    | Some p -> p
    | None ->
        let keys = Array.init n (fun i -> i * 3) in
        Array.concat [ keys; [| 1; ((n - 1) * 3) + 2 |] ]
  in
  View_def.make
    ~name:(Option.value name ~default:(Printf.sprintf "chain%d" n))
    ~schemas ~joins ~selection ~projection ()

let tuple ~key ~a ~b = Tuple.ints [ key; a; b ]

let populate view ~size ~domain rng =
  let n = View_def.n_sources view in
  Array.init n (fun _ ->
      let rel = Relation.create ~initial_size:size () in
      for key = 0 to size - 1 do
        Relation.insert rel
          (tuple ~key ~a:(Repro_sim.Rng.int rng domain)
             ~b:(Repro_sim.Rng.int rng domain))
          1
      done;
      rel)
