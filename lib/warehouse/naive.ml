include Sweep_batched.Make (struct
  let name = "naive"
  let batch_max = 1

  (* No on-line error correction — the whole point of this baseline. *)
  let compensate = false

  (* And no self-maintenance either: the baseline measures the cost of
     always asking the sources. *)
  let local_answers = false

  include Sweep_batched.Immediate
end)
