include Sweep_batched.Make (struct
  let name = "sweep"
  let batch_max = 1
  let compensate = true
  let local_answers = true

  (* One install per update, immediately — complete consistency. *)
  include Sweep_batched.Immediate
end)
