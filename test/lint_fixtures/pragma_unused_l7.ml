(* lint: allow L7 nothing here is module-init mutable state *)
let limit = 42
