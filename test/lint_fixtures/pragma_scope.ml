(* Pragma scope fixture: a pragma after code covers its own line only. *)
let a () = Random.int 3 (* lint: allow L1 fixture: covers this line only *)
let b () = Random.int 5
(* lint: allow L1 fixture: alone on its line, so it covers the next *)
let c () = Random.int 7
