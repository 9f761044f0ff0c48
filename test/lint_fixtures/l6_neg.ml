(* L6 negative fixture: the probe path is fine, and a deliberate scan
   carries its pragma. *)
let answer view ix partial ~source f = Algebra.probe view ix partial ~source f

let reference view partial delta =
  Algebra.extend view partial delta (* lint: allow L6 fixture: a deliberate scan, the reference join a probe is checked against *)
