(* L6 negative fixture: the probe path is fine, and a deliberate scan
   carries its pragma. *)
let answer view partial probe = Algebra.extend_with_probe view partial ~probe

let fallback view partial delta =
  Algebra.extend view partial delta (* lint: allow L6 fixture: cross-product fallback, the junction has no equality to probe on *)
