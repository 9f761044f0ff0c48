open Repro_relational
module Canon = Repro_durability.Canon

type mode = Off | Keys_only | Full

let mode_to_string = function
  | Off -> "off"
  | Keys_only -> "keys-only"
  | Full -> "full"

let mode_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "off" -> Some Off
  | "keys" | "keys-only" -> Some Keys_only
  | "full" -> Some Full
  | _ -> None

type t = {
  mode : mode;
  view : View_def.t option;
  tracked : int array array;
  (* required ⊆ tracked, per source: the leg against that source can be
     answered from the projection alone. *)
  answerable : bool array;
  widths : int array;
  projs : Bag.t array;
  genesis : Bag.t array;
  (* per source: [projs]'s join indexes, one per junction, keyed on the
     junction's columns at their positions in [tracked] — maintained by
     [apply], rebuilt by [restore]/[reset], so a local answer probes
     instead of copying the whole projection per leg. Join columns are
     tracked in both modes, so every junction has its index. *)
  indexes : Algebra.indexes array;
  (* [projs] in canonical order with cached encodings, for checkpoints;
     built at the first {!image}, then kept in step by [apply] *)
  mutable images : Canon.t array option;
}

let off () =
  { mode = Off; view = None; tracked = [||];
    answerable = [||]; widths = [||]; projs = [||]; genesis = [||];
    indexes = [||]; images = None }

(* Local columns of source [j] among a list of global attribute
   indices. *)
let localize view j globals =
  let ofs = View_def.offset view j and w = View_def.width view j in
  List.filter_map
    (fun g -> if g >= ofs && g < ofs + w then Some (g - ofs) else None)
    globals

(* Global attributes a leg's result can depend on: every join equality
   column (join keys), every join residual's attributes (Algebra.join
   evaluates residuals against both operands of the combined range),
   the selection's attributes and the projected attributes (both applied
   to the full-width tuple at the end of the sweep). *)
let referenced view =
  let acc = ref [] in
  let add g = acc := g :: !acc in
  Array.iter
    (fun (js : Join_spec.t) ->
      List.iter
        (fun (l, r) ->
          add l;
          add r)
        js.Join_spec.equalities;
      match js.Join_spec.residual with
      | Some p -> List.iter add (Predicate.attrs_used p)
      | None -> ())
    (View_def.joins view);
  List.iter add (Predicate.attrs_used (View_def.selection view));
  Array.iter add (View_def.projection view);
  !acc

let project_relation rel cols =
  let b = Bag.create () in
  Relation.iter (fun tup c -> Bag.add b (Tuple.project tup cols) c) rel;
  b

(* Source [j]'s join indexes over [proj], its projection onto
   [tracked]. *)
let index_projection view tracked j proj =
  let at col =
    let rec find k = if tracked.(k) = col then k else find (k + 1) in
    find 0
  in
  Algebra.indexes ~at view j proj

let rebuild_index t j =
  t.indexes.(j) <-
    index_projection (Option.get t.view) t.tracked.(j) j t.projs.(j)

let create ~view ~mode ~initial () =
  match mode with
  | Off -> off ()
  | _ ->
      let n = View_def.n_sources view in
      if Array.length initial <> n then
        invalid_arg
          (Printf.sprintf "Aux_store.create: %d initial relations for %d sources"
             (Array.length initial) n);
      let refd = referenced view in
      let required = Array.init n (fun j -> localize view j refd) in
      let tracked =
        Array.init n (fun j ->
            let keys = Schema.key_indices (View_def.schema view j) in
            let wanted =
              match mode with
              | Off -> assert false
              | Keys_only -> keys @ View_def.join_columns view j
              | Full -> keys @ required.(j)
            in
            Array.of_list (List.sort_uniq compare wanted))
      in
      let answerable =
        Array.init n (fun j ->
            List.for_all
              (fun c -> Array.exists (fun c' -> c' = c) tracked.(j))
              required.(j))
      in
      let widths = Array.init n (View_def.width view) in
      let projs =
        Array.init n (fun j -> project_relation initial.(j) tracked.(j))
      in
      let indexes =
        Array.init n (fun j -> index_projection view tracked.(j) j projs.(j))
      in
      { mode; view = Some view; tracked; answerable; widths; projs;
        genesis =
          Array.init n (fun j -> project_relation initial.(j) tracked.(j));
        indexes; images = None }

let mode t = t.mode
let tracked t j = if t.mode = Off then [||] else t.tracked.(j)
let answers t j = t.mode <> Off && t.answerable.(j)

let indexes t j = t.indexes.(j)

let apply t ~source delta =
  if t.mode <> Off then
    Delta.iter
      (fun tup c ->
        let pt = Tuple.project tup t.tracked.(source) in
        Bag.add t.projs.(source) pt c;
        Option.iter (fun images -> Canon.add images.(source) pt c) t.images;
        Algebra.add_all t.indexes.(source) pt c)
      delta

(* Lift a projected tuple back to source width: tracked columns carry
   their values, untracked columns become Null placeholders. Safe
   because answerability guarantees no join key, residual, selection or
   projection attribute is untracked — a Null is never consulted and
   never survives the final projection. *)
let lift_one t j pt =
  let full = Array.make t.widths.(j) Value.Null in
  Array.iteri (fun k col -> full.(col) <- pt.(k)) t.tracked.(j);
  full

(* The leg probes the projection's index, lifting each match, and joins
   the (delta-sized) overlay, projected and lifted alike, into the same
   result, so counts from the two sides accumulate, cancellations
   included, exactly as over the merged bag. *)
let local_answer t ~target:j ~partial ~overlay =
  if not (answers t j) then None
  else begin
    let view = Option.get t.view in
    let data =
      Algebra.answer ~lift:(lift_one t j) view t.indexes.(j) partial ~source:j
    in
    if not (Delta.is_empty overlay) then begin
      let lifted = Delta.empty () in
      Delta.iter
        (fun tup c ->
          Delta.add lifted (lift_one t j (Tuple.project tup t.tracked.(j))) c)
        overlay;
      let pj = { Partial.lo = j; hi = j; data = lifted } in
      if j < partial.Partial.lo then
        Algebra.join_with view pj partial (Delta.add data)
      else Algebra.join_with view partial pj (Delta.add data)
    end;
    Some
      { Partial.lo = min j partial.Partial.lo; hi = max j partial.Partial.hi;
        data }
  end

let image t =
  match (t.mode, t.images) with
  | Off, _ -> None
  | _, Some images -> Some (Array.to_list images)
  | _, None ->
      let images = Array.map Canon.of_bag t.projs in
      t.images <- Some images;
      Some (Array.to_list images)

let restore t images =
  if t.mode <> Off then begin
    if List.length images <> Array.length t.projs then
      invalid_arg "Aux_store.restore: source count mismatch";
    let images = Array.of_list images in
    Array.iteri
      (fun j img ->
        t.projs.(j) <- Canon.to_bag img;
        rebuild_index t j)
      images;
    t.images <- Some images
  end

let reset t =
  Array.iteri
    (fun j g ->
      t.projs.(j) <- Bag.copy g;
      rebuild_index t j)
    t.genesis;
  t.images <- None

let bytes t =
  List.fold_left
    (fun n s -> n + String.length s)
    0
    (Repro_durability.Snap.image_list_pieces (image t))
