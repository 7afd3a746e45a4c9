(* Row-at-a-time constant-CFD discovery and detection: a Hashtbl
   grouping keyed on lhs code lists per (lhs, rhs), and one [Frame.get]
   per row per rule — the implementation [Baselines.Ctane] replaced with
   one [Dataframe.Group] pass per lhs set and GUARDRAIL branches. *)

module Frame = Dataframe.Frame
module Value = Dataframe.Value
module Ctane = Baselines.Ctane

type rule = {
  lhs : int list;            (* determinant attributes, sorted *)
  pattern : Value.t list;    (* constant per lhs attribute *)
  rhs : int;
  value : Value.t;           (* implied rhs constant *)
}

let rec subsets k = function
  | _ when k = 0 -> [ [] ]
  | [] -> []
  | x :: rest ->
    List.map (fun s -> x :: s) (subsets (k - 1) rest) @ subsets k rest

(* Raises [Ctane.Out_of_budget] past [max_rules] rules. *)
let discover ?(config = Ctane.default_config) frame =
  let attrs = Frame.categorical_indices frame in
  let n = Frame.nrows frame in
  let rules = ref [] in
  let n_rules = ref 0 in
  let emit r =
    rules := r :: !rules;
    incr n_rules;
    if !n_rules > config.Ctane.max_rules then
      raise
        (Ctane.Out_of_budget
           (Printf.sprintf "CTANE: more than %d rules" config.Ctane.max_rules))
  in
  for size = 1 to config.Ctane.max_lhs do
    List.iter
      (fun lhs ->
        let lhs_codes =
          List.map (fun c -> Dataframe.Column.codes (Frame.column frame c)) lhs
        in
        List.iter
          (fun rhs ->
            if not (List.mem rhs lhs) then begin
              let rhs_col = Frame.column frame rhs in
              let rhs_codes = Dataframe.Column.codes rhs_col in
              let rhs_card = Dataframe.Column.cardinality rhs_col in
              let groups : (int list, int * int array) Hashtbl.t =
                Hashtbl.create 256
              in
              for i = 0 to n - 1 do
                let key = List.map (fun codes -> codes.(i)) lhs_codes in
                let _, hist =
                  match Hashtbl.find_opt groups key with
                  | Some g -> g
                  | None ->
                    let g = (i, Array.make rhs_card 0) in
                    Hashtbl.add groups key g;
                    g
                in
                hist.(rhs_codes.(i)) <- hist.(rhs_codes.(i)) + 1
              done;
              Hashtbl.iter
                (fun _key (rep, hist) ->
                  let support = Array.fold_left ( + ) 0 hist in
                  if support >= config.Ctane.min_support then begin
                    let best = ref 0 in
                    Array.iteri (fun c k -> if k > hist.(!best) then best := c) hist;
                    let err = support - hist.(!best) in
                    if float_of_int err
                       <= config.Ctane.epsilon *. float_of_int support
                    then
                      emit
                        {
                          lhs;
                          pattern = List.map (fun a -> Frame.get frame rep a) lhs;
                          rhs;
                          value = Dataframe.Column.value_of_code rhs_col !best;
                        }
                  end)
                groups
            end)
          attrs)
      (subsets size attrs)
  done;
  List.rev !rules

(* A row violates a rule when it matches the pattern but carries a
   different rhs value. *)
let detect rules frame =
  let n = Frame.nrows frame in
  let flags = Array.make n false in
  List.iter
    (fun r ->
      for i = 0 to n - 1 do
        if not flags.(i) then begin
          let matches =
            List.for_all2
              (fun a v -> Value.equal (Frame.get frame i a) v)
              r.lhs r.pattern
          in
          if matches && not (Value.equal (Frame.get frame i r.rhs) r.value) then
            flags.(i) <- true
        end
      done)
    rules;
  flags
