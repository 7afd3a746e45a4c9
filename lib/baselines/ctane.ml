(* CTANE (Fan et al., 2010): discovery of conditional functional
   dependencies (CFDs).

   A constant CFD is a pair (X -> A, tp) where the pattern tableau tp
   binds some lhs attributes to constants; the dependency only has to
   hold on the rows matching the pattern. We implement the constant-CFD
   fragment levelwise:

     for each lhs set X (|X| <= max_lhs) and each rhs A not in X,
     for each observed constant binding of X with support >= min_support,
     emit the CFD when the binding's rows agree on A up to epsilon.

   A constant CFD is a GUARDRAIL branch: the lhs binding is its
   condition and the implied rhs constant its assignment, so [discover]
   returns a program with one statement per (X, A) and one branch per
   emitted pattern, checked by [Guardrail.Validator] like every Table 3
   column. CTANE's tendency to overfit (emitting one rule per frequent
   pattern) is intrinsic and is what Table 3 shows. *)

module Frame = Dataframe.Frame
module Group = Dataframe.Group
module Dsl = Guardrail.Dsl

exception Out_of_budget of string

type config = {
  epsilon : float;
  max_lhs : int;
  min_support : int;
  max_rules : int;  (* budget on emitted patterns, i.e. branches *)
}

let default_config = { epsilon = 0.0; max_lhs = 2; min_support = 3; max_rules = 50_000 }

(* All subsets of size k of a list (small k). *)
let rec subsets k = function
  | _ when k = 0 -> [ [] ]
  | [] -> []
  | x :: rest ->
    List.map (fun s -> x :: s) (subsets (k - 1) rest) @ subsets k rest

let discover ?(config = default_config) frame =
  let attrs = Frame.categorical_indices frame in
  let n_rules = ref 0 in
  let stmts = ref [] in
  for size = 1 to config.max_lhs do
    List.iter
      (fun lhs ->
        let group = Fd.group_by frame lhs in
        List.iter
          (fun rhs ->
            if not (List.mem rhs lhs) then begin
              let branch = Fd.branches frame group lhs ~rhs in
              let branches = ref [] in
              Array.iteri
                (fun g (code, hits) ->
                  let support = Group.size group g in
                  if support >= config.min_support
                     && float_of_int (support - hits)
                        <= config.epsilon *. float_of_int support
                  then begin
                    incr n_rules;
                    if !n_rules > config.max_rules then
                      raise
                        (Out_of_budget
                           (Printf.sprintf "CTANE: more than %d rules"
                              config.max_rules));
                    branches := branch g code :: !branches
                  end)
                (Fd.modes group frame rhs);
              if !branches <> [] then
                stmts :=
                  Dsl.stmt ~given:lhs ~on:rhs ~branches:(List.rev !branches)
                  :: !stmts
            end)
          attrs)
      (subsets size attrs)
  done;
  Dsl.prog ~schema:(Frame.schema frame) (List.rev !stmts)
