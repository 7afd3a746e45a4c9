(** CART-style decision tree on categorical features (Gini, equality
    splits). *)

type t

type params = { max_depth : int; min_leaf : int }

val default_params : params

(** [xs] holds one code array per feature (column-major) and [cards]
    their cardinalities. Raises [Invalid_argument] on an empty training
    set; labels coded [-1] are skipped. *)
val train :
  ?params:params -> cards:int array -> n_labels:int -> int array array -> int array -> t

(** [predict ?cap t cols i] is the label of row [i]. With [cap], the tree
    is cut at depth [cap], which predicts exactly as the same training
    run with [max_depth = cap] would. *)
val predict : ?cap:int -> t -> Features.column array -> int -> int

(** Depth and node count, of the tree cut at [cap] if given. *)
val depth : ?cap:int -> t -> int
val size : ?cap:int -> t -> int
