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

(** [predict_both t ~shallow cols rows] predicts the rows [rows] of
    [cols], walking each row's path once: [cut.(k)] is row [rows.(k)]'s
    label in the tree cut at depth [shallow], which predicts exactly as
    the same training run with [max_depth = shallow] would, and
    [full.(k)] its label in the whole tree. Returns [(cut, full)]. *)
val predict_both :
  t -> shallow:int -> Features.column array -> int array -> int array * int array

(** Depth and node count, of the tree cut at [cap] if given. *)
val depth : ?cap:int -> t -> int
val size : ?cap:int -> t -> int
