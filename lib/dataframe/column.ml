(* Dictionary-encoded column.

   Every distinct value in the column gets a small integer code; the cells
   are stored as a code array. All of GUARDRAIL's statistics (contingency
   tables, partitions, auxiliary-distribution sampling) run over the code
   arrays, which keeps the hot loops allocation-free. *)

type t = {
  codes : int array;            (* cell -> code *)
  dict : Value.t array;         (* code -> value *)
  index : (Value.t, int) Hashtbl.t;  (* value -> code *)
}

let length t = Array.length t.codes
let cardinality t = Array.length t.dict
let code t i = t.codes.(i)
let value_of_code t c = t.dict.(c)
let get t i = t.dict.(t.codes.(i))
let codes t = t.codes
let dict t = t.dict

let code_of_value t v = Hashtbl.find_opt t.index v

(* Value -> code interning, codes in first-occurrence order. *)
type interner = {
  values : (Value.t, int) Hashtbl.t;
  mutable rev_dict : Value.t list;  (* code -> value, newest first *)
  mutable next : int;
}

let interner () = { values = Hashtbl.create 64; rev_dict = []; next = 0 }

let intern it v =
  match Hashtbl.find_opt it.values v with
  | Some c -> c
  | None ->
    let c = it.next in
    it.next <- c + 1;
    Hashtbl.add it.values v c;
    it.rev_dict <- v :: it.rev_dict;
    c

let encoded it codes =
  { codes; dict = Array.of_list (List.rev it.rev_dict); index = it.values }

let of_values values =
  let it = interner () in
  encoded it (Array.map (intern it) values)

let of_list values = of_values (Array.of_list values)

(* Interner for a column read from text. Each distinct raw field is
   sniffed with [Value.of_raw] once, at its first sight, and its value is
   interned as [of_values] would, so codes and dictionary order stay
   first-occurrence by value: ["NA"] and [""] share the [Null] code,
   ["1"] and ["01"] the [Int 1] code.

   Raw fields arrive as slices [src.[off] .. src.[off + len - 1]] of the
   reader's input. They are interned in an open-addressing table with
   linear probing: a field's bytes are hashed in place and compared
   against the stored keys (length first, then bytes), so a cell whose raw text was seen before
   allocates nothing. Only a new distinct raw field is copied, and the
   copy is the stored key: the column never holds on to the input. *)
module Builder = struct
  type column = t

  type t = {
    values : interner;
    mutable keys : string array;  (* slot -> raw field *)
    mutable slots : int array;    (* slot -> code, -1 when free *)
    mutable distinct : int;       (* occupied slots *)
    codes : int array;            (* cells [0, len) are filled *)
    mutable len : int;
  }

  let create capacity =
    { values = interner (); keys = Array.make 64 ""; slots = Array.make 64 (-1);
      distinct = 0; codes = Array.make capacity 0; len = 0 }

  (* FNV-1a over the bytes (offset basis cut to 63 bits), then a
     finalizing mix so the low bits used as the slot index depend on
     every byte. *)
  let hash src off len =
    let h = ref 0x0bf29ce484222325 in
    for i = off to off + len - 1 do
      h := (!h lxor Char.code (String.unsafe_get src i)) * 0x100000001b3
    done;
    let h = !h lxor (!h lsr 32) in
    let h = h * 0x1e3779b97f4a7c15 in
    h lxor (h lsr 29)

  (* Top-level recursion with every value passed in, so that a probe
     allocates no closure. *)
  let rec same_from key src off len i =
    i = len
    || String.unsafe_get key i = String.unsafe_get src (off + i)
       && same_from key src off len (i + 1)

  (* The slot holding [src.[off .. off + len - 1]] at or after slot [i],
     or the free slot where it belongs. *)
  let rec probe b src off len i =
    let key = Array.unsafe_get b.keys i in
    if
      Array.unsafe_get b.slots i < 0
      || String.length key = len && same_from key src off len 0
    then i
    else probe b src off len ((i + 1) land (Array.length b.slots - 1))

  (* Double the table, re-placing every key by its hash. *)
  let grow b =
    let keys = b.keys and slots = b.slots in
    let size = 2 * Array.length slots in
    b.keys <- Array.make size "";
    b.slots <- Array.make size (-1);
    Array.iteri
      (fun i c ->
        if c >= 0 then begin
          let key = keys.(i) in
          let len = String.length key in
          let j = probe b key 0 len (hash key 0 len land (size - 1)) in
          b.keys.(j) <- key;
          b.slots.(j) <- c
        end)
      slots

  let push b src off len =
    let i = probe b src off len (hash src off len land (Array.length b.slots - 1)) in
    let c = b.slots.(i) in
    let c =
      if c >= 0 then c
      else begin
        let key = String.sub src off len in
        let c = intern b.values (Value.of_raw key) in
        b.keys.(i) <- key;
        b.slots.(i) <- c;
        b.distinct <- b.distinct + 1;
        if 2 * b.distinct > Array.length b.slots then grow b;
        c
      end
    in
    b.codes.(b.len) <- c;
    b.len <- b.len + 1

  let length b = b.len
  let distinct b = b.distinct

  let finish b : column =
    encoded b.values
      (if b.len = Array.length b.codes then b.codes else Array.sub b.codes 0 b.len)
end

let to_values t = Array.map (fun c -> t.dict.(c)) t.codes

(* Functional single-cell update; re-encodes only when the new value is not
   yet in the dictionary. *)
let set t i v =
  match Hashtbl.find_opt t.index v with
  | Some c ->
    let codes = Array.copy t.codes in
    codes.(i) <- c;
    { t with codes }
  | None ->
    let c = Array.length t.dict in
    let dict = Array.append t.dict [| v |] in
    let index = Hashtbl.copy t.index in
    Hashtbl.add index v c;
    let codes = Array.copy t.codes in
    codes.(i) <- c;
    { codes; dict; index }

(* Batch update: one code-array copy for the whole change list, the
   index copied only if some value is genuinely new. *)
let update t changes =
  match changes with
  | [] -> t
  | changes ->
    let codes = Array.copy t.codes in
    let index = ref t.index in
    let fresh = ref [] in
    let next = ref (Array.length t.dict) in
    List.iter
      (fun (i, v) ->
        let c =
          match Hashtbl.find_opt !index v with
          | Some c -> c
          | None ->
            if !index == t.index then index := Hashtbl.copy t.index;
            let c = !next in
            Hashtbl.add !index v c;
            fresh := v :: !fresh;
            incr next;
            c
        in
        codes.(i) <- c)
      changes;
    let dict =
      match !fresh with
      | [] -> t.dict
      | fresh -> Array.append t.dict (Array.of_list (List.rev fresh))
    in
    { codes; dict; index = !index }

(* Keep only the rows whose index satisfies [keep]; dictionary is preserved
   as-is (codes of dropped values simply become unused). *)
let select t keep =
  let n = Array.length t.codes in
  let scratch = Array.make n 0 in
  let m = ref 0 in
  for i = 0 to n - 1 do
    if keep i then begin
      scratch.(!m) <- t.codes.(i);
      incr m
    end
  done;
  { t with codes = Array.sub scratch 0 !m }

let take t indices =
  let codes = Array.map (fun i -> t.codes.(i)) indices in
  { t with codes }

(* Re-encode [b]'s cells against [a]'s dictionary; new values are
   collected in a reversed list and appended to the dictionary once
   (the old per-value [dict @ [v]] was quadratic in new values). *)
let append a b =
  let nb = Array.length b.codes in
  let codes_b = Array.make nb 0 in
  let index = Hashtbl.copy a.index in
  let fresh = ref [] in
  let next = ref (Array.length a.dict) in
  for i = 0 to nb - 1 do
    let v = b.dict.(b.codes.(i)) in
    match Hashtbl.find_opt index v with
    | Some c -> codes_b.(i) <- c
    | None ->
      Hashtbl.add index v !next;
      fresh := v :: !fresh;
      codes_b.(i) <- !next;
      incr next
  done;
  let dict =
    match !fresh with
    | [] -> a.dict
    | fresh -> Array.append a.dict (Array.of_list (List.rev fresh))
  in
  { codes = Array.append a.codes codes_b; dict; index }

let counts t =
  let k = cardinality t in
  let c = Array.make k 0 in
  Array.iter (fun code -> c.(code) <- c.(code) + 1) t.codes;
  c

let mode t =
  if length t = 0 then None
  else begin
    let c = counts t in
    let best = ref 0 in
    Array.iteri (fun i n -> if n > c.(!best) then best := i) c;
    Some t.dict.(!best)
  end
