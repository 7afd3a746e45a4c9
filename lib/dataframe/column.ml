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

(* Typed int loops: [Array.map] and [Array.copy] store each word of a
   result too large for the minor heap through the write barrier, which
   costs several times the copy itself. *)
let gather (codes : int array) rows =
  let out = Array.make (Array.length rows) 0 in
  for k = 0 to Array.length rows - 1 do
    Array.unsafe_set out k codes.(Array.unsafe_get rows k)
  done;
  out

let sub_codes (codes : int array) pos len =
  if pos < 0 || len < 0 || pos + len > Array.length codes then
    invalid_arg "Column.sub_codes";
  let out = Array.make len 0 in
  for i = 0 to len - 1 do
    Array.unsafe_set out i (Array.unsafe_get codes (pos + i))
  done;
  out

let copy_codes codes = sub_codes codes 0 (Array.length codes)

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

   The reader hands each field over as a packed int key together with
   its slice [src.[off] .. src.[off + len - 1]]. One open-addressing
   table with linear probing maps keys to codes, hashing the key alone.
   A key below [long] names its field exactly, so a probe compares one
   int; a key at or above it is a digest, and a probe that meets an
   equal one compares the stored field's bytes too. Only a new distinct
   raw field is copied, and the copy is the stored field: the column
   never holds on to the input. *)
module Builder = struct
  type column = t

  let long = 1 lsl 59

  type t = {
    values : interner;
    mutable slots : int array;    (* slot i: key at 2i (-1 when free), code at 2i + 1 *)
    mutable raws : string array;  (* slot -> raw field *)
    mutable distinct : int;       (* occupied slots *)
    codes : int array;            (* cells [0, len) are filled *)
    mutable len : int;
  }

  let create capacity =
    { values = interner (); slots = Array.make 128 (-1); raws = Array.make 64 "";
      distinct = 0; codes = Array.make capacity 0; len = 0 }

  (* The home slot of a key: a multiply and a fold, so the low bits used
     as the index depend on every byte packed into the key. *)
  let home key mask =
    let h = key * 0x1e3779b97f4a7c15 in
    (h lxor (h lsr 29)) land mask

  (* Top-level recursion with every value passed in, so that a probe
     allocates no closure. *)
  let rec same_from raw src off len i =
    i = len
    || String.unsafe_get raw i = String.unsafe_get src (off + i)
       && same_from raw src off len (i + 1)

  (* The slot holding the field at or after slot [i], or the free slot
     where it belongs. *)
  let rec probe b key src off len i =
    let k = Array.unsafe_get b.slots (2 * i) in
    if
      k < 0
      || k = key
         && (key < long
            || let raw = Array.unsafe_get b.raws i in
               String.length raw = len && same_from raw src off len 0)
    then i
    else probe b key src off len ((i + 1) land (Array.length b.raws - 1))

  (* Double the table, re-placing every key by its home slot. *)
  let grow b =
    let slots = b.slots and raws = b.raws in
    let size = 2 * Array.length raws in
    b.slots <- Array.make (2 * size) (-1);
    b.raws <- Array.make size "";
    Array.iteri
      (fun i raw ->
        let key = slots.(2 * i) in
        if key >= 0 then begin
          let j = probe b key raw 0 (String.length raw) (home key (size - 1)) in
          b.slots.(2 * j) <- key;
          b.slots.((2 * j) + 1) <- slots.((2 * i) + 1);
          b.raws.(j) <- raw
        end)
      raws

  let push b key src off len =
    let i = probe b key src off len (home key (Array.length b.raws - 1)) in
    let c =
      if Array.unsafe_get b.slots (2 * i) >= 0 then Array.unsafe_get b.slots ((2 * i) + 1)
      else begin
        let raw = String.sub src off len in
        let c = intern b.values (Value.of_raw raw) in
        b.slots.(2 * i) <- key;
        b.slots.((2 * i) + 1) <- c;
        b.raws.(i) <- raw;
        b.distinct <- b.distinct + 1;
        if 2 * b.distinct > Array.length b.raws then grow b;
        c
      end
    in
    b.codes.(b.len) <- c;
    b.len <- b.len + 1

  let length b = b.len
  let distinct b = b.distinct

  let finish b : column =
    encoded b.values
      (if b.len = Array.length b.codes then b.codes else sub_codes b.codes 0 b.len)
end

let to_values t = Array.map (fun c -> t.dict.(c)) t.codes

(* Functional single-cell update; re-encodes only when the new value is not
   yet in the dictionary. *)
let set t i v =
  match Hashtbl.find_opt t.index v with
  | Some c ->
    let codes = copy_codes t.codes in
    codes.(i) <- c;
    { t with codes }
  | None ->
    let c = Array.length t.dict in
    let dict = Array.append t.dict [| v |] in
    let index = Hashtbl.copy t.index in
    Hashtbl.add index v c;
    let codes = copy_codes t.codes in
    codes.(i) <- c;
    { codes; dict; index }

(* Batch update: one code-array copy for the whole change list, the
   index copied only if some value is genuinely new. A repair batch
   writes few distinct values, most of them shared (a rule's literal is
   one value however many cells it repairs), so the values resolved so
   far are remembered by physical identity — up to [recent] of them —
   and a shared value is hashed once, not once per cell. *)
let recent = 16

let update t changes =
  match changes with
  | [] -> t
  | changes ->
    let codes = copy_codes t.codes in
    let index = ref t.index in
    let fresh = ref [] in
    let next = ref (Array.length t.dict) in
    let resolved = ref [] and n_resolved = ref 0 in
    let resolve v =
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
    List.iter
      (fun (i, v) ->
        let c =
          match List.assq_opt v !resolved with
          | Some c -> c
          | None ->
            let c = resolve v in
            if !n_resolved = recent then begin
              resolved := [];
              n_resolved := 0
            end;
            resolved := (v, c) :: !resolved;
            incr n_resolved;
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
  { t with codes = sub_codes scratch 0 !m }

let take t indices = { t with codes = gather t.codes indices }

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
