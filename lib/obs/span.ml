type ctx = { trace_id : int; span_id : int }

let null = { trace_id = 0; span_id = 0 }
let is_null c = c.span_id = 0

module Decimal = Tacoma_util.Decimal

let to_string c =
  let nt = Decimal.length c.trace_id in
  let b = Bytes.create (nt + Decimal.length c.span_id + 3) in
  Bytes.unsafe_set b 0 't';
  Decimal.write b nt c.trace_id;
  Bytes.unsafe_set b (nt + 1) '.';
  Bytes.unsafe_set b (nt + 2) 's';
  Decimal.write b (Bytes.length b - 1) c.span_id;
  Bytes.unsafe_to_string b

(* The positive decimal number in [s.[i], s.[stop]), or [-1] when that
   range is empty, holds a non-digit or overflows. *)
let positive s i stop =
  let rec go i acc =
    if i = stop then acc
    else
      match s.[i] with
      | '0' .. '9' as ch ->
        let d = Char.code ch - 48 in
        if acc > (max_int - d) / 10 then -1 else go (i + 1) ((acc * 10) + d)
      | _ -> -1
  in
  if i >= stop then -1 else go i 0

(* the index of the first '.' in [s], or [-1] *)
let rec dot_index s i = if i = String.length s then -1 else if s.[i] = '.' then i else dot_index s (i + 1)

let parse s =
  let n = String.length s and dot = dot_index s 0 in
  if dot >= 0 && n > dot + 2 && s.[0] = 't' && s.[dot + 1] = 's' then
    let trace_id = positive s 1 dot and span_id = positive s (dot + 2) n in
    if trace_id > 0 && span_id > 0 then { trace_id; span_id } else null
  else null

let of_string s =
  let c = parse s in
  if is_null c then None else Some c

let pp fmt c = Format.pp_print_string fmt (to_string c)
