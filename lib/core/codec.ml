exception Malformed of string

let max_u32 = 0xFFFF_FFFF

let put_u32 buf pos n =
  if n < 0 then raise (Malformed "negative length");
  if n > max_u32 then raise (Malformed "length exceeds 32 bits");
  Bytes.set_int32_be buf pos (Int32.of_int n);
  pos + 4

let put_string buf pos s =
  let len = String.length s in
  let pos = put_u32 buf pos len in
  Bytes.blit_string s 0 buf pos len;
  pos + len

let rec put_elements buf pos = function
  | [] -> pos
  | s :: rest -> put_elements buf (put_string buf pos s) rest

let put_strings buf pos l = put_elements buf (put_u32 buf pos (List.length l)) l

type reader = { src : string; mutable pos : int }

let reader src = { src; pos = 0 }

let read_u32 r =
  if r.pos + 4 > String.length r.src then raise (Malformed "truncated length");
  let n = Int32.to_int (String.get_int32_be r.src r.pos) land max_u32 in
  r.pos <- r.pos + 4;
  n

let read_string r =
  let n = read_u32 r in
  if n > String.length r.src - r.pos then raise (Malformed "truncated string");
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

(* not tail-recursive: the depth is bounded by the count check in
   [read_strings], and the list is built in order without a reversal *)
let rec read_elements r k =
  if k = 0 then []
  else
    let s = read_string r in
    s :: read_elements r (k - 1)

let read_strings r =
  let n = read_u32 r in
  if n > String.length r.src - r.pos then raise (Malformed "implausible count");
  read_elements r n

let at_end r = r.pos >= String.length r.src
let encoded_size s = 4 + String.length s
