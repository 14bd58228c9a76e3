(* Head-first list with a tail pointer emulated by keeping both ends:
   elements before [back] reversed.  Classic two-list queue, which also
   serves stack use at the front. *)
type t = {
  mutable front : string list; (* head first *)
  mutable back : string list;  (* tail first *)
  mutable len : int;
  mutable bytes : int;
}

let create () = { front = []; back = []; len = 0; bytes = 0 }

let of_list l =
  { front = l; back = []; len = List.length l; bytes = List.fold_left (fun a s -> a + String.length s) 0 l }

let normalize t =
  if t.front = [] && t.back <> [] then begin
    t.front <- List.rev t.back;
    t.back <- []
  end

(* shares [front] when nothing is queued at the back: lists are immutable *)
let to_list t = if t.back = [] then t.front else t.front @ List.rev t.back
let copy t = { front = t.front; back = t.back; len = t.len; bytes = t.bytes }
let length t = t.len
let is_empty t = t.len = 0

let push t x =
  t.front <- x :: t.front;
  t.len <- t.len + 1;
  t.bytes <- t.bytes + String.length x

let pop t =
  normalize t;
  match t.front with
  | [] -> None
  | x :: rest ->
    t.front <- rest;
    t.len <- t.len - 1;
    t.bytes <- t.bytes - String.length x;
    Some x

let peek t =
  normalize t;
  match t.front with [] -> None | x :: _ -> Some x

let first t =
  normalize t;
  match t.front with [] -> raise Not_found | x :: _ -> x

let enqueue t x =
  t.back <- x :: t.back;
  t.len <- t.len + 1;
  t.bytes <- t.bytes + String.length x

let dequeue = pop

let clear t =
  t.front <- [];
  t.back <- [];
  t.len <- 0;
  t.bytes <- 0

let replace t l =
  clear t;
  t.front <- l;
  t.len <- List.length l;
  t.bytes <- List.fold_left (fun a s -> a + String.length s) 0 l

let nth_opt t i = if i < 0 || i >= t.len then None else List.nth_opt (to_list t) i
let nth = nth_opt
let contains t x = List.mem x t.front || List.mem x t.back
let iter f t = List.iter f (to_list t)
let fold f init t = List.fold_left f init (to_list t)
let byte_size t = t.bytes
