(* [buf] starts empty and doubles from [min_slots] up to [cap] as elements
   arrive, so a recorder that sees a few events never pays for its
   capacity.  Until the ring first fills, the elements sit at [0, len);
   after that it wraps and [start] advances with every eviction. *)
type 'a t = {
  cap : int;
  mutable buf : 'a option array;
  mutable start : int; (* index of the oldest element *)
  mutable len : int;
  mutable evicted : int;
}

let min_slots = 64

let create capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { cap = capacity; buf = [||]; start = 0; len = 0; evicted = 0 }

let capacity t = t.cap
let length t = t.len
let evicted t = t.evicted

let grow t =
  let size = min t.cap (max min_slots (2 * Array.length t.buf)) in
  let buf = Array.make size None in
  Array.blit t.buf 0 buf 0 t.len;
  t.buf <- buf

let push t x =
  let cap = t.cap in
  if t.len = cap then begin
    (* overwrite the oldest slot and advance the window *)
    t.buf.(t.start) <- Some x;
    t.start <- (t.start + 1) mod cap;
    t.evicted <- t.evicted + 1
  end
  else begin
    if t.len = Array.length t.buf then grow t;
    t.buf.(t.len) <- Some x;
    t.len <- t.len + 1
  end

let iter f t =
  let cap = t.cap in
  for i = 0 to t.len - 1 do
    match t.buf.((t.start + i) mod cap) with
    | Some x -> f x
    | None -> assert false
  done

let to_list t =
  let acc = ref [] in
  iter (fun x -> acc := x :: !acc) t;
  List.rev !acc

let clear t =
  t.buf <- [||];
  t.start <- 0;
  t.len <- 0;
  t.evicted <- 0
