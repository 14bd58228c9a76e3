(* [buf] stays empty until the first push: a disabled flight recorder
   never pays for its capacity. *)
type 'a t = {
  cap : int;
  mutable buf : 'a option array;
  mutable start : int; (* index of the oldest element *)
  mutable len : int;
  mutable evicted : int;
}

let create capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { cap = capacity; buf = [||]; start = 0; len = 0; evicted = 0 }

let capacity t = t.cap
let length t = t.len
let evicted t = t.evicted

let push t x =
  let cap = t.cap in
  if Array.length t.buf = 0 then t.buf <- Array.make cap None;
  if t.len = cap then begin
    (* overwrite the oldest slot and advance the window *)
    t.buf.(t.start) <- Some x;
    t.start <- (t.start + 1) mod cap;
    t.evicted <- t.evicted + 1
  end
  else begin
    t.buf.((t.start + t.len) mod cap) <- Some x;
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
  Array.fill t.buf 0 (Array.length t.buf) None;
  t.start <- 0;
  t.len <- 0;
  t.evicted <- 0
