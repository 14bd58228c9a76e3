(* Reference work, interleaved with the measured code.

   On a shared host, neighbours' memory traffic slows allocation-heavy code
   by up to 2x in phases that last from seconds to minutes, longer than a
   run.  No fastest-of-N survives a phase that long.  So the benchmark runs
   a fixed chunk of reference work after every few milliseconds of measured
   work, and reports each time scaled by how slow the chunks run next to it
   were: [time * nominal_chunk_ns / measured chunk time].  The chunk uses
   only the standard library and does what the workloads do most (short
   lived lists, strings, hash tables and maps), so a phase slows both alike
   and the scaled time stays put while the raw time swings. *)

module IM = Map.Make (Int)

let chunk () =
  let env = Hashtbl.create 64 and acc = ref 0 in
  for i = 0 to 150 do
    let k = "v" ^ string_of_int (i land 63) in
    let v = Option.value ~default:0 (Hashtbl.find_opt env k) in
    let l = List.init 8 (fun j -> v + i + j) in
    let s = String.concat " " (List.map string_of_int l) in
    Hashtbl.replace env k ((String.length s + List.fold_left ( + ) 0 l) land 0xffff);
    acc := !acc + String.length s
  done;
  let m = ref IM.empty in
  for i = 0 to 150 do
    m := IM.add ((i * 7919) land 4095) (string_of_int i) !m
  done;
  IM.iter (fun k v -> acc := !acc + k + String.length v) !m;
  ignore (Sys.opaque_identity !acc)

(* A chunk's time on a quiet host; scaled times read in its seconds. *)
let nominal_chunk_ns = 200_000.0

(* One chunk per this much measured work, about a tenth on top. *)
let work_per_chunk_ns = 2_000_000

(* Words allocated so far.  [Gc.counters]' minor count only moves at a
   minor collection; [Gc.minor_words] is exact.  Promoted words count in
   the major count too, so major - promoted is what was allocated there. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* A meter times segments of measured work, counts the words they
   allocate, and runs the chunks they owe between them. *)
type t = {
  mutable mark : int;  (** start of the open segment *)
  mutable words_mark : int;
  mutable measured_ns : int;  (** closed segments, chunks left out *)
  mutable measured_words : int;
  mutable owed_ns : int;  (** measured work not yet paid for with chunks *)
  mutable ref_ns : int;
  mutable chunks : int;
}

let create () =
  {
    mark = 0;
    words_mark = 0;
    measured_ns = 0;
    measured_words = 0;
    owed_ns = 0;
    ref_ns = 0;
    chunks = 0;
  }

let start m =
  m.words_mark <- int_of_float (alloc_words ());
  m.mark <- Spans.now_ns ()

let stop m =
  let d = Spans.now_ns () - m.mark in
  m.measured_words <- m.measured_words + (int_of_float (alloc_words ()) - m.words_mark);
  m.measured_ns <- m.measured_ns + d;
  m.owed_ns <- m.owed_ns + d

let run_chunks m n =
  let t0 = Spans.now_ns () in
  for _ = 1 to n do
    chunk ()
  done;
  m.chunks <- m.chunks + n;
  m.ref_ns <- m.ref_ns + (Spans.now_ns () - t0)

(* Run the chunks the closed segments owe. *)
let settle m =
  let n = m.owed_ns / work_per_chunk_ns in
  if n > 0 then begin
    m.owed_ns <- m.owed_ns - (n * work_per_chunk_ns);
    run_chunks m n
  end

(* Inside a measured call: close the segment, settle, open the next.
   Workloads whose unit is one long call pause between slices of it. *)
let pause m =
  stop m;
  settle m;
  start m

(* Mean chunk time, ns. *)
let chunk_ns m = float_of_int m.ref_ns /. float_of_int m.chunks

(* The factor that turns this meter's raw times into scaled ones. *)
let scale m = nominal_chunk_ns /. chunk_ns m
