(* In-memory span store for the traced mode.

   Spans are recorded by the benchmark's own code around calls into the
   libraries: one root span per unit, one span per [Engine.step] where the
   benchmark drives the engine itself, and [run_code] / [migrate] spans that
   open inside the step they run in.  With [enabled] false nothing is
   recorded and no timestamp is taken. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type kind = Unit | Step | Run_code | Migrate

let kind_name = function
  | Unit -> "unit"
  | Step -> "step"
  | Run_code -> "run_code"
  | Migrate -> "migrate"

let kind_of_int = function 0 -> Unit | 1 -> Step | 2 -> Run_code | _ -> Migrate
let int_of_kind = function Unit -> 0 | Step -> 1 | Run_code -> 2 | Migrate -> 3

let enabled = ref false

type store = {
  mutable n : int;
  mutable kinds : int array;
  mutable starts : int array;
  mutable stops : int array;
  mutable parents : int array;
  mutable current : int;  (** innermost open span, or -1 *)
}

let store =
  { n = 0; kinds = [||]; starts = [||]; stops = [||]; parents = [||]; current = -1 }

let grow () =
  let cap = max 4096 (2 * Array.length store.kinds) in
  let extend a = Array.append a (Array.make (cap - Array.length a) 0) in
  store.kinds <- extend store.kinds;
  store.starts <- extend store.starts;
  store.stops <- extend store.stops;
  store.parents <- extend store.parents

let clear () =
  store.n <- 0;
  store.current <- -1

let open_span kind =
  if store.n = Array.length store.kinds then grow ();
  let i = store.n in
  store.n <- i + 1;
  store.kinds.(i) <- int_of_kind kind;
  store.parents.(i) <- store.current;
  store.current <- i;
  store.starts.(i) <- now_ns ();
  i

let close_span i =
  store.stops.(i) <- now_ns ();
  store.current <- store.parents.(i)

(* [f ()] under a span of [kind] when tracing is on; a plain call when off. *)
let within kind f =
  if not !enabled then f ()
  else begin
    let i = open_span kind in
    match f () with
    | v ->
      close_span i;
      v
    | exception e ->
      close_span i;
      raise e
  end

type summary = {
  total_ns : int array;  (** summed duration, by kind *)
  self_ns : int array;   (** summed self time (duration minus children) *)
  count : int array;
}

let summarize () =
  let n = store.n in
  let child = Array.make n 0 in
  for i = 0 to n - 1 do
    let p = store.parents.(i) in
    if p >= 0 then child.(p) <- child.(p) + (store.stops.(i) - store.starts.(i))
  done;
  let total_ns = Array.make 4 0 and self_ns = Array.make 4 0 and count = Array.make 4 0 in
  for i = 0 to n - 1 do
    let k = store.kinds.(i) and d = store.stops.(i) - store.starts.(i) in
    total_ns.(k) <- total_ns.(k) + d;
    self_ns.(k) <- self_ns.(k) + (d - child.(i));
    count.(k) <- count.(k) + 1
  done;
  { total_ns; self_ns; count }

let total s kind = s.total_ns.(int_of_kind kind)
let self s kind = s.self_ns.(int_of_kind kind)
let count s kind = s.count.(int_of_kind kind)

(* Chrome trace-event JSON of the spans currently held, at most 200 000
   (complete "X" events; [args.parent] is the parent span's index). *)
let write_chrome path =
  let oc = open_out path in
  let n = min 200_000 store.n in
  let t0 = if n > 0 then store.starts.(0) else 0 in
  output_string oc "{\"traceEvents\":[";
  for i = 0 to n - 1 do
    if i > 0 then output_char oc ',';
    Printf.fprintf oc
      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d}}"
      (kind_name (kind_of_int store.kinds.(i)))
      (float_of_int (store.starts.(i) - t0) /. 1e3)
      (float_of_int (store.stops.(i) - store.starts.(i)) /. 1e3)
      i store.parents.(i)
  done;
  Printf.fprintf oc "],\"spans_held\":%d,\"spans_written\":%d}\n" store.n n;
  close_out oc
