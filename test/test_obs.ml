(* Flight recorder: event storage, histogram math, metrics registry, JSON
   exporters, and end-to-end causal span propagation through the kernel. *)

module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase

(* ---- recorder storage ----------------------------------------------------- *)

(* instants named by their first string argument *)
let named : Obs.Desc.t = { name = [ Str 0 ]; cat = ""; msg = []; attrs = [] }

let instant_named tr name =
  Obs.Tracer.instant_strs tr named ~time:0.0 ~span:Obs.Span.null ~site:(-1) ~agent:"" name "" 0 0

let instant_names tr names = List.iter (instant_named tr) names
let event_names tr = List.map (fun (e : Obs.Event.t) -> e.name) (Obs.Tracer.events tr)

let test_ring_eviction_order () =
  let tr = Obs.Tracer.create ~capacity:3 ~enabled:true () in
  instant_names tr [ "1"; "2"; "3"; "4"; "5" ];
  Alcotest.(check (list string)) "oldest evicted first" [ "3"; "4"; "5" ] (event_names tr);
  Alcotest.(check (list int)) "sequence numbers survive eviction" [ 2; 3; 4 ]
    (List.map (fun (e : Obs.Event.t) -> e.seq) (Obs.Tracer.events tr));
  Alcotest.(check int) "length capped" 3 (Obs.Tracer.length tr);
  Alcotest.(check int) "evicted count" 2 (Obs.Tracer.evicted tr);
  Obs.Tracer.clear tr;
  Alcotest.(check (list string)) "clear empties" [] (event_names tr);
  Alcotest.(check int) "clear resets evicted" 0 (Obs.Tracer.evicted tr);
  instant_names tr [ "9" ];
  Alcotest.(check (list string)) "usable after clear" [ "9" ] (event_names tr)

let test_ring_partial_fill () =
  let tr = Obs.Tracer.create ~capacity:8 ~enabled:true () in
  instant_names tr [ "1"; "2"; "3" ];
  Alcotest.(check (list string)) "insertion order" [ "1"; "2"; "3" ] (event_names tr);
  Alcotest.(check int) "nothing evicted" 0 (Obs.Tracer.evicted tr)

(* Words allocated by [f ()], minor and major heap alike.  The major count
   includes every word a minor collection promotes, which the minor count
   already holds, so the promoted words are taken off once.
   [Gc.minor_words] is exact where [Gc.counters]' minor count only moves
   at a collection. *)
let words_allocated f =
  let allocated () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let before = allocated () in
  let x = f () in
  (x, allocated () -. before)

(* The recorder's storage is made by its first event: a simulation with
   tracing off never pays for it, and a traced one pays for one chunk of
   slots on its first record, whatever its 65 536-event capacity. *)
let test_ring_allocated_on_first_event () =
  let ring_words = 65536.0 in
  let _, untraced =
    words_allocated (fun () -> Netsim.Net.create (Netsim.Topology.line 4))
  in
  Alcotest.(check bool)
    (Printf.sprintf "untraced Net.create allocates no ring (%.0f words)" untraced)
    true (untraced < ring_words /. 4.0);
  let net, traced =
    words_allocated (fun () -> Netsim.Net.create ~trace:true (Netsim.Topology.line 4))
  in
  Alcotest.(check bool) "traced Net.create defers its ring too" true
    (traced < ring_words /. 4.0);
  let tr = Netsim.Net.recorder net in
  let (), first = words_allocated (fun () -> instant_named tr "first") in
  Alcotest.(check bool) "the first event allocates fewer than 1 024 words" true (first < 1024.0);
  Alcotest.(check int) "first event kept" 1 (Obs.Tracer.length tr);
  let small = Obs.Tracer.create ~capacity:3 ~enabled:true () in
  instant_names small [ "a"; "b"; "c"; "d"; "e" ];
  Alcotest.(check (list string)) "capacity bounds the ring" [ "c"; "d"; "e" ]
    (List.map (fun (e : Obs.Event.t) -> e.name) (Obs.Tracer.events small));
  Alcotest.(check int) "evictions counted" 2 (Obs.Tracer.evicted small)

(* A list-based model of the recorder: the same span-id allocation, and a
   queue of fully built events that drops its oldest beyond [cap].  Random
   programs of spans, instants and one clear must leave the recorder and
   the model with the same events, length, eviction count and sequence
   numbers, at every capacity from 1 to 300, so each run crosses the
   storage's chunk boundaries and wraps around it.  The model renders its
   events with [Printf] from the arguments, not from the descriptor. *)
type model = {
  cap : int;
  q : Obs.Event.t Queue.t;
  mutable m_evicted : int;
  mutable m_seq : int;
  mutable m_trace : int;
  mutable m_span : int;
}

let model_record m (e : Obs.Event.t) =
  Queue.push { e with seq = m.m_seq } m.q;
  m.m_seq <- m.m_seq + 1;
  if Queue.length m.q > m.cap then begin
    ignore (Queue.pop m.q);
    m.m_evicted <- m.m_evicted + 1
  end

let model_clear m =
  Queue.clear m.q;
  m.m_evicted <- 0;
  m.m_seq <- 0;
  m.m_trace <- 1;
  m.m_span <- 1

let blank : Obs.Event.t =
  {
    seq = 0;
    time = 0.0;
    kind = Obs.Event.Instant;
    name = "";
    cat = "";
    site = -1;
    agent = "";
    span = Obs.Span.null;
    parent_id = 0;
    msg = "";
    attrs = [];
  }

(* One descriptor that reads every argument, in every kind of place. *)
let every_arg : Obs.Desc.t =
  {
    name = [ Text "ev"; Int 2 ];
    cat = "net";
    msg =
      [ Text "m "; Site; Text " "; Agent; Text " "; Float 1; Text " "; Str 1; Text " "; Pair (0, 1) ];
    attrs =
      [
        ("i", Int 0); ("f", Float 0); ("s", Str 0); ("site", Site); ("a", Agent); ("k", Text "c");
        ("p", Pair (0, 1));
      ];
  }

type args = { i0 : int; i1 : int; i2 : int; f0 : float; f1 : float; s0 : string; s1 : string }

let no_args = { i0 = 0; i1 = 0; i2 = 0; f0 = 0.0; f1 = 0.0; s0 = ""; s1 = "" }

(* [every_arg]'s event, written out by hand *)
let model_every_arg (e : Obs.Event.t) a =
  {
    e with
    name = "ev" ^ string_of_int a.i2;
    cat = "net";
    msg = Printf.sprintf "m %d %s %g %s %d-%d" e.site e.agent a.f1 a.s1 a.i0 a.i1;
    attrs =
      [
        ("i", Obs.Event.I a.i0); ("f", F a.f0); ("s", S a.s0); ("site", I e.site);
        ("a", S e.agent); ("k", S "c"); ("p", S (Printf.sprintf "%d-%d" a.i0 a.i1));
      ];
  }

let random_args rng =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let int () = Random.State.int rng 2000 - 1000 in
  let float () = pick [| 0.0; 0.25; -1.5; 1e-7; Random.State.float rng 10.0 |] in
  let str () = pick [| "loss"; "site-down"; ""; "a \"quoted\"\nline" |] in
  { i0 = int (); i1 = int (); i2 = int (); f0 = float (); f1 = float (); s0 = str (); s1 = str () }

let check_model ~cap tr m =
  let ctx = Printf.sprintf "capacity %d, after %d events: " cap m.m_seq in
  Alcotest.(check int) (ctx ^ "length") (Queue.length m.q) (Obs.Tracer.length tr);
  Alcotest.(check int) (ctx ^ "evicted") m.m_evicted (Obs.Tracer.evicted tr);
  let events = Obs.Tracer.events tr in
  Alcotest.(check (list int))
    (ctx ^ "seq")
    (List.map (fun (e : Obs.Event.t) -> e.seq) (List.of_seq (Queue.to_seq m.q)))
    (List.map (fun (e : Obs.Event.t) -> e.seq) events);
  Alcotest.(check bool) (ctx ^ "events") true (List.of_seq (Queue.to_seq m.q) = events)

let run_model_program rng ~cap =
  let tr = Obs.Tracer.create ~capacity:cap ~enabled:true () in
  let m =
    { cap; q = Queue.create (); m_evicted = 0; m_seq = 0; m_trace = 1; m_span = 1 }
  in
  let live = ref [] in
  let pick_span () =
    match !live with
    | [] -> Obs.Span.null
    | l -> List.nth l (Random.State.int rng (List.length l))
  in
  (* one clear, early enough that the recorder still wraps after it *)
  let clear_at = 1 + Random.State.int rng cap in
  for step = 1 to (3 * cap) + 40 do
    let time = float_of_int step +. Random.State.float rng 1.0 in
    let site = Random.State.int rng 6 - 1 in
    let agent = if Random.State.bool rng then "" else "ag" ^ string_of_int (Random.State.int rng 3) in
    let a = random_args rng in
    let base = { blank with time; site } in
    (match if step = clear_at then 100 else Random.State.int rng 100 with
    | r when r < 30 ->
      let parent = pick_span () in
      let span = Obs.Tracer.open_span tr every_arg ~time ~parent ~site ~agent a.s0 a.i0 in
      let span_id = m.m_span in
      m.m_span <- span_id + 1;
      let trace_id, parent_id =
        if Obs.Span.is_null parent then begin
          let tid = m.m_trace in
          m.m_trace <- tid + 1;
          (tid, 0)
        end
        else (parent.trace_id, parent.span_id)
      in
      Alcotest.(check (pair int int)) "span ids as the model allocates them"
        (trace_id, span_id) (span.trace_id, span.span_id);
      model_record m
        (model_every_arg
           { base with kind = Begin; agent; span; parent_id }
           { no_args with s0 = a.s0; i0 = a.i0 });
      live := span :: !live
    | r when r < 50 ->
      let span = pick_span () in
      Obs.Tracer.close_span tr every_arg ~time ~site ~agent span a.s0;
      if not (Obs.Span.is_null span) then
        model_record m
          (model_every_arg { base with kind = End; agent; span } { no_args with s0 = a.s0 })
    | r when r < 65 ->
      let span = if Random.State.bool rng then pick_span () else Obs.Span.null in
      Obs.Tracer.instant_strs tr every_arg ~time ~span ~site ~agent a.s0 a.s1 a.i0 a.i1;
      model_record m
        (model_every_arg { base with agent; span }
           { no_args with s0 = a.s0; s1 = a.s1; i0 = a.i0; i1 = a.i1 })
    | r when r < 80 ->
      Obs.Tracer.instant_ints tr every_arg ~time ~site a.i0 a.i1 a.i2;
      model_record m (model_every_arg base { no_args with i0 = a.i0; i1 = a.i1; i2 = a.i2 })
    | r when r < 95 ->
      Obs.Tracer.instant_nums tr every_arg ~time ~site a.i0 a.i1 a.f0 a.f1;
      model_record m
        (model_every_arg base { no_args with i0 = a.i0; i1 = a.i1; f0 = a.f0; f1 = a.f1 })
    | r when r < 100 ->
      Obs.Tracer.instant tr every_arg ~time ~site;
      model_record m (model_every_arg base no_args)
    | _ ->
      check_model ~cap tr m;
      Obs.Tracer.clear tr;
      model_clear m;
      live := []);
    if Random.State.int rng 16 = 0 then check_model ~cap tr m
  done;
  check_model ~cap tr m;
  Alcotest.(check bool) (Printf.sprintf "capacity %d wrapped" cap) true (Obs.Tracer.evicted tr > 0)

let test_recorder_model () =
  let rng = Random.State.make [| 0x7ace |] in
  for cap = 1 to 300 do
    run_model_program rng ~cap
  done;
  (* a disabled recorder records nothing and hands out no ids *)
  let off = Obs.Tracer.create ~capacity:4 () in
  let span = Obs.Tracer.start_span off ~time:0.0 "x" in
  instant_named off "y";
  Alcotest.(check bool) "disabled: null span" true (Obs.Span.is_null span);
  Alcotest.(check int) "disabled: nothing kept" 0 (Obs.Tracer.length off)

(* The TRACE folder's wire form is built and read without Printf or
   substrings; it must stay exactly what [Printf "t%d.s%d"] wrote. *)
let test_span_wire_form () =
  let rng = Random.State.make [| 0x5ba7 |] in
  let ids =
    [ 1; 9; 10; 99; 100; 12_345; max_int ]
    @ List.init 200 (fun _ -> 1 + Random.State.int rng 1_000_000_000)
  in
  List.iter
    (fun trace_id ->
      List.iter
        (fun span_id ->
          let c = { Obs.Span.trace_id; span_id } in
          let s = Obs.Span.to_string c in
          Alcotest.(check string) "same bytes as printf" (Printf.sprintf "t%d.s%d" trace_id span_id) s;
          Alcotest.(check bool) ("reads back " ^ s) true (Obs.Span.of_string s = Some c))
        [ 1; 17; (trace_id * 7919) land 0xffffff + 1 ])
    ids;
  Alcotest.(check string) "null" "t0.s0" (Obs.Span.to_string Obs.Span.null);
  Alcotest.(check string) "negative ids as printf" "t-3.s-4"
    (Obs.Span.to_string { Obs.Span.trace_id = -3; span_id = -4 });
  Alcotest.(check bool) "leading zeros" true
    (Obs.Span.of_string "t007.s08" = Some { Obs.Span.trace_id = 7; span_id = 8 });
  List.iter
    (fun s -> Alcotest.(check bool) ("rejects " ^ s) true (Obs.Span.of_string s = None))
    [
      ""; "t"; "t1"; "t.s1"; "t1.s"; "t1.s0"; "t0.s1"; "x1.s2"; "t1.x2"; "t1.s2.3"; "t-1.s2";
      "t1.s-2"; "t+1.s2"; "t0x1.s2"; "t1_0.s2"; "t1.s2 "; "t99999999999999999999.s1";
      "t1.s9223372036854775808";
    ]

let test_span_wire_decimal =
  let id = QCheck2.Gen.(oneof [ int_range 1 2_000; int_range 1 10_000_000; int_range 1 max_int ]) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"matches string_of_int"
       ~print:(fun (t, s) -> Printf.sprintf "trace %d, span %d" t s)
       (QCheck2.Gen.pair id id)
       (fun (trace_id, span_id) ->
         Obs.Span.to_string { Obs.Span.trace_id; span_id }
         = "t" ^ string_of_int trace_id ^ ".s" ^ string_of_int span_id))

(* ---- histogram ------------------------------------------------------------ *)

let feq = Alcotest.float 1e-9

let test_hist_percentiles () =
  (* 4 equal buckets of 10 observations each: the percentile math is exact *)
  let h = Obs.Hist.create ~bounds:[| 10.0; 20.0; 30.0; 40.0 |] () in
  for i = 1 to 40 do
    Obs.Hist.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 40 (Obs.Hist.count h);
  Alcotest.check feq "mean" 20.5 (Obs.Hist.mean h);
  Alcotest.check feq "min" 1.0 (Obs.Hist.min_value h);
  Alcotest.check feq "max" 40.0 (Obs.Hist.max_value h);
  Alcotest.check feq "p50 at bucket edge" 20.0 (Obs.Hist.percentile h 50.0);
  Alcotest.check feq "p90 interpolated" 36.0 (Obs.Hist.percentile h 90.0);
  Alcotest.check feq "p100 clamps to max" 40.0 (Obs.Hist.percentile h 100.0);
  (* rank 1 of 10 inside [min, 10] *)
  Alcotest.check feq "p0 near min" 1.9 (Obs.Hist.percentile h 0.0)

let test_hist_single_value () =
  let h = Obs.Hist.create () in
  Obs.Hist.observe h 0.25;
  List.iter
    (fun p ->
      Alcotest.check feq (Printf.sprintf "p%g is the value" p) 0.25 (Obs.Hist.percentile h p))
    [ 0.0; 50.0; 99.0; 100.0 ];
  Alcotest.check feq "empty histogram is 0" 0.0 (Obs.Hist.percentile (Obs.Hist.create ()) 50.0)

let test_hist_overflow_bucket () =
  let h = Obs.Hist.create ~bounds:[| 1.0 |] () in
  Obs.Hist.observe h 100.0;
  Obs.Hist.observe h 200.0;
  Alcotest.check feq "overflow p99 clamps to max" 200.0 (Obs.Hist.percentile h 99.0);
  Alcotest.(check int) "two buckets listed" 1 (List.length (Obs.Hist.buckets h))

(* ---- histogram against a list model ---------------------------------------- *)

(* The bucket rule: the first bound that admits [x] ([x <= bound]); NaN and
   values past the last bound go to the overflow bucket, index [n]. *)
let model_bucket bounds x =
  let n = Array.length bounds in
  match List.find_opt (fun i -> x <= bounds.(i)) (List.init n Fun.id) with
  | Some i -> i
  | None -> n

(* min and max ignore NaN; with no other value they stay at their start *)
let model_min xs = List.fold_left Float.min infinity (List.filter (fun x -> not (Float.is_nan x)) xs)
let model_max xs = List.fold_left Float.max neg_infinity (List.filter (fun x -> not (Float.is_nan x)) xs)

let model_buckets bounds xs =
  let n = Array.length bounds in
  List.filter_map
    (fun i ->
      match List.length (List.filter (fun x -> model_bucket bounds x = i) xs) with
      | 0 -> None
      | c -> Some ((if i = n then infinity else bounds.(i)), c))
    (List.init (n + 1) Fun.id)

(* nearest rank; the value interpolated by rank inside the rank's bucket,
   whose edges are clamped to the observed min and max *)
let model_percentile bounds xs p =
  let count = List.length xs in
  if count = 0 then 0.0
  else begin
    let n = Array.length bounds in
    let min_v = model_min xs and max_v = model_max xs in
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let rank = max 1 (min count (int_of_float (ceil (p /. 100.0 *. float_of_int count)))) in
    let idx = List.sort compare (List.map (model_bucket bounds) xs) in
    let i = List.nth idx (rank - 1) in
    let below = List.length (List.filter (fun j -> j < i) idx) in
    let inside = List.length (List.filter (fun j -> j = i) idx) in
    let lo = Float.max (if i = 0 then min_v else bounds.(i - 1)) min_v in
    let hi = Float.min (if i = n then max_v else bounds.(i)) max_v in
    if hi <= lo then hi
    else lo +. (float_of_int (rank - below) /. float_of_int inside *. (hi -. lo))
  end

let hist_case_gen =
  let open QCheck2.Gen in
  let* bounds =
    oneof
      [
        (* the documented default: 1e-6 up by factors of 4, 23 bounds *)
        return (Array.init 23 (fun i -> 1e-6 *. (4.0 ** float_of_int i)));
        map
          (fun l -> Array.of_list (List.sort_uniq Float.compare l))
          (list_size (1 -- 6) (float_range (-100.0) 100.0));
      ]
  in
  let n = Array.length bounds in
  let value =
    frequency
      [
        (3, map (fun i -> bounds.(i)) (0 -- (n - 1)));
        (1, map (fun d -> bounds.(0) -. d) (float_range 0.001 10.0));
        (1, map (fun d -> bounds.(n - 1) +. d) (float_range 0.001 10.0));
        (1, oneofl [ infinity; neg_infinity; Float.nan ]);
        (3, float_range (bounds.(0) -. 1.0) (bounds.(n - 1) +. 1.0));
      ]
  in
  let* xs = list_size (0 -- 40) value in
  let* ps = list_size (1 -- 4) (float_range 0.0 100.0) in
  return (bounds, xs, [ 0.0; 1.0; 50.0; 90.0; 99.0; 100.0 ] @ ps)

let print_hist_case (bounds, xs, ps) =
  let fl l = String.concat "; " (List.map (Printf.sprintf "%.17g") l) in
  Printf.sprintf "bounds [%s]\nvalues [%s]\npercentiles [%s]" (fl (Array.to_list bounds)) (fl xs)
    (fl ps)

let test_hist_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"matches a list model" ~print:print_hist_case
       hist_case_gen (fun (bounds, xs, ps) ->
         let h = Obs.Hist.create ~bounds () in
         List.iter (Obs.Hist.observe h) xs;
         let count = List.length xs in
         let sum = List.fold_left ( +. ) 0.0 xs in
         let nonempty v = if count = 0 then 0.0 else v in
         let same what a b =
           Float.equal a b || QCheck2.Test.fail_reportf "%s: hist %h, model %h" what a b
         in
         Obs.Hist.count h = count
         && same "sum" (Obs.Hist.sum h) sum
         && same "mean" (Obs.Hist.mean h) (nonempty (sum /. float_of_int count))
         && same "min" (Obs.Hist.min_value h) (nonempty (model_min xs))
         && same "max" (Obs.Hist.max_value h) (nonempty (model_max xs))
         && (Obs.Hist.buckets h = model_buckets bounds xs
            || QCheck2.Test.fail_report "buckets differ")
         && List.for_all
              (fun p ->
                same (Printf.sprintf "p%g" p) (Obs.Hist.percentile h p)
                  (model_percentile bounds xs p))
              ps))

(* ---- metrics registry ----------------------------------------------------- *)

let test_metrics_counters () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "hits";
  Obs.Metrics.incr m ~by:4 "hits";
  Alcotest.(check int) "unlabelled counter" 5 (Obs.Metrics.counter m "hits");
  Obs.Metrics.incr m ~labels:[ ("site", "a"); ("op", "put") ] "ops";
  Obs.Metrics.incr m ~labels:[ ("op", "put"); ("site", "a") ] "ops";
  Obs.Metrics.incr m ~labels:[ ("op", "get"); ("site", "a") ] "ops";
  Alcotest.(check int) "label order canonicalised" 2
    (Obs.Metrics.counter m ~labels:[ ("site", "a"); ("op", "put") ] "ops");
  Alcotest.(check int) "total across label sets" 3 (Obs.Metrics.counter_total m "ops");
  Alcotest.(check int) "missing series is 0" 0 (Obs.Metrics.counter m "absent")

let test_metrics_kinds () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.observe m "lat" 0.5;
  Obs.Metrics.observe m "lat" 1.5;
  (match Obs.Metrics.histogram m "lat" with
  | Some h -> Alcotest.(check int) "histogram count" 2 (Obs.Hist.count h)
  | None -> Alcotest.fail "histogram series missing");
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Metrics: \"lat\" is not a counter") (fun () ->
      Obs.Metrics.incr m "lat")

let test_metrics_handles () =
  let m = Obs.Metrics.create () in
  let series () = Format.asprintf "%a" Obs.Metrics.pp m in
  let hits = Obs.Metrics.counter_handle m ~labels:[ ("link", "0-1") ] "hits" in
  let lat = Obs.Metrics.histogram_handle m "lat" in
  Alcotest.(check string) "creating handles registers nothing" "" (series ());
  Obs.Metrics.bump hits 3;
  Obs.Metrics.incr m ~labels:[ ("link", "0-1") ] ~by:2 "hits";
  Obs.Metrics.bump hits 1;
  Alcotest.(check int) "handle and name share the series" 6
    (Obs.Metrics.counter m ~labels:[ ("link", "0-1") ] "hits");
  Obs.Metrics.record lat 0.5;
  Obs.Metrics.observe m "lat" 1.5;
  (match Obs.Metrics.histogram m "lat" with
  | Some h -> Alcotest.(check int) "histogram count" 2 (Obs.Hist.count h)
  | None -> Alcotest.fail "histogram series missing");
  (* the same updates by name leave an identical registry *)
  let by_name = Obs.Metrics.create () in
  Obs.Metrics.incr by_name ~labels:[ ("link", "0-1") ] ~by:6 "hits";
  Obs.Metrics.observe by_name "lat" 0.5;
  Obs.Metrics.observe by_name "lat" 1.5;
  Alcotest.(check string) "same dump as by name"
    (Format.asprintf "%a" Obs.Metrics.pp by_name)
    (series ());
  Obs.Metrics.observe m "depth" 1.0;
  let wrong = Obs.Metrics.counter_handle m "depth" in
  Alcotest.check_raises "kind mismatch at first use"
    (Invalid_argument "Metrics: \"depth\" is not a counter")
    (fun () -> Obs.Metrics.bump wrong 1)

(* ---- a minimal JSON parser (validity checking only) ----------------------- *)

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word =
    String.iter expect word
  in
  let parse_string () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
          advance ();
          go ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail "bad \\u escape"
          done;
          go ()
        | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "control char in string"
      | Some _ ->
        advance ();
        go ()
    in
    go ()
  in
  let parse_number () =
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    let start = !pos in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some _ -> ()
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then advance ()
      else begin
        let rec members () =
          skip_ws ();
          parse_string ();
          skip_ws ();
          expect ':';
          parse_value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail "expected , or }"
        in
        members ()
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then advance ()
      else begin
        let rec elements () =
          parse_value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected , or ]"
        in
        elements ()
      end
    | Some '"' -> parse_string ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some _ -> parse_number ()
    | None -> fail "unexpected end"
  in
  parse_value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

(* ---- exporters ------------------------------------------------------------ *)

(* a send with a free-text message *)
let noted_send : Obs.Desc.t =
  { name = [ Text "net.send" ]; cat = "net"; msg = [ Str 0 ]; attrs = [ ("dst", Int 0) ] }

let fixed_events () =
  let tr = Obs.Tracer.create ~enabled:true () in
  let root = Obs.Tracer.start_span tr ~time:0.0 ~site:0 ~agent:"courier" "activate:courier" in
  Obs.Tracer.instant_strs tr noted_send ~time:0.5 ~span:root ~site:0 ~agent:""
    "escaping: \"quotes\" \\ and\nnewline" "" 1 0;
  let child =
    Obs.Tracer.start_span tr ~time:1.0 ~parent:root ~site:1 ~agent:"filer" "meet:filer"
  in
  Obs.Tracer.end_span tr ~time:1.5 ~site:1 ~agent:"filer" child "meet:filer";
  Obs.Tracer.end_span tr ~time:2.0 ~site:0 ~agent:"courier" root "activate:courier";
  Obs.Tracer.events tr

let chrome_golden =
  "{\"traceEvents\":[\n\
   {\"name\":\"activate:courier\",\"cat\":\"agent\",\"ph\":\"B\",\"ts\":0,\"pid\":0,\"tid\":1,\"args\":{\"agent\":\"courier\",\"site\":0,\"trace\":1,\"span\":1}},\n\
   {\"name\":\"net.send\",\"cat\":\"net\",\"ph\":\"i\",\"s\":\"t\",\"ts\":500000,\"pid\":0,\"tid\":0,\"args\":{\"site\":0,\"trace\":1,\"span\":1,\"msg\":\"escaping: \\\"quotes\\\" \\\\ and\\nnewline\",\"dst\":1}},\n\
   {\"name\":\"meet:filer\",\"cat\":\"agent\",\"ph\":\"B\",\"ts\":1000000,\"pid\":1,\"tid\":2,\"args\":{\"agent\":\"filer\",\"site\":1,\"trace\":1,\"span\":2,\"parent\":1}},\n\
   {\"name\":\"meet:filer\",\"cat\":\"agent\",\"ph\":\"E\",\"ts\":1500000,\"pid\":1,\"tid\":2,\"args\":{\"agent\":\"filer\",\"site\":1,\"trace\":1,\"span\":2}},\n\
   {\"name\":\"activate:courier\",\"cat\":\"agent\",\"ph\":\"E\",\"ts\":2000000,\"pid\":0,\"tid\":1,\"args\":{\"agent\":\"courier\",\"site\":0,\"trace\":1,\"span\":1}}\n\
   ],\"displayTimeUnit\":\"ms\"}\n"

let test_chrome_export_golden () =
  let out = Obs.Export.chrome (fixed_events ()) in
  (match parse_json out with
  | () -> ()
  | exception Bad_json msg -> Alcotest.fail ("chrome output is not valid JSON: " ^ msg));
  Alcotest.(check string) "golden chrome output" chrome_golden out

let test_jsonl_export_valid () =
  let events = fixed_events () in
  let lines =
    String.split_on_char '\n' (Obs.Export.jsonl events) |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per event" (List.length events) (List.length lines);
  List.iter
    (fun line ->
      match parse_json line with
      | () -> ()
      | exception Bad_json msg -> Alcotest.fail ("invalid JSONL line: " ^ msg))
    lines

(* Every descriptor, recorded the way its call site records it and read
   back through [Tracer.events] and [Export.chrome], must give the event
   the recorder kept before descriptors, when each call site passed its
   own message string and attribute list.  The expected events are
   written as those call sites wrote them. *)
let test_descriptors_match_list_model () =
  let module D = Obs.Desc in
  let module E = Obs.Event in
  let module T = Obs.Tracer in
  let time = 1.5 and parent = { Obs.Span.trace_id = 4; span_id = 9 } in
  (* the first span a fresh recorder opens under [parent] *)
  let child = { Obs.Span.trace_id = 4; span_id = 1 } in
  let ev ?(kind = E.Instant) ?(site = -1) ?(agent = "") ?(span = Obs.Span.null) ?(parent_id = 0)
      ?(msg = "") ~cat name attrs =
    { blank with time; kind; name; cat; site; agent; span; parent_id; msg; attrs }
  in
  let span_case d_begin d_end ~agent ~name ~s0 ~i0 ~begin_attrs ~end_s0 ~end_attrs =
    ( [ d_begin; d_end ],
      (fun tr ->
        let sp = T.open_span tr d_begin ~time ~parent ~site:2 ~agent s0 i0 in
        T.close_span tr d_end ~time ~site:2 ~agent sp end_s0),
      [
        ev ~kind:Begin ~site:2 ~agent ~span:child ~parent_id:9 ~cat:"agent" name begin_attrs;
        ev ~kind:End ~site:2 ~agent ~span:child ~cat:"agent" name end_attrs;
      ] )
  in
  let drop d reason msg =
    ( [ d ],
      (fun tr -> T.instant_ints tr d ~time ~site:0 3 512 0),
      [ ev ~site:0 ~cat:"net" ~msg "net.drop" [ ("reason", E.S reason); ("dst", E.I 3) ] ] )
  in
  let migrate d transport =
    ( [ d ],
      (fun tr ->
        T.instant_strs tr d ~time ~span:parent ~site:0 ~agent:"hopper" "site-0" "site-3" 3 812),
      [
        ev ~site:0 ~agent:"hopper" ~span:parent ~cat:"kernel"
          ~msg:
            (Printf.sprintf "rexec %s: %s -> %s contact=%s (%d bytes)" transport "site-0" "site-3"
               "hopper" 812)
          "kernel.migrate"
          [ ("dst", E.I 3); ("transport", E.S transport); ("bytes", E.I 812) ];
      ] )
  in
  let bare d ~site ~cat name =
    ([ d ], (fun tr -> T.instant tr d ~time ~site), [ ev ~site ~cat name [] ])
  in
  let cases =
    [
      ( [ D.net_send ],
        (fun tr -> T.instant_ints tr D.net_send ~time ~site:0 3 512 2),
        [ ev ~site:0 ~cat:"net" "net.send" [ ("dst", E.I 3); ("bytes", E.I 512); ("hops", E.I 2) ] ]
      );
      ( [ D.net_deliver ],
        (fun tr -> T.instant_nums tr D.net_deliver ~time ~site:3 0 512 0.0125 0.0),
        [
          ev ~site:3 ~cat:"net" "net.deliver"
            [ ("src", E.I 0); ("bytes", E.I 512); ("latency", E.F 0.0125) ];
        ] );
      ( [ D.net_drop_site_down ],
        (fun tr -> T.instant_ints tr D.net_drop_site_down ~time ~site:3 512 0 0),
        [
          ev ~site:3 ~cat:"net"
            ~msg:(Printf.sprintf "site-%d down, dropped %d bytes from site-%d" 3 512 0)
            "net.drop"
            [ ("reason", E.S "site-down") ];
        ] );
      drop D.net_drop_partition "partition"
        (Printf.sprintf "%s site-%d -> site-%d (%d bytes)" "partition" 0 3 512);
      drop D.net_drop_no_route "no-route"
        (Printf.sprintf "%s site-%d -> site-%d (%d bytes)" "no-route" 0 3 512);
      drop D.net_drop_loss "loss"
        (Printf.sprintf "lost in transit site-%d -> site-%d (%d bytes)" 0 3 512);
      bare D.net_crash ~site:4 ~cat:"net" "net.crash";
      bare D.net_restart ~site:4 ~cat:"net" "net.restart";
      span_case D.activate D.activate ~agent:"courier" ~name:"activate:courier" ~s0:"" ~i0:0
        ~begin_attrs:[] ~end_s0:"" ~end_attrs:[];
      span_case D.activate D.activate_failed ~agent:"courier" ~name:"activate:courier" ~s0:""
        ~i0:0 ~begin_attrs:[] ~end_s0:"aborted: site crashed"
        ~end_attrs:[ ("error", E.S "aborted: site crashed") ];
      span_case D.meet D.meet ~agent:"filer" ~name:"meet:filer" ~s0:"" ~i0:0 ~begin_attrs:[]
        ~end_s0:"" ~end_attrs:[];
      span_case D.meet D.meet_failed ~agent:"filer" ~name:"meet:filer" ~s0:"" ~i0:0
        ~begin_attrs:[] ~end_s0:"agent error: no" ~end_attrs:[ ("error", E.S "agent error: no") ];
      span_case D.fetch D.fetch_done ~agent:"hopper" ~name:"codecache.fetch" ~s0:"ab12" ~i0:5
        ~begin_attrs:[ ("digest", E.S "ab12"); ("src", E.I 5) ] ~end_s0:"" ~end_attrs:[];
      span_case D.fetch D.fetch_failed ~agent:"hopper" ~name:"codecache.fetch" ~s0:"ab12" ~i0:5
        ~begin_attrs:[ ("digest", E.S "ab12"); ("src", E.I 5) ] ~end_s0:"timeout"
        ~end_attrs:[ ("error", E.S "timeout") ];
      span_case D.named_span D.named_span ~agent:"probe" ~name:"activate:probe"
        ~s0:"activate:probe" ~i0:0 ~begin_attrs:[] ~end_s0:"activate:probe" ~end_attrs:[];
      ( [ D.agent_log ],
        (fun tr ->
          T.instant_strs tr D.agent_log ~time ~span:Obs.Span.null ~site:1 ~agent:"ag" "hello" "" 0 0),
        [ ev ~site:1 ~agent:"ag" ~cat:"kernel" ~msg:"hello" "agent.log" [] ] );
      ( [ D.kernel_death ],
        (fun tr ->
          T.instant_strs tr D.kernel_death ~time ~span:Obs.Span.null ~site:1 ~agent:"ag"
            "aborted: x" "aborted" 0 0),
        [
          ev ~site:1 ~agent:"ag" ~cat:"kernel" ~msg:"aborted: x" "kernel.death"
            [ ("class", E.S "aborted") ];
        ] );
      ( [ D.horus_giveup ],
        (fun tr -> T.instant_ints tr D.horus_giveup ~time ~site:1 2 5 0),
        [ ev ~site:1 ~cat:"kernel" "horus.giveup" [ ("dst", E.I 2); ("attempts", E.I 5) ] ] );
      migrate D.migrate_rsh "rsh";
      migrate D.migrate_tcp "tcp";
      migrate D.migrate_horus "horus";
      ( [ D.guard_relaunch ],
        (fun tr -> T.instant_strs tr D.guard_relaunch ~time ~span:parent ~site:1 ~agent:"" "j7" "" 2 1),
        [
          ev ~site:1 ~span:parent ~cat:"guard" "guard.relaunch"
            [ ("journey", E.S "j7"); ("hop", E.I 2); ("attempt", E.I 1) ];
        ] );
      ( [ D.horus_view ],
        (fun tr ->
          T.instant_strs tr D.horus_view ~time ~span:Obs.Span.null ~site:0 ~agent:"" "kernel" "2,3" 6
            0),
        [
          ev ~site:0 ~cat:"horus" "horus.view"
            [ ("group", E.S "kernel"); ("suspects", E.S "2,3"); ("view", E.I 6) ];
        ] );
      ( [ D.chaos_crash ],
        (fun tr -> T.instant_nums tr D.chaos_crash ~time ~site:(-1) 2 0 7.5 0.0),
        [ ev ~cat:"chaos" "chaos.crash" [ ("site", E.I 2); ("downtime", E.F 7.5) ] ] );
      ( [ D.chaos_cut ],
        (fun tr ->
          T.instant_strs tr D.chaos_cut ~time ~span:Obs.Span.null ~site:(-1) ~agent:"" "bisect" "" 3 0),
        [ ev ~cat:"chaos" "chaos.cut" [ ("label", E.S "bisect"); ("links", E.I 3) ] ] );
      ( [ D.chaos_loss ],
        (fun tr -> T.instant_nums tr D.chaos_loss ~time ~site:(-1) 0 0 0.3 0.0),
        [ ev ~cat:"chaos" "chaos.loss" [ ("rate", E.F 0.3) ] ] );
      ( [ D.chaos_link_loss ],
        (fun tr -> T.instant_nums tr D.chaos_link_loss ~time ~site:(-1) 1 4 0.3 0.0),
        [
          ev ~cat:"chaos" "chaos.loss" [ ("rate", E.F 0.3); ("link", E.S (Printf.sprintf "%d-%d" 1 4)) ];
        ] );
      ( [ D.chaos_degrade ],
        (fun tr -> T.instant_nums tr D.chaos_degrade ~time ~site:(-1) 1 4 10.0 0.1),
        [
          ev ~cat:"chaos" "chaos.degrade"
            [
              ("link", E.S (Printf.sprintf "%d-%d" 1 4)); ("latency", E.F 10.0); ("bandwidth", E.F 0.1);
            ];
        ] );
      bare D.chaos_heal_crash ~site:(-1) ~cat:"chaos" ("chaos.heal." ^ "crash");
      bare D.chaos_heal_cut ~site:(-1) ~cat:"chaos" ("chaos.heal." ^ "cut");
      bare D.chaos_heal_loss ~site:(-1) ~cat:"chaos" ("chaos.heal." ^ "loss");
      bare D.chaos_heal_degrade ~site:(-1) ~cat:"chaos" ("chaos.heal." ^ "degrade");
    ]
  in
  List.iter
    (fun (_, record, expected) ->
      let tr = T.create ~enabled:true () in
      record tr;
      let expected = List.mapi (fun seq (e : E.t) -> { e with seq }) expected in
      let got = T.events tr in
      let what = (List.hd expected).name in
      Alcotest.(check string) (what ^ ": chrome") (Obs.Export.chrome expected) (Obs.Export.chrome got);
      Alcotest.(check bool) (what ^ ": events") true (got = expected))
    cases;
  List.iteri
    (fun i d ->
      Alcotest.(check bool)
        (Printf.sprintf "descriptor %d of Desc.all has a case" i)
        true
        (List.exists (fun (ds, _, _) -> List.memq d ds) cases))
    D.all

(* ---- causal propagation through the kernel -------------------------------- *)

(* A native agent that hops along a line topology, one site per hop. *)
let install_hopper k ~hops =
  Kernel.register_native k "hopper" (fun ctx bc ->
      let h =
        match Option.bind (Briefcase.find_opt bc "H") int_of_string_opt with
        | Some h -> h
        | None -> 0
      in
      if h < hops then begin
        Briefcase.set bc "H" (string_of_int (h + 1));
        Kernel.migrate k ~src:ctx.Kernel.site ~dst:(ctx.Kernel.site + 1) ~contact:"hopper"
          ~transport:Kernel.Tcp (Briefcase.copy bc)
      end)

let begin_spans name events =
  List.filter
    (fun (e : Obs.Event.t) -> e.kind = Obs.Event.Begin && e.name = name)
    events

(* Each activation must be a child of the previous hop's activation and all
   hops must share one trace id. *)
let check_chain spans =
  (match spans with
  | [] -> Alcotest.fail "no spans"
  | (first : Obs.Event.t) :: rest ->
    Alcotest.(check int) "journey root has no parent" 0 first.parent_id;
    ignore
      (List.fold_left
         (fun (prev : Obs.Event.t) (e : Obs.Event.t) ->
           Alcotest.(check int)
             (Printf.sprintf "span %d parents to previous hop" e.span.Obs.Span.span_id)
             prev.span.Obs.Span.span_id e.parent_id;
           Alcotest.(check int) "same trace id" prev.span.Obs.Span.trace_id
             e.span.Obs.Span.trace_id;
           e)
         first rest))

let test_span_propagation_multihop () =
  let net = Netsim.Net.create ~trace:true (Netsim.Topology.line 4) in
  let k = Kernel.create net in
  install_hopper k ~hops:3;
  let bc = Briefcase.create () in
  Kernel.launch k ~site:0 ~contact:"hopper" bc;
  Netsim.Net.run ~until:60.0 net;
  Alcotest.(check int) "all four sites activated" 4 (Kernel.activations k);
  let spans = begin_spans "activate:hopper" (Obs.Tracer.events (Netsim.Net.recorder net)) in
  Alcotest.(check int) "one activation span per hop" 4 (List.length spans);
  Alcotest.(check (list int)) "sites in journey order" [ 0; 1; 2; 3 ]
    (List.map (fun (e : Obs.Event.t) -> e.site) spans);
  check_chain spans

let test_span_propagation_guard_relaunch () =
  let net = Netsim.Net.create ~trace:true (Netsim.Topology.ring 4) in
  let k = Kernel.create net in
  let j =
    Guard.Escort.guarded_journey k
      ~config:{ Guard.Escort.default_config with ack_timeout = 2.0; retry_period = 2.0 }
      ~id:"t" ~itinerary:[ 0; 1; 2; 3 ]
      ~work:(fun _ ~hop:_ _ -> ())
      (Briefcase.create ())
  in
  (* the hop into site 2 is lost; the rear guard at site 1 must relaunch *)
  Netsim.Chaos.crash_for net ~site:2 ~at:0.0 ~downtime:5.0;
  Netsim.Net.run ~until:120.0 net;
  let s = Guard.Escort.stats j in
  Alcotest.(check bool) "journey completed" true s.Guard.Escort.completed;
  Alcotest.(check bool) "at least one relaunch" true (s.Guard.Escort.relaunches >= 1);
  let events = Obs.Tracer.events (Netsim.Net.recorder net) in
  let arrives = begin_spans "activate:escort-arrive:t" events in
  Alcotest.(check int) "four arrivals" 4 (List.length arrives);
  check_chain arrives;
  let relaunches =
    List.filter (fun (e : Obs.Event.t) -> e.name = "guard.relaunch") events
  in
  Alcotest.(check bool) "relaunch instants recorded" true (List.length relaunches >= 1);
  (* the relaunch instant is attributed to the same trace as the journey *)
  let journey_trace =
    match arrives with e :: _ -> e.span.Obs.Span.trace_id | [] -> assert false
  in
  List.iter
    (fun (e : Obs.Event.t) ->
      Alcotest.(check int) "relaunch joins journey trace" journey_trace
        e.span.Obs.Span.trace_id)
    relaunches;
  Alcotest.(check int) "guard.relaunches counter matches journey stats"
    s.Guard.Escort.relaunches
    (Obs.Metrics.counter (Netsim.Net.metrics net) "guard.relaunches")

let run_hopper ~trace () =
  let net = Netsim.Net.create ~trace (Netsim.Topology.line 4) in
  let k = Kernel.create net in
  install_hopper k ~hops:3;
  Kernel.launch k ~site:0 ~contact:"hopper" (Briefcase.create ());
  Netsim.Net.run ~until:60.0 net;
  (net, k)

let test_disabled_tracing_is_silent () =
  let net, k = run_hopper ~trace:false () in
  Alcotest.(check int) "no structured events" 0
    (List.length (Obs.Tracer.events (Netsim.Net.recorder net)));
  Alcotest.(check bool) "recorder off" false
    (Obs.Tracer.enabled (Netsim.Net.recorder net));
  Alcotest.(check int) "run still completed" 4 (Kernel.activations k);
  (* identical reruns: tracing off leaves the simulation fully deterministic *)
  let net2, _ = run_hopper ~trace:false () in
  Alcotest.(check int) "deterministic byte count"
    (Netsim.Netstats.bytes_sent (Netsim.Net.stats net))
    (Netsim.Netstats.bytes_sent (Netsim.Net.stats net2));
  (* the TRACE folder only travels while tracing is on, so a traced run
     ships strictly more bytes *)
  let net3, _ = run_hopper ~trace:true () in
  Alcotest.(check bool) "tracing adds briefcase bytes" true
    (Netsim.Netstats.bytes_sent (Netsim.Net.stats net3)
    > Netsim.Netstats.bytes_sent (Netsim.Net.stats net))

let test_kernel_metrics () =
  let net, k = run_hopper ~trace:false () in
  let m = Netsim.Net.metrics net in
  (* the registry is the kernel's only bookkeeping: the accessors read the
     per-agent counters back *)
  Alcotest.(check int) "activations counter" (Kernel.activations k)
    (Obs.Metrics.counter m ~labels:[ ("agent", "hopper") ] "kernel.activations");
  Alcotest.(check int) "completions counter" (Kernel.completions k)
    (Obs.Metrics.counter m ~labels:[ ("agent", "hopper") ] "kernel.completions");
  Alcotest.(check int) "migrations by transport" 3
    (Obs.Metrics.counter m ~labels:[ ("transport", "tcp") ] "kernel.migrations");
  Alcotest.(check bool) "network counters populated" true
    (Obs.Metrics.counter_total m "net.sent" >= 3)

(* A migrating TScript agent re-runs the same source at every site; the
   kernel's shared compile caches must turn the revisits into parse/expr
   cache hits, surfaced through the metrics registry (what `tacoma
   metrics` prints). *)
let test_interp_cache_metrics () =
  let code =
    {|
    folder put TRAIL [host]
    set i 0
    set acc 0
    while {$i < 10} {
      set acc [expr {$acc + $i}]
      incr i
    }
    if {[folder size TRAIL] < 4} {
      set next ""
      foreach n [neighbors] {
        if {![folder contains TRAIL $n]} { set next $n; break }
      }
      folder set CODE [selfcode]
      jump $next
    }
  |}
  in
  let net = Netsim.Net.create ~trace:false (Netsim.Topology.line 4) in
  let k = Kernel.create net in
  let bc = Briefcase.create () in
  Briefcase.set bc Briefcase.code_folder code;
  Kernel.launch k ~site:0 ~contact:"ag_script" bc;
  Netsim.Net.run ~until:60.0 net;
  let m = Netsim.Net.metrics net in
  Alcotest.(check int) "all four sites activated" 4 (Kernel.activations k);
  Alcotest.(check bool) "expr cache hits recorded" true
    (Obs.Metrics.counter m "tscript.expr_cache.hit" > 0);
  Alcotest.(check bool) "parse cache hits recorded" true
    (Obs.Metrics.counter m "tscript.parse_cache.hit" > 0);
  Alcotest.(check bool) "expressions compiled" true
    (Obs.Metrics.counter m "tscript.expr_cache.miss" > 0);
  (* the cache bound is far above this workload: no evictions *)
  Alcotest.(check int) "no evictions" 0 (Obs.Metrics.counter m "tscript.parse_cache.evict")

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "eviction order" `Quick test_ring_eviction_order;
          Alcotest.test_case "partial fill" `Quick test_ring_partial_fill;
          Alcotest.test_case "allocated on first event" `Quick
            test_ring_allocated_on_first_event;
          Alcotest.test_case "matches a list model" `Quick test_recorder_model;
        ] );
      ( "hist",
        [
          Alcotest.test_case "percentiles" `Quick test_hist_percentiles;
          Alcotest.test_case "single value" `Quick test_hist_single_value;
          Alcotest.test_case "overflow bucket" `Quick test_hist_overflow_bucket;
          test_hist_model;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and labels" `Quick test_metrics_counters;
          Alcotest.test_case "histograms and kinds" `Quick test_metrics_kinds;
          Alcotest.test_case "handles" `Quick test_metrics_handles;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome golden + valid JSON" `Quick test_chrome_export_golden;
          Alcotest.test_case "descriptors match a list model" `Quick
            test_descriptors_match_list_model;
          Alcotest.test_case "jsonl valid" `Quick test_jsonl_export_valid;
        ] );
      ( "spans",
        [
          Alcotest.test_case "wire form" `Quick test_span_wire_form;
          Alcotest.test_case "multi-hop propagation" `Quick test_span_propagation_multihop;
          Alcotest.test_case "guard relaunch propagation" `Quick
            test_span_propagation_guard_relaunch;
          Alcotest.test_case "disabled tracing silent" `Quick test_disabled_tracing_is_silent;
          Alcotest.test_case "kernel counters" `Quick test_kernel_metrics;
          Alcotest.test_case "interp cache counters" `Quick test_interp_cache_metrics;
          test_span_wire_decimal;
        ] );
    ]
