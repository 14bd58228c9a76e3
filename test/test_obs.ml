(* Flight recorder: ring buffer, histogram math, metrics registry, JSON
   exporters, and end-to-end causal span propagation through the kernel. *)

module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase

(* ---- ring buffer ---------------------------------------------------------- *)

let test_ring_eviction_order () =
  let r = Obs.Ring.create 3 in
  List.iter (Obs.Ring.push r) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "oldest evicted first" [ 3; 4; 5 ] (Obs.Ring.to_list r);
  Alcotest.(check int) "length capped" 3 (Obs.Ring.length r);
  Alcotest.(check int) "evicted count" 2 (Obs.Ring.evicted r);
  Obs.Ring.clear r;
  Alcotest.(check (list int)) "clear empties" [] (Obs.Ring.to_list r);
  Alcotest.(check int) "clear resets evicted" 0 (Obs.Ring.evicted r);
  Obs.Ring.push r 9;
  Alcotest.(check (list int)) "usable after clear" [ 9 ] (Obs.Ring.to_list r)

let test_ring_partial_fill () =
  let r = Obs.Ring.create 8 in
  List.iter (Obs.Ring.push r) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3 ] (Obs.Ring.to_list r);
  Alcotest.(check int) "nothing evicted" 0 (Obs.Ring.evicted r)

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
  Obs.Metrics.set_gauge m "depth" 3.5;
  Alcotest.(check (option (Alcotest.float 0.0))) "gauge readback" (Some 3.5)
    (Obs.Metrics.gauge m "depth");
  Obs.Metrics.observe m "lat" 0.5;
  Obs.Metrics.observe m "lat" 1.5;
  (match Obs.Metrics.histogram m "lat" with
  | Some h -> Alcotest.(check int) "histogram count" 2 (Obs.Hist.count h)
  | None -> Alcotest.fail "histogram series missing");
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Metrics: \"depth\" is not a counter") (fun () ->
      Obs.Metrics.incr m "depth")

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

let fixed_events () =
  let tr = Obs.Tracer.create ~enabled:true () in
  let root = Obs.Tracer.start_span tr ~time:0.0 ~site:0 ~agent:"courier" "activate:courier" in
  Obs.Tracer.instant tr ~time:0.5 ~span:root ~cat:"net" ~site:0
    ~msg:"escaping: \"quotes\" \\ and\nnewline"
    ~attrs:[ ("dst", Obs.Event.I 1); ("ok", Obs.Event.B true); ("w", Obs.Event.F 0.25) ]
    "net.send";
  let child =
    Obs.Tracer.start_span tr ~time:1.0 ~parent:root ~site:1 ~agent:"filer" "meet:filer"
  in
  Obs.Tracer.end_span tr ~time:1.5 ~site:1 ~agent:"filer" child "meet:filer";
  Obs.Tracer.end_span tr ~time:2.0 ~site:0 ~agent:"courier" root "activate:courier";
  Obs.Tracer.events tr

let chrome_golden =
  "{\"traceEvents\":[\n\
   {\"name\":\"activate:courier\",\"cat\":\"agent\",\"ph\":\"B\",\"ts\":0,\"pid\":0,\"tid\":1,\"args\":{\"agent\":\"courier\",\"site\":0,\"trace\":1,\"span\":1}},\n\
   {\"name\":\"net.send\",\"cat\":\"net\",\"ph\":\"i\",\"s\":\"t\",\"ts\":500000,\"pid\":0,\"tid\":0,\"args\":{\"site\":0,\"trace\":1,\"span\":1,\"msg\":\"escaping: \\\"quotes\\\" \\\\ and\\nnewline\",\"dst\":1,\"ok\":true,\"w\":0.250000}},\n\
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
    (Obs.Metrics.counter m "tscript.exprs_compiled" > 0);
  (* the cache bound is far above this workload: no evictions *)
  Alcotest.(check int) "no evictions" 0 (Obs.Metrics.counter m "tscript.expr_cache.evict")

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "eviction order" `Quick test_ring_eviction_order;
          Alcotest.test_case "partial fill" `Quick test_ring_partial_fill;
        ] );
      ( "hist",
        [
          Alcotest.test_case "percentiles" `Quick test_hist_percentiles;
          Alcotest.test_case "single value" `Quick test_hist_single_value;
          Alcotest.test_case "overflow bucket" `Quick test_hist_overflow_bucket;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and labels" `Quick test_metrics_counters;
          Alcotest.test_case "gauges and histograms" `Quick test_metrics_kinds;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome golden + valid JSON" `Quick test_chrome_export_golden;
          Alcotest.test_case "jsonl valid" `Quick test_jsonl_export_valid;
        ] );
      ( "spans",
        [
          Alcotest.test_case "multi-hop propagation" `Quick test_span_propagation_multihop;
          Alcotest.test_case "guard relaunch propagation" `Quick
            test_span_propagation_guard_relaunch;
          Alcotest.test_case "disabled tracing silent" `Quick test_disabled_tracing_is_silent;
          Alcotest.test_case "kernel counters" `Quick test_kernel_metrics;
          Alcotest.test_case "interp cache counters" `Quick test_interp_cache_metrics;
        ] );
    ]
