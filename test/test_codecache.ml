(* Tests for the content-addressed code cache: LRU mechanics, the
   hit/miss/fetch protocol over real migrations, volatility across site
   crashes (including guard relaunches), and determinism of the byte
   accounting. *)

module Codecache = Tacoma_core.Codecache
module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase
module Folder = Tacoma_core.Folder
module Escort = Guard.Escort
module Net = Netsim.Net
module Topology = Netsim.Topology
module Netstats = Netsim.Netstats
module Chaos = Netsim.Chaos

let check = Alcotest.check

(* --- cache mechanics (no network) --- *)

let test_digest_stable () =
  let d1 = Codecache.digest [ "a"; "bc" ] in
  check Alcotest.string "same elements, same digest" d1 (Codecache.digest [ "a"; "bc" ]);
  check Alcotest.bool "order matters" false (d1 = Codecache.digest [ "bc"; "a" ]);
  check Alcotest.bool "concatenation differs" false (d1 = Codecache.digest [ "abc" ])

let insert c elems =
  let dg = Codecache.digest elems in
  ignore (Codecache.insert c ~digest:dg elems);
  dg

let test_lru_eviction_order () =
  let evicted = ref [] in
  let c =
    Codecache.create
      ~on_evict:(fun ~digest ~bytes:_ -> evicted := digest :: !evicted)
      { Codecache.default_config with budget_bytes = 10 }
  in
  let da = insert c [ "aaaa" ] in
  let db = insert c [ "bbbb" ] in
  (* touch a so b is now the least recently used *)
  check Alcotest.bool "a resolves" true (Codecache.find_opt c ~digest:da <> None);
  let dc = insert c [ "cccc" ] in
  check Alcotest.(list string) "b evicted first" [ db ] (List.rev !evicted);
  check Alcotest.(list string) "MRU order c, a" [ dc; da ] (Codecache.digests c);
  let dd = insert c [ "dddddddd" ] in
  (* 8 bytes only fit alongside nothing else under a 10-byte budget *)
  check Alcotest.(list string) "a then c evicted" [ db; da; dc ] (List.rev !evicted);
  check Alcotest.(list string) "only d left" [ dd ] (Codecache.digests c);
  check Alcotest.int "bytes tracked" 8 (Codecache.bytes_used c)

let test_uncacheable_entry () =
  let c = Codecache.create { Codecache.default_config with budget_bytes = 4 } in
  let big = [ "0123456789" ] in
  check Alcotest.bool "over-budget entry refused" false
    (Codecache.insert c ~digest:(Codecache.digest big) big);
  check Alcotest.int "nothing cached" 0 (Codecache.entry_count c)

(* --- the protocol over real migrations --- *)

let code = String.concat "\n" (List.init 32 (fun i -> Printf.sprintf "# filler %d" i)) ^ "\nmeet filer"

let cached_config =
  { Kernel.default_config with cache = Some Kernel.default_cache_config }

let mk ?(config = cached_config) ?seed topo =
  let net = Net.create ?seed topo in
  let k = Kernel.create ~config net in
  (net, k)

let send_agent k =
  let bc = Briefcase.create () in
  Briefcase.set bc Briefcase.code_folder code;
  Briefcase.set bc Briefcase.host_folder "line-1";
  Briefcase.set bc Briefcase.contact_folder "ag_script";
  Kernel.launch k ~site:0 ~contact:"rexec" bc

let counters net =
  let m = Net.metrics net in
  ( Obs.Metrics.counter_total m "codecache.hits",
    Obs.Metrics.counter_total m "codecache.misses",
    Obs.Metrics.counter_total m "codecache.fetches" )

let test_miss_then_hit () =
  let net, k = mk (Topology.line 2) in
  send_agent k;
  Net.run ~until:20.0 net;
  check (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int)
    "first arrival misses and fetches" (0, 1, 1) (counters net);
  send_agent k;
  Net.run ~until:40.0 net;
  check (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int)
    "second arrival hits" (1, 1, 1) (counters net);
  check Alcotest.int "both agents ran to completion" 0 (Kernel.deaths k);
  check Alcotest.bool "substitution saved net bytes" true (Kernel.cache_saved_bytes k > 0);
  match Kernel.code_cache k 1 with
  | Some c -> check Alcotest.int "receiver holds the entry" 1 (Codecache.entry_count c)
  | None -> Alcotest.fail "cache not enabled"

let test_crash_clears_cache_and_refetches () =
  let net, k = mk (Topology.line 2) in
  send_agent k;
  Net.run ~until:20.0 net;
  Net.crash net 1;
  Net.restart net 1;
  (match Kernel.code_cache k 1 with
  | Some c -> check Alcotest.int "crash emptied the cache" 0 (Codecache.entry_count c)
  | None -> Alcotest.fail "cache not enabled");
  send_agent k;
  Net.run ~until:40.0 net;
  let hits, misses, fetches = counters net in
  check Alcotest.int "no stale hit after restart" 0 hits;
  check Alcotest.int "re-fetched" 2 misses;
  check Alcotest.int "two fetch round trips" 2 fetches;
  check Alcotest.int "no deaths" 0 (Kernel.deaths k)

let test_guard_relaunch_refetches () =
  (* a rear-guarded journey whose target site crashes mid-journey: the
     relaunched snapshot carries a code reference like any migration, and
     must resolve by re-fetching from the guard's site (the crash wiped the
     target's cache) *)
  let net, k = mk (Topology.full_mesh 5) in
  let payload = Briefcase.create () in
  Briefcase.set payload Briefcase.code_folder code;
  Chaos.crash_for net ~site:2 ~at:0.0 ~downtime:6.0;
  let j =
    Escort.guarded_journey k
      ~config:
        {
          Escort.ack_timeout = 1.0;
          retry_period = 1.0;
          max_relaunch = 10;
          transport = Kernel.Tcp;
          durable = false;
        }
      ~id:"cc" ~itinerary:[ 0; 1; 2; 3 ] ~work:(fun _ ~hop:_ _ -> ()) payload
  in
  Net.run ~until:60.0 net;
  let s = Escort.stats j in
  check Alcotest.bool "completed despite crash" true s.Escort.completed;
  check Alcotest.bool "relaunched at least once" true (s.Escort.relaunches >= 1);
  let _, misses, fetches = counters net in
  check Alcotest.bool "every resolution fell back to a fetch" true (misses >= 3);
  check Alcotest.int "fetches match misses" misses fetches

(* --- fetch retry under partitions --- *)

let retry_config =
  { Kernel.default_config with
    cache = Some { Kernel.default_cache_config with fetch_timeout = 0.5 } }

let test_fetch_retry_through_partition () =
  (* the miss-path fetch request is dropped by a partition that opens just
     after the migration is sent; the bounded retry re-asks once the cut
     heals, so the held activation still runs *)
  let net, k = mk ~config:retry_config (Topology.line 2) in
  Chaos.apply net
    [ Chaos.Cut { links = [ (0, 1) ]; at = 0.001; duration = 0.3; label = "req" } ];
  send_agent k;
  Net.run ~until:20.0 net;
  let m = Net.metrics net in
  check Alcotest.int "one bounded retry" 1
    (Obs.Metrics.counter_total m "codecache.fetch_retries");
  check Alcotest.int "no fetch failure" 0
    (Obs.Metrics.counter_total m "codecache.fetch_failures");
  check Alcotest.int "held activation ran after the retry" 0 (Kernel.deaths k);
  let _, misses, fetches = counters net in
  check Alcotest.int "single miss" 1 misses;
  check Alcotest.int "single fetch round" 1 fetches

let test_fetch_exhaustion_is_code_fetch_death () =
  (* a partition outlasting every attempt: the fetch is abandoned and the
     loss is surfaced as a death of class "code-fetch" (which rear guards
     recover like any lost hop), not a hang *)
  let net, k = mk ~config:retry_config (Topology.line 2) in
  Chaos.apply net
    [ Chaos.Cut { links = [ (0, 1) ]; at = 0.001; duration = 5.0; label = "all" } ];
  send_agent k;
  Net.run ~until:20.0 net;
  let m = Net.metrics net in
  check Alcotest.int "retried before giving up" 1
    (Obs.Metrics.counter_total m "codecache.fetch_retries");
  check Alcotest.int "failure counted once" 1
    (Obs.Metrics.counter_total m "codecache.fetch_failures");
  check Alcotest.int "death carries the code-fetch class" 1
    (Obs.Metrics.counter m
       ~labels:[ ("agent", "ag_script"); ("class", "code-fetch") ]
       "kernel.deaths");
  check Alcotest.int "one death total" 1 (Kernel.deaths k)

(* --- determinism --- *)

let journey_stats ~cache () =
  let config = { Kernel.default_config with cache } in
  let net, k = mk ~config ~seed:42L (Topology.ring 4) in
  Kernel.register_native k "cc-hop" (fun ctx bc ->
      let t = ctx.Kernel.kernel in
      match Folder.pop (Briefcase.folder bc "ITINERARY") with
      | None -> ()
      | Some next ->
        Kernel.migrate t ~src:ctx.Kernel.site ~dst:(int_of_string next) ~contact:"cc-hop"
          ~transport:Kernel.Tcp bc);
  let bc = Briefcase.create () in
  Folder.replace (Briefcase.folder bc "ITINERARY") [ "1"; "2"; "3"; "0"; "1"; "2" ];
  Briefcase.set bc Briefcase.code_folder code;
  Kernel.launch k ~site:0 ~contact:"cc-hop" bc;
  Net.run ~until:60.0 net;
  let s = Net.stats net in
  (Netstats.messages_sent s, Netstats.bytes_sent s, Netstats.byte_hops s)

let test_replay_deterministic () =
  let stats = Alcotest.(triple int int int) in
  let warm = journey_stats ~cache:(Some Kernel.default_cache_config) () in
  check stats "cache on replays byte-identically" warm
    (journey_stats ~cache:(Some Kernel.default_cache_config) ());
  let cold = journey_stats ~cache:None () in
  check stats "cache off replays byte-identically" cold (journey_stats ~cache:None ());
  let _, warm_bytes, _ = warm and _, cold_bytes, _ = cold in
  check Alcotest.bool "revisiting journey ships fewer bytes warm" true (warm_bytes < cold_bytes)

let () =
  Alcotest.run "codecache"
    [
      ( "mechanics",
        [
          Alcotest.test_case "digest stability" `Quick test_digest_stable;
          Alcotest.test_case "lru eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "uncacheable entry" `Quick test_uncacheable_entry;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
          Alcotest.test_case "crash clears cache" `Quick test_crash_clears_cache_and_refetches;
          Alcotest.test_case "guard relaunch refetches" `Quick test_guard_relaunch_refetches;
          Alcotest.test_case "fetch retry through partition" `Quick
            test_fetch_retry_through_partition;
          Alcotest.test_case "fetch exhaustion is a code-fetch death" `Quick
            test_fetch_exhaustion_is_code_fetch_death;
        ] );
      ( "determinism",
        [ Alcotest.test_case "same-seed replay" `Quick test_replay_deterministic ] );
    ]
