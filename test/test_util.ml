(* Tests for the shared substrate: PRNG, heap, SHA-256/HMAC, hex, stats, LRU. *)

module Rng = Tacoma_util.Rng
module Heap = Tacoma_util.Heap
module Sha256 = Tacoma_util.Sha256
module Hexutil = Tacoma_util.Hexutil
module Stats = Tacoma_util.Stats
module Lru = Tacoma_util.Lru

let check = Alcotest.check
let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same seed, same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7L in
  let child = Rng.split a in
  let next_parent = Rng.int64 a in
  let next_child = Rng.int64 child in
  Alcotest.(check bool) "split stream differs" true (next_parent <> next_child)

let test_rng_int_bounds () =
  let r = Rng.create 3L in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_float_bounds () =
  let r = Rng.create 4L in
  for _ = 1 to 10_000 do
    let v = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_uniformity () =
  (* coarse chi-square-ish check: each of 10 buckets within 30% of mean *)
  let r = Rng.create 99L in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Rng.int r 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "bucket near uniform" true
        (float_of_int c > 0.7 *. float_of_int (n / 10)
        && float_of_int c < 1.3 *. float_of_int (n / 10)))
    buckets

let test_rng_exponential_mean () =
  let r = Rng.create 11L in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:2.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 2.0" true (mean > 1.9 && mean < 2.1)

let test_rng_gaussian_moments () =
  let r = Rng.create 12L in
  let n = 50_000 in
  let xs = List.init n (fun _ -> Rng.gaussian r ~mu:5.0 ~sigma:3.0) in
  let mean = Stats.mean xs in
  let sd = Stats.stddev xs in
  Alcotest.(check bool) "mean near 5" true (Float.abs (mean -. 5.0) < 0.1);
  Alcotest.(check bool) "sd near 3" true (Float.abs (sd -. 3.0) < 0.1)

let test_rng_shuffle_permutes () =
  let r = Rng.create 5L in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "same multiset" (Array.init 50 Fun.id) sorted

let test_rng_bytes_len () =
  let r = Rng.create 6L in
  check Alcotest.int "length" 33 (String.length (Rng.bytes r 33))

(* --- heap --- *)

let test_heap_sorts =
  qtest "heap pops in sorted order"
    QCheck2.Gen.(list int)
    (fun l ->
      let h = Heap.create ~cmp:compare ~dummy:0 in
      List.iter (Heap.push h) l;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare l)

let test_heap_peek () =
  let h = Heap.create ~cmp:compare ~dummy:0 in
  Alcotest.(check (option int)) "empty peek" None (Heap.peek h);
  Heap.push h 5;
  Heap.push h 2;
  Heap.push h 9;
  Alcotest.(check (option int)) "peek min" (Some 2) (Heap.peek h);
  Alcotest.(check int) "length unchanged by peek" 3 (Heap.length h)

let test_heap_interleaved () =
  let h = Heap.create ~cmp:compare ~dummy:0 in
  Heap.push h 3;
  Heap.push h 1;
  Alcotest.(check (option int)) "pop 1" (Some 1) (Heap.pop h);
  Heap.push h 0;
  Heap.push h 2;
  Alcotest.(check (option int)) "pop 0" (Some 0) (Heap.pop h);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Heap.pop h);
  Alcotest.(check (option int)) "pop 3" (Some 3) (Heap.pop h);
  Alcotest.(check (option int)) "empty" None (Heap.pop h)

let test_heap_clear () =
  let h = Heap.create ~cmp:compare ~dummy:0 in
  List.iter (Heap.push h) [ 4; 2; 7 ];
  Heap.clear h;
  Alcotest.(check bool) "empty after clear" true (Heap.is_empty h)

let test_heap_releases_elements () =
  (* popped and cleared elements (in the engine: events and their closures)
     must not stay reachable through the heap's backing array *)
  let h = Heap.create ~cmp:(fun a b -> compare !a !b) ~dummy:(ref 0) in
  let push_tracked w i v =
    let x = ref v in
    Weak.set w i (Some x);
    Heap.push h x
  in
  let popped = Weak.create 1 and cleared = Weak.create 2 in
  push_tracked popped 0 1;
  Heap.push h (ref 5);
  Heap.push h (ref 7);
  ignore (Sys.opaque_identity (Heap.pop h));
  Gc.full_major ();
  Alcotest.(check bool) "popped element collected" false (Weak.check popped 0);
  push_tracked cleared 0 2;
  push_tracked cleared 1 3;
  Heap.clear h;
  Gc.full_major ();
  Alcotest.(check bool) "cleared elements collected" false
    (Weak.check cleared 0 || Weak.check cleared 1);
  Heap.push h (ref 4);
  Alcotest.(check (option int)) "usable after clear" (Some 4) (Option.map ( ! ) (Heap.pop h))

(* --- sha256 (FIPS 180-4 / RFC 4231 vectors) --- *)

let test_sha256_vectors () =
  let cases =
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      ( String.make 1_000_000 'a',
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" );
    ]
  in
  List.iter
    (fun (msg, want) -> check Alcotest.string "digest" want (Sha256.hex_digest msg))
    cases

let test_sha256_block_boundaries () =
  (* lengths around the 55/56/64-byte padding boundaries must not crash and
     must stay distinct *)
  let digests =
    List.map (fun n -> Sha256.hex_digest (String.make n 'x')) [ 54; 55; 56; 57; 63; 64; 65; 127; 128 ]
  in
  let uniq = List.sort_uniq compare digests in
  check Alcotest.int "all distinct" (List.length digests) (List.length uniq)

let test_hmac_vectors () =
  (* RFC 4231 test case 1 and 2 *)
  let key1 = String.make 20 '\x0b' in
  check Alcotest.string "rfc4231 tc1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Sha256.hmac_hex ~key:key1 "Hi There");
  check Alcotest.string "rfc4231 tc2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Sha256.hmac_hex ~key:"Jefe" "what do ya want for nothing?")

let test_hmac_long_key () =
  (* keys longer than the block size are hashed first; just check stability
     and key sensitivity *)
  let long_key = String.make 100 'k' in
  let a = Sha256.hmac_hex ~key:long_key "msg" in
  let b = Sha256.hmac_hex ~key:(long_key ^ "x") "msg" in
  Alcotest.(check bool) "key sensitive" true (a <> b)

(* --- hex --- *)

let test_hex_roundtrip =
  qtest "hex roundtrips all bytes"
    QCheck2.Gen.(string_size ~gen:(char_range '\x00' '\xff') (0 -- 64))
    (fun s -> Hexutil.decode (Hexutil.encode s) = s)

let test_hex_known () =
  check Alcotest.string "encode" "00ff10" (Hexutil.encode "\x00\xff\x10");
  check Alcotest.string "decode upper" "\xab" (Hexutil.decode "AB")

let test_hex_invalid () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hexutil.decode: odd length") (fun () ->
      ignore (Hexutil.decode "abc"));
  Alcotest.(check bool) "is_hex rejects" false (Hexutil.is_hex "zz");
  Alcotest.(check bool) "is_hex accepts" true (Hexutil.is_hex "00ffAB")

(* --- lru --- *)

let test_lru_basic () =
  let c = Lru.create ~budget:3 () in
  Alcotest.(check bool) "add a" true (Lru.add c "a" 1);
  Alcotest.(check bool) "add b" true (Lru.add c "b" 2);
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find_opt c "a");
  Alcotest.(check (option int)) "find missing" None (Lru.find_opt c "z");
  Alcotest.(check int) "length" 2 (Lru.length c);
  Alcotest.(check bool) "mem" true (Lru.mem c "b");
  Lru.remove c "b";
  Alcotest.(check bool) "removed" false (Lru.mem c "b");
  Alcotest.(check int) "no evictions yet" 0 (Lru.evictions c)

let test_lru_evicts_least_recent () =
  let evicted = ref [] in
  let c = Lru.create ~on_evict:(fun k _ -> evicted := k :: !evicted) ~budget:3 () in
  List.iter (fun k -> ignore (Lru.add c k 0)) [ "a"; "b"; "c" ];
  (* touch "a" so "b" becomes the LRU entry *)
  ignore (Lru.find_opt c "a");
  ignore (Lru.add c "d" 0);
  Alcotest.(check (list string)) "b evicted first" [ "b" ] !evicted;
  Alcotest.(check bool) "a survived (refreshed)" true (Lru.mem c "a");
  ignore (Lru.add c "e" 0);
  Alcotest.(check (list string)) "then c" [ "c"; "b" ] !evicted;
  Alcotest.(check int) "eviction counter" 2 (Lru.evictions c);
  Alcotest.(check (list string)) "recency order" [ "e"; "d"; "a" ] (Lru.keys c)

let test_lru_replace_refreshes () =
  let c = Lru.create ~budget:2 () in
  ignore (Lru.add c "a" 1);
  ignore (Lru.add c "b" 2);
  (* re-adding "a" refreshes it, so the next eviction takes "b" *)
  ignore (Lru.add c "a" 10);
  ignore (Lru.add c "c" 3);
  Alcotest.(check (option int)) "replaced value" (Some 10) (Lru.find_opt c "a");
  Alcotest.(check bool) "b evicted" false (Lru.mem c "b");
  Alcotest.(check int) "length stays bounded" 2 (Lru.length c)

let test_lru_weighted () =
  let c = Lru.create ~weight:String.length ~budget:10 () in
  Alcotest.(check bool) "add small" true (Lru.add c 1 "aaaa");
  Alcotest.(check bool) "add small" true (Lru.add c 2 "bbbb");
  Alcotest.(check int) "used weight" 8 (Lru.used c);
  (* 5 more bytes forces key 1 (LRU) out: 4 + 5 <= 10 *)
  Alcotest.(check bool) "add evicting" true (Lru.add c 3 "ccccc");
  Alcotest.(check bool) "lru entry gone" false (Lru.mem c 1);
  Alcotest.(check int) "used after eviction" 9 (Lru.used c);
  (* a value that alone exceeds the budget is refused, cache untouched *)
  Alcotest.(check bool) "oversized refused" false (Lru.add c 4 (String.make 11 'x'));
  Alcotest.(check bool) "cache intact" true (Lru.mem c 3);
  Alcotest.(check int) "budget" 10 (Lru.budget c)

let test_lru_clear_keeps_eviction_count () =
  let c = Lru.create ~budget:1 () in
  ignore (Lru.add c "a" 0);
  ignore (Lru.add c "b" 0);
  Alcotest.(check int) "one eviction" 1 (Lru.evictions c);
  Lru.clear c;
  Alcotest.(check int) "empty" 0 (Lru.length c);
  Alcotest.(check int) "used resets" 0 (Lru.used c);
  Alcotest.(check int) "counter survives clear" 1 (Lru.evictions c);
  ignore (Lru.add c "c" 7);
  Alcotest.(check (option int)) "usable after clear" (Some 7) (Lru.find_opt c "c")

let test_lru_fold_order () =
  let c = Lru.create ~budget:4 () in
  List.iter (fun k -> ignore (Lru.add c k (Char.code k.[0]))) [ "a"; "b"; "c" ];
  ignore (Lru.find_opt c "b");
  let keys = Lru.fold (fun k _ acc -> k :: acc) c [] in
  (* fold runs most-recent-first, so the accumulated list is LRU-first *)
  Alcotest.(check (list string)) "fold order" [ "a"; "c"; "b" ] keys

let test_lru_model =
  (* model check against an association-list reference with the same
     refresh-on-hit, evict-LRU-on-overflow policy *)
  qtest ~count:200 "matches a reference LRU model"
    QCheck2.Gen.(list_size (0 -- 120) (pair (int_range 0 9) bool))
    (fun ops ->
      let budget = 4 in
      let c = Lru.create ~budget () in
      (* model: (key, value) list, most recent first *)
      let model = ref [] in
      List.for_all
        (fun (k, is_add) ->
          if is_add then begin
            ignore (Lru.add c k k);
            model := (k, k) :: List.remove_assoc k !model;
            if List.length !model > budget then
              model := List.filteri (fun i _ -> i < budget) !model
          end
          else begin
            (match List.assoc_opt k !model with
            | Some v -> model := (k, v) :: List.remove_assoc k !model
            | None -> ());
            ignore (Lru.find_opt c k)
          end;
          Lru.keys c = List.map fst !model)
        ops)

(* --- stats --- *)

let test_stats_basic () =
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  check (Alcotest.float 1e-9) "empty mean" 0.0 (Stats.mean []);
  check (Alcotest.float 1e-9) "stddev" (sqrt 1.25) (Stats.stddev [ 1.0; 2.0; 3.0; 4.0 ]);
  check (Alcotest.float 1e-9) "p50" 2.0 (Stats.percentile 50.0 [ 3.0; 1.0; 2.0; 4.0 ]);
  check (Alcotest.float 1e-9) "p100" 4.0 (Stats.percentile 100.0 [ 3.0; 1.0; 2.0; 4.0 ])

let test_stats_acc_matches_batch =
  qtest "welford matches batch stats"
    QCheck2.Gen.(list_size (2 -- 50) (float_bound_inclusive 1000.0))
    (fun xs ->
      let acc = Stats.acc_create () in
      List.iter (Stats.acc_add acc) xs;
      Float.abs (Stats.acc_mean acc -. Stats.mean xs) < 1e-6
      && Float.abs (Stats.acc_stddev acc -. Stats.stddev xs) < 1e-6)

(* --- pool --- *)

module Pool = Tacoma_util.Pool

let test_pool_serial_inline () =
  (* jobs = 1 is the serial path: submit runs the thunk immediately, in
     submission order, on the calling domain. *)
  let order = ref [] in
  Pool.with_pool ~jobs:1 (fun p ->
      let fa = Pool.submit p (fun () -> order := "a" :: !order; 1) in
      let fb = Pool.submit p (fun () -> order := "b" :: !order; 2) in
      check Alcotest.(list string) "ran inline at submit" [ "a"; "b" ]
        (List.rev !order);
      check Alcotest.int "first result" 1 (Pool.await fa);
      check Alcotest.int "second result" 2 (Pool.await fb))

let test_pool_map_matches_list_map () =
  let xs = List.init 40 Fun.id in
  let f x = (x * x) + 3 in
  List.iter
    (fun jobs ->
      let got = Pool.with_pool ~jobs (fun p -> Pool.map p f xs) in
      check Alcotest.(list int)
        (Printf.sprintf "jobs=%d matches List.map" jobs)
        (List.map f xs) got)
    [ 1; 2; 4; 0 ]

let test_pool_order_beats_completion_order () =
  (* Force the first-submitted task to finish last: it spins until the
     second task (on the other worker) has run.  map must still return
     results in submission order. *)
  let second_done = Atomic.make false in
  let results =
    Pool.with_pool ~jobs:2 (fun p ->
        Pool.map p
          (fun i ->
            if i = 0 then (
              while not (Atomic.get second_done) do
                Domain.cpu_relax ()
              done;
              "slow")
            else (
              Atomic.set second_done true;
              "fast"))
          [ 0; 1 ])
  in
  check Alcotest.(list string) "submission order, not completion order"
    [ "slow"; "fast" ] results

exception Boom of int

let test_pool_exception_propagates () =
  Pool.with_pool ~jobs:2 (fun p ->
      let ok = Pool.submit p (fun () -> 41) in
      let bad = Pool.submit p (fun () -> raise (Boom 7)) in
      check Alcotest.int "healthy task unaffected" 41 (Pool.await ok);
      (match Pool.await bad with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 7 -> ());
      (* a failed await leaves the pool usable, and re-awaiting re-raises *)
      (match Pool.await bad with
      | _ -> Alcotest.fail "expected Boom again"
      | exception Boom 7 -> ());
      check Alcotest.int "pool still serves tasks" 9
        (Pool.await (Pool.submit p (fun () -> 9))))

let test_pool_reuse_across_submissions () =
  Pool.with_pool ~jobs:3 (fun p ->
      let a = Pool.map p (fun x -> x + 1) [ 1; 2; 3 ] in
      let b = Pool.map p string_of_int a in
      check Alcotest.(list string) "second batch on same pool"
        [ "2"; "3"; "4" ] b)

let test_pool_create_validation () =
  (match Pool.create ~jobs:(-1) () with
  | _ -> Alcotest.fail "negative jobs should be rejected"
  | exception Invalid_argument _ -> ());
  let p = Pool.create ~jobs:0 () in
  Alcotest.(check bool) "jobs=0 resolves to >= 1" true (Pool.jobs p >= 1);
  Pool.shutdown p;
  Pool.shutdown p;
  match Pool.submit p (fun () -> ()) with
  | _ -> Alcotest.fail "submit after shutdown should be rejected"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "uniformity" `Slow test_rng_uniformity;
          Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "bytes length" `Quick test_rng_bytes_len;
        ] );
      ( "heap",
        [
          test_heap_sorts;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "releases popped and cleared" `Quick test_heap_releases_elements;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "fips vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "block boundaries" `Quick test_sha256_block_boundaries;
          Alcotest.test_case "hmac rfc4231" `Quick test_hmac_vectors;
          Alcotest.test_case "hmac long key" `Quick test_hmac_long_key;
        ] );
      ( "hex",
        [
          test_hex_roundtrip;
          Alcotest.test_case "known values" `Quick test_hex_known;
          Alcotest.test_case "invalid input" `Quick test_hex_invalid;
        ] );
      ( "lru",
        [
          Alcotest.test_case "basic" `Quick test_lru_basic;
          Alcotest.test_case "evicts least recent" `Quick test_lru_evicts_least_recent;
          Alcotest.test_case "replace refreshes" `Quick test_lru_replace_refreshes;
          Alcotest.test_case "weighted budget" `Quick test_lru_weighted;
          Alcotest.test_case "clear keeps counter" `Quick test_lru_clear_keeps_eviction_count;
          Alcotest.test_case "fold order" `Quick test_lru_fold_order;
          test_lru_model;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          test_stats_acc_matches_batch;
        ] );
      ( "pool",
        [
          Alcotest.test_case "serial inline" `Quick test_pool_serial_inline;
          Alcotest.test_case "map matches List.map" `Quick test_pool_map_matches_list_map;
          Alcotest.test_case "submission order wins" `Quick
            test_pool_order_beats_completion_order;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception_propagates;
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse_across_submissions;
          Alcotest.test_case "create validation" `Quick test_pool_create_validation;
        ] );
    ]
