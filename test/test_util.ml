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

(* pops every element, smallest key first *)
let drain h =
  let rec go acc = if Heap.is_empty h then List.rev acc else go (Heap.pop h :: acc) in
  go []

let test_heap_sorts =
  qtest "heap pops in sorted order"
    QCheck2.Gen.(list (float_bound_inclusive 10.0))
    (fun keys ->
      (* element [i] is pushed under the [i]th key *)
      let h = Heap.create 2 in
      List.iteri (fun i k -> Heap.push h k i) keys;
      let keys = Array.of_list keys in
      List.map (fun i -> keys.(i)) (drain h) = List.sort compare (Array.to_list keys))

let test_heap_peek () =
  let h = Heap.create 4 in
  Heap.push h 5.0 50;
  Heap.push h 2.0 20;
  Heap.push h 9.0 90;
  Alcotest.(check int) "length" 3 (Heap.length h);
  Alcotest.(check int) "pop min" 20 (Heap.pop h);
  Alcotest.(check int) "length after pop" 2 (Heap.length h);
  Alcotest.check_raises "empty pop" (Invalid_argument "Heap.pop: empty heap") (fun () ->
      ignore (Heap.pop (Heap.create 1)))

let test_heap_interleaved () =
  let h = Heap.create 1 in
  Heap.push h 3.0 3;
  Heap.push h 1.0 1;
  Alcotest.(check int) "pop 1" 1 (Heap.pop h);
  Heap.push h 0.0 0;
  Heap.push h 2.0 2;
  Alcotest.(check int) "pop 0" 0 (Heap.pop h);
  Alcotest.(check int) "pop 2" 2 (Heap.pop h);
  Alcotest.(check int) "pop 3" 3 (Heap.pop h);
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_heap_clear () =
  let h = Heap.create 4 in
  List.iter (fun k -> Heap.push h k 0) [ 4.0; 2.0; 7.0 ];
  Heap.clear h;
  Alcotest.(check bool) "empty after clear" true (Heap.is_empty h);
  Heap.push h 1.0 1;
  Alcotest.(check (list int)) "usable after clear" [ 1 ] (drain h)

(* Equal keys leave in the order the sifts give them, not by element or by
   push order: element 0, pushed last, leaves before element 3, because the
   first pop moves it to the root and no strict comparison moves it down. *)
let test_heap_equal_keys () =
  let h = Heap.create 4 in
  List.iter (fun (k, e) -> Heap.push h k e) [ (1.0, 7); (1.0, 3); (2.0, 9); (1.0, 0) ];
  Alcotest.(check (list int)) "tie order" [ 7; 0; 3; 9 ] (drain h)

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
  (* lengths around the 55/56/64-byte padding boundaries; expected values
     from an independent implementation (Python hashlib) *)
  List.iter
    (fun (n, want) ->
      check Alcotest.string (Printf.sprintf "%d x" n) want (Sha256.hex_digest (String.make n 'x')))
    [
      (54, "45f316e10b2c99abf374b22bda893cf3300d77263f1e272349ed414680522952");
      (55, "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072");
      (56, "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e");
      (57, "ae14a2563ccf969d99aca69ce6bb74981f734bbf9f655f73b8f06db68cab5217");
      (63, "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2");
      (64, "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c");
      (65, "9537c5fdf120482f7d58d25e9ed583f52c02b4e304ea814db1633ad565aed7e9");
      (127, "70156a14adbabf98cff3a71c7084b417abf057a8efd27329ca36b7202c87d81f");
      (128, "24da1b81d0b16df6428eee73c69fcb2a93c76bc6df706f0c6670fe6bfe800464");
    ]

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
  (* keys longer than the block size are hashed first: RFC 4231 test cases
     6 and 7 (131-byte key), plus key sensitivity *)
  let key = String.make 131 '\xaa' in
  check Alcotest.string "rfc4231 tc6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Sha256.hmac_hex ~key "Test Using Larger Than Block-Size Key - Hash Key First");
  check Alcotest.string "rfc4231 tc7"
    "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
    (Sha256.hmac_hex ~key
       "This is a test using a larger than block-size key and a larger than block-size data. \
        The key needs to be hashed before being used by the HMAC algorithm.");
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

(* --- pool --- *)

module Pool = Tacoma_util.Pool

let test_pool_serial_inline () =
  (* jobs = 1, and any list of at most one element, runs every task on the
     calling domain, in list order *)
  let me = Domain.self () in
  let trace jobs xs =
    let order = ref [] in
    let got =
      Pool.map ~jobs
        (fun x ->
          order := x :: !order;
          Domain.self () = me)
        xs
    in
    check Alcotest.(list string) "list order" xs (List.rev !order);
    check Alcotest.(list bool) "calling domain" (List.map (fun _ -> true) xs) got
  in
  trace 1 [ "a"; "b"; "c" ];
  trace 4 [ "only" ]

let test_pool_map_matches_list_map () =
  let xs = List.init 40 Fun.id in
  let f x = (x * x) + 3 in
  List.iter
    (fun jobs ->
      check Alcotest.(list int)
        (Printf.sprintf "jobs=%d matches List.map" jobs)
        (List.map f xs) (Pool.map ~jobs f xs))
    [ 1; 2; 4 ]

let test_pool_order_beats_completion_order () =
  (* Force the first task to finish last: it spins until the second task
     (on the other domain) has run.  map must still return results in list
     order. *)
  let second_done = Atomic.make false in
  let results =
    Pool.map ~jobs:2
      (fun i ->
        if i = 0 then (
          while not (Atomic.get second_done) do
            Domain.cpu_relax ()
          done;
          "slow")
        else (
          Atomic.set second_done true;
          "fast"))
      [ 0; 1 ]
  in
  check Alcotest.(list string) "list order, not completion order"
    [ "slow"; "fast" ] results

exception Boom of int

let test_pool_exception_propagates () =
  (* tasks 3 and 7 fail: every task still runs, and the lowest failing
     index is the one re-raised.  With helpers, task 3 waits until task 7
     has failed, so 7 is the first failure in time. *)
  List.iter
    (fun jobs ->
      let ran = Atomic.make 0 and seven_failed = Atomic.make false in
      match
        Pool.map ~jobs
          (fun i ->
            Atomic.incr ran;
            if i = 3 && jobs > 1 then
              while not (Atomic.get seven_failed) do
                Domain.cpu_relax ()
              done;
            if i = 7 then Atomic.set seven_failed true;
            if i = 3 || i = 7 then raise (Boom i) else i)
          (List.init 10 Fun.id)
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
        check Alcotest.int (Printf.sprintf "jobs=%d raises index 3" jobs) 3 i;
        check Alcotest.int (Printf.sprintf "jobs=%d ran every task" jobs) 10
          (Atomic.get ran))
    [ 1; 2; 4 ]

let test_pool_jobs_beyond_length () =
  check Alcotest.(list int) "jobs > length" [ 2; 4; 6 ]
    (Pool.map ~jobs:8 (fun x -> 2 * x) [ 1; 2; 3 ]);
  check Alcotest.(list int) "empty list" [] (Pool.map ~jobs:4 (fun x -> x) [])

let test_pool_jobs_validation () =
  (match Pool.map ~jobs:(-1) Fun.id [ 1 ] with
  | _ -> Alcotest.fail "negative jobs should be rejected"
  | exception Invalid_argument _ -> ());
  let xs = List.init 20 Fun.id in
  check Alcotest.(list int) "jobs=0 matches List.map" (List.map succ xs)
    (Pool.map ~jobs:0 succ xs)

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
          Alcotest.test_case "equal keys" `Quick test_heap_equal_keys;
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
          Alcotest.test_case "fold order" `Quick test_lru_fold_order;
          test_lru_model;
        ] );
      ("stats", [ Alcotest.test_case "basic" `Quick test_stats_basic ]);
      ( "pool",
        [
          Alcotest.test_case "serial inline" `Quick test_pool_serial_inline;
          Alcotest.test_case "map matches List.map" `Quick test_pool_map_matches_list_map;
          Alcotest.test_case "submission order wins" `Quick
            test_pool_order_beats_completion_order;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception_propagates;
          Alcotest.test_case "jobs beyond length" `Quick test_pool_jobs_beyond_length;
          Alcotest.test_case "jobs validation" `Quick test_pool_jobs_validation;
        ] );
    ]
