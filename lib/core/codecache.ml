type config = {
  budget_bytes : int;
  request_bytes : int;
  reply_overhead_bytes : int;
  fetch_timeout : float;
  fetch_attempts : int;
}

let default_config =
  {
    budget_bytes = 256 * 1024;
    request_bytes = 96;
    reply_overhead_bytes = 32;
    fetch_timeout = 10.0;
    fetch_attempts = 2;
  }

module Lru = Tacoma_util.Lru

(* The store is a byte-weighted LRU: the generic discipline lives in
   Tacoma_util.Lru, this module only fixes the weight (payload bytes) and
   the digest/wire-size conventions.  [last] is the element list and digest
   most recently resolved or installed, so the agent that just ran that code
   here can leave without hashing it again. *)
type t = {
  cfg : config;
  store : (string, string list) Lru.t;
  mutable last : (string list * string) option;
}

let payload_bytes elems =
  List.fold_left (fun acc e -> acc + String.length e) 0 elems

let create ?(on_evict = fun ~digest:_ ~bytes:_ -> ()) cfg =
  let store =
    Lru.create
      ~on_evict:(fun digest elems ->
        on_evict ~digest ~bytes:(payload_bytes elems))
      ~weight:payload_bytes ~budget:cfg.budget_bytes ()
  in
  { cfg; store; last = None }

let wire_bytes elems =
  (* mirrors Codec.put_strings: 4-byte count, then each length-prefixed
     element *)
  List.fold_left (fun acc e -> acc + Codec.encoded_size e) 4 elems

let digest elems =
  let buf = Bytes.create (wire_bytes elems) in
  ignore (Codec.put_strings buf 0 elems);
  Tacoma_util.Sha256.hex_digest (Bytes.unsafe_to_string buf)

let remember t elems digest = t.last <- Some (elems, digest)

(* String.equal is a pointer check when the strings are shared, which they
   are when the folder still holds what the cache handed out *)
let digest_at t elems =
  match t.last with
  | Some (seen, dg) when List.equal String.equal seen elems -> dg
  | _ -> digest elems

let insert t ~digest elems =
  remember t elems digest;
  match Lru.find_opt t.store digest with
  | Some _ -> true (* find_opt already refreshed recency *)
  | None -> Lru.add t.store digest elems

let find_opt t ~digest =
  match Lru.find_opt t.store digest with
  | Some elems as found ->
    remember t elems digest;
    found
  | None -> None

let mem t ~digest = Lru.mem t.store digest

let clear t =
  t.last <- None;
  Lru.clear t.store

let bytes_used t = Lru.used t.store
let entry_count t = Lru.length t.store
let digests t = Lru.keys t.store
