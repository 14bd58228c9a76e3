(* FIPS 180-4 SHA-256.  Words are native ints holding 32-bit values, masked
   back to 32 bits after every sum, so nothing is boxed. *)

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
     0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
     0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
     0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
     0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
     0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
     0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
     0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
     0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

let mask = 0xFFFFFFFF

(* indices below are loop-bounded within the 64-entry [k] and [w] *)
let[@inline] ( .!() ) (a : int array) i = Array.unsafe_get a i
let[@inline] ( .!()<- ) (a : int array) i x = Array.unsafe_set a i x

(* [twice x] holds two copies of the 32-bit [x] side by side, so the low 32
   bits of [twice x lsr n] are [x] rotated right by [n] (for n <= 31: the
   63-bit int drops only the top copy's highest bit) *)
let[@inline] twice x = x lor (x lsl 32)

(* one 64-byte block of [data] at [base] into the state [h]; [w] is the
   message-schedule scratch *)
let compress h w data base =
  for t = 0 to 15 do
    w.!(t) <- Int32.to_int (String.get_int32_be data (base + (4 * t))) land mask
  done;
  for t = 16 to 63 do
    let x = w.!(t - 15) and y = w.!(t - 2) in
    let xx = twice x and yy = twice y in
    let s0 = ((xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3)) land mask in
    let s1 = ((yy lsr 17) lxor (yy lsr 19) lxor (y lsr 10)) land mask in
    w.!(t) <- (w.!(t - 16) + s0 + w.!(t - 7) + s1) land mask
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let ee = twice !e and aa = twice !a in
    let s1 = ((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land mask in
    (* Ch and Maj in forms with one operation fewer than FIPS 180-4's *)
    let ch = !g lxor (!e land (!f lxor !g)) in
    let temp1 = !hh + s1 + ch + k.!(t) + w.!(t) in
    let s0 = ((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land mask in
    let maj = (!a land (!b lor !c)) lor (!b land !c) in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + temp1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (temp1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let digest msg =
  let len = String.length msg in
  let h = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
             0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |] in
  let w = Array.make 64 0 in
  let full = len / 64 in
  for blk = 0 to full - 1 do
    compress h w msg (64 * blk)
  done;
  (* the padded tail, one or two blocks: the leftover bytes, one 0x80 byte,
     zeros, then the 8-byte big-endian bit length *)
  let rest = len - (64 * full) in
  let tail = Bytes.make (if rest < 56 then 64 else 128) '\000' in
  Bytes.blit_string msg (64 * full) tail 0 rest;
  Bytes.set tail rest '\x80';
  Bytes.set_int64_be tail (Bytes.length tail - 8) (Int64.of_int (len * 8));
  let tail = Bytes.unsafe_to_string tail in
  for blk = 0 to (String.length tail / 64) - 1 do
    compress h w tail (64 * blk)
  done;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int h.(i))
  done;
  Bytes.unsafe_to_string out

let hex_digest msg = Hexutil.encode (digest msg)

let hmac ~key msg =
  let key = if String.length key > 64 then digest key else key in
  let key = key ^ String.make (64 - String.length key) '\000' in
  let xor_pad c = String.map (fun k -> Char.chr (Char.code k lxor Char.code c)) key in
  let ipad = xor_pad '\x36' and opad = xor_pad '\x5c' in
  digest (opad ^ digest (ipad ^ msg))

let hmac_hex ~key msg = Hexutil.encode (hmac ~key msg)
