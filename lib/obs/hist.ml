type t = {
  bounds : float array; (* strictly increasing upper bounds *)
  counts : int array; (* length = Array.length bounds + 1 (overflow) *)
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let default_bounds =
  (* 1e-6 .. ~1.7e7 by factors of 4: 23 buckets *)
  Array.init 23 (fun i -> 1e-6 *. (4.0 ** float_of_int i))

let create ?(bounds = default_bounds) () =
  Array.iteri
    (fun i b ->
      if i > 0 && b <= bounds.(i - 1) then
        invalid_arg "Hist.create: bounds must be strictly increasing")
    bounds;
  {
    bounds;
    counts = Array.make (Array.length bounds + 1) 0;
    count = 0;
    sum = 0.0;
    min_v = infinity;
    max_v = neg_infinity;
  }

let bucket_index t x =
  (* first bucket whose upper bound admits x; linear scan is fine for a
     couple dozen buckets and keeps the hot path branch-predictable *)
  let n = Array.length t.bounds in
  let rec go i = if i >= n then n else if x <= t.bounds.(i) then i else go (i + 1) in
  go 0

let observe t x =
  let i = bucket_index t x in
  t.counts.(i) <- t.counts.(i) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum +. x;
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let count t = t.count
let sum t = t.sum
let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count
let min_value t = if t.count = 0 then 0.0 else t.min_v
let max_value t = if t.count = 0 then 0.0 else t.max_v

let percentile t p =
  if t.count = 0 then 0.0
  else begin
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.count)) in
    let rank = max 1 (min t.count rank) in
    let n = Array.length t.bounds in
    let rec find i cum =
      if i > n then (n, cum) (* unreachable: cum reaches count by overflow *)
      else
        let cum' = cum + t.counts.(i) in
        if cum' >= rank then (i, cum) else find (i + 1) cum'
    in
    let i, below = find 0 0 in
    let lo = if i = 0 then t.min_v else t.bounds.(i - 1) in
    let hi = if i >= n then t.max_v else Float.min t.bounds.(i) t.max_v in
    let lo = Float.max lo t.min_v and hi = Float.min hi t.max_v in
    if t.counts.(i) = 0 || hi <= lo then Float.min hi t.max_v
    else begin
      (* linear interpolation by rank position inside the bucket *)
      let frac = float_of_int (rank - below) /. float_of_int t.counts.(i) in
      lo +. (frac *. (hi -. lo))
    end
  end

let buckets t =
  let out = ref [] in
  let n = Array.length t.bounds in
  for i = n downto 0 do
    if t.counts.(i) > 0 then
      let bound = if i = n then infinity else t.bounds.(i) in
      out := (bound, t.counts.(i)) :: !out
  done;
  !out
