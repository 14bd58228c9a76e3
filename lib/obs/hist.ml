(* [stats] holds sum, min and max unboxed, so an observation stores three
   floats and allocates nothing. *)
type t = {
  bounds : float array; (* strictly increasing upper bounds *)
  counts : int array; (* length = Array.length bounds + 1 (overflow) *)
  mutable count : int;
  stats : Float.Array.t; (* sum, min, max *)
}

let sum_slot = 0
let min_slot = 1
let max_slot = 2

let default_bounds =
  (* 1e-6 .. ~1.7e7 by factors of 4: 23 buckets *)
  Array.init 23 (fun i -> 1e-6 *. (4.0 ** float_of_int i))

let create ?(bounds = default_bounds) () =
  Array.iteri
    (fun i b ->
      if i > 0 && b <= bounds.(i - 1) then
        invalid_arg "Hist.create: bounds must be strictly increasing")
    bounds;
  let stats = Float.Array.make 3 0.0 in
  Float.Array.set stats min_slot infinity;
  Float.Array.set stats max_slot neg_infinity;
  { bounds; counts = Array.make (Array.length bounds + 1) 0; count = 0; stats }

(* The bucket is the first whose upper bound admits [x] ([x <= bound]); NaN
   and values past the last bound land in the overflow bucket.  A linear
   scan is fine for a couple dozen buckets, and as a loop rather than a
   local function it lets [observe] inline into its callers, which then
   pass [x] unboxed. *)
let[@inline] observe t x =
  let bounds = t.bounds in
  let n = Array.length bounds in
  let i = ref 0 in
  while !i < n && not (x <= Array.unsafe_get bounds !i) do
    incr i
  done;
  let i = !i in
  t.counts.(i) <- t.counts.(i) + 1;
  t.count <- t.count + 1;
  let s = t.stats in
  Float.Array.unsafe_set s sum_slot (Float.Array.unsafe_get s sum_slot +. x);
  if x < Float.Array.unsafe_get s min_slot then Float.Array.unsafe_set s min_slot x;
  if x > Float.Array.unsafe_get s max_slot then Float.Array.unsafe_set s max_slot x

let count t = t.count
let sum t = Float.Array.get t.stats sum_slot
let mean t = if t.count = 0 then 0.0 else sum t /. float_of_int t.count
let min_value t = if t.count = 0 then 0.0 else Float.Array.get t.stats min_slot
let max_value t = if t.count = 0 then 0.0 else Float.Array.get t.stats max_slot

let percentile t p =
  if t.count = 0 then 0.0
  else begin
    let min_v = Float.Array.get t.stats min_slot
    and max_v = Float.Array.get t.stats max_slot in
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
    let lo = if i = 0 then min_v else t.bounds.(i - 1) in
    let hi = if i >= n then max_v else Float.min t.bounds.(i) max_v in
    let lo = Float.max lo min_v and hi = Float.min hi max_v in
    if t.counts.(i) = 0 || hi <= lo then Float.min hi max_v
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
