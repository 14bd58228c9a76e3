(* Two parallel arrays: the keys unboxed in a [Float.Array], the elements in
   an [int array].  Nothing is boxed, so a push or a pop allocates nothing
   until the arrays have to grow. *)
type t = { mutable keys : Float.Array.t; mutable elts : int array; mutable size : int }

let create n =
  let n = max n 1 in
  { keys = Float.Array.make n 0.0; elts = Array.make n 0; size = 0 }

let length t = t.size
let is_empty t = t.size = 0
let clear t = t.size <- 0

let grow t =
  let cap = Array.length t.elts in
  let keys = Float.Array.make (2 * cap) 0.0 and elts = Array.make (2 * cap) 0 in
  Float.Array.blit t.keys 0 keys 0 cap;
  Array.blit t.elts 0 elts 0 cap;
  t.keys <- keys;
  t.elts <- elts

let swap t i j =
  let k = Float.Array.get t.keys i and e = t.elts.(i) in
  Float.Array.set t.keys i (Float.Array.get t.keys j);
  t.elts.(i) <- t.elts.(j);
  Float.Array.set t.keys j k;
  t.elts.(j) <- e

(* Strict comparisons only: an entry never passes one with an equal key, so
   equal keys leave in the order the sifts give them, not by element. *)
let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if Float.Array.get t.keys i < Float.Array.get t.keys parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && Float.Array.get t.keys l < Float.Array.get t.keys !smallest then smallest := l;
  if r < t.size && Float.Array.get t.keys r < Float.Array.get t.keys !smallest then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t key elt =
  if t.size = Array.length t.elts then grow t;
  Float.Array.set t.keys t.size key;
  t.elts.(t.size) <- elt;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then invalid_arg "Heap.pop: empty heap";
  let top = t.elts.(0) in
  t.size <- t.size - 1;
  Float.Array.set t.keys 0 (Float.Array.get t.keys t.size);
  t.elts.(0) <- t.elts.(t.size);
  if t.size > 0 then sift_down t 0;
  top
