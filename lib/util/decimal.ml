(* The digits are taken from [m = -|n|], so [min_int], which has no
   positive twin, needs no case of its own. *)

let length n =
  let rec go m k = if m > -10 then k else go (m / 10) (k + 1) in
  if n < 0 then go n 2 else go (-n) 1

(* writes the digits of [m <= 0] ending at [b.[i]]; returns the first one's index *)
let rec put_digits b i m =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 - (m mod 10)));
  if m <= -10 then put_digits b (i - 1) (m / 10) else i

let write b last n =
  if n >= 0 then ignore (put_digits b last (-n))
  else Bytes.unsafe_set b (put_digits b last n - 1) '-'

let table = Array.init 1024 string_of_int

let of_int n =
  if n >= 0 && n < Array.length table then Array.unsafe_get table n
  else begin
    let len = length n in
    let b = Bytes.create len in
    write b (len - 1) n;
    Bytes.unsafe_to_string b
  end
