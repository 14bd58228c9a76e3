(* The calling domain works alongside [jobs - 1] spawned ones.  Each domain
   claims the next index from one atomic counter and writes its outcome into
   that index's slot; the slots are read only after every helper is joined,
   so the join orders every write before the read.  With no helpers the
   calling domain claims every index itself, in list order. *)

let map ~jobs f xs =
  if jobs < 0 then invalid_arg "Pool.map: jobs must be >= 0";
  let jobs = if jobs = 0 then Domain.recommended_domain_count () else jobs in
  let tasks = Array.of_list xs in
  let n = Array.length tasks in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <-
        Some
          (match f tasks.(i) with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()));
      work ()
    end
  in
  let helpers = List.init (max 0 (min jobs n - 1)) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join helpers;
  (* List.map reads the slots in index order, so the lowest failing index
     is the one raised *)
  Array.to_list results
  |> List.map (function
       | Some (Ok v) -> v
       | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
       | None -> assert false)
