type labels = (string * string) list

type instrument =
  | ICounter of int ref
  | IHist of Hist.t

type t = { series : (string * labels, instrument) Hashtbl.t }

let create () = { series = Hashtbl.create 64 }

let canon labels =
  match labels with
  | [] | [ _ ] -> labels
  | _ -> List.sort compare labels

let find_or_add t name labels make =
  let key = (name, canon labels) in
  match Hashtbl.find_opt t.series key with
  | Some inst -> inst
  | None ->
    let inst = make () in
    Hashtbl.replace t.series key inst;
    inst

let kind_error name what =
  invalid_arg (Printf.sprintf "Metrics: %S is not a %s" name what)

let incr t ?(labels = []) ?(by = 1) name =
  match find_or_add t name labels (fun () -> ICounter (ref 0)) with
  | ICounter r -> r := !r + by
  | IHist _ -> kind_error name "counter"

let observe t ?(labels = []) name v =
  match find_or_add t name labels (fun () -> IHist (Hist.create ())) with
  | IHist h -> Hist.observe h v
  | ICounter _ -> kind_error name "histogram"

(* A handle resolves its series on first use and keeps the cell, so
   creating one registers nothing and the registry's contents match what
   [incr]/[observe] by name would have left. *)
type counter_handle = {
  c_reg : t;
  c_name : string;
  c_labels : labels;
  mutable cell : int ref option;
}

type histogram_handle = {
  h_reg : t;
  h_name : string;
  h_labels : labels;
  mutable hist : Hist.t option;
}

let counter_handle t ?(labels = []) name =
  { c_reg = t; c_name = name; c_labels = labels; cell = None }

let histogram_handle t ?(labels = []) name =
  { h_reg = t; h_name = name; h_labels = labels; hist = None }

let bump h n =
  match h.cell with
  | Some r -> r := !r + n
  | None -> (
    match find_or_add h.c_reg h.c_name h.c_labels (fun () -> ICounter (ref 0)) with
    | ICounter r ->
      h.cell <- Some r;
      r := !r + n
    | IHist _ -> kind_error h.c_name "counter")

let record_slow h v =
  match find_or_add h.h_reg h.h_name h.h_labels (fun () -> IHist (Hist.create ())) with
  | IHist hist ->
    h.hist <- Some hist;
    Hist.observe hist v
  | ICounter _ -> kind_error h.h_name "histogram"

(* Inlined with [Hist.observe] into the caller, so a resolved handle
   records its float without boxing it. *)
let[@inline] record h v =
  match h.hist with
  | Some hist -> Hist.observe hist v
  | None -> record_slow h v

let find t name labels = Hashtbl.find_opt t.series (name, canon labels)

let counter t ?(labels = []) name =
  match find t name labels with
  | Some (ICounter r) -> !r
  | Some _ -> kind_error name "counter"
  | None -> 0

let histogram t ?(labels = []) name =
  match find t name labels with
  | Some (IHist h) -> Some h
  | Some _ -> kind_error name "histogram"
  | None -> None

let counter_total t name =
  Hashtbl.fold
    (fun (n, _) inst acc ->
      match inst with ICounter r when n = name -> acc + !r | _ -> acc)
    t.series 0

type value = Counter of int | Histogram of Hist.t

let fold f t init =
  let rows =
    Hashtbl.fold
      (fun (name, labels) inst acc ->
        let v =
          match inst with
          | ICounter r -> Counter !r
          | IHist h -> Histogram h
        in
        (name, labels, v) :: acc)
      t.series []
    |> List.sort (fun (n1, l1, _) (n2, l2, _) -> compare (n1, l1) (n2, l2))
  in
  List.fold_left (fun acc (name, labels, v) -> f ~name ~labels v acc) init rows

let pp_labels fmt = function
  | [] -> ()
  | labels ->
    Format.fprintf fmt "{%s}"
      (String.concat ","
         (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels))

let pp fmt t =
  fold
    (fun ~name ~labels v () ->
      match v with
      | Counter n -> Format.fprintf fmt "%s%a %d@." name pp_labels labels n
      | Histogram h ->
        Format.fprintf fmt
          "%s%a count=%d sum=%g min=%g p50=%g p90=%g p99=%g max=%g@." name
          pp_labels labels (Hist.count h) (Hist.sum h) (Hist.min_value h)
          (Hist.percentile h 50.0) (Hist.percentile h 90.0)
          (Hist.percentile h 99.0) (Hist.max_value h))
    t ()
