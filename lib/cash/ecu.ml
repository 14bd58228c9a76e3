type t = { amount : int; serial : string; signature : string }

let wire e = String.concat ":" [ Tacoma_util.Decimal.of_int e.amount; e.serial; e.signature ]

let of_wire s =
  match String.split_on_char ':' s with
  | [ amount; serial; signature ] -> (
    match int_of_string_opt amount with
    | Some amount when amount > 0 ->
      if Tacoma_util.Hexutil.is_hex serial && Tacoma_util.Hexutil.is_hex signature then
        Ok { amount; serial; signature }
      else Error "serial/signature not hex"
    | Some _ -> Error "non-positive amount"
    | None -> Error "bad amount")
  | _ -> Error "expected amount:serial:signature"

let of_wire_exn s =
  match of_wire s with
  | Ok e -> e
  | Error msg -> invalid_arg ("Ecu.of_wire_exn: " ^ msg)

let wire_list es = List.map wire es
let total es = List.fold_left (fun acc e -> acc + e.amount) 0 es
let pp fmt e = Format.fprintf fmt "ECU(%d, %s...)" e.amount (String.sub e.serial 0 8)
