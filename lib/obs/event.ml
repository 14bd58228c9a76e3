type attr = S of string | I of int | F of float
type attrs = (string * attr) list

type kind = Begin | End | Instant

type t = {
  seq : int;
  time : float;
  kind : kind;
  name : string;
  cat : string;
  site : int;
  agent : string;
  span : Span.ctx;
  parent_id : int;
  msg : string;
  attrs : attrs;
}

let attr_to_string = function
  | S s -> s
  | I i -> string_of_int i
  | F f -> Printf.sprintf "%g" f

let kind_mark = function Begin -> "B" | End -> "E" | Instant -> "."

let pp fmt e =
  Format.fprintf fmt "[%10.4f] %s %-20s" e.time (kind_mark e.kind) e.name;
  if e.site >= 0 then Format.fprintf fmt " site-%d" e.site;
  if e.agent <> "" then Format.fprintf fmt " %s" e.agent;
  if not (Span.is_null e.span) then begin
    Format.fprintf fmt " %a" Span.pp e.span;
    if e.parent_id <> 0 then Format.fprintf fmt "<-s%d" e.parent_id
  end;
  if e.msg <> "" then Format.fprintf fmt " %s" e.msg;
  List.iter
    (fun (k, v) -> Format.fprintf fmt " %s=%s" k (attr_to_string v))
    e.attrs
