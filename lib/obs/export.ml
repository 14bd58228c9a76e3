(* Hand-rolled JSON emission: the dependency footprint stays zero and the
   output is deterministic byte-for-byte (golden-tested). *)

let add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_json_float buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  else Buffer.add_string buf (Printf.sprintf "%.6f" f)

let add_attr buf (v : Event.attr) =
  match v with
  | Event.S s -> add_json_string buf s
  | Event.I i -> Buffer.add_string buf (string_of_int i)
  | Event.F f -> add_json_float buf f

let kind_name = function
  | Event.Begin -> "begin"
  | Event.End -> "end"
  | Event.Instant -> "instant"

let add_event buf (e : Event.t) =
  Buffer.add_string buf "{\"seq\":";
  Buffer.add_string buf (string_of_int e.seq);
  Buffer.add_string buf ",\"t\":";
  add_json_float buf e.time;
  Buffer.add_string buf ",\"kind\":";
  add_json_string buf (kind_name e.kind);
  Buffer.add_string buf ",\"name\":";
  add_json_string buf e.name;
  if e.cat <> "" then begin
    Buffer.add_string buf ",\"cat\":";
    add_json_string buf e.cat
  end;
  if e.site >= 0 then begin
    Buffer.add_string buf ",\"site\":";
    Buffer.add_string buf (string_of_int e.site)
  end;
  if e.agent <> "" then begin
    Buffer.add_string buf ",\"agent\":";
    add_json_string buf e.agent
  end;
  if not (Span.is_null e.span) then begin
    Buffer.add_string buf (Printf.sprintf ",\"trace\":%d,\"span\":%d" e.span.Span.trace_id e.span.Span.span_id);
    if e.parent_id <> 0 then
      Buffer.add_string buf (Printf.sprintf ",\"parent\":%d" e.parent_id)
  end;
  if e.msg <> "" then begin
    Buffer.add_string buf ",\"msg\":";
    add_json_string buf e.msg
  end;
  if e.attrs <> [] then begin
    Buffer.add_string buf ",\"attrs\":{";
    let first = ref true in
    List.iter
      (fun (k, v) ->
        if not !first then Buffer.add_char buf ',';
        first := false;
        add_json_string buf k;
        Buffer.add_char buf ':';
        add_attr buf v)
      e.attrs
  end;
  if e.attrs <> [] then Buffer.add_char buf '}';
  Buffer.add_char buf '}'

let jsonl events =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      add_event buf e;
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

(* --- Chrome trace-event format ------------------------------------------- *)

let usec t = t *. 1e6

let add_chrome_event buf (e : Event.t) =
  let ph, tid =
    match e.kind with
    | Event.Begin -> ("B", e.span.Span.span_id)
    | Event.End -> ("E", e.span.Span.span_id)
    | Event.Instant -> ("i", 0)
  in
  Buffer.add_string buf "{\"name\":";
  add_json_string buf e.name;
  Buffer.add_string buf ",\"cat\":";
  add_json_string buf (if e.cat = "" then "agent" else e.cat);
  Buffer.add_string buf (Printf.sprintf ",\"ph\":%S" ph);
  if e.kind = Event.Instant then Buffer.add_string buf ",\"s\":\"t\"";
  Buffer.add_string buf ",\"ts\":";
  add_json_float buf (usec e.time);
  Buffer.add_string buf (Printf.sprintf ",\"pid\":%d,\"tid\":%d" (max 0 e.site) tid);
  Buffer.add_string buf ",\"args\":{";
  let first = ref true in
  let arg k add_v =
    if not !first then Buffer.add_char buf ',';
    first := false;
    add_json_string buf k;
    Buffer.add_char buf ':';
    add_v ()
  in
  if e.agent <> "" then arg "agent" (fun () -> add_json_string buf e.agent);
  if e.site >= 0 then arg "site" (fun () -> Buffer.add_string buf (string_of_int e.site));
  if not (Span.is_null e.span) then begin
    arg "trace" (fun () -> Buffer.add_string buf (string_of_int e.span.Span.trace_id));
    arg "span" (fun () -> Buffer.add_string buf (string_of_int e.span.Span.span_id));
    if e.parent_id <> 0 then
      arg "parent" (fun () -> Buffer.add_string buf (string_of_int e.parent_id))
  end;
  if e.msg <> "" then arg "msg" (fun () -> add_json_string buf e.msg);
  List.iter (fun (k, v) -> arg k (fun () -> add_attr buf v)) e.attrs;
  Buffer.add_string buf "}}"

let chrome events =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  let first = ref true in
  List.iter
    (fun e ->
      if not !first then Buffer.add_string buf ",\n";
      first := false;
      add_chrome_event buf e)
    events;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let pp_events fmt events =
  List.iter (fun e -> Format.fprintf fmt "%a@." Event.pp e) events

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc
