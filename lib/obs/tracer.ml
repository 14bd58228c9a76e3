type t = {
  enabled : bool;
  ring : Event.t Ring.t;
  mutable next_trace : int;
  mutable next_span : int;
  mutable seq : int;
}

let create ?(capacity = 65536) ?(enabled = false) () =
  { enabled; ring = Ring.create capacity; next_trace = 1; next_span = 1; seq = 0 }

let enabled t = t.enabled
let record t ~time ~kind ~name ~cat ~site ~agent ~span ~parent_id ~msg ~attrs =
  let seq = t.seq in
  t.seq <- seq + 1;
  Ring.push t.ring
    { Event.seq; time; kind; name; cat; site; agent; span; parent_id; msg; attrs }

let start_span t ~time ?parent ?(site = -1) ?(agent = "") ?(msg = "") ?(attrs = []) name =
  if not t.enabled then Span.null
  else begin
    let span_id = t.next_span in
    t.next_span <- span_id + 1;
    let trace_id, parent_id =
      match parent with
      | Some p when not (Span.is_null p) -> (p.Span.trace_id, p.Span.span_id)
      | Some _ | None ->
        let tid = t.next_trace in
        t.next_trace <- tid + 1;
        (tid, 0)
    in
    let span = { Span.trace_id; span_id } in
    record t ~time ~kind:Event.Begin ~name ~cat:"agent" ~site ~agent ~span ~parent_id
      ~msg ~attrs;
    span
  end

let end_span t ~time ?(site = -1) ?(agent = "") ?(attrs = []) span name =
  if t.enabled && not (Span.is_null span) then
    record t ~time ~kind:Event.End ~name ~cat:"agent" ~site ~agent ~span ~parent_id:0
      ~msg:"" ~attrs

let instant t ~time ?(span = Span.null) ?(cat = "") ?(site = -1) ?(agent = "")
    ?(msg = "") ?(attrs = []) name =
  if t.enabled then
    record t ~time ~kind:Event.Instant ~name ~cat ~site ~agent ~span ~parent_id:0 ~msg
      ~attrs

let events t = Ring.to_list t.ring
let length t = Ring.length t.ring
let evicted t = Ring.evicted t.ring

let clear t =
  Ring.clear t.ring;
  t.next_trace <- 1;
  t.next_span <- 1;
  t.seq <- 0
