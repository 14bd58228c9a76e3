type t = { sent : int; delivered : int; dropped : int; bytes : int; byte_hops : int }

let of_metrics m =
  let module M = Obs.Metrics in
  {
    sent = M.counter m "net.sent";
    delivered = M.counter m "net.delivered";
    dropped = M.counter_total m "net.drops";
    bytes = M.counter m "net.bytes_sent";
    byte_hops = M.counter_total m "net.link.bytes";
  }

let messages_sent t = t.sent
let messages_delivered t = t.delivered
let messages_dropped t = t.dropped
let bytes_sent t = t.bytes
let byte_hops t = t.byte_hops
