type t = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable bytes : int;
  mutable byte_hops : int;
}

let create () = { sent = 0; delivered = 0; dropped = 0; bytes = 0; byte_hops = 0 }

let record_send t ~bytes ~hops =
  t.sent <- t.sent + 1;
  t.bytes <- t.bytes + bytes;
  t.byte_hops <- t.byte_hops + (bytes * hops)

let record_delivery t = t.delivered <- t.delivered + 1
let record_drop t = t.dropped <- t.dropped + 1

let messages_sent t = t.sent
let messages_delivered t = t.delivered
let messages_dropped t = t.dropped
let bytes_sent t = t.bytes
let byte_hops t = t.byte_hops
