(** From-scratch SHA-256 and HMAC-SHA-256.

    The electronic-cash substrate (paper §3) needs an unforgeable mint
    signature and unguessable serial numbers; the sealed environment has no
    crypto library, so we implement FIPS 180-4 SHA-256 directly.  Words are
    native ints (no [Int32] boxes) and full blocks are hashed in place, since
    code-cache digests and every mint/audit/ticket HMAC run on the
    simulation's hot paths.  It is not side-channel safe — the adversaries
    here are simulated agents, not hardware probes. *)

val digest : string -> string
(** [digest msg] is the 32-byte (raw) SHA-256 digest of [msg]. *)

val hex_digest : string -> string
(** [hex_digest msg] is the 64-character lowercase-hex digest. *)

val hmac : key:string -> string -> string
(** [hmac ~key msg] is the 32-byte raw HMAC-SHA-256 (RFC 2104). *)

val hmac_hex : key:string -> string -> string
