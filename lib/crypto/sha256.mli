(** SHA-256 (FIPS 180-4): an OCaml front end (buffering, padding, digest
    layout) over a C compression kernel that absorbs every whole
    64-byte block of a feed in one call. The kernel keeps no state of
    its own, so contexts on different domains never interfere.

    Used for block hashes, Merkle trees and as the PRF underlying the
    simulated signature scheme. Incremental ([init]/[feed]/[finalize])
    and one-shot ([digest]) interfaces are provided. Digests are
    32-byte [string] values. Every entry point is one
    [Fl_prof.Prof.sha256] frame when profiling is on. *)

type t
(** Mutable hashing context. *)

val init : unit -> t
(** Fresh context. *)

val feed_bytes : t -> ?off:int -> ?len:int -> bytes -> unit
(** Absorb a byte range. Raises [Invalid_argument] on bad range. *)

val feed_string : t -> ?off:int -> ?len:int -> string -> unit
(** Absorb a substring. *)

val finalize : t -> string
(** Produce the 32-byte digest. The context must not be reused. *)

val digest : string -> string
(** One-shot digest of a string. *)

val hmac : key:string -> string -> string
(** HMAC-SHA-256 (RFC 2104) of a message under [key]. *)

val digest_size : int
(** 32. *)
