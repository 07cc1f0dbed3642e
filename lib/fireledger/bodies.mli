(** Block bodies that arrived ahead of their blocks (§6.1.1: bodies are
    disseminated in the background, only headers go through
    consensus), keyed by body hash, each with its arrival time (event
    A of §7.2.2).

    A key is always the computed hash of its body: {!add} is the only
    writer, and its callers pass a hash they computed or got from
    {!received_hash}. That invariant lets a node hash each body once —
    the copies of a body it already holds need no hashing — and lets
    the main loop append a stored body without re-hashing it. *)

open Fl_chain

type t

val create : unit -> t

val empty_hash : string
(** [Block.body_hash [||]]. *)

val find : t -> string -> Tx.t array option
(** The body stored under a hash. The empty body is synthesised rather
    than looked up: every empty block commits to the same hash, so a
    shared entry would be dropped when the first of them is appended. *)

val mem : t -> string -> bool

val arrival : t -> string -> Fl_sim.Time.t option

val received_hash : t -> claimed:string -> Tx.t array -> string
(** [Block.body_hash txs] for a body received with the commitment
    [claimed]. When a body with equal transactions is already stored
    under [claimed], that key is the answer and nothing is hashed;
    otherwise [txs] are hashed, so a forged claim yields the body's
    true hash. *)

val add : t -> bh:string -> Tx.t array -> at:Fl_sim.Time.t -> bool
(** Store a body under [bh], which must be [Block.body_hash txs].
    Returns [false], leaving the first copy and its arrival time in
    place, when [bh] is already stored. *)

val remove : t -> string -> unit
