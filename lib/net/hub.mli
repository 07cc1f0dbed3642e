(** Decoding and demultiplexing of a node's inbox into per-channel
    mailboxes.

    The network delivers framed byte strings; protocol fibers consume
    typed messages. A [Hub] runs a dispatcher fiber over the node's
    inbox that decodes each frame through the node's message codec and
    routes the result to the mailbox of its channel key (by round, by
    protocol phase, by instance), creating mailboxes on demand. The key
    type is the caller's: a node's message type pairs with a variant of
    its channels, so every channel a fiber names is one the compiler
    checks against the routing function. A
    frame the codec rejects — truncated, bit-flipped, garbage — is
    dropped and counted, never crashing the dispatcher nor reaching a
    protocol fiber. Fibers block on [box]/[recv_timeout] for the
    channels they care about; messages for future rounds wait in their
    channel until the protocol catches up. [remove] discards finished
    channels so memory stays bounded over long runs. *)

open Fl_sim

type ('k, 'm) t
(** A hub routing messages ['m] to channels keyed by ['k] (compared
    and hashed structurally). *)

val create :
  Engine.t ->
  inbox:(int * string) Mailbox.t ->
  decode:(string -> 'm option) ->
  ?on_malformed:(src:int -> bytes:int -> unit) ->
  key:('m -> 'k) ->
  unit ->
  ('k, 'm) t
(** Spawns the dispatcher fiber immediately. [on_malformed] fires for
    every rejected frame (after the internal counter) — the cluster
    layer hooks metrics and obs instants here. *)

val box : ('k, 'm) t -> 'k -> (int * 'm) Mailbox.t
(** Mailbox of a channel (created on demand). *)

val remove : ('k, 'm) t -> 'k -> unit
(** Drop a channel and any messages buffered in it. Late messages for
    a removed channel recreate it; callers remove channels only after
    the protocol can no longer consult them. *)

val channels : ('k, 'm) t -> int
(** Live channel count — for leak tests. *)

val malformed : ('k, 'm) t -> int
(** Frames the codec rejected since creation. *)
