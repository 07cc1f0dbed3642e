(** Recovery — the paper's Algorithm 3 — and the panic queue that
    triggers it.

    A node that WRB-delivers a block not linking onto its tip holds a
    transferable proof of a chain inconsistency (Algorithm 2, lines
    b4–b10). The proof is reliably broadcast; every node that accepts
    a valid proof panics: it submits its version (its last f+1 blocks
    with their signatures) to an atomic broadcast, waits for n−f
    versions of the epoch's members, sweeps them for equivocation
    evidence, and adopts the longest valid one. Each recovery round is
    handled once.

    (Not to be confused with {!Fl_persist.Recovery}, which rebuilds a
    node's state from its disk after a crash.) *)

open Fl_sim
open Fl_chain

type t

val create :
  Env.t ->
  config:Config.t ->
  store:Store.t ->
  detector:Detector.t ->
  acc:Accountability.t ->
  wrb:Wrb.t ->
  round:(unit -> int) ->
  appended:(int -> (Block.t * Types.signed_header) option) ->
  epoch_at:(int -> Epoch.t) ->
  admits:(round:int -> int -> bool) ->
  rescind:
    (from:int ->
    rescinded:Block.t list ->
    (Block.t * Fl_crypto.Signature.signature) list ->
    unit) ->
  interrupt:(unit -> unit) ->
  recovered:(round:int -> rescinded:int -> t_begin:Time.t -> unit) ->
  t
(** [rescind ~from ~rescinded adopted] replaces the stored rounds from
    [from] on by [adopted]; [interrupt] aborts the main loop's current
    wait when a new proof is queued; [recovered] starts the next era
    once a recovery adopted its version. *)

val start_proofs : t -> unit
(** Spawn the proof reliable broadcast endpoint. *)

val start_versions : t -> unit
(** Spawn the version atomic broadcast endpoint. *)

val halt : t -> unit
(** Synchronous teardown: drop queued proofs, halt both endpoints. *)

val handled : t -> int -> bool
(** Has the recovery for this round already run? *)

val panic : t -> Types.proof -> unit
(** Reliably broadcast a proof this node generated, and queue it. *)

val drain : t -> unit
(** Run the recovery of every queued proof, lowest round first. *)
