(** State transfer and handoff (DESIGN.md §5e): how a node crosses a
    membership change.

    - The {e donor} serves its definite prefix as a segment-addressed
      {!Fl_persist.Snapshot}, chunked over the wire.
    - The {e joiner} fetches the chunks with backoff, donor rotation
      and resumption, verifies the snapshot, and adopts it as its
      chain.
    - The {e leaver} hands its pending client transactions to a
      surviving member, once.

    The donor and handoff service fibers are spawned lazily, so a
    cluster that never reconfigures runs none of them. *)

open Fl_chain

type t

val create :
  Env.t ->
  store:Store.t ->
  mempool:Mempool.t ->
  persist:Fl_persist.Node.t option ->
  wrb:Wrb.t ->
  sync:Sync.t ->
  round:(unit -> int) ->
  definite_upto:(unit -> int) ->
  era:(unit -> int) ->
  epoch_at:(int -> Epoch.t) ->
  adopt_chain:
    (Store.t -> definite:int -> era:int -> pay:(int -> unit) -> unit) ->
  stopped:(unit -> bool) ->
  on_transfer:(upto:int -> chunks:int -> retries:int -> unit) ->
  t
(** [adopt_chain src ~definite ~era ~pay] makes [src] this instance's
    chain, [pay] charging the re-hash of its body bytes; [stopped]
    tells a running transfer to give up; [on_transfer] reports an
    adopted snapshot. *)

val ensure_fibers : t -> unit
(** Spawn the donor and handoff service fibers, once. *)

val step : t -> was_member:bool -> abort:unit Fl_sim.Ivar.t -> unit
(** One main-loop step of a node outside the membership governing its
    round. A leaver ([was_member]) hands off its pending transactions
    once, then parks. A joiner state-transfers a snapshot once, then
    follows the chain by pulling blocks until an epoch admits it. *)
