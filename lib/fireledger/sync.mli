(** Catch-up sync. A node isolated past its peers' live protocol
    window (their per-round OBBC state is garbage-collected) cannot
    finish old rounds by consensus. Signed proposals in the WRB stash
    show how far ahead the cluster is; blocks deeper than f+1 below
    that are definite, so the node pulls them (Req/Reply), checks
    signatures, hash links and bodies, and appends them without
    re-running consensus. The module also runs the servers that answer
    other nodes' pulls, and owns the pulled-but-unappended blocks. *)

open Fl_sim
open Fl_chain

type t

val create :
  Env.t ->
  config:Config.t ->
  valid:(Block.t -> bool) ->
  store:Store.t ->
  bodies:Bodies.t ->
  timer:Timer.t ->
  wrb:Wrb.t ->
  round:(unit -> int) ->
  definite_upto:(unit -> int) ->
  appended:(int -> (Block.t * Types.signed_header) option) ->
  accept:(Types.proposal -> Tx.t array -> header_at:Time.t -> unit) ->
  rescind_tentative:(unit -> unit) ->
  resume:(unit -> unit) ->
  t
(** [accept] appends a block to the chain; [rescind_tentative] drops
    every stored round past the definite watermark; [resume] restarts
    the round loop after the sync (full mode, fresh attempt, re-seated
    proposer). *)

val start : t -> unit
(** Spawn the reply and pull service fibers. *)

val maybe_catch_up : t -> abort:unit Ivar.t -> unit
(** Pull and append blocks up to f+2 rounds below the highest stashed
    round, when the stash shows the cluster at least [2f + 6] rounds
    ahead. *)

val watchdog : t -> reconfigured:bool -> bool
(** [watchdog t] is the staleness check run every 250 ms: true when
    the main loop should abort its wait, either to catch up (far
    behind) or, after a reconfiguration ([reconfigured]), because it
    is wedged — no progress for a second while a later round's signed
    proposal is stashed. A wedge is remembered for {!unwedge}. *)

val unwedge : t -> unit
(** After a wedge verdict: pull the current round's block instead of
    re-entering its consensus. *)

val follow : t -> bool
(** Pull the current round's block and append it if it extends the
    tip — how a node that cannot vote follows the chain. True on
    progress. *)
