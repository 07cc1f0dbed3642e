(** Binary Byzantine Consensus — the deterministic-safety fallback
    behind OBBC.

    This is the signature-free randomized algorithm of Mostéfaoui,
    Moumen and Raynal (JACM 2015), the paper's reference [61]:
    t < n/3, O(n²) messages per round, O(1) expected rounds given a
    common coin. Safety never depends on timing; termination relies on
    the {!Coin} oracle.

    Round structure (per node): BV-broadcast the current estimate
    (echo an estimate once f+1 nodes back it; accept it into
    [bin_values] at 2f+1); broadcast AUX with one accepted value; wait
    for n−f AUX messages whose values are all accepted; if they carry
    a single value v, decide v when v equals the round's coin flip,
    else adopt the coin. A decided node broadcasts DECIDE and keeps
    participating; nodes decide on f+1 matching DECIDEs (at least one
    correct decider) and halt on 2f+1, which bounds the protocol's
    lifetime. *)

open Fl_sim
open Fl_net

type msg =
  | Est of { round : int; value : bool }
  | Aux of { round : int; value : bool }
  | Decide of bool
  | Stop
      (** local control: tear the instance down. It only ever enters
          the local mailbox and has no wire encoding, so no peer can
          send it. *)

val write_msg : Fl_wire.Codec.Writer.t -> msg -> unit
(** In-body codec: BBC messages travel embedded in a carrier message
    (OBBC's [Fallback]) whose codec owns the envelope. Raises
    [Invalid_argument] on [Stop]. *)

val read_msg : Fl_wire.Codec.Reader.t -> msg
(** Inverse of {!write_msg}; never returns [Stop]. Raises
    {!Fl_wire.Codec.Malformed} on an unknown tag and
    {!Fl_wire.Codec.Reader.Underflow} on truncation. *)

val run :
  Engine.t ->
  recorder:Fl_metrics.Recorder.t ->
  coin:Coin.t ->
  channel:msg Channel.t ->
  ?abort:unit Ivar.t ->
  bool ->
  bool
(** [run engine ~recorder ~coin ~channel v] proposes [v] and returns
    the decision. The state machine runs in a background fiber that
    keeps serving lagging nodes after the decision and exits on the
    DECIDE quorum (or [Stop]). Raises {!Race.Aborted} if [abort]
    fills before a decision — the instance keeps running in the
    background so other nodes are not starved. *)

val start :
  Engine.t ->
  recorder:Fl_metrics.Recorder.t ->
  coin:Coin.t ->
  channel:msg Channel.t ->
  bool ->
  bool Ivar.t
(** Like {!run} but non-blocking: returns the decision ivar. Used by
    OBBC's background path. *)
