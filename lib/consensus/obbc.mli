(** Optimistic Binary Byzantine Consensus — the paper's Algorithm 4,
    instantiated as OBBC₁ (fast for v = 1).

    Fast path: every node broadcasts its one-bit vote; a node that has
    received n−f votes that are all 1 decides 1 in that single
    communication step. Slow path: exchange evidences (an evidence for
    1 is the proposer-signed message itself, so it is transferable and
    externally checkable), adopt 1 on any valid evidence, then fall
    back to {!Bbc}. A fast-decided node keeps answering evidence
    requests and joins the fallback with its decided value if it sees
    fallback traffic (the paper's lines OB20–OB27), which is what makes
    the mixed fast/slow executions agree.

    The vote broadcast doubles as FireLedger's piggyback carrier: WRB
    attaches the next round's signed header ([pgd]) to it, which is
    how a block is decided per communication step (paper §5.1). *)

open Fl_sim
open Fl_net

type 'p msg =
  | Vote of { value : bool; pgd : 'p option }
  | Ev_req
  | Ev of Fl_wire.Codec.Slice.t option
      (** evidence blob as a borrowed view of the frame it was decoded
          from (zero-copy) — validated in place, copied only on
          retention *)
  | Fallback of Bbc.msg
  | Close
      (** tear the instance down: self-sent by {!close} through the
          transport, and obeyed only when it comes from this node *)

val write_msg :
  (Fl_wire.Codec.Writer.t -> 'p -> unit) ->
  Fl_wire.Codec.Writer.t ->
  'p msg ->
  unit
(** In-body codec, parameterized over the piggyback codec. The carrier
    protocol (WRB's [Ob] message) owns the envelope. *)

val read_msg :
  (Fl_wire.Codec.Reader.t -> 'p) -> Fl_wire.Codec.Reader.t -> 'p msg
(** Inverse of {!write_msg}; raises {!Fl_wire.Codec.Malformed} /
    {!Fl_wire.Codec.Reader.Underflow} on bad input. *)

type 'p t

val create :
  Engine.t ->
  recorder:Fl_metrics.Recorder.t ->
  coin:Coin.t ->
  channel:'p msg Channel.t ->
  validate_evidence:(Fl_wire.Codec.Slice.t -> bool) ->
  my_evidence:(unit -> string option) ->
  on_pgd:(src:int -> 'p -> unit) ->
  ?obs:Fl_obs.Obs.t ->
  ?obs_round:int ->
  ?obs_worker:int ->
  unit ->
  'p t
(** Create the instance and start its service fiber. [my_evidence] is
    consulted when answering [Ev_req] (it may become available after
    the vote — serving the freshest evidence only helps liveness).
    [on_pgd] fires once per sender on its piggybacked payload.

    With [obs] installed the instance emits phase events on the
    ["consensus"] category, attributed to [obs_round]/[obs_worker]
    (default [-1]): an ["obbc_fast"] span (vote broadcast → fast
    decision), an ["obbc_slow_path"] instant when the vote quorum is
    mixed, a ["fallback_enter"] instant and an ["obbc_fallback"] span
    covering the underlying {!Bbc} run. *)

val propose :
  'p t -> ?abort:unit Ivar.t -> vote:bool -> pgd:'p option -> unit -> bool
(** Propose a bit (with optional piggyback) and wait for the decision.
    For [vote = true], [my_evidence ()] must already return a valid
    evidence. Raises {!Race.Aborted} if [abort] fills first (the
    instance keeps serving in the background). *)

val evidence_received : 'p t -> string option
(** A valid evidence collected on the slow path, if any — in WRB this
    carries the proposer-signed message itself, letting a node that
    voted 0 deliver without a separate pull. *)

val close : 'p t -> unit
(** Stop the service fiber and release channels (idempotent). *)
