(** Weak reliable broadcast — the paper's Algorithm 1 with the §6.1.1
    optimizations.

    A round's proposer signs a header over its block body. Bodies are
    disseminated out-of-band ahead of their rounds; headers travel by
    direct push or piggybacked on the proposer's OBBC vote for the
    previous round. Every node stashes the newest signed proposal per
    proposer, votes 1 in the round's OBBC instance when the proposal
    and its body are in hand, and on a decision of 1 it delivers,
    pulling whatever it still misses (lines 22–27).

    The module owns the stash, the arrival pulse that wakes its waits,
    the open OBBC instances and this node's own proposal pipeline. It
    reads the chain core only through the functions given to
    {!create}. *)

open Fl_sim
open Fl_chain

type t

val create :
  Env.t ->
  config:Config.t ->
  valid:(Block.t -> bool) ->
  store:Store.t ->
  mempool:Mempool.t ->
  bodies:Bodies.t ->
  timer:Timer.t ->
  detector:Detector.t ->
  acc:Accountability.t ->
  round:(unit -> int) ->
  admits:(round:int -> int -> bool) ->
  epoch_at:(int -> Epoch.t) ->
  appended:(int -> (Block.t * Types.signed_header) option) ->
  piggyback:(k:int -> bool) ->
  t
(** [round] is the instance's current round; [admits ~round id] the
    membership guard for a proposal of [id] at [round]; [epoch_at] the
    epoch governing a round; [appended r] the stored block of round
    [r] with its signed header; [piggyback ~k] whether to piggyback our
    next proposal on the vote for [k]'s block. *)

val start : t -> unit
(** Spawn the push and body service fibers. *)

val deliver :
  t ->
  round:int ->
  attempt:int ->
  era:int ->
  k:int ->
  abort:unit Ivar.t ->
  (Types.proposal * Tx.t array * Time.t) option
(** WRB-deliver proposer [k]'s block for [round]: the proposal, its
    body and the time its header arrived, or [None] when the OBBC
    decided 0. Raises {!Race.Aborted} when [abort] fills. *)

val push : t -> round:int -> unit
(** Sign our proposal on the chain tip and push it to every node
    (Algorithm 2, lines 6–11). *)

val pre_disseminate : t -> unit
(** Build and ship upcoming bodies ahead of our proposing turn. *)

val variant :
  t -> round:int -> prev_hash:string -> Types.proposal * Tx.t array * string
(** A freshly built, signed but unarchived proposal with its body and
    body hash — the equivocator's conflicting variants. *)

val own_appended : t -> bh:string -> unit
(** Our block with body hash [bh] was appended. *)

val own_definite : t -> bh:string -> unit
(** Our block with body hash [bh] became definite. *)

val reclaim : t -> bh:string -> (Tx.t * int) array option
(** Take back the client transactions (with fees) of our rescinded
    block with body hash [bh]. *)

val client_txs : t -> (Tx.t * int) list
(** Client transactions in our not yet definite blocks. *)

val take_client_txs : t -> (Tx.t * int) list
(** {!client_txs}, forgetting them (a leaver's handoff). *)

val stashed : t -> k:int -> r:int -> Types.proposal option
(** [k]'s stashed proposal, if it is for round [r]. *)

val max_stash_round : t -> int
(** Highest round any stashed proposal claims ([-1] when empty). *)

val stashed_block : t -> int -> (Types.signed_header * Tx.t array) option
(** A stashed proposal for the round whose body we hold. *)

val note_proposal : t -> src:int -> Types.proposal -> unit
(** Verify a received proposal and stash it. *)

val store_body : ?bh:string -> t -> Tx.t array -> at:Time.t -> string
(** Store a received body (charging its hash) and return its hash.
    [bh], when given, must be [Block.body_hash txs]. *)

val wake : t -> unit
(** Wake the waits: something arrived. *)

val request :
  t ->
  r:int ->
  timeout:Time.t ->
  abort:unit Ivar.t option ->
  got:(unit -> bool) ->
  unit
(** Ask every peer for round [r]'s block, then wait for arrivals until
    [got ()] holds or [timeout] passes. Raises {!Race.Aborted} when
    [abort] fills. *)

val gc : t -> cutoff:int -> prune_cut:int -> unit
(** Close the OBBC instances of rounds below [cutoff] and forget our
    signed headers of rounds below [prune_cut]. *)

val close_all : t -> unit
(** Close every open OBBC instance (teardown). *)
