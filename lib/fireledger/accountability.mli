(** Fork accountability. Two valid headers signed by one proposer for
    the same (round, prev_hash) slot are transferable evidence of
    equivocation. A node records each piece of evidence once, reports
    it through [on_evidence], and reliably broadcasts its own
    sightings, so every correct node ends up holding the same
    evidence. *)

type t

val create : Env.t -> on_evidence:(Types.evidence -> unit) -> t

val start : t -> unit
(** Spawn the evidence reliable broadcast endpoint. *)

val halt : t -> unit
(** Synchronous teardown of the evidence broadcast. *)

val consider_conflict :
  ?known_valid:bool -> t -> Types.signed_header -> Types.signed_header -> unit
(** Record evidence if the two headers claim the same slot with
    different content and both signatures check out. [known_valid]
    skips re-verifying signatures already checked on arrival. *)

val accused : t -> int list
(** Sorted, deduplicated proposers this node holds evidence against. *)
