(** Composable fault schedules ("plans") for adversarial exploration.

    A plan is derived deterministically from a single integer seed: it
    fixes the cluster size and a list of scheduled faults — crashes
    (optionally with restart), network partitions with heal times,
    probabilistic message-loss windows, up-to-[f] Byzantine
    equivocators, slow-NIC nodes and clock-skewed timers. The
    generator keeps the *process*-fault budget within [f] (crashed ∪
    Byzantine nodes); network faults (partitions, loss windows) are
    benign in the BFT model and may hit anyone, but are always bounded
    in time so the ♦Synch liveness assumption eventually holds.

    Plans serialise to a compact, human-readable string so a shrunk
    counterexample can be replayed from a copy-pasteable CLI
    invocation even after the shrinker has edited it away from what
    its seed would generate. *)

type fault =
  | Crash of { node : int; at_ms : int; restart_ms : int option }
      (** Disconnect [node] at [at_ms]; with [restart_ms], reconnect
          it then (crash-recovery with intact state). *)
  | Partition of { groups : int list list; at_ms : int; heal_ms : int }
      (** Split the network into [groups] (unlisted nodes form one
          extra group) from [at_ms] until [heal_ms]. *)
  | Loss of { node : int; prob : float; from_ms : int; to_ms : int }
      (** Drop each of [node]'s outbound messages with probability
          [prob] during the window — omission-period injection. *)
  | Equivocate of { node : int }
      (** [node] is Byzantine from the start: a different block to
          each half of the cluster (paper §7.4.2). *)
  | Slow_nic of { node : int; factor : float }
      (** [node]'s NIC runs [factor]× slower than the default. *)
  | Clock_skew of { node : int; factor : float }
      (** [node]'s WRB timer parameters are scaled by [factor]
          (< 1 = fast clock, spurious timeouts; > 1 = slow clock). *)
  | Torn_tail of { node : int; at_ms : int; restart_ms : int }
      (** Power-fail [node] at [at_ms] mid-write — its WAL media keeps
          a torn tail fragment — then cold-restart it at [restart_ms];
          recovery must discard the fragment. Requires a cluster built
          with persistence. *)
  | Disk_loss of { node : int; at_ms : int; restart_ms : int }
      (** Crash [node] and destroy its durable media; the restart at
          [restart_ms] finds empty media and must fall back to genesis
          + network catch-up. *)
  | Fsync_stall of { node : int; from_ms : int; to_ms : int }
      (** [node]'s storage device completes no fsync during the window
          (firmware GC pause / write-cache flush storm). *)
  | Corrupt of { node : int; prob : float; from_ms : int; to_ms : int }
      (** Mutate each of [node]'s outbound wire frames with probability
          [prob] during the window — a bit flip or truncation on the
          wire, which correct receivers must detect via the envelope
          CRC and drop (degenerating to omission). Benign in the BFT
          model, so may hit anyone; like {!Loss} it suspends the
          liveness expectation. *)
  | Surge of { factor : float; from_ms : int; to_ms : int }
      (** Flash crowd: multiply the open-loop client source's arrival
          rate by [factor] during the window. Attacks the admission
          layer (backpressure, fee-priority eviction, retry cohorts),
          not consensus — the paired oracle asserts no admitted
          transaction is ever silently dropped. Keeps the liveness
          expectation. *)
  | Join of { node : int; at_ms : int }
      (** Submit a [Join node] reconfiguration transaction through the
          plan's anchor member at [at_ms]. The explorer excludes
          joiners from the genesis membership, so [node] boots as an
          observer that state-transfers and catches up before the
          admitting epoch activates. *)
  | Leave of { node : int; at_ms : int }
      (** Submit a [Leave node] reconfiguration transaction at [at_ms]
          — deferred until any pending join has activated, keeping
          member-count transitions f-preserving. The leaver hands its
          pending transactions to a surviving member and degrades to an
          observer. *)
  | Rolling of { from_ms : int; gap_ms : int; down_ms : int }
      (** Rolling restart of the whole cluster: node [i] power-fails at
          [from_ms + i*gap_ms] and cold-restarts [down_ms] later;
          [gap_ms > down_ms] keeps at most one node down at a time, so
          quorums survive throughout. *)

type t = {
  n : int;
  f : int;
  seed : int;  (** cluster seed: latency draws, payloads, rotation *)
  faults : fault list;
}

val generate :
  ?with_disk_faults:bool ->
  ?with_corrupt_faults:bool ->
  ?with_surge_faults:bool ->
  ?with_reconfig_faults:bool ->
  ?n:int ->
  seed:int ->
  budget_ms:int ->
  unit ->
  t
(** Derive a plan from [seed]. All fault times land inside
    [budget_ms]; partitions heal and loss windows close by 60% of the
    budget. [n] pins the cluster size (default: seed-derived from
    {4, 7}). [with_disk_faults] (default false) additionally draws
    torn-tail / disk-loss / fsync-stall faults — strictly after every
    other draw, so plans without the flag are unchanged for a given
    seed. [with_corrupt_faults] (default false) further appends 1–2
    byte-corruption windows, drawn after even the disk faults for the
    same replay-stability reason. [with_surge_faults] (default false)
    appends one flash-crowd window, drawn last of all.
    [with_reconfig_faults] (default false) switches to a dedicated
    membership-change generator: universe n ∈ {5, 8} (so member-count
    transitions preserve f), always one join of node n−1, optionally a
    later leave, and one of three stress scenarios — f crash-restarts,
    a rolling restart of the whole cluster under a surge, or a join
    under open-loop load. Only unconditionally-live fault families are
    drawn, so a sweep over any seed set must produce zero
    violations. *)

val byzantine : t -> int list
val crashed : t -> int list
(** Nodes crashed at any point (including later-restarted ones). *)

val faulty : t -> int list
(** [byzantine ∪ crashed] — the process-fault set, ≤ [f] for
    generated plans. *)

val restarted : t -> int list

val has_disk_faults : t -> bool
(** The plan needs a persistence-enabled cluster. *)

val has_surge_faults : t -> bool
(** The plan contains at least one flash-crowd window — the explorer
    then attaches an open-loop traffic source and the no-silent-drop
    oracle. *)

val surge_windows : t -> (float * int * int) list
(** All [(factor, from_ms, to_ms)] surge windows, in plan order. *)

val joiners : t -> int list
(** Nodes a [Join] fault admits — the explorer excludes them from the
    genesis membership. *)

val leavers : t -> int list
(** Nodes a [Leave] fault removes — exempt from the liveness oracle
    once departed. *)

val has_rolling : t -> bool
(** The plan rolling-restarts every node; volatile pools are lost, so
    the traffic-conservation oracle is suspended. *)

val has_reconfig_faults : t -> bool
(** The plan changes membership (join/leave) or rolls the cluster —
    the explorer then builds a persistence-enabled cluster with a
    restricted genesis membership. *)

val anchor : t -> int
(** The member that submits reconfiguration transactions: lowest node
    id that is neither joining, leaving nor process-faulty. *)

val validate : t -> (unit, string) result
(** Structural checks: node ids in range, windows ordered, process
    faults within [f], probabilities/factors sane. *)

val expect_liveness : t -> bool
(** Conservative: true only when the plan contains process faults
    only (crash/equivocate) — the schedules for which the
    bounded-progress oracle may demand progress within the budget.
    Network faults (partition/loss) and timing faults (skew/slow NIC)
    can legitimately stall past any fixed bound. *)

val behavior : t -> int -> Fl_fireledger.Instance.behavior
val bandwidth_of : t -> int -> float
(** Per-node NIC bandwidth honouring [Slow_nic] (base: 10 Gb/s). *)

val config_of : t -> int -> Fl_fireledger.Config.t -> Fl_fireledger.Config.t
(** Per-node config tweak honouring [Clock_skew]. *)

val apply :
  t -> engine:Fl_sim.Engine.t -> cluster:Fl_fireledger.Cluster.t -> unit
(** Schedule the time-driven faults (crash/restart, partition/heal,
    loss windows) against a built cluster. Construction-time faults
    (equivocators, slow NICs, clock skew) must instead be passed to
    [Cluster.create] via {!behavior}/{!bandwidth_of}/{!config_of}. *)

val to_string : t -> string
(** Compact round-trippable encoding, e.g.
    ["n=7,f=2,seed=3;eq=1;crash=2@300/800;part=0.1|2.3@200-600;loss=4:0.30@100-500;slow=5:4.0;skew=6:2.0"]. *)

val of_string : string -> (t, string) result

val pp : Format.formatter -> t -> unit
