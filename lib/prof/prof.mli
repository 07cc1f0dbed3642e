(** Simulator self-profiling: host-time attribution to subsystems.

    Accumulating monotonic-clock timers behind the same discipline as
    {!Fl_sim.Engine.set_probe} / {!Fl_sim.Cpu.set_probe}: off by
    default, one load-and-branch when off, observe-only when on —
    enabling profiling never perturbs the simulation, so runs stay
    identical (pinned run digest, [test/test_prof.ml]).

    Instrumented sites bracket a pure region with {!enter}/{!leave}
    guarded on {!on}:

    {[
      if !Fl_prof.Prof.on then begin
        Fl_prof.Prof.enter Fl_prof.Prof.sha256;
        let r = work () in
        Fl_prof.Prof.leave ();
        r
      end
      else work ()
    ]}

    Frames nest; each subsystem is credited with {e self} time only
    (elapsed minus nested frames), so per-subsystem numbers sum to the
    inclusive host time of the outermost frames — engine dispatch
    encloses everything executed from the event loop, which is how
    [fl_trace prof] attributes ≳90% of a run's wall time.

    Instrumented regions must not suspend the calling fiber: an open
    frame across an effect-based suspension would corrupt the frame
    stack. All current sites (engine dispatch, codec, SHA-256, WAL
    framing, obs push) are pure. *)

type sub = private int

val engine : sub
(** Engine dispatch: the body of every executed event, i.e. all
    protocol logic, fiber resumption and scheduling — everything not
    claimed by a nested subsystem below. *)

val codec_encode : sub  (** {!Fl_wire.Envelope.seal} and its writers *)

val codec_decode : sub
(** {!Fl_wire.Envelope.open_sub} + {!Fl_wire.Msg_codec.decode_frame} *)

val sha256 : sub  (** digest/hmac, wherever called from *)

val wal : sub  (** durable-record framing and replay parsing *)

val obs : sub  (** structured-span sink push *)

val on : bool ref
(** The master switch instrumented sites read. Use {!enable} /
    {!disable} rather than flipping it directly. *)

val enable : unit -> unit
(** Reset all accumulators and start profiling. *)

val disable : unit -> unit

val reset : unit -> unit

val enter : sub -> unit
val leave : unit -> unit
(** Close the innermost open frame. Call sites are responsible for
    balancing (including on exceptions — re-raise after [leave]). *)

type stat = { p_sub : sub; p_name : string; p_self_ns : int; p_calls : int }

val stats : unit -> stat list
(** One entry per subsystem in declaration order (stable). *)

val attributed_ns : unit -> int
(** Sum of all self-times — total host time attributed. *)

val set_clock_for_tests : (unit -> int64) option -> unit
(** Swap the clock for a deterministic one ([None] restores the
    monotonic stub). Tests only. *)
