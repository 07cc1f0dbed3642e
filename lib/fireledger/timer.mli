(** WRB timeout tuning (§6.1.1).

    The WRB delivery timer adapts to observed proposal delays with the
    paper's exponential moving average over the last N = 10 rounds:
    timer_r = (2/(N+1))·d_{r−1} + timer_{r−2}·(1 − 2/(N+1)), scaled by
    a slack factor of 4 so the timeout sits above the average delay. A
    timed-out round doubles the timer (Algorithm 1, line 14) so
    liveness under ♦Synch does not depend on the tuning model. *)

open Fl_sim

type t

val create : Config.t -> t

val current : t -> Time.t
(** Timeout to use for the next WRB delivery. *)

val on_success : t -> delay:Time.t -> unit
(** A proposal arrived [delay] after the round started: fold it into
    the EMA (Algorithm 1, line 19 "adjust timer"). *)

val on_timeout : t -> unit
(** The timer expired with no proposal: double, capped (line 14
    "increase timer"). *)
