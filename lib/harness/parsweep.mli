(** Harness-level parallel sweeps: {!Fl_sim.Par} plus harness policy.

    Results are always merged in index order, so output is
    byte-identical for any job count — parallelism is purely a
    wall-clock knob. A process-wide default observatory
    ({!Settings.set_default_obs}) is a shared unsynchronised sink and
    forces the sequential path; so does an active self-profiler (see
    {!Fl_sim.Par.map}). *)

val set_default_jobs : int -> unit
(** Install the process default used when a call site passes no
    [?jobs] — how [--jobs] / [FL_JOBS] reaches drivers (experiment
    grids) that are invoked without parameters. Raises [Failure] if
    [> 1] on a runtime that cannot spawn domains, [Invalid_argument]
    if [< 1]. *)

val effective_jobs : ?jobs:int -> unit -> int
(** The job count a sweep will actually use: [jobs] (default: the
    installed process default), clamped to 1 while a default
    observatory is installed. *)

val map : ?jobs:int -> int -> (int -> 'a) -> 'a array
(** [map ?jobs n f] is [[| f 0; ...; f (n-1) |]] over
    [effective_jobs ?jobs ()] domains. *)

val run_settings :
  ?jobs:int -> Settings.flo_setting array -> Settings.result array
(** Run one simulation per setting, in order — the sweep primitive
    behind the experiment grids. *)
