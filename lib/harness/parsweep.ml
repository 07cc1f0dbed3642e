(* Harness-level parallel sweeps.

   Thin policy layer over {!Fl_sim.Par}: the generic domain map knows
   nothing about the harness, so the guards that only the harness can
   see live here. A process-wide default observatory
   ({!Settings.set_default_obs}) is a single shared span sink with no
   locking — every run of a parallel sweep would interleave into it —
   so an installed default obs forces the sequential path (a setting's
   *own* [obs] is per-run and would be fine, but drivers that take a
   whole setting already choose their own parallelism). The profiler
   guard lives in {!Fl_sim.Par.map} itself.

   Determinism contract (same as [Par.map]): results are merged by
   index, so any [jobs] produces byte-identical output — sweeps stay
   reproducible artifacts, parallelism is only a wall-clock knob. *)

let default_jobs = ref 1

let set_default_jobs j =
  if j < 1 then invalid_arg "Parsweep.set_default_jobs";
  if j > 1 then Fl_sim.Par.ensure_available ();
  default_jobs := j

let effective_jobs ?jobs () =
  let j = match jobs with Some j -> j | None -> !default_jobs in
  if Settings.default_obs_installed () then 1 else j

let map ?jobs n f = Fl_sim.Par.map ~jobs:(effective_jobs ?jobs ()) n f

let run_settings ?jobs settings =
  map ?jobs (Array.length settings) (fun i -> Settings.run_flo settings.(i))
