(* flbench — one simulated run of one benchmark workload.

   Usage: flbench.exe WORKLOAD SEED TRACE
          flbench.exe reference   (times the host reference kernel only)

   Builds the workload's cluster once (timed, cold), simulates its fixed
   span and prints a single JSON object on stdout: the workload's
   parameters and warm-up end, the host costs (set-up, simulation wall
   time, Gc top heap), the simulated metrics (exact functions of code
   and seed), the output checks and, with TRACE = 1, the per-layer
   metrics. With TRACE = 0 nothing observes the run; with TRACE = 1 the
   run is advanced in fixed simulated slices under the self-profiler
   (Fl_prof.Prof), an engine probe and timers around the benchmark's
   own callbacks — all observe-only, so the simulated metrics must come
   out identical (perfbench/run.py checks that they do).

   Exit status 2 on a usage error; the run itself never exits non-zero
   on a failed check — the checks are reported in the JSON. *)

open Fl_sim

let now_ns = Fl_prof.Clock.now_ns_int
let ms_of_ns ns = float_of_int ns /. 1e6

(* ---------- workload parameters (mirrored in BENCHMARK.json) ---------- *)

let n = 4
let slice = Time.ms 100

(* steady_flo and open_loop_byzantine *)
let flo_workers = 2
let flo_batch = 100
let flo_tx_size = 128
let flo_warmup = Time.ms 500
let steady_duration = Time.ms 1000

(* open_loop_byzantine *)
let ol_duration = Time.ms 500
let ol_equivocator = 3
let ol_rate_per_s = 7_000.0
let ol_pool = 400
let ol_accounts = 1_000_000
let ol_retries = 3
let ol_read_ratio = 0.5

(* durable_restart *)
let dr_batch = 100
let dr_tx_size = 512
let dr_persist = "ssd/every_block"
let dr_total = Time.ms 1200
let dr_victim = 1
let dr_crash_at = dr_total / 6
let dr_restart_at = dr_total / 4
let dr_window_start = dr_restart_at

(* ---------- measurement state ---------- *)

(* Host time spent inside one kind of benchmark callback (traced runs
   only). *)
type timer = { mutable t_ns : int; mutable t_calls : int }

let timer () = { t_ns = 0; t_calls = 0 }
let timer_mean t =
  if t.t_calls = 0 then 0.0 else float_of_int t.t_ns /. float_of_int t.t_calls

type slice_stat = {
  sl_end : Time.t;
  sl_host_ns : int;
  sl_events : int;
  sl_minor : float;
  sl_promoted : float;
  sl_majors : int;
}

type outcome = {
  sim : (string * float) list;  (** simulated — exact per seed *)
  checks : (string * bool) list;
  layer : (string * float) list;  (** traced runs only *)
}

let quantile_ms h q =
  if Fl_metrics.Histogram.count h = 0 then 0.0
  else ms_of_ns (Fl_metrics.Histogram.quantile h q)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

type driven = {
  wall_ns : int;  (** host time of the whole simulation *)
  slices : slice_stat list;  (** traced runs only *)
  qmax : int;  (** deepest event queue seen by the probe (traced) *)
}

(* Simulate [0, total]: one call untraced; traced, under the
   self-profiler and an engine probe, in fixed simulated slices with
   host time, events and Gc deltas recorded per slice. *)
let drive ~tracing ~engine ~total ~start ~run_until ~run_all =
  if not tracing then begin
    let t0 = now_ns () in
    run_all ();
    { wall_ns = now_ns () - t0; slices = []; qmax = 0 }
  end
  else begin
    let slices = ref [] and qmax = ref 0 in
    Engine.set_probe engine
      (Some
         (fun ~now:_ ~processed:_ ~pending ->
           if pending > !qmax then qmax := pending));
    Fl_prof.Prof.enable ();
    let t0 = now_ns () in
    start ();
    let at = ref 0 in
    while !at < total do
      let stop = min total (!at + slice) in
      let ev0 = Engine.processed engine in
      let g0 = Gc.quick_stat () in
      let m0 = Gc.minor_words () in
      let h0 = now_ns () in
      run_until stop;
      let h1 = now_ns () in
      let m1 = Gc.minor_words () in
      let g1 = Gc.quick_stat () in
      slices :=
        { sl_end = stop;
          sl_host_ns = h1 - h0;
          sl_events = Engine.processed engine - ev0;
          sl_minor = m1 -. m0;
          sl_promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
          sl_majors = g1.Gc.major_collections - g0.Gc.major_collections }
        :: !slices;
      at := stop
    done;
    let wall_ns = now_ns () - t0 in
    Fl_prof.Prof.disable ();
    Engine.set_probe engine None;
    { wall_ns; slices = List.rev !slices; qmax = !qmax }
  end

(* Layer metrics every workload reports: engine/heap from the slices
   and the probe, self-profiler buckets, simulated CPU, net counters. *)
let common_layers ~driven ~warmup ~recorder ~cpus ~nets ~now ~blocks ~txs =
  let slices = driven.slices in
  let warm, steady = List.partition (fun s -> s.sl_end <= warmup) slices in
  let sum f l = List.fold_left (fun acc s -> acc + f s) 0 l in
  let sumf f l = List.fold_left (fun acc s -> acc +. f s) 0.0 l in
  let events l = sum (fun s -> s.sl_events) l in
  let per_event f l =
    let e = events l in
    if e = 0 then 0.0 else f l /. float_of_int e
  in
  let host l = float_of_int (sum (fun s -> s.sl_host_ns) l) in
  let growth =
    match steady with
    | [] -> 0.0
    | first :: _ ->
        let last = List.nth steady (List.length steady - 1) in
        float_of_int last.sl_host_ns /. float_of_int (max 1 first.sl_host_ns)
  in
  let prof = Fl_prof.Prof.stats () in
  let bucket sub =
    List.find (fun st -> st.Fl_prof.Prof.p_sub = sub) prof
  in
  let self_ms sub = ms_of_ns (bucket sub).Fl_prof.Prof.p_self_ns in
  let calls sub = float_of_int (bucket sub).Fl_prof.Prof.p_calls in
  let counter name = Fl_metrics.Recorder.counter recorder name in
  let util =
    Array.fold_left (fun acc cpu -> acc +. Cpu.utilization cpu ~now) 0.0 cpus
    /. float_of_int (Array.length cpus)
  in
  let messages =
    Array.fold_left
      (fun acc net -> acc + Fl_net.Net.messages_delivered net)
      0 nets
  in
  let dropped =
    Array.fold_left (fun acc net -> acc + Fl_net.Net.messages_dropped net) 0 nets
  in
  let bytes =
    Array.fold_left
      (fun acc net ->
        let b = ref acc in
        for i = 0 to Fl_net.Net.n net - 1 do
          b := !b + Fl_net.Net.bytes_out net ~node:i
        done;
        !b)
      0 nets
  in
  let fast = counter "obbc_fast_decisions" and slow = counter "obbc_slow_paths" in
  [ ("sim.events", float_of_int (events slices));
    ("sim.host_ns_per_event", per_event host steady);
    ("sim.warmup_host_ns_per_event", per_event host warm);
    ("sim.engine_self_ms", self_ms Fl_prof.Prof.engine);
    ("sim.minor_words_per_event", per_event (sumf (fun s -> s.sl_minor)) steady);
    ("sim.promoted_words_per_event",
     per_event (sumf (fun s -> s.sl_promoted)) steady);
    ("sim.major_collections", float_of_int (sum (fun s -> s.sl_majors) slices));
    ("sim.queue_depth_max", float_of_int driven.qmax);
    ("sim.slice_cost_growth", growth);
    ("sim.node_cpu_util", util);
    ("net.messages_per_block", ratio messages blocks);
    ("net.bytes_per_tx", ratio bytes txs);
    ("net.dropped", float_of_int dropped);
    ("net.decode_errors", float_of_int (counter "decode_errors"));
    ("wire.decode_self_ms", self_ms Fl_prof.Prof.codec_decode);
    ("wire.decode_calls", calls Fl_prof.Prof.codec_decode);
    ("wire.encode_self_ms", self_ms Fl_prof.Prof.codec_encode);
    ("wire.encode_calls", calls Fl_prof.Prof.codec_encode);
    ("crypto.sha256_self_ms", self_ms Fl_prof.Prof.sha256);
    ("crypto.sha256_calls", calls Fl_prof.Prof.sha256);
    ("crypto.signatures_per_block", ratio (counter "signatures") blocks);
    ("crypto.verifications_per_block", ratio (counter "verifications") blocks);
    ("consensus.obbc_fast_ratio", ratio fast (fast + slow));
    ("consensus.bbc_rounds", float_of_int (counter "bbc_rounds"));
    ("consensus.obbc_fallbacks", float_of_int (counter "obbc_fallbacks"));
    ("consensus.pbft_view_changes", float_of_int (counter "pbft_view_changes"));
    ("fireledger.recoveries_per_s",
     Fl_metrics.Recorder.rate_per_s recorder "recoveries" /. float_of_int n);
    ("fireledger.blocks_rescinded", float_of_int (counter "blocks_rescinded"));
    ("fireledger.wrb_nil", float_of_int (counter "wrb_nil"));
    ("fireledger.catch_ups", float_of_int (counter "catch_ups"));
    ("fireledger.pulls", float_of_int (counter "pulls"));
    ("persist.wal_self_ms", self_ms Fl_prof.Prof.wal) ]

(* Windowed per-block latency and phases, fed from each delivery. *)
type blocks = {
  lat : Fl_metrics.Histogram.t;  (** A → final, every counted node *)
  lat0 : Fl_metrics.Histogram.t;  (** A → final at node 0 *)
  dissemination : Fl_metrics.Histogram.t;
  quorum_wait : Fl_metrics.Histogram.t;
  finality_delay : Fl_metrics.Histogram.t;
  merge_wait : Fl_metrics.Histogram.t;
  mutable txs0 : int;  (** transactions final at node 0 in the window *)
}

let blocks () =
  let h = Fl_metrics.Histogram.create in
  { lat = h (); lat0 = h (); dissemination = h (); quorum_wait = h ();
    finality_delay = h (); merge_wait = h (); txs0 = 0 }

let note_final b ~node ~(times : Fl_fireledger.Instance.block_times) ~final
    ~txs =
  let c =
    Fl_obs.Decomp.of_times ~a:times.Fl_fireledger.Instance.a
      ~b:times.Fl_fireledger.Instance.b ~c:times.Fl_fireledger.Instance.c
      ~d:times.Fl_fireledger.Instance.d ~e:final
  in
  let lat = final - times.Fl_fireledger.Instance.a in
  if node = 0 then b.txs0 <- b.txs0 + txs;
  (* A block adopted by a recovery carries only its adoption time
     (a = b = c): it has no A→final latency to report. *)
  if c.Fl_obs.Decomp.dissemination > 0 || c.Fl_obs.Decomp.quorum_wait > 0
  then begin
    Fl_metrics.Histogram.record b.lat lat;
    Fl_metrics.Histogram.record b.dissemination c.Fl_obs.Decomp.dissemination;
    Fl_metrics.Histogram.record b.quorum_wait c.Fl_obs.Decomp.quorum_wait;
    Fl_metrics.Histogram.record b.finality_delay c.Fl_obs.Decomp.finality_delay;
    Fl_metrics.Histogram.record b.merge_wait c.Fl_obs.Decomp.merge_wait;
    if node = 0 then Fl_metrics.Histogram.record b.lat0 lat
  end

let block_metrics b ~window =
  [ ("block_lat_p50_ms", quantile_ms b.lat 0.50);
    ("block_lat_p99_ms", quantile_ms b.lat 0.99);
    ("goodput_tps", float_of_int b.txs0 /. Time.to_float_s window) ]

let phase_layers b =
  [ ("fireledger.phase_dissemination_p50_ms", quantile_ms b.dissemination 0.5);
    ("fireledger.phase_quorum_wait_p50_ms", quantile_ms b.quorum_wait 0.5);
    ("fireledger.phase_finality_delay_p50_ms",
     quantile_ms b.finality_delay 0.5);
    ("flo.merge_wait_p50_ms", quantile_ms b.merge_wait 0.5);
    ("flo.merge_wait_p99_ms", quantile_ms b.merge_wait 0.99) ]

let in_window ~start ~stop t = t >= start && t < stop

(* The open-loop source's client transactions as the benchmark's own
   sink, eviction and delivery callbacks see them. The source records
   client latency into the cluster recorder over the whole run; this
   keeps each transaction's first submission so that client latency
   and admission wait are taken over the measurement window only, like
   block latency. *)
type clients = {
  submitted : (int, Time.t) Hashtbl.t;  (** tx id -> first attempt, not yet admitted *)
  admitted : (int, Time.t) Hashtbl.t;  (** tx id -> first attempt, admitted and pending *)
  e2e : Fl_metrics.Histogram.t;  (** submission -> final, final in the window *)
  admission_wait : Fl_metrics.Histogram.t;  (** submission -> A, same blocks *)
  mutable finalized : int;  (** must equal the source's own count *)
  mutable at_warmup : Fl_load.Source.stats option;  (** source stats at window start *)
}

let clients () =
  { submitted = Hashtbl.create 1024; admitted = Hashtbl.create 1024;
    e2e = Fl_metrics.Histogram.create ();
    admission_wait = Fl_metrics.Histogram.create (); finalized = 0;
    at_warmup = None }

let client_submitted cl ~now (tx : Fl_chain.Tx.t) ~admitted =
  let id = tx.Fl_chain.Tx.id in
  let first =
    Option.value (Hashtbl.find_opt cl.submitted id) ~default:now
  in
  if admitted then begin
    Hashtbl.remove cl.submitted id;
    Hashtbl.replace cl.admitted id first
  end
  else Hashtbl.replace cl.submitted id first

let client_final cl ~window (txs : Fl_chain.Tx.t array) ~a ~final =
  Array.iter
    (fun (tx : Fl_chain.Tx.t) ->
      match Hashtbl.find_opt cl.admitted tx.Fl_chain.Tx.id with
      | None -> ()
      | Some submit ->
          Hashtbl.remove cl.admitted tx.Fl_chain.Tx.id;
          cl.finalized <- cl.finalized + 1;
          if window final then begin
            Fl_metrics.Histogram.record cl.e2e (final - submit);
            Fl_metrics.Histogram.record cl.admission_wait (a - submit)
          end)
    txs

(* ---------- FLO workloads: steady_flo, open_loop_byzantine ---------- *)

type flo_ctx = {
  setting : Fl_harness.Settings.flo_setting;
  duration : Time.t;  (** measurement window after [flo_warmup] *)
  cluster : Fl_flo.Cluster.t;
  fb : blocks;
  source : Fl_load.Source.t option;
  cl : clients;
  admit : timer;
  note_block : timer;
  note_evicted : timer;
}

let flo_setting ~seed ~open_loop ~duration ~on_deliver =
  let base =
    Fl_harness.Settings.flo ~n ~workers:flo_workers ~batch:flo_batch
      ~tx_size:flo_tx_size
  in
  { base with
    Fl_harness.Settings.seed;
    warmup = flo_warmup;
    duration;
    faults =
      { Fl_harness.Settings.no_faults with
        Fl_harness.Settings.byzantine =
          (if open_loop then [ ol_equivocator ] else []) };
    config_tweaks =
      (if open_loop then fun c ->
         { c with
           Fl_fireledger.Config.fill_blocks = false;
           mempool_capacity = ol_pool }
       else Fun.id);
    on_deliver = Some on_deliver }

let timed tracing t f =
  if tracing then begin
    let t0 = now_ns () in
    let r = f () in
    t.t_ns <- t.t_ns + (now_ns () - t0);
    t.t_calls <- t.t_calls + 1;
    r
  end
  else f ()

let build_flo ~tracing ~seed ~open_loop =
  let fb = blocks () and cl = clients () in
  let admit = timer () and note_block = timer () and note_evicted = timer () in
  let src_ref = ref None in
  let duration = if open_loop then ol_duration else steady_duration in
  let stop = flo_warmup + duration in
  let on_deliver ~node (d : Fl_flo.Node.delivery) =
    let final = d.Fl_flo.Node.delivered_at in
    let block = d.Fl_flo.Node.block in
    let window = in_window ~start:flo_warmup ~stop in
    if window final then
      note_final fb ~node ~times:d.Fl_flo.Node.times ~final
        ~txs:block.Fl_chain.Block.header.Fl_chain.Header.tx_count;
    if node = 0 then
      match !src_ref with
      | Some src ->
          let a = d.Fl_flo.Node.times.Fl_fireledger.Instance.a in
          let txs = block.Fl_chain.Block.txs in
          client_final cl ~window txs ~a ~final;
          timed tracing note_block (fun () ->
              Fl_load.Source.note_block src txs ~a ~final)
      | None -> ()
  in
  let setting = flo_setting ~seed ~open_loop ~duration ~on_deliver in
  let cluster = Fl_harness.Settings.build_flo setting in
  if open_loop then begin
    let arrivals = Fl_load.Arrivals.create ~rate_per_s:ol_rate_per_s () in
    let cfg =
      { (Fl_load.Source.default_config ~arrivals) with
        Fl_load.Source.tx_size = flo_tx_size;
        accounts = ol_accounts;
        max_retries = ol_retries;
        read_ratio = ol_read_ratio;
        consistency = Fl_load.Source.Session }
    in
    let node0 = cluster.Fl_flo.Cluster.nodes.(0) in
    let engine = cluster.Fl_flo.Cluster.engine in
    let sink tx ~fee =
      let now = Engine.now engine in
      let admitted =
        timed tracing admit (fun () -> Fl_flo.Node.submit_fee node0 tx ~fee)
      in
      client_submitted cl ~now tx ~admitted;
      admitted
    in
    let src =
      Fl_load.Source.create cluster.Fl_flo.Cluster.engine
        ~rng:(Rng.create (seed + 7919))
        ~recorder:cluster.Fl_flo.Cluster.recorder ~sink cfg
    in
    src_ref := Some src;
    ignore
      (Engine.schedule engine ~delay:flo_warmup (fun () ->
           cl.at_warmup <- Some (Fl_load.Source.stats src)));
    Array.iter
      (fun inst ->
        Fl_chain.Mempool.set_on_evict
          (Fl_fireledger.Instance.mempool inst)
          (Some
             (fun tx ~fee ->
               Hashtbl.remove cl.admitted tx.Fl_chain.Tx.id;
               timed tracing note_evicted (fun () ->
                   Fl_load.Source.note_evicted src tx ~fee))))
      cluster.Fl_flo.Cluster.workers.(0)
  end;
  { setting; duration; cluster; fb; source = !src_ref; cl; admit; note_block;
    note_evicted }

let run_flo ~tracing ctx =
  let c = ctx.cluster in
  let engine = c.Fl_flo.Cluster.engine in
  let total = flo_warmup + ctx.duration in
  (match ctx.source with Some src -> Fl_load.Source.start src | None -> ());
  let driven =
    drive ~tracing ~engine ~total
      ~start:(fun () -> Fl_flo.Cluster.start c)
      ~run_until:(fun until -> Fl_flo.Cluster.run ~until c)
      ~run_all:(fun () -> ignore (Fl_harness.Settings.run_cluster ctx.setting c))
  in
  let recorder = c.Fl_flo.Cluster.recorder in
  let instances = Array.concat (Array.to_list c.Fl_flo.Cluster.workers) in
  let rounds =
    Array.fold_left (fun acc i -> acc + Fl_fireledger.Instance.round i) 0
      instances
  in
  let round_failures =
    Fl_metrics.Recorder.counter recorder "wrb_nil"
    + Fl_metrics.Recorder.counter recorder "blocks_rescinded"
  in
  let sim_tps =
    Fl_metrics.Recorder.rate_per_s recorder "txs_delivered" /. float_of_int n
  in
  let decode_errors = Fl_metrics.Recorder.counter recorder "decode_errors" in
  let agreement = Fl_flo.Cluster.delivery_agreement c in
  let client, checks, load_layers =
    match ctx.source with
    | None ->
        ( [ ("failed_ratio", ratio round_failures rounds);
            ("client_lat_p50_ms", quantile_ms ctx.fb.lat0 0.50);
            ("client_lat_p99_ms", quantile_ms ctx.fb.lat0 0.99) ],
          [ ("agreement", agreement) ],
          [] )
    | Some src ->
        let st = Fl_load.Source.stats src in
        (* Source counters over the measurement window: end minus the
           snapshot taken at the warm-up end. *)
        let w0 = Option.get ctx.cl.at_warmup in
        let delta f = f st - f w0 in
        let generated = delta (fun s -> s.Fl_load.Source.generated) in
        let failed =
          delta (fun s -> s.Fl_load.Source.dropped + s.Fl_load.Source.evicted)
        in
        let stale_read_ratio =
          ratio
            (delta (fun s -> s.Fl_load.Source.reads_stale))
            (delta (fun s -> s.Fl_load.Source.reads))
        in
        let accused_ok =
          Array.for_all Fun.id
            (Array.mapi
               (fun node ws ->
                 node = ol_equivocator
                 || Array.for_all
                      (fun i ->
                        Fl_fireledger.Instance.accused i = [ ol_equivocator ])
                      ws)
               c.Fl_flo.Cluster.workers)
        in
        ( [ ("failed_ratio", ratio failed generated);
            ("client_lat_p50_ms", quantile_ms ctx.cl.e2e 0.50);
            ("client_lat_p99_ms", quantile_ms ctx.cl.e2e 0.99);
            ("stale_read_ratio", stale_read_ratio) ],
          [ ("agreement", agreement);
            ( "conservation",
              st.generated
              = st.finalized + st.dropped + st.evicted + st.pending
                + st.retrying );
            ("client_latency_accounting", ctx.cl.finalized = st.finalized);
            ("accused_equivocator", accused_ok) ],
          [ ("chain.admit_ns", timer_mean ctx.admit);
            ("chain.backpressured",
             float_of_int (delta (fun s -> s.Fl_load.Source.backpressured)));
            ("chain.evicted",
             float_of_int (delta (fun s -> s.Fl_load.Source.evicted)));
            ("chain.admission_wait_p50_ms",
             quantile_ms ctx.cl.admission_wait 0.50);
            ("chain.admission_wait_p99_ms",
             quantile_ms ctx.cl.admission_wait 0.99);
            ("load.generated", float_of_int generated);
            ("load.retried_txs",
             float_of_int (delta (fun s -> s.Fl_load.Source.retried_txs)));
            ("load.note_block_ns", timer_mean ctx.note_block);
            ("load.note_evicted_ns", timer_mean ctx.note_evicted);
            ("load.stale_read_ratio", stale_read_ratio) ] )
  in
  let sim =
    [ ("sim_tps", sim_tps) ]
    @ block_metrics ctx.fb ~window:ctx.duration
    @ client
    @ [ ("events", float_of_int (Engine.processed engine)) ]
  in
  let checks = checks @ [ ("no_decode_errors", decode_errors = 0) ] in
  let layer =
    if not tracing then []
    else
      let node0 = c.Fl_flo.Cluster.nodes.(0) in
      common_layers ~driven ~warmup:flo_warmup ~recorder
        ~cpus:c.Fl_flo.Cluster.cpus ~nets:c.Fl_flo.Cluster.nets
        ~now:(Engine.now engine)
        ~blocks:(Fl_flo.Node.delivered_blocks node0)
        ~txs:(Fl_flo.Node.delivered_txs node0)
      @ phase_layers ctx.fb @ load_layers
  in
  (driven, { sim; checks; layer })

(* ---------- durable_restart ---------- *)

type dr_ctx = {
  dcluster : Fl_fireledger.Cluster.t;
  db : blocks;
  target : int ref;  (** tip (best live definite round) at the restart *)
  recovered_at : Time.t option ref;
  blocks0 : int ref;  (** node 0's definite blocks / txs, whole run *)
  txs0 : int ref;
  restart : timer;
}

let build_durable ~seed =
  let db = blocks () in
  let target = ref max_int and recovered_at = ref None in
  let blocks0 = ref 0 and txs0 = ref 0 in
  let output i =
    { Fl_fireledger.Instance.null_output with
      Fl_fireledger.Instance.on_definite =
        (fun ~round block ~times ->
          let final = times.Fl_fireledger.Instance.d in
          let txs = block.Fl_chain.Block.header.Fl_chain.Header.tx_count in
          if i = 0 then begin
            incr blocks0;
            txs0 := !txs0 + txs
          end;
          if
            i <> dr_victim
            && in_window ~start:dr_window_start ~stop:dr_total final
          then note_final db ~node:i ~times ~final ~txs;
          if i = dr_victim && round >= !target && !recovered_at = None then
            recovered_at := Some final) }
  in
  let m = Fl_harness.Settings.m5_xlarge in
  let config =
    { (Fl_fireledger.Config.default ~n) with
      Fl_fireledger.Config.batch_size = dr_batch;
      tx_size = dr_tx_size }
  in
  let dcluster =
    Fl_fireledger.Cluster.create ~seed ~latency:Fl_net.Latency.single_dc
      ~cost:m.Fl_harness.Settings.cost ~cores:m.Fl_harness.Settings.cores
      ~bandwidth_bps:m.Fl_harness.Settings.bandwidth_bps ~output
      ~persist:(Fl_harness.Settings.persist_of_string dr_persist)
      ~config ()
  in
  Fl_metrics.Recorder.set_window dcluster.Fl_fireledger.Cluster.recorder
    ~start:dr_window_start ~stop:dr_total;
  { dcluster; db; target; recovered_at; blocks0; txs0; restart = timer () }

let run_durable ~tracing ctx =
  let c = ctx.dcluster in
  let open Fl_fireledger in
  let engine = c.Cluster.engine in
  ignore
    (Engine.schedule engine ~delay:dr_crash_at (fun () ->
         Cluster.crash ~torn:true c dr_victim));
  ignore
    (Engine.schedule engine ~delay:dr_restart_at (fun () ->
         let best = ref 0 in
         Array.iteri
           (fun i inst ->
             if i <> dr_victim then
               best := max !best (Instance.definite_upto inst))
           c.Cluster.instances;
         ctx.target := !best;
         timed tracing ctx.restart (fun () -> Cluster.restart c dr_victim)));
  let driven =
    drive ~tracing ~engine ~total:dr_total
      ~start:(fun () -> Cluster.start c)
      ~run_until:(fun until -> Cluster.run ~until c)
      ~run_all:(fun () ->
        Cluster.start c;
        Cluster.run ~until:dr_total c)
  in
  let recorder = c.Cluster.recorder in
  let rounds =
    Array.fold_left (fun acc i -> acc + Instance.round i) 0 c.Cluster.instances
  in
  let round_failures =
    Fl_metrics.Recorder.counter recorder "wrb_nil"
    + Fl_metrics.Recorder.counter recorder "blocks_rescinded"
  in
  let pstats =
    Array.map
      (fun p ->
        match p with
        | Some p -> Fl_persist.Node.stats p
        | None -> invalid_arg "durable_restart: persistence is off")
      c.Cluster.persist
  in
  let psum f = Array.fold_left (fun acc s -> acc + f s) 0 pstats in
  let torn = psum (fun s -> s.Fl_persist.Node.s_torn_discards) in
  let replayed = pstats.(dr_victim).Fl_persist.Node.s_replayed in
  (* A victim that never catches up fails its check; its recovery time
     then reads as the rest of the span. *)
  let recover_ms =
    ms_of_ns
      (Option.value !(ctx.recovered_at) ~default:dr_total - dr_restart_at)
  in
  let decode_errors = Fl_metrics.Recorder.counter recorder "decode_errors" in
  let sim =
    [ ("sim_tps",
       Fl_metrics.Recorder.rate_per_s recorder "txs_definite" /. float_of_int n) ]
    @ block_metrics ctx.db ~window:(dr_total - dr_window_start)
    @ [ ("failed_ratio", ratio round_failures rounds);
        ("client_lat_p50_ms", quantile_ms ctx.db.lat0 0.50);
        ("client_lat_p99_ms", quantile_ms ctx.db.lat0 0.99);
        ("recover_ms", recover_ms);
        ("events", float_of_int (Engine.processed engine)) ]
  in
  let checks =
    [ ("agreement", Cluster.definite_prefix_agreement c);
      ("victim_caught_up", !(ctx.recovered_at) <> None);
      ("one_torn_tail_discarded", torn = 1);
      ("replay_nonempty", replayed > 0);
      ("no_decode_errors", decode_errors = 0) ]
  in
  let layer =
    if not tracing then []
    else
      let p0 = pstats.(0) in
      common_layers ~driven ~warmup:dr_window_start ~recorder
        ~cpus:c.Cluster.cpus ~nets:[| c.Cluster.net |] ~now:(Engine.now engine)
        ~blocks:!(ctx.blocks0) ~txs:!(ctx.txs0)
      @ phase_layers ctx.db
      @ [ ("fireledger.recover_ms", recover_ms);
          ("persist.fsyncs_per_block",
           ratio p0.Fl_persist.Node.s_fsyncs !(ctx.blocks0));
          ("persist.bytes_per_block",
           ratio p0.Fl_persist.Node.s_bytes !(ctx.blocks0));
          ("persist.snapshots",
           float_of_int (psum (fun s -> s.Fl_persist.Node.s_snapshots)));
          ("persist.restart_host_ms", ms_of_ns ctx.restart.t_ns);
          ("persist.replayed", float_of_int replayed);
          ("persist.torn_discards", float_of_int torn) ]
  in
  (driven, { sim; checks; layer })

(* ---------- host speed reference ---------- *)

module Int_map = Map.Make (Int)

(* A fixed stdlib-only kernel: balanced-tree inserts and a fold,
   allocating and pointer-chasing like the simulator does. No code of
   the program under test runs inside it, so it measures only how fast
   the host runs right now; perfbench/run.py scales host times by it.
   It runs in a process of its own ([flbench.exe reference]) started
   just before each simulation: in the simulation's process it would
   raise the small workloads' Gc top heap before the simulation, and
   after it, it runs in the large workloads' heap and tracks the host
   less well. *)
let reference_s () =
  let t0 = now_ns () in
  let m = ref Int_map.empty in
  for i = 0 to 40_000 do
    m := Int_map.add (i * 7919 land 0xfffff) (i, string_of_int i) !m
  done;
  let acc =
    Int_map.fold (fun k (a, s) acc -> acc + k + a + String.length s) !m 0
  in
  ignore (Sys.opaque_identity acc);
  float_of_int (now_ns () - t0) /. 1e9

(* ---------- main ---------- *)

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let json_obj kv f =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (f v)) kv)
  ^ "}"

let common_params =
  "m5.xlarge cost model, 10 Gb/s NICs, single-DC lognormal link delay \
   median 250 us sigma 0.35"

let params = function
  | "steady_flo" ->
      Printf.sprintf
        "FLO n=%d w=%d b=%d s=%d, fill_blocks, fault-free, no persistence; \
         warm-up %.0f ms + window %.0f ms"
        n flo_workers flo_batch flo_tx_size (ms_of_ns flo_warmup)
        (ms_of_ns steady_duration)
  | "open_loop_byzantine" ->
      Printf.sprintf
        "FLO n=%d w=%d b=%d s=%d, fill_blocks off, node %d equivocates; \
         Poisson %.0f tx/s into node 0's %d-tx fee pool, Zipf over %d \
         accounts, %d retries, %.1f session reads per write; warm-up %.0f \
         ms + window %.0f ms"
        n flo_workers flo_batch flo_tx_size ol_equivocator ol_rate_per_s
        ol_pool ol_accounts ol_retries ol_read_ratio (ms_of_ns flo_warmup)
        (ms_of_ns ol_duration)
  | _ ->
      Printf.sprintf
        "FireLedger n=%d b=%d s=%d, %s; node %d crashes with a torn tail at \
         %.0f ms and cold-restarts at %.0f ms; span %.0f ms, window from the \
         restart"
        n dr_batch dr_tx_size dr_persist dr_victim (ms_of_ns dr_crash_at)
        (ms_of_ns dr_restart_at) (ms_of_ns dr_total)

let usage () =
  prerr_endline
    "usage: flbench.exe (steady_flo|durable_restart|open_loop_byzantine) SEED \
     TRACE(0|1)\n       flbench.exe reference";
  exit 2

let () =
  if Sys.argv = [| Sys.argv.(0); "reference" |] then begin
    let r1 = reference_s () in
    let r2 = reference_s () in
    Printf.printf "{\"ref_s\":[%s,%s]}\n" (json_float r1) (json_float r2);
    exit 0
  end;
  let workload, seed, tracing =
    match Sys.argv with
    | [| _; w; seed; trace |] -> (
        match (int_of_string_opt seed, trace) with
        | Some seed, ("0" | "1") -> (w, seed, trace = "1")
        | _ -> usage ())
    | _ -> usage ()
  in
  (* One cold build, timed in a fresh heap; [run] simulates it. *)
  let timed_build build run =
    let t0 = now_ns () in
    let ctx = build () in
    (float_of_int (now_ns () - t0) /. 1e9, fun () -> run ctx)
  in
  let warmup_end, (setup_s, run) =
    match workload with
    | "steady_flo" | "open_loop_byzantine" ->
        let open_loop = workload = "open_loop_byzantine" in
        ( flo_warmup,
          timed_build
            (fun () -> build_flo ~tracing ~seed ~open_loop)
            (run_flo ~tracing) )
    | "durable_restart" ->
        ( dr_window_start,
          timed_build (fun () -> build_durable ~seed) (run_durable ~tracing) )
    | _ -> usage ()
  in
  let driven, out = run () in
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  let slice_json s =
    Printf.sprintf "[%d,%d,%d,%s,%s,%d]" s.sl_end s.sl_host_ns s.sl_events
      (json_float s.sl_minor) (json_float s.sl_promoted) s.sl_majors
  in
  Printf.printf
    "{\"workload\":%S,\"params\":%S,\"seed\":%d,\"trace\":%b,\"warmup_end_ns\":%d,\"setup_s\":%s,\"wall_s\":%s,\"peak_heap_mb\":%s,\"sim\":%s,\"checks\":%s,\"layer\":%s,\"slices\":[%s]}\n"
    workload
    (params workload ^ "; " ^ common_params)
    seed tracing warmup_end (json_float setup_s)
    (json_float (float_of_int driven.wall_ns /. 1e9))
    (json_float top_heap_mb)
    (json_obj out.sim json_float)
    (json_obj out.checks string_of_bool)
    (json_obj out.layer json_float)
    (String.concat "," (List.map slice_json driven.slices))
