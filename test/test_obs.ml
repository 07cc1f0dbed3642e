(* Observability layer: determinism (the pinned run digest, with and
   without a sink), the telescoping per-block phase decomposition, and
   the exporters. *)

open Fl_sim
open Fl_obs

(* substring containment, so we need no extra string library *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

let quick_config n =
  { (Fl_fireledger.Config.default ~n) with
    Fl_fireledger.Config.batch_size = 10;
    tx_size = 32 }

(* Sink-independent run digest: FNV-1a 64 over the engine's event
   count and clock, every recorder counter and histogram (count, sum),
   and each instance's definite watermark with the raw hash of the
   block there. It reads only state the protocol itself keeps, so it
   is the same whether or not an observability sink or the profiler is
   installed — which is exactly what it certifies. The pins (seed 77,
   [quick_config 4], 300 simulated ms; FLO with two workers) also
   guard against silent behaviour changes: a refactor that claims to
   preserve behaviour must leave them alone. *)
let digest_pins =
  [ ("fireledger", (13408, "4e3e64dd38a51b3d"));
    ("flo", (26537, "69b5a57afacaa6af")) ]

let run_digest ~engine ~recorder instances =
  let h = ref 0xcbf29ce484222325L in
  let add s =
    h :=
      String.fold_left
        (fun acc c ->
          Int64.mul
            (Int64.logxor acc (Int64.of_int (Char.code c)))
            1099511628211L)
        !h s
  in
  add
    (Printf.sprintf "ev=%d now=%d\n" (Engine.processed engine)
       (Engine.now engine));
  List.iter
    (fun (k, v) -> add (Printf.sprintf "c %s=%d\n" k v))
    (Fl_metrics.Recorder.counters recorder);
  List.iter
    (fun (k, hist) ->
      add
        (Printf.sprintf "h %s n=%d s=%d\n" k
           (Fl_metrics.Histogram.count hist)
           (Fl_metrics.Histogram.sum hist)))
    (Fl_metrics.Recorder.histograms recorder);
  List.iter
    (fun i ->
      let d = Fl_fireledger.Instance.definite_upto i in
      let hash =
        match Fl_chain.Store.get (Fl_fireledger.Instance.store i) d with
        | Some b -> Fl_chain.Block.hash b
        | None -> "-"
      in
      add (Printf.sprintf "%d:%s\n" d hash))
    instances;
  (Engine.processed engine, Printf.sprintf "%016Lx" !h)

let fireledger_digest (c : Fl_fireledger.Cluster.t) =
  run_digest ~engine:c.Fl_fireledger.Cluster.engine
    ~recorder:c.Fl_fireledger.Cluster.recorder
    (Array.to_list c.Fl_fireledger.Cluster.instances)

(* node-major, then by worker *)
let flo_digest (c : Fl_flo.Cluster.t) =
  run_digest ~engine:c.Fl_flo.Cluster.engine
    ~recorder:c.Fl_flo.Cluster.recorder
    (List.concat_map Array.to_list (Array.to_list c.Fl_flo.Cluster.workers))

let check_digest which got =
  Alcotest.(check (pair int string))
    (which ^ " run digest")
    (List.assoc which digest_pins)
    got

let run_fireledger ?obs () =
  let c =
    Fl_fireledger.Cluster.create ~seed:77 ?obs ~config:(quick_config 4) ()
  in
  Fl_fireledger.Cluster.start c;
  Fl_fireledger.Cluster.run ~until:(Time.ms 300) c;
  c

let run_flo ?obs ?on_deliver () =
  let c =
    Fl_flo.Cluster.create ~seed:77 ?obs ?on_deliver ~config:(quick_config 4)
      ~workers:2 ()
  in
  Fl_flo.Cluster.start c;
  Fl_flo.Cluster.run ~until:(Time.ms 300) c;
  c

let test_fingerprint_pinned_off () =
  check_digest "fireledger" (fireledger_digest (run_fireledger ()));
  check_digest "flo" (flo_digest (run_flo ()))

let test_fingerprint_unchanged_with_obs () =
  let sink = Obs.create () in
  check_digest "fireledger" (fireledger_digest (run_fireledger ~obs:sink ()));
  Alcotest.(check bool) "sink captured events" true (Obs.count sink > 0);
  let sink2 = Obs.create () in
  check_digest "flo" (flo_digest (run_flo ~obs:sink2 ()));
  Alcotest.(check bool) "flo sink captured events" true (Obs.count sink2 > 0)

(* Every frame a FLO worker's hub fails to decode is both counted and
   visible in the sink, attributed to its (node, worker). *)
let test_flo_decode_errors () =
  let sink = Obs.create () in
  let c =
    Fl_flo.Cluster.create ~seed:77 ~obs:sink ~config:(quick_config 4)
      ~workers:2 ()
  in
  Array.iter (fun net -> Fl_net.Net.set_corrupt net ~node:0 0.2)
    c.Fl_flo.Cluster.nets;
  Fl_flo.Cluster.start c;
  Fl_flo.Cluster.run ~until:(Time.ms 100) c;
  Array.iter (fun net -> Fl_net.Net.set_corrupt net ~node:0 0.0)
    c.Fl_flo.Cluster.nets;
  Fl_flo.Cluster.run ~until:(Time.ms 200) c;
  let events =
    List.filter
      (fun (e : Obs.event) ->
        String.equal e.Obs.cat "net" && String.equal e.Obs.name "decode_error")
      (Obs.events sink)
  in
  let counted =
    Fl_metrics.Recorder.counter c.Fl_flo.Cluster.recorder "decode_errors"
  in
  Alcotest.(check bool) "frames rejected" true (counted > 0);
  Alcotest.(check int) "one event per rejected frame" counted
    (List.length events);
  Alcotest.(check bool) "attributed to a worker" true
    (List.for_all (fun (e : Obs.event) -> e.Obs.worker >= 0) events)

let test_obs_categories () =
  let sink = Obs.create () in
  ignore (run_flo ~obs:sink ());
  let cats =
    List.sort_uniq compare
      (List.map (fun (e : Obs.event) -> e.Obs.cat) (Obs.events sink))
  in
  List.iter
    (fun c ->
      Alcotest.(check bool) (Printf.sprintf "cat %s present" c) true
        (List.mem c cats))
    [ "sim"; "net"; "consensus"; "fireledger"; "flo" ]

(* The acceptance-criterion test: per-block phase components always
   sum to the end-to-end latency the recorder stores — raw unclamped
   differences telescope exactly. Checked both per delivery (exact
   ints) and on the recorded histograms (counts and totals). *)
let test_decomposition_sums () =
  let deliveries = ref [] in
  let c =
    run_flo
      ~on_deliver:(fun ~node:_ d -> deliveries := d :: !deliveries)
      ()
  in
  Alcotest.(check bool) "some deliveries" true (List.length !deliveries > 0);
  let phase_total = ref 0 and e2e_total = ref 0 in
  List.iter
    (fun (d : Fl_flo.Node.delivery) ->
      let t = d.Fl_flo.Node.times in
      let comp =
        Decomp.of_times ~a:t.Fl_fireledger.Instance.a
          ~b:t.Fl_fireledger.Instance.b ~c:t.Fl_fireledger.Instance.c
          ~d:t.Fl_fireledger.Instance.d ~e:d.Fl_flo.Node.delivered_at
      in
      let e2e = d.Fl_flo.Node.delivered_at - t.Fl_fireledger.Instance.a in
      Alcotest.(check int) "components telescope" e2e (Decomp.total comp);
      Alcotest.(check bool) "e2e non-negative" true (e2e >= 0);
      phase_total := !phase_total + Decomp.total comp;
      e2e_total := !e2e_total + e2e)
    !deliveries;
  Alcotest.(check int) "grand totals equal" !e2e_total !phase_total;
  (* The recorded histograms (Node.drain's own path) must agree. *)
  let recorder = c.Fl_flo.Cluster.recorder in
  let hist name =
    match Fl_metrics.Recorder.histogram recorder name with
    | Some h -> h
    | None -> Alcotest.failf "missing histogram %s" name
  in
  let lat = hist "latency_e2e" in
  let n = Fl_metrics.Histogram.count lat in
  Alcotest.(check int) "deliveries recorded" (List.length !deliveries) n;
  let sum h =
    Fl_metrics.Histogram.mean h *. float_of_int (Fl_metrics.Histogram.count h)
  in
  let phases_sum =
    List.fold_left
      (fun acc name ->
        let h = hist name in
        Alcotest.(check int)
          (Printf.sprintf "%s count" name)
          n
          (Fl_metrics.Histogram.count h);
        acc +. sum h)
      0.0 Decomp.names
  in
  let lat_sum = sum lat in
  Alcotest.(check bool) "histogram sums telescope" true
    (Float.abs (phases_sum -. lat_sum) < 1e-3 *. Float.max 1.0 lat_sum)

(* ---------- sink semantics ---------- *)

let test_ring_buffer () =
  let sink = Obs.create ~capacity:3 () in
  for i = 0 to 9 do
    Obs.instant (Some sink) ~cat:"t" ~name:(string_of_int i) ~at:i ()
  done;
  Alcotest.(check int) "count includes evicted" 10 (Obs.count sink);
  Alcotest.(check int) "dropped" 7 (Obs.dropped sink);
  Alcotest.(check (list string)) "last three survive, in order"
    [ "7"; "8"; "9" ]
    (List.map (fun (e : Obs.event) -> e.Obs.name) (Obs.events sink));
  Alcotest.(check (list int)) "seq monotone" [ 7; 8; 9 ]
    (List.map (fun (e : Obs.event) -> e.Obs.seq) (Obs.events sink))

let test_none_sink_free () =
  (* [None] short-circuits: these must not raise nor allocate state. *)
  Obs.span None ~cat:"x" ~name:"y" ~t_begin:5 ~t_end:1 ();
  Obs.instant None ~cat:"x" ~name:"y" ~at:0 ();
  Obs.gauge None ~cat:"x" ~name:"y" ~at:0 1.0;
  Alcotest.(check bool) "enabled None" false (Obs.enabled None);
  Alcotest.(check bool) "enabled Some" true
    (Obs.enabled (Some (Obs.create ())))

let test_gauges_last_value () =
  let sink = Obs.create () in
  Obs.gauge (Some sink) ~cat:"t" ~name:"g" ~node:1 ~at:0 1.0;
  Obs.gauge (Some sink) ~cat:"t" ~name:"g" ~node:1 ~at:5 2.5;
  Obs.gauge (Some sink) ~cat:"t" ~name:"g" ~node:0 ~at:7 9.0;
  Alcotest.(check (list (triple string int (float 0.0))))
    "last per (name,node), sorted"
    [ ("g", 0, 9.0); ("g", 1, 2.5) ]
    (Obs.gauges sink)

(* ---------- exporters ---------- *)

let sample_sink () =
  let sink = Obs.create () in
  Obs.span (Some sink) ~cat:"net" ~name:"link" ~node:0 ~worker:1 ~round:3
    ~args:[ ("quote", "a\"b"); ("nl", "x\ny") ]
    ~t_begin:1_000 ~t_end:2_500 ();
  Obs.span (Some sink) ~cat:"fireledger" ~name:"neg" ~node:1 ~t_begin:500
    ~t_end:200 ();
  Obs.instant (Some sink) ~cat:"flo" ~name:"deliver" ~node:1 ~worker:0
    ~round:4 ~at:3_000 ();
  Obs.gauge (Some sink) ~cat:"sim" ~name:"engine pending!" ~at:4_000 7.0;
  sink

let test_chrome_json () =
  let sink = sample_sink () in
  let json = Export.chrome_json ~dropped:(Obs.dropped sink) (Obs.events sink) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %s" needle) true
        (contains json needle))
    [ "\"traceEvents\"";
      "\"ph\":\"X\"";
      "\"ph\":\"i\"";
      "\"ph\":\"C\"";
      "\"ph\":\"M\"";
      "\"process_name\"";
      "\"thread_name\"";
      (* 1_000 ns = 1 us; negative span clamped to 0 for display *)
      "\"ts\":1.000,\"dur\":1.500";
      "\"dur\":0.000";
      (* JSON escaping of arg values *)
      "a\\\"b";
      "x\\ny" ]

let test_jsonl () =
  let sink = sample_sink () in
  let out = Export.jsonl (Obs.events sink) in
  let lines = String.split_on_char '\n' out |> List.filter (( <> ) "") in
  Alcotest.(check int) "one line per event" 4 (List.length lines);
  (* raw nanoseconds, never clamped *)
  Alcotest.(check bool) "raw negative duration kept" true
    (contains out "\"dur\":-300")

let test_prometheus () =
  let r = Fl_metrics.Recorder.create () in
  Fl_metrics.Recorder.incr r "my_counter";
  Fl_metrics.Recorder.set_window r ~start:0 ~stop:1000;
  Fl_metrics.Recorder.mark r "marked" ~now:10 3;
  Fl_metrics.Recorder.observe r "lat ms" 5;
  Fl_metrics.Recorder.observe r "lat ms" 7;
  let sink = sample_sink () in
  let out = Export.prometheus ~recorder:r ~obs:sink () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %s" needle) true
        (contains out needle))
    [ "fl_my_counter 1";
      "fl_marked_total 3";
      (* name sanitised to the Prometheus grammar *)
      "fl_lat_ms{quantile=\"0.5\"} 5";
      "fl_lat_ms{quantile=\"0.99\"} 7";
      "fl_lat_ms_count 2";
      "fl_engine_pending_ gauge";
      "fl_engine_pending_ 7" ]

let test_filter () =
  let sink = sample_sink () in
  let events = Obs.events sink in
  let names evs = List.map (fun (e : Obs.event) -> e.Obs.name) evs in
  (* node filter keeps cluster-wide (-1) events *)
  Alcotest.(check (list string)) "node filter keeps -1"
    [ "link"; "engine pending!" ]
    (names (Export.filter ~nodes:[ 0 ] events));
  Alcotest.(check (list string)) "cat filter" [ "deliver" ]
    (names (Export.filter ~cats:[ "flo" ] events));
  (* time range: inclusive of t_from, exclusive of t_to *)
  Alcotest.(check (list string)) "time range" [ "link"; "neg" ]
    (names (Export.filter ~t_from:500 ~t_to:3_000 events));
  Alcotest.(check int) "all pass with no criteria" 4
    (List.length (Export.filter events))

(* ---------- probes ---------- *)

let test_engine_probe () =
  let engine = Engine.create () in
  let calls = ref 0 in
  Engine.set_probe engine
    (Some (fun ~now:_ ~processed:_ ~pending:_ -> incr calls));
  for i = 1 to 5 do
    ignore (Engine.schedule engine ~delay:i (fun () -> ()))
  done;
  Engine.run engine;
  Alcotest.(check int) "probe per executed event" 5 !calls;
  Engine.set_probe engine None;
  ignore (Engine.schedule engine ~delay:1 (fun () -> ()));
  Engine.run engine;
  Alcotest.(check int) "detached probe silent" 5 !calls

let test_cpu_probe () =
  let engine = Engine.create () in
  let cpu = Cpu.create engine ~cores:1 in
  let spans = ref [] in
  Cpu.set_probe cpu (Some (fun ~start ~dur -> spans := (start, dur) :: !spans));
  Fiber.spawn engine (fun () -> Cpu.charge cpu 100);
  Fiber.spawn engine (fun () -> Cpu.charge cpu 50);
  Engine.run engine;
  Alcotest.(check (list (pair int int))) "busy spans, FIFO on one core"
    [ (0, 100); (100, 50) ]
    (List.rev !spans)

let suite =
  [ Alcotest.test_case "pinned fingerprints (obs off)" `Quick
      test_fingerprint_pinned_off;
    Alcotest.test_case "fingerprints unchanged (obs on)" `Quick
      test_fingerprint_unchanged_with_obs;
    Alcotest.test_case "flo decode errors traced" `Quick
      test_flo_decode_errors;
    Alcotest.test_case "all categories emit" `Quick test_obs_categories;
    Alcotest.test_case "decomposition telescopes" `Quick
      test_decomposition_sums;
    Alcotest.test_case "ring buffer" `Quick test_ring_buffer;
    Alcotest.test_case "None sink free" `Quick test_none_sink_free;
    Alcotest.test_case "gauge snapshot" `Quick test_gauges_last_value;
    Alcotest.test_case "chrome json" `Quick test_chrome_json;
    Alcotest.test_case "jsonl" `Quick test_jsonl;
    Alcotest.test_case "prometheus" `Quick test_prometheus;
    Alcotest.test_case "filter" `Quick test_filter;
    Alcotest.test_case "engine probe" `Quick test_engine_probe;
    Alcotest.test_case "cpu probe" `Quick test_cpu_probe ]
