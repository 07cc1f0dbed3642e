open Fl_sim
open Fl_harness

let test_table_formatting () =
  Alcotest.(check string) "grouping" "1,234,567" (Table.cell_i 1234567);
  Alcotest.(check string) "small" "42" (Table.cell_i 42);
  Alcotest.(check string) "float" "1,234.5" (Table.cell_f 1234.49);
  Alcotest.(check string) "decimals" "0.25" (Table.cell_f ~dec:2 0.251);
  let t = Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Table.add_row t [ "x"; "y" ];
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "only-one" ])

let quick ~n ~workers =
  { (Settings.flo ~n ~workers ~batch:20 ~tx_size:64) with
    Settings.warmup = Time.ms 300;
    duration = Time.ms 700 }

let test_run_flo_produces_metrics () =
  let r = Settings.run_flo (quick ~n:4 ~workers:2) in
  Alcotest.(check bool) "tps > 0" true (r.Settings.tps > 0.0);
  Alcotest.(check bool) "bps > 0" true (r.Settings.bps > 0.0);
  Alcotest.(check bool) "tps = bps * batch" true
    (abs_float (r.Settings.tps -. (20.0 *. r.Settings.bps)) < 0.5 *. r.Settings.tps);
  Alcotest.(check bool) "latency positive" true (r.Settings.lat_mean_ms > 0.0);
  Alcotest.(check bool) "quantiles ordered" true
    (r.Settings.lat_p50_ms <= r.Settings.lat_p90_ms
    && r.Settings.lat_p90_ms <= r.Settings.lat_p99_ms);
  Alcotest.(check bool) "cpu util sane" true
    (r.Settings.cpu_util >= 0.0 && r.Settings.cpu_util <= 1.0);
  Alcotest.(check (float 0.001)) "no recoveries" 0.0 r.Settings.rps

let test_run_flo_deterministic () =
  let a = Settings.run_flo (quick ~n:4 ~workers:1) in
  let b = Settings.run_flo (quick ~n:4 ~workers:1) in
  Alcotest.(check (float 0.001)) "identical tps" a.Settings.tps b.Settings.tps;
  Alcotest.(check (float 0.001)) "identical latency" a.Settings.lat_mean_ms
    b.Settings.lat_mean_ms

let test_crash_fault_injection () =
  let s =
    { (quick ~n:7 ~workers:1) with
      Settings.faults =
        { Settings.no_faults with
          Settings.crash_at = Some (Time.ms 100, [ 1; 3 ]) } }
  in
  let r = Settings.run_flo s in
  Alcotest.(check bool) "progress despite crashes" true (r.Settings.tps > 0.0)

let test_byzantine_fault_injection () =
  let s =
    { (quick ~n:4 ~workers:1) with
      Settings.duration = Time.s 2;
      faults = { Settings.no_faults with Settings.byzantine = [ 1 ] } }
  in
  let r = Settings.run_flo s in
  Alcotest.(check bool) "recoveries observed" true (r.Settings.rps > 0.0);
  Alcotest.(check bool) "still delivering" true (r.Settings.tps > 0.0)

let test_loss_fault_injection () =
  let s =
    { (quick ~n:4 ~workers:1) with
      Settings.duration = Time.s 2;
      faults = { Settings.no_faults with Settings.loss = Some (1, 0.7) } }
  in
  let r = Settings.run_flo s in
  Alcotest.(check bool) "slow paths under omission" true
    (r.Settings.slow_paths > 0);
  Alcotest.(check bool) "still delivering" true (r.Settings.tps > 0.0)

let test_latency_cdf () =
  let cdf = Settings.latency_cdf (quick ~n:4 ~workers:1) ~points:10 in
  Alcotest.(check int) "10 points" 10 (List.length cdf);
  let ms = List.map fst cdf in
  Alcotest.(check bool) "monotone values" true (List.sort compare ms = ms)

let test_experiment_registry () =
  Alcotest.(check int) "17 experiments" 17
    (List.length Experiments.all);
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "%s registered" id)
        true
        (List.exists (fun (i, _, _) -> String.equal i id) Experiments.all))
    [ "table1"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10"; "fig11";
      "fig12"; "fig13"; "fig14"; "fig15"; "fig16"; "fig17"; "ablations";
      "restart_durable"; "saturation" ];
  Alcotest.(check bool) "unknown id rejected" false
    (Experiments.run_by_id "nope" Experiments.Quick)

(* The --persist grammar: every documented form parses to the intended
   disk profile and sync policy; anything else is an [Error] with a
   message — never an exception escaping to the command line. *)
let test_parse_persist () =
  let module N = Fl_persist.Node in
  let valid =
    [ ("never", "nvme", N.Never);
      ("group_commit", "nvme", N.Group_commit (Time.ms 2));
      ("group_commit:5", "nvme", N.Group_commit (Time.ms 5));
      ("group_commit:5ms", "nvme", N.Group_commit (Time.ms 5));
      ("every_block", "nvme", N.Every_block);
      ("ssd/every_block", "ssd", N.Every_block);
      ("hdd/group_commit:10ms", "hdd", N.Group_commit (Time.ms 10));
      ("group_commit:60000", "nvme", N.Group_commit (Time.ms 60_000));
      ("nvme/never", "nvme", N.Never) ]
  in
  List.iter
    (fun (s, profile, sync) ->
      match Settings.parse_persist s with
      | Ok c ->
          Alcotest.(check string)
            (s ^ " profile") profile c.N.profile.Fl_persist.Disk.p_name;
          Alcotest.(check bool) (s ^ " sync") true (c.N.sync = sync)
      | Error e -> Alcotest.failf "%S rejected: %s" s e)
    valid;
  List.iter
    (fun s ->
      match Settings.parse_persist s with
      | Ok _ -> Alcotest.failf "%S accepted" s
      | Error e -> Alcotest.(check bool) (s ^ " has a message") true (e <> ""))
    [ ""; "ssd"; "ssd/"; "tape/never"; "group_commit:5x"; "group_commit:";
      "group_commit:0"; "group_commit:-5"; "group_commit:0x10";
      "group_commit:60001"; "group_commit:99999999999999999999";
      "group_commit:5:6"; "every_block:1";
      "/never"; "ssd/hdd/never"; "NEVER" ];
  Alcotest.check_raises "trusted form raises on garbage"
    (Invalid_argument
       "persistence policy \"ssd\": expected never, group_commit[:<ms>] or \
        every_block")
    (fun () -> ignore (Settings.persist_of_string "ssd"))

let suite =
  [ Alcotest.test_case "table formatting" `Quick test_table_formatting;
    Alcotest.test_case "run_flo metrics" `Quick test_run_flo_produces_metrics;
    Alcotest.test_case "run_flo deterministic" `Quick
      test_run_flo_deterministic;
    Alcotest.test_case "crash injection" `Quick test_crash_fault_injection;
    Alcotest.test_case "byzantine injection" `Quick
      test_byzantine_fault_injection;
    Alcotest.test_case "loss injection" `Quick test_loss_fault_injection;
    Alcotest.test_case "latency cdf" `Quick test_latency_cdf;
    Alcotest.test_case "experiment registry" `Quick test_experiment_registry;
    Alcotest.test_case "--persist grammar" `Quick test_parse_persist ]
