open Fl_sim
open Fl_consensus
open Fl_wire

(* Each protocol family gets a top-level test codec: the protocol's
   in-body writer/reader under a one-tag envelope — the same shape the
   fireledger node codec uses for the embedded sub-protocols. *)
let envelope_codec ~name write read =
  let encode m = Envelope.seal ~tag:0 (fun w -> write w m) in
  let decode s =
    Msg_codec.decode_frame
      (fun tag r ->
        if tag <> 0 then
          raise (Codec.Malformed (Printf.sprintf "%s: tag %d" name tag));
        read r)
      s
  in
  (encode, decode)

(* ---------- BBC ---------- *)

let bbc_key : Bbc.msg -> string = fun _ -> "bbc"

let bbc_encode, bbc_decode =
  envelope_codec ~name:"bbc-test" Bbc.write_msg Bbc.read_msg

let run_bbc ?(seed = 1) ~n ~participants proposals =
  let w =
    World.make ~seed ~n ~key:bbc_key ~encode:bbc_encode ~decode:bbc_decode ()
  in
  let results = Array.make n None in
  let coin = Coin.make ~seed:99 ~instance:"t" in
  List.iter
    (fun i ->
      Fiber.spawn w.World.engine (fun () ->
          let channel = World.channel w ~node:i ~key:"bbc" in
          let d =
            Bbc.run w.World.engine ~recorder:w.World.recorder ~coin ~channel
              proposals.(i)
          in
          results.(i) <- Some d))
    participants;
  World.run ~until:(Time.s 60) w;
  (w, results)

let check_bbc_agreement participants results =
  let decided =
    List.filter_map (fun i -> results.(i)) participants
  in
  Alcotest.(check int)
    "all participants decide" (List.length participants)
    (List.length decided);
  match decided with
  | [] -> Alcotest.fail "nobody decided"
  | d :: rest ->
      List.iter (fun d' -> Alcotest.(check bool) "agreement" d d') rest;
      d

let test_bbc_unanimous_one () =
  let parts = [ 0; 1; 2; 3 ] in
  let _, results = run_bbc ~n:4 ~participants:parts [| true; true; true; true |] in
  let d = check_bbc_agreement parts results in
  Alcotest.(check bool) "validity: unanimous 1 decides 1" true d

let test_bbc_unanimous_zero () =
  let parts = [ 0; 1; 2; 3 ] in
  let _, results =
    run_bbc ~n:4 ~participants:parts [| false; false; false; false |]
  in
  let d = check_bbc_agreement parts results in
  Alcotest.(check bool) "validity: unanimous 0 decides 0" false d

let test_bbc_mixed_agree () =
  (* Mixed proposals must still agree (on either value). *)
  List.iter
    (fun seed ->
      let parts = [ 0; 1; 2; 3; 4; 5; 6 ] in
      let _, results =
        run_bbc ~seed ~n:7 ~participants:parts
          [| true; false; true; false; true; false; true |]
      in
      ignore (check_bbc_agreement parts results))
    [ 1; 2; 3; 4; 5 ]

let test_bbc_with_silent_faults () =
  (* f = 1 silent node: the remaining n−f must still decide. *)
  let parts = [ 0; 1; 2 ] in
  let _, results = run_bbc ~n:4 ~participants:parts [| true; true; true; true |] in
  let d = check_bbc_agreement parts results in
  Alcotest.(check bool) "decides despite silence" true d

(* ---------- OBBC ---------- *)

type ob_msg = string Obbc.msg

let ob_key : ob_msg -> string = fun _ -> "obbc"

let ob_encode, ob_decode =
  envelope_codec ~name:"obbc-test"
    (Obbc.write_msg Codec.Writer.bytes)
    (Obbc.read_msg Codec.Reader.bytes)

let evidence_blob = "VALID-EVIDENCE"

let run_obbc ?(seed = 5) ~n votes =
  let w =
    World.make ~seed ~n ~key:ob_key ~encode:ob_encode ~decode:ob_decode ()
  in
  let results = Array.make n None in
  let pgds = Array.make n [] in
  let coin = Coin.make ~seed:3 ~instance:"ob" in
  for i = 0 to n - 1 do
    Fiber.spawn w.World.engine (fun () ->
        let channel = World.channel w ~node:i ~key:"obbc" in
        let inst =
          Obbc.create w.World.engine ~recorder:w.World.recorder ~coin ~channel
            ~validate_evidence:(fun ev ->
              Codec.Slice.equal ev (Codec.Slice.of_string evidence_blob))
            ~my_evidence:(fun () ->
              if votes.(i) then Some evidence_blob else None)
            ~on_pgd:(fun ~src p -> pgds.(i) <- (src, p) :: pgds.(i))
            ()
        in
        let pgd = if i = 0 then Some "piggy" else None in
        let d = Obbc.propose inst ~vote:votes.(i) ~pgd () in
        results.(i) <- Some d)
  done;
  World.run ~until:(Time.s 60) w;
  (w, results, pgds)

let check_all_decided results n =
  let decided = Array.to_list results |> List.filter_map Fun.id in
  Alcotest.(check int) "all decided" n (List.length decided);
  match decided with
  | d :: rest ->
      List.iter (fun d' -> Alcotest.(check bool) "agreement" d d') rest;
      d
  | [] -> assert false

let test_obbc_fast_path () =
  let n = 4 in
  let w, results, pgds = run_obbc ~n (Array.make n true) in
  let d = check_all_decided results n in
  Alcotest.(check bool) "decided 1" true d;
  Alcotest.(check int) "all fast" n
    (Fl_metrics.Recorder.counter w.World.recorder "obbc_fast_decisions");
  Alcotest.(check int) "no fallback" 0
    (Fl_metrics.Recorder.counter w.World.recorder "obbc_fallbacks");
  (* Piggyback from node 0 reached every other node. *)
  Array.iteri
    (fun i l ->
      if i <> 0 then
        Alcotest.(check (list (pair int string)))
          (Printf.sprintf "pgd at %d" i)
          [ (0, "piggy") ] l)
    pgds

let test_obbc_all_zero () =
  let n = 4 in
  let w, results, _ = run_obbc ~n (Array.make n false) in
  let d = check_all_decided results n in
  Alcotest.(check bool) "decided 0" false d;
  Alcotest.(check int) "no fast decisions" 0
    (Fl_metrics.Recorder.counter w.World.recorder "obbc_fast_decisions")

let test_obbc_one_dissenter_adopts_evidence () =
  (* One node votes 0; everyone (including it) must converge — and if
     anyone fast-decided 1, the outcome must be 1. With evidences held
     by 3 of 4 nodes, the dissenter adopts 1, so the fallback (if
     entered by all) is unanimous for 1. *)
  List.iter
    (fun seed ->
      let n = 4 in
      let votes = [| false; true; true; true |] in
      let w, results, _ = run_obbc ~seed ~n votes in
      let d = check_all_decided results n in
      Alcotest.(check bool) "decided 1" true d;
      Alcotest.(check int) "no agreement violations" 0
        (Fl_metrics.Recorder.counter w.World.recorder
           "obbc_agreement_violations"))
    [ 1; 2; 3; 7; 11 ]

(* ---------- PBFT ---------- *)

type pb_msg = string Pbft.msg

let pb_key : pb_msg -> string = fun _ -> "pbft"

let pb_encode, pb_decode =
  envelope_codec ~name:"pbft-test"
    (Pbft.write_msg Codec.Writer.bytes)
    (Pbft.read_msg Codec.Reader.bytes)

let pbft_config : string Pbft.config =
  Pbft.default_config ~payload_digest:Fl_crypto.Sha256.digest

let setup_pbft ?(seed = 9) ~n ~alive () =
  let w =
    World.make ~seed ~n ~key:pb_key ~encode:pb_encode ~decode:pb_decode ()
  in
  let delivered = Array.make n [] in
  let replicas =
    Array.init n (fun i ->
        if List.mem i alive then
          Some
            (Pbft.create w.World.engine ~recorder:w.World.recorder
               ~channel:(World.channel w ~node:i ~key:"pbft")
               ~cpu:w.World.cpus.(i) ~config:pbft_config
               ~deliver:(fun ~seq:_ p -> delivered.(i) <- p :: delivered.(i)))
        else None)
  in
  (w, replicas, delivered)

let test_pbft_total_order () =
  let n = 4 in
  let alive = [ 0; 1; 2; 3 ] in
  let w, replicas, delivered = setup_pbft ~n ~alive () in
  let submit i p =
    match replicas.(i) with Some r -> Pbft.submit r p | None -> ()
  in
  Fiber.spawn w.World.engine (fun () ->
      submit 1 "alpha";
      Fiber.sleep w.World.engine (Time.ms 1);
      submit 2 "bravo";
      submit 3 "charlie";
      Fiber.sleep w.World.engine (Time.ms 1);
      submit 0 "delta");
  World.run ~until:(Time.s 10) w;
  Array.iter (function Some r -> Pbft.halt r | None -> ()) replicas;
  World.run ~until:(Time.s 11) w;
  let seqs = Array.map List.rev delivered in
  Alcotest.(check int) "all four delivered" 4 (List.length seqs.(0));
  for i = 1 to n - 1 do
    Alcotest.(check (list string))
      (Printf.sprintf "order at %d matches node 0" i)
      seqs.(0) seqs.(i)
  done;
  Alcotest.(check int) "no view change in fault-free run" 0
    (Fl_metrics.Recorder.counter w.World.recorder "pbft_view_changes")

let test_pbft_view_change_on_dead_leader () =
  (* Node 0 (leader of view 0) never starts; the rest must rotate to
     view 1 and still deliver. *)
  let n = 4 in
  let alive = [ 1; 2; 3 ] in
  let w, replicas, delivered = setup_pbft ~n ~alive () in
  (match replicas.(1) with
  | Some r -> Pbft.submit r "survive"
  | None -> assert false);
  World.run ~until:(Time.s 30) w;
  List.iter
    (fun i ->
      Alcotest.(check (list string))
        (Printf.sprintf "delivered at %d" i)
        [ "survive" ]
        (List.rev delivered.(i)))
    alive;
  (match replicas.(1) with
  | Some r -> Alcotest.(check bool) "view advanced" true (Pbft.view r >= 1)
  | None -> ());
  Alcotest.(check bool) "view changes counted" true
    (Fl_metrics.Recorder.counter w.World.recorder "pbft_view_changes" > 0)

let test_pbft_throughput_batching () =
  (* Many submissions: all delivered, identically ordered, and batched
     into far fewer proposals than payloads. *)
  let n = 4 in
  let alive = [ 0; 1; 2; 3 ] in
  let w, replicas, delivered = setup_pbft ~n ~alive () in
  let total = 500 in
  Fiber.spawn w.World.engine (fun () ->
      for k = 0 to total - 1 do
        (match replicas.(k mod n) with
        | Some r -> Pbft.submit r (Printf.sprintf "req-%04d" k)
        | None -> ());
        if k mod 50 = 0 then Fiber.sleep w.World.engine (Time.us 100)
      done);
  World.run ~until:(Time.s 30) w;
  Alcotest.(check int) "all delivered at node 0" total
    (List.length delivered.(0));
  for i = 1 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "same order at %d" i)
      true
      (delivered.(i) = delivered.(0))
  done;
  let proposals = Fl_metrics.Recorder.counter w.World.recorder "pbft_proposals" in
  Alcotest.(check bool) "batched" true (proposals < total)

let suite =
  [ Alcotest.test_case "bbc unanimous 1" `Quick test_bbc_unanimous_one;
    Alcotest.test_case "bbc unanimous 0" `Quick test_bbc_unanimous_zero;
    Alcotest.test_case "bbc mixed agrees" `Quick test_bbc_mixed_agree;
    Alcotest.test_case "bbc with silent faults" `Quick
      test_bbc_with_silent_faults;
    Alcotest.test_case "obbc fast path" `Quick test_obbc_fast_path;
    Alcotest.test_case "obbc all zero" `Quick test_obbc_all_zero;
    Alcotest.test_case "obbc dissenter" `Quick
      test_obbc_one_dissenter_adopts_evidence;
    Alcotest.test_case "pbft total order" `Quick test_pbft_total_order;
    Alcotest.test_case "pbft view change" `Quick
      test_pbft_view_change_on_dead_leader;
    Alcotest.test_case "pbft batching" `Quick test_pbft_throughput_batching ]
