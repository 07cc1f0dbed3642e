(* Adversarial message injection at the consensus layer: a Byzantine
   node speaks the raw wire protocol (conflicting votes, forged
   evidence, equivocating batches) instead of running the honest code.
   Safety properties must hold regardless. *)

open Fl_sim
open Fl_net
open Fl_consensus
open Fl_wire

(* ---------- BBC under an equivocating participant ---------- *)

let bbc_key : Bbc.msg -> string = fun _ -> "bbc"

let bbc_encode m = Envelope.seal ~tag:0 (fun w -> Bbc.write_msg w m)

let bbc_decode s =
  Msg_codec.decode_frame
    (fun tag r ->
      if tag <> 0 then
        raise (Codec.Malformed (Printf.sprintf "bbc-adv: tag %d" tag));
      Bbc.read_msg r)
    s

let test_bbc_equivocating_est () =
  (* Node 3 sends EST(0) to half the cluster and EST(1) to the rest,
     plus conflicting AUX votes, for every round. Correct nodes must
     still agree. *)
  List.iter
    (fun seed ->
      let w =
        World.make ~seed ~n:4 ~key:bbc_key ~encode:bbc_encode
          ~decode:bbc_decode ()
      in
      let coin = Coin.make ~seed:7 ~instance:"adv" in
      let results = Array.make 3 None in
      List.iteri
        (fun idx i ->
          Fiber.spawn w.World.engine (fun () ->
              let channel = World.channel w ~node:i ~key:"bbc" in
              let d =
                Bbc.run w.World.engine ~recorder:w.World.recorder ~coin
                  ~channel (i mod 2 = 0)
              in
              results.(idx) <- Some d))
        [ 0; 1; 2 ];
      (* The adversary floods conflicting traffic for many rounds. *)
      Fiber.spawn w.World.engine (fun () ->
          for round = 0 to 20 do
            Net.send w.World.net ~src:3 ~dst:0
              (bbc_encode (Bbc.Est { round; value = true }));
            Net.send w.World.net ~src:3 ~dst:1
              (bbc_encode (Bbc.Est { round; value = false }));
            Net.send w.World.net ~src:3 ~dst:2
              (bbc_encode (Bbc.Est { round; value = true }));
            Net.send w.World.net ~src:3 ~dst:0
              (bbc_encode (Bbc.Aux { round; value = false }));
            Net.send w.World.net ~src:3 ~dst:1
              (bbc_encode (Bbc.Aux { round; value = true }));
            Net.send w.World.net ~src:3 ~dst:2
              (bbc_encode (Bbc.Aux { round; value = false }));
            Fiber.sleep w.World.engine (Time.ms 2)
          done);
      World.run ~until:(Time.s 30) w;
      let decided = Array.to_list results |> List.filter_map Fun.id in
      Alcotest.(check int) "all correct decide" 3 (List.length decided);
      match decided with
      | d :: rest ->
          List.iter
            (fun d' -> Alcotest.(check bool) "agreement" d d')
            rest
      | [] -> ())
    [ 1; 2; 3 ]

(* ---------- OBBC under forged evidence ---------- *)

type ob_msg = string Obbc.msg

let ob_key : ob_msg -> string = fun _ -> "obbc"

let ob_encode (m : ob_msg) =
  Envelope.seal ~tag:0 (fun w -> Obbc.write_msg Codec.Writer.bytes w m)

let ob_decode s =
  Msg_codec.decode_frame
    (fun tag r ->
      if tag <> 0 then
        raise (Codec.Malformed (Printf.sprintf "ob-adv: tag %d" tag));
      Obbc.read_msg Codec.Reader.bytes r)
    s

let test_obbc_forged_evidence () =
  (* Everyone honest votes 0; the Byzantine node votes 1 and answers
     evidence requests with a forged blob. OBBC₁-Validity: 1 may only
     be decided with a *valid* evidence, so the decision must be 0. *)
  let w =
    World.make ~seed:11 ~n:4 ~key:ob_key ~encode:ob_encode ~decode:ob_decode
      ()
  in
  let coin = Coin.make ~seed:2 ~instance:"ev" in
  let results = Array.make 3 None in
  List.iteri
    (fun idx i ->
      Fiber.spawn w.World.engine (fun () ->
          let channel = World.channel w ~node:i ~key:"obbc" in
          let inst =
            Obbc.create w.World.engine ~recorder:w.World.recorder ~coin
              ~channel
              ~validate_evidence:(fun ev ->
                Codec.Slice.equal ev (Codec.Slice.of_string "REAL"))
              ~my_evidence:(fun () -> None)
              ~on_pgd:(fun ~src:_ _ -> ())
              ()
          in
          let d = Obbc.propose inst ~vote:false ~pgd:None () in
          results.(idx) <- Some d))
    [ 0; 1; 2 ];
  Fiber.spawn w.World.engine (fun () ->
      (* Byzantine vote-1 plus forged evidence replies. *)
      Net.broadcast w.World.net ~src:3
        (ob_encode (Obbc.Vote { value = true; pgd = None } : ob_msg));
      for _ = 0 to 30 do
        Fiber.sleep w.World.engine (Time.ms 5);
        Net.broadcast w.World.net ~src:3
          (ob_encode
             (Obbc.Ev (Some (Codec.Slice.of_string "FORGED")) : ob_msg))
      done);
  World.run ~until:(Time.s 30) w;
  Array.iter
    (fun r -> Alcotest.(check (option bool)) "decided 0" (Some false) r)
    results

let test_obbc_byzantine_cannot_fake_fast_path () =
  (* With one honest 0-vote among the first n−f everywhere, a single
     Byzantine 1-vote cannot conjure a fast decision for a value no
     honest quorum backs; the instance must agree via the fallback. *)
  let w =
    World.make ~seed:13 ~n:4 ~key:ob_key ~encode:ob_encode ~decode:ob_decode
      ()
  in
  let coin = Coin.make ~seed:5 ~instance:"fp" in
  let results = Array.make 3 None in
  List.iteri
    (fun idx i ->
      Fiber.spawn w.World.engine (fun () ->
          let channel = World.channel w ~node:i ~key:"obbc" in
          let inst =
            Obbc.create w.World.engine ~recorder:w.World.recorder ~coin
              ~channel
              ~validate_evidence:(fun ev ->
                Codec.Slice.equal ev (Codec.Slice.of_string "REAL"))
              ~my_evidence:(fun () -> if i = 0 then Some "REAL" else None)
              ~on_pgd:(fun ~src:_ _ -> ())
              ()
          in
          let d = Obbc.propose inst ~vote:(i = 0) ~pgd:None () in
          results.(idx) <- Some d))
    [ 0; 1; 2 ];
  Fiber.spawn w.World.engine (fun () ->
      Net.send w.World.net ~src:3 ~dst:0
        (ob_encode (Obbc.Vote { value = true; pgd = None } : ob_msg));
      Net.send w.World.net ~src:3 ~dst:1
        (ob_encode (Obbc.Vote { value = false; pgd = None } : ob_msg));
      Net.send w.World.net ~src:3 ~dst:2
        (ob_encode (Obbc.Vote { value = true; pgd = None } : ob_msg)));
  World.run ~until:(Time.s 30) w;
  let decided = Array.to_list results |> List.filter_map Fun.id in
  Alcotest.(check int) "all decide" 3 (List.length decided);
  (match decided with
  | d :: rest -> List.iter (fun d' -> Alcotest.(check bool) "agreement" d d') rest
  | [] -> ());
  Alcotest.(check int) "no agreement violations" 0
    (Fl_metrics.Recorder.counter w.World.recorder
       "obbc_agreement_violations")

(* ---------- PBFT under an equivocating leader ---------- *)

type pb_msg = string Pbft.msg

let pb_key : pb_msg -> string = fun _ -> "pbft"

let pb_encode (m : pb_msg) =
  Envelope.seal ~tag:0 (fun w -> Pbft.write_msg Codec.Writer.bytes w m)

let pb_decode s =
  Msg_codec.decode_frame
    (fun tag r ->
      if tag <> 0 then
        raise (Codec.Malformed (Printf.sprintf "pb-adv: tag %d" tag));
      Pbft.read_msg Codec.Reader.bytes r)
    s

let test_pbft_equivocating_leader_blocks_divergence () =
  (* Node 0 (leader of view 0) sends a different batch to each replica
     for the same sequence number. No digest can gather 2f+1 prepares,
     so no two correct replicas may execute different content; the
     view change eventually installs an honest leader and the system
     keeps ordering. *)
  let n = 4 in
  let w =
    World.make ~seed:17 ~n ~key:pb_key ~encode:pb_encode ~decode:pb_decode ()
  in
  let delivered = Array.make n [] in
  let config =
    { (Pbft.default_config ~payload_digest:Fl_crypto.Sha256.digest) with
      Pbft.base_timeout = Time.ms 100 }
  in
  let replicas =
    Array.init n (fun i ->
        if i = 0 then None
        else
          Some
            (Pbft.create w.World.engine ~recorder:w.World.recorder
               ~channel:(World.channel w ~node:i ~key:"pbft")
               ~cpu:w.World.cpus.(i) ~config
               ~deliver:(fun ~seq:_ p ->
                 delivered.(i) <- p :: delivered.(i))))
  in
  (* The Byzantine leader equivocates on seq 1... *)
  List.iteri
    (fun idx dst ->
      Net.send w.World.net ~src:0 ~dst
        (pb_encode
           (Pbft.Pre_prepare
              { view = 0; seq = 1; batch = [ Printf.sprintf "evil-%d" idx ] }
             : pb_msg)))
    [ 1; 2; 3 ];
  (* ...while an honest replica wants a real request ordered. *)
  (match replicas.(1) with
  | Some r -> Pbft.submit r "honest-req"
  | None -> ());
  World.run ~until:(Time.s 30) w;
  (* No divergence: the sequences executed at correct replicas are
     prefix-compatible, and the honest request eventually commits. *)
  let seqs = List.map (fun i -> List.rev delivered.(i)) [ 1; 2; 3 ] in
  let rec prefix_ok = function
    | a :: b :: rest ->
        let rec pre x y =
          match (x, y) with
          | [], _ | _, [] -> true
          | h1 :: t1, h2 :: t2 -> String.equal h1 h2 && pre t1 t2
        in
        pre a b && prefix_ok (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "no divergent execution" true (prefix_ok seqs);
  List.iter
    (fun s ->
      Alcotest.(check bool) "honest request ordered" true
        (List.exists (String.equal "honest-req") s);
      Alcotest.(check bool) "at most one evil batch survives" true
        (List.length (List.filter (fun p -> String.length p > 4
                                            && String.sub p 0 4 = "evil") s)
        <= 1))
    seqs

(* ---------- teardown frames from a peer ---------- *)

(* OBBC's [Close] and BBC's [Stop] tear an instance down, so only the
   node itself may issue them. Node 3 runs the honest protocol and also
   floods node 0 with both, for the rounds node 0 is about to run: an
   OBBC [Close] frame, and an OBBC [Fallback] frame whose BBC payload
   is spelled as a [Stop] (tag 3, written by hand: the BBC codec has no
   encoding for it). Returns each node's definite watermark after 1 s. *)
let teardown_flood ~flood =
  let open Fl_fireledger in
  let config = { (Config.default ~n:4) with Config.batch_size = 10 } in
  let c = Cluster.create ~seed:7 ~config () in
  Cluster.start c;
  let send bytes = Net.send c.Cluster.net ~src:3 ~dst:0 bytes in
  let stop_frame ~era ~round =
    Envelope.seal ~tag:2 (fun w ->
        List.iter (Codec.Writer.varint w) [ era; round; 0 ];
        Codec.Writer.u8 w 3;
        Codec.Writer.u8 w 3)
  in
  Alcotest.(check bool) "a BBC stop frame does not decode" true
    (Msg.decode (stop_frame ~era:0 ~round:1) = None);
  if flood then
    Fiber.spawn c.Cluster.engine (fun () ->
        for _ = 1 to 100 do
          let inst = c.Cluster.instances.(0) in
          let era = Instance.era inst and r = Instance.round inst in
          for round = r to r + 1 do
            send (Msg.encode (Msg.Ob { era; round; attempt = 0; m = Obbc.Close }));
            send (stop_frame ~era ~round)
          done;
          Fiber.sleep c.Cluster.engine (Time.ms 10)
        done);
  Cluster.run ~until:(Time.s 1) c;
  Array.map Instance.definite_upto c.Cluster.instances

let test_teardown_flood () =
  let clean = teardown_flood ~flood:false in
  let flooded = teardown_flood ~flood:true in
  Array.iteri
    (fun i d ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d keeps pace (%d vs %d definite rounds)" i
           flooded.(i) d)
        true
        (10 * flooded.(i) >= 9 * d))
    clean

let suite =
  [ Alcotest.test_case "bbc equivocating est" `Quick test_bbc_equivocating_est;
    Alcotest.test_case "obbc forged evidence" `Quick
      test_obbc_forged_evidence;
    Alcotest.test_case "obbc fake fast path" `Quick
      test_obbc_byzantine_cannot_fake_fast_path;
    Alcotest.test_case "pbft equivocating leader" `Quick
      test_pbft_equivocating_leader_blocks_divergence;
    Alcotest.test_case "peer cannot tear down obbc or bbc" `Quick
      test_teardown_flood ]
