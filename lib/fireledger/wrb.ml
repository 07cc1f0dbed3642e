open Fl_sim
open Fl_net
open Fl_chain
open Fl_consensus

type t = {
  env : Env.t;
  config : Config.t;
  valid : Block.t -> bool;
  store : Store.t;
  mempool : Mempool.t;
  bodies : Bodies.t;
  timer : Timer.t;
  detector : Detector.t;
  acc : Accountability.t;
  round : unit -> int;
  admits : round:int -> int -> bool;
  epoch_at : int -> Epoch.t;
  appended : int -> (Block.t * Types.signed_header) option;
  piggyback : k:int -> bool;
  stash : (int, Types.proposal * Time.t) Hashtbl.t;  (* per proposer *)
  mutable pulse : unit Ivar.t;  (* wakes WRB waits on any arrival *)
  open_obbcs : (int * int * int, Msg.ob_payload Obbc.t) Hashtbl.t;
  prepared : (Tx.t array * string * Time.t) Queue.t;
      (* bodies built (and shipped) ahead of our proposing turns; the
         head is the next block we will propose *)
  own_in_flight : (string, unit) Hashtbl.t;  (* flow control (§7.2) *)
  pool_txs : (string, (Tx.t * int) array) Hashtbl.t;
      (* body_hash -> the client (mempool-drained) transactions in a
         body we built, with their fees, kept until the block is
         definite: a recovery that rescinds one of our blocks re-queues
         exactly these so an admitted transaction never vanishes
         silently *)
  my_signed : (int * string, Types.signed_header * Tx.t array) Hashtbl.t;
      (* every header this node ever signed, keyed by
         (round, prev_hash): the no-double-sign discipline that makes
         same-slot conflicts provable misbehavior *)
  mutable next_tx_id : int;
}

let create env ~config ~valid ~store ~mempool ~bodies ~timer ~detector ~acc
    ~round ~admits ~epoch_at ~appended ~piggyback =
  { env;
    config;
    valid;
    store;
    mempool;
    bodies;
    timer;
    detector;
    acc;
    round;
    admits;
    epoch_at;
    appended;
    piggyback;
    stash = Hashtbl.create 16;
    pulse = Ivar.create env.Env.engine;
    open_obbcs = Hashtbl.create 64;
    prepared = Queue.create ();
    own_in_flight = Hashtbl.create 8;
    pool_txs = Hashtbl.create 8;
    my_signed = Hashtbl.create 64;
    next_tx_id = 0 }

let me t = t.env.Env.me
let now t = Env.now t.env
let wake t = ignore (Ivar.try_fill t.pulse ())

(* ---------- bodies ---------- *)

(* [bh], when given, must be [Block.body_hash txs]: the caller already
   knows it (see [Bodies.received_hash]). The simulated hash is charged
   either way. *)
let store_body ?bh t txs ~at =
  Env.charge_hash t.env ~bytes:(Bodies.bytes txs);
  let bh = match bh with Some bh -> bh | None -> Block.body_hash txs in
  if Bodies.add t.bodies ~bh txs ~at then wake t;
  bh

let synth_tx t =
  let id = (me t * 1_000_000_007) + t.next_tx_id in
  t.next_tx_id <- t.next_tx_id + 1;
  Tx.create ~id ~size:t.config.Config.tx_size

(* Assemble a block body: drain the mempool, pad to β with synthetic
   transactions under the paper's full-load mode. *)
let build_body t =
  let prio =
    Mempool.take_batch_prio t.mempool ~max:t.config.Config.batch_size
  in
  let batch = Array.map fst prio in
  let txs =
    if
      t.config.Config.fill_blocks
      && Array.length batch < t.config.Config.batch_size
    then
      Array.append batch
        (Array.init
           (t.config.Config.batch_size - Array.length batch)
           (fun _ -> synth_tx t))
    else batch
  in
  let at = now t in
  let bh = store_body t txs ~at in
  if Array.length prio > 0 then Hashtbl.replace t.pool_txs bh prio;
  (txs, bh, at)

(* Sample [fanout] distinct peers (never self). *)
let gossip_peers t fanout =
  let n = t.config.Config.n in
  let picked = Hashtbl.create fanout in
  let rec go acc remaining guard =
    if remaining = 0 || guard = 0 then acc
    else
      let p = Rng.int t.env.Env.rng n in
      if p = me t || Hashtbl.mem picked p then go acc remaining (guard - 1)
      else begin
        Hashtbl.add picked p ();
        go (p :: acc) (remaining - 1) (guard - 1)
      end
  in
  go [] (min fanout (n - 1)) (8 * n)

let gossip_ttl t fanout =
  (* enough hops for coverage w.h.p.: ceil(log_fanout n) + 1 *)
  let n = float_of_int t.config.Config.n in
  let f = float_of_int (max 2 fanout) in
  int_of_float (ceil (log n /. log f)) + 1

let send_body t txs ~bh =
  match t.config.Config.dissemination with
  | Config.Clique -> Env.bcast t.env (Msg.Body { body_hash = bh; txs; ttl = 0 })
  | Config.Gossip fanout ->
      let ttl = gossip_ttl t fanout in
      Env.multicast t.env ~dsts:(gossip_peers t fanout)
        (Msg.Body { body_hash = bh; txs; ttl = ttl - 1 })

let broadcast_body t txs ~bh =
  Hashtbl.replace t.own_in_flight bh ();
  send_body t txs ~bh

(* Build the next body we will propose and, when bodies travel
   separately, ship it. *)
let prepare_one t =
  let txs, bh, at = build_body t in
  Queue.push (txs, bh, at) t.prepared;
  if t.config.Config.separate_bodies then broadcast_body t txs ~bh

(* Pre-disseminate upcoming block bodies as soon as we expect to be
   the next proposer (§6.1.1: "a node broadcasts a block as soon as
   the block is ready"). With [pipeline_depth] > 1 several bodies are
   shipped ahead, overlapping their dissemination with earlier
   rounds — the effect §7.2.1 credits for larger clusters' tps. *)
let pre_disseminate t =
  while
    Queue.length t.prepared < t.config.Config.pipeline_depth
    && Hashtbl.length t.own_in_flight < t.config.Config.max_outstanding
  do
    prepare_one t
  done

let take_prepared t =
  if Queue.is_empty t.prepared then prepare_one t;
  Queue.peek t.prepared

(* ---------- proposals ---------- *)

let header t ~round ~prev_hash txs bh =
  { Header.round;
    proposer = me t;
    prev_hash;
    body_hash = bh;
    tx_count = Array.length txs;
    body_size = Bodies.bytes txs }

let proposal t sh txs =
  let body = if t.config.Config.separate_bodies then None else Some txs in
  { Types.sh; body }

(* Build and sign our proposal for a round on top of [prev_hash]. The
   body is kept in [prepared] until the block is actually appended, so
   a failed round re-proposes the same transactions. A body that fails
   our own external-validity check (a faulty client slipped garbage
   into the pool) is discarded — re-proposing it would make us look
   Byzantine and waste a round per rotation. *)
let make_proposal t ~round ~prev_hash =
  let rec pick tries =
    let txs, bh, at = take_prepared t in
    let header = header t ~round ~prev_hash txs bh in
    if tries > 0 && not (t.valid { Block.header = header; txs }) then begin
      Env.incr t.env "own_invalid_bodies_discarded";
      (match Queue.peek_opt t.prepared with
      | Some (_, bh', _) when String.equal bh' bh ->
          ignore (Queue.pop t.prepared);
          Hashtbl.remove t.own_in_flight bh
      | _ -> ());
      pick (tries - 1)
    end
    else (txs, bh, at, header)
  in
  match Hashtbl.find_opt t.my_signed (round, prev_hash) with
  | Some (sh, txs) ->
      (* No-double-sign discipline: we already signed this
         (round, prev_hash) slot — e.g. a piggybacked header whose
         round came back, or a truncated round re-run after recovery.
         Re-serve the archived header verbatim: signing different
         content for an already-signed slot is precisely what
         accountability evidence convicts, so an honest node never
         does it. *)
      let bh = sh.Types.header.Header.body_hash in
      let in_flow =
        match Queue.peek_opt t.prepared with
        | Some (_, bh', _) -> String.equal bh bh'
        | None -> false
      in
      if t.config.Config.separate_bodies && not in_flow then begin
        (* the archived body left the normal dissemination flow
           (its block was appended then rescinded); re-disseminate *)
        ignore (store_body t txs ~bh ~at:(now t));
        send_body t txs ~bh
      end;
      proposal t sh txs
  | None ->
      let txs, _bh, _at, header = pick 8 in
      Env.charge_sign t.env;
      Env.incr t.env "signatures";
      let sh = Types.sign_header t.env.Env.registry ~signer:(me t) header in
      Hashtbl.replace t.my_signed (round, prev_hash) (sh, txs);
      proposal t sh txs

(* Algorithm 2, lines 6–11: the previous attempt failed, so the
   proposer pushes its proposal directly instead of piggybacking it. *)
let push t ~round =
  let p = make_proposal t ~round ~prev_hash:(Store.last_hash t.store) in
  (match (Queue.peek_opt t.prepared, t.config.Config.separate_bodies) with
  | Some (txs, bh, _), true -> broadcast_body t txs ~bh
  | _ -> ());
  Env.bcast t.env (Msg.Push { proposal = p })

(* One variant of an equivocator's proposal: a fresh body outside the
   normal proposal flow, signed but never archived. Two empty bodies
   would be the *same* block — no equivocation at all; a real attacker
   makes the variants differ. *)
let variant t ~round ~prev_hash =
  let txs, bh, _ = build_body t in
  let txs, bh =
    if Array.length txs = 0 then begin
      let txs = [| synth_tx t |] in
      (txs, store_body t txs ~at:(now t))
    end
    else (txs, bh)
  in
  Queue.clear t.prepared;
  Env.charge_sign t.env;
  let sh =
    Types.sign_header t.env.Env.registry ~signer:(me t)
      (header t ~round ~prev_hash txs bh)
  in
  (proposal t sh txs, txs, bh)

(* ---------- own blocks ---------- *)

let own_appended t ~bh =
  (match Queue.peek_opt t.prepared with
  | Some (_, bh', _) when String.equal bh' bh -> ignore (Queue.pop t.prepared)
  | _ -> ());
  Hashtbl.remove t.own_in_flight bh

let own_definite t ~bh =
  Hashtbl.remove t.own_in_flight bh;
  Hashtbl.remove t.pool_txs bh

let reclaim t ~bh =
  let batch = Hashtbl.find_opt t.pool_txs bh in
  Hashtbl.remove t.pool_txs bh;
  batch

let client_txs t =
  Hashtbl.fold
    (fun _ batch acc -> Array.fold_left (fun acc p -> p :: acc) acc batch)
    t.pool_txs []

let take_client_txs t =
  let txs = client_txs t in
  Hashtbl.reset t.pool_txs;
  txs

(* ---------- proposal stash ---------- *)

let best_stash t ~k ~r =
  match Hashtbl.find_opt t.stash k with
  | Some (p, at) when p.Types.sh.Types.header.Header.round = r -> Some (p, at)
  | _ -> None

let stashed t ~k ~r = Option.map fst (best_stash t ~k ~r)

(* Highest round any stashed (signed) proposal claims. *)
let max_stash_round t =
  Hashtbl.fold
    (fun _ (p, _) acc -> max acc p.Types.sh.Types.header.Header.round)
    t.stash (-1)

(* A stashed proposal for round [r] whose body we hold. *)
let stashed_block t r =
  Hashtbl.fold
    (fun _src (p, _) acc ->
      match acc with
      | Some _ -> acc
      | None ->
          let h = p.Types.sh.Types.header in
          if h.Header.round = r then
            match Bodies.find t.bodies h.Header.body_hash with
            | Some txs -> Some (p.Types.sh, txs)
            | None -> None
          else None)
    t.stash None

(* Does a stashed proposal extend our chain tip? Proposals that do are
   delivered eagerly; a proposal that does not is held until the timer
   expires — it is either a stale re-proposal about to be superseded
   by a fresh one, or genuine Byzantine equivocation fallout that the
   b4 path must see (so we cannot simply drop it). *)
let stash_extends_tip t (p : Types.proposal) =
  String.equal p.Types.sh.Types.header.Header.prev_hash
    (Store.last_hash t.store)

(* The full vote-1 condition for a stashed proposal: body in hand and
   matching, external validity satisfied. Used both for voting and for
   answering evidence requests — evidence(1) certifies "a valid
   message was received", not merely "a signed header exists", or a
   slow path could launder an externally-invalid block through
   evidence adoption. *)
let deliverable_body t (p : Types.proposal) =
  let h = p.Types.sh.Types.header in
  match Bodies.find t.bodies h.Header.body_hash with
  | Some txs
    when h.Header.tx_count = Array.length txs
         && t.valid { Block.header = h; txs } ->
      Some txs
  | _ -> None

let note_proposal t ~src (p : Types.proposal) =
  ignore src;
  (* The stash is keyed by the header's proposer, not the transport
     sender: pull replies legitimately relay other proposers' signed
     headers, and the signature (checked below) is the authority on
     who authored the proposal. *)
  let h = p.Types.sh.Types.header in
  let owner = h.Header.proposer in
  (* Gen-guard: a proposer outside the epoch governing the proposal's
     round can never enter the stash (and so can never be voted on or
     served onward). Rounds beyond the locally complete part of the
     membership schedule are accepted charitably — a joiner catching
     up cannot yet know the schedule, and stashed entries are still
     quorum-gated before acceptance. *)
  let member_ok = t.admits ~round:h.Header.round owner in
  let n = t.config.Config.n in
  if owner >= 0 && owner < n && not member_ok then
    Env.incr t.env "stale_epoch_proposals_dropped";
  if owner >= 0 && owner < n && member_ok then begin
    if h.Header.round >= t.round () then begin
      (* Accept same-round replacements: a proposer whose earlier
         attempt was rejected re-signs its proposal on top of the block
         that actually decided, and the fresh version must supersede the
         stale one. *)
      let fresh =
        match Hashtbl.find_opt t.stash owner with
        | Some (old, _) ->
            let old_h = old.Types.sh.Types.header in
            old_h.Header.round < h.Header.round
            || (old_h.Header.round = h.Header.round
               && not (Header.equal old_h h))
        | None -> true
      in
      if fresh then begin
        Env.charge_verify t.env;
        Env.incr t.env "verifications";
        if Types.signed_header_valid t.env.Env.registry p.Types.sh then begin
          (* A replacement for the *same slot* (round and parent both
             unchanged) is not a legitimate re-proposal — it is
             equivocation, and both signatures are now in hand. *)
          (match Hashtbl.find_opt t.stash owner with
          | Some (old, _) ->
              Accountability.consider_conflict ~known_valid:true t.acc
                old.Types.sh p.Types.sh
          | None -> ());
          Hashtbl.replace t.stash owner (p, now t);
          (match p.Types.body with
          | Some txs ->
              let bh =
                Bodies.received_hash t.bodies ~claimed:h.Header.body_hash txs
              in
              ignore (store_body t txs ~bh ~at:(now t))
          | None -> ());
          wake t
        end
      end
    end
    else
      (* A proposal for a round we already closed: useless for
         progress, but if it conflicts with the block we appended for
         that slot it is the other half of an equivocation — the main
         way a node that saw only one variant directly learns of the
         fork. *)
      match t.appended h.Header.round with
      | Some (b, sh) when b.Block.header.Header.proposer = owner ->
          Accountability.consider_conflict t.acc sh p.Types.sh
      | _ -> ()
  end

(* ---------- abortable waits ---------- *)

let wait_chunk = Time.ms 5

(* Wait for the next arrival pulse, bounded by [deadline]. Returns
   false once the deadline passed. Raises [Race.Aborted] on panic. *)
let wait_pulse t ~deadline ~abort =
  Race.check ~abort;
  let current = now t in
  if current >= deadline then false
  else begin
    if Ivar.is_filled t.pulse then t.pulse <- Ivar.create t.env.Env.engine;
    let timeout = min wait_chunk (deadline - current) in
    ignore (Ivar.read_timeout t.pulse ~timeout);
    Race.check ~abort;
    true
  end

(* Ask every peer for round [r]'s block (Req/Reply), then wait until
   [got ()] holds or [timeout] passes. *)
let request t ~r ~timeout ~abort ~got =
  Env.bcast t.env (Msg.Req { round = r });
  let deadline = now t + timeout in
  let rec wait () =
    if (not (got ())) && wait_pulse t ~deadline ~abort then wait ()
  in
  wait ()

let rec obtain_proposal t ~k ~r ~deadline ~abort =
  match best_stash t ~k ~r with
  | Some (p, _) as x when stash_extends_tip t p || now t >= deadline -> x
  | _ ->
      if wait_pulse t ~deadline ~abort then
        obtain_proposal t ~k ~r ~deadline ~abort
      else best_stash t ~k ~r

let rec obtain_body t ~hash ~deadline ~abort =
  match Bodies.find t.bodies hash with
  | Some txs -> Some txs
  | None ->
      if wait_pulse t ~deadline ~abort then obtain_body t ~hash ~deadline ~abort
      else None

(* ---------- OBBC wiring ---------- *)

let obbc_for t ~era ~r ~attempt ~k =
  let key = (era, r, attempt) in
  match Hashtbl.find_opt t.open_obbcs key with
  | Some o -> o
  | None ->
      (* Per-epoch quorum: the OBBC of round r counts votes against the
         member count of the epoch governing r, and drops frames from
         non-members on the receive side — a stale-epoch node's vote is
         never counted under the wrong epoch's quorum. By the time this
         node runs round r its schedule is complete for r (the
         activation lag is one past the definiteness horizon). *)
      let e = t.epoch_at r in
      let qn, qf =
        Epoch.quorum e ~universe:t.config.Config.n ~budget:t.config.Config.f
      in
      let channel =
        Channel.of_hub t.env.Env.hub
          ~key:(Msg.Obbc { era; round = r; attempt })
          ~net:t.env.Env.net ~self:(me t) ~n:qn
          ~accept:(fun src ->
            Epoch.is_member e src
            ||
            (Env.incr t.env "stale_epoch_votes_dropped";
             false))
          ~f:qf ~encode:Msg.encode
          ~inj:(fun m -> Msg.Ob { era; round = r; attempt; m })
          ~prj:(function
            | Msg.Ob { m; _ } -> m
            | _ -> assert false)
      in
      let coin =
        Coin.make ~seed:t.env.Env.seed
          ~instance:
            (Printf.sprintf "%s/ob:%d:%d:%d" t.env.Env.label era r attempt)
      in
      let o =
        Obbc.create t.env.Env.engine ~recorder:t.env.Env.recorder ~coin
          ~channel
          ~validate_evidence:(fun ev ->
            match Types.decode_signed_header_slice ev with
            | Some sh ->
                sh.Types.header.Header.round = r
                && sh.Types.header.Header.proposer = k
                && Types.signed_header_valid t.env.Env.registry sh
            | None -> false)
          ~my_evidence:(fun () ->
            match best_stash t ~k ~r with
            | Some (p, _) when deliverable_body t p <> None ->
                Some (Types.encode_signed_header p.Types.sh)
            | _ -> None)
          ~on_pgd:(fun ~src p -> note_proposal t ~src p)
          ?obs:t.env.Env.obs ~obs_round:r
          ~obs_worker:t.env.Env.worker ()
      in
      Hashtbl.replace t.open_obbcs key o;
      o

let gc t ~cutoff ~prune_cut =
  let stale =
    Hashtbl.fold
      (fun ((_, r, _) as key) o acc ->
        if r < cutoff then (key, o) :: acc else acc)
      t.open_obbcs []
  in
  List.iter
    (fun (key, o) ->
      Obbc.close o;
      Hashtbl.remove t.open_obbcs key)
    stale;
  if prune_cut > 0 then
    Hashtbl.iter
      (fun ((r, _) as key) _ ->
        if r < prune_cut then Hashtbl.remove t.my_signed key)
      (Hashtbl.copy t.my_signed)

let close_all t =
  Hashtbl.iter (fun _ o -> Obbc.close o) t.open_obbcs;
  Hashtbl.reset t.open_obbcs

(* ---------- pull phase (Algorithm 1, lines 22–27) ---------- *)

let stashed_with_body t ~k ~r =
  match best_stash t ~k ~r with
  | Some (p, at) -> (
      match Bodies.find t.bodies p.Types.sh.Types.header.Header.body_hash with
      | Some txs -> Some (p, txs, at)
      | None -> None)
  | None -> None

(* The decision was 1 but we miss the header and/or body: first try
   the evidence OBBC collected (it carries the signed header), then
   pull from peers until a valid reply arrives. *)
let recover_delivery t ~k ~r ~obbc ~abort =
  (match Obbc.evidence_received obbc with
  | Some ev -> (
      match Types.decode_signed_header ev with
      | Some sh
        when sh.Types.header.Header.round = r
             && sh.Types.header.Header.proposer = k ->
          note_proposal t ~src:k { Types.sh; body = None }
      | _ -> ())
  | None -> ());
  let rec loop () =
    Race.check ~abort;
    match stashed_with_body t ~k ~r with
    | Some delivered -> delivered
    | None ->
        Env.incr t.env "pulls";
        request t ~r ~timeout:(Timer.current t.timer) ~abort ~got:(fun () ->
            Option.is_some (stashed_with_body t ~k ~r));
        loop ()
  in
  loop ()

(* ---------- WRB delivery (Algorithm 1) ---------- *)

let deliver t ~round:r ~attempt ~era ~k ~abort =
  let abort = Some abort in
  let start = now t in
  let deadline = start + Timer.current t.timer in
  let prop =
    if Detector.suspected t.detector k then None
    else obtain_proposal t ~k ~r ~deadline ~abort
  in
  let ready =
    match prop with
    | None -> None
    | Some (p, arr) -> (
        let h = p.Types.sh.Types.header in
        match obtain_body t ~hash:h.Header.body_hash ~deadline ~abort with
        | Some txs
          when h.Header.tx_count = Array.length txs
               && t.valid { Block.header = h; txs } ->
            Some (p, txs, arr)
        | _ -> None)
  in
  (* Timer tuning tracks time-to-readiness (header AND body), not just
     the header: with piggybacked headers the header delay is ~0 while
     the body is still on the wire, and an EMA of the header delay
     alone would shrink the timeout below the dissemination time. *)
  let ready_at = now t in
  let vote = ready <> None in
  let pgd =
    match ready with
    | Some (p, _, _) when t.piggyback ~k ->
        Some
          (make_proposal t ~round:(r + 1)
             ~prev_hash:(Header.hash p.Types.sh.Types.header))
    | _ -> None
  in
  let obbc = obbc_for t ~era ~r ~attempt ~k in
  let an, _ =
    Epoch.quorum (t.epoch_at r) ~universe:t.config.Config.n
      ~budget:t.config.Config.f
  in
  Cpu.charge t.env.Env.cpu (an * t.config.Config.vote_cpu);
  let decision = Obbc.propose obbc ?abort ~vote ~pgd () in
  if not decision then begin
    Timer.on_timeout t.timer;
    Env.span t.env ~name:"wrb_nil" ~round:r
      ~args:[ ("proposer", string_of_int k) ]
      ~t_begin:start ~t_end:(now t) ();
    None
  end
  else begin
    let recovered = ready = None in
    let p, txs, arr =
      match ready with
      | Some x -> x
      | None -> recover_delivery t ~k ~r ~obbc ~abort
    in
    Timer.on_success t.timer ~delay:(max 0 (ready_at - start));
    if Fl_obs.Obs.enabled t.env.Env.obs then begin
      Env.span t.env ~name:"wrb_deliver" ~round:r
        ~args:
          [ ("proposer", string_of_int k);
            ("vote", string_of_bool vote);
            ("recovered", string_of_bool recovered) ]
        ~t_begin:start ~t_end:(now t) ();
      if recovered then
        Env.span t.env ~name:"recover_delivery" ~round:r
          ~args:[ ("proposer", string_of_int k) ]
          ~t_begin:ready_at ~t_end:(now t) ()
    end;
    Some (p, txs, arr)
  end

(* ---------- service fibers ---------- *)

let start t =
  Env.serve t.env Msg.Pushes (fun ~src -> function
    | Msg.Push { proposal } -> note_proposal t ~src proposal
    | _ -> ());
  Env.serve t.env Msg.Bodies (fun ~src:_ -> function
    | Msg.Body { body_hash; txs; ttl } -> (
        let bh = Bodies.received_hash t.bodies ~claimed:body_hash txs in
        let fresh = not (Bodies.mem t.bodies bh) in
        ignore (store_body t txs ~bh ~at:(now t));
        match t.config.Config.dissemination with
        | Config.Gossip fanout when fresh && ttl > 0 ->
            Env.multicast t.env ~dsts:(gossip_peers t fanout)
              (Msg.Body { body_hash = bh; txs; ttl = ttl - 1 })
        | _ -> ())
    | _ -> ())
