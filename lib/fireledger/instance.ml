open Fl_sim
open Fl_chain

type behavior = Honest | Equivocator

type block_times = { a : Time.t; b : Time.t; c : Time.t; d : Time.t }

type output = {
  on_tentative : round:int -> Block.t -> unit;
  on_definite : round:int -> Block.t -> times:block_times -> unit;
  on_recovery : round:int -> rescinded:int -> unit;
  on_evidence : Types.evidence -> unit;
  on_epoch : Epoch.t -> unit;
      (** a successor epoch was scheduled from a definite block — fires
          identically (same epoch, same order) on every correct node *)
  on_transfer : upto:int -> chunks:int -> retries:int -> unit;
      (** this node adopted a state-transfer snapshot *)
}

let null_output =
  { on_tentative = (fun ~round:_ _ -> ());
    on_definite = (fun ~round:_ _ ~times:_ -> ());
    on_recovery = (fun ~round:_ ~rescinded:_ -> ());
    on_evidence = (fun _ -> ());
    on_epoch = (fun _ -> ());
    on_transfer = (fun ~upto:_ ~chunks:_ ~retries:_ -> ()) }

type pending_times = { pt_a : Time.t; pt_b : Time.t; pt_c : Time.t }

type t = {
  env : Env.t;
  config : Config.t;
  behavior : behavior;
  valid : Block.t -> bool;
  output : output;
  store : Store.t;
  mempool : Mempool.t;
  timer : Timer.t;
  detector : Detector.t;
  rotation : Rotation.t;
  bodies : Bodies.t;
  signed_headers : (int, Types.signed_header) Hashtbl.t;  (* per round *)
  (* round state *)
  mutable round : int;
  mutable attempt : int;
  mutable era : int;  (* completed recoveries *)
  mutable proposer : int;
  mutable full_mode : bool;
  mutable definite_upto : int;
  times : (int, pending_times) Hashtbl.t;
  mutable abort : unit Ivar.t;  (* aborts the main loop's current wait *)
  halves : int list * int list;  (* equivocation split *)
  mutable stopped : bool;
  (* membership epochs *)
  genesis_epoch : Epoch.t;
  mutable epochs : Epoch.t list;  (* newest (highest activation) first *)
  mutable active_epoch : Epoch.t;  (* the epoch governing [round] *)
  mutable was_member : bool;  (* ever inside the active membership *)
  (* durability *)
  persist : Fl_persist.Node.t option;
  mutable boot_delay : Time.t;
      (* time the boot path spends reading the media back (disk scan +
         per-block hashing); charged before the main loop starts *)
  (* the algorithm modules *)
  acc : Accountability.t;
  wrb : Wrb.t;
  sync : Sync.t;
  panic : Panic.t;
  transfer : Transfer.t;
}

(* ---------- small helpers ---------- *)

let n_of t = t.config.Config.n
let f_of t = t.config.Config.f
let me t = t.env.Env.me
let engine t = t.env.Env.engine
let recorder t = t.env.Env.recorder
let now t = Env.now t.env

(* The stored block of round [r] with its signed header. *)
let appended t r =
  match (Store.get t.store r, Hashtbl.find_opt t.signed_headers r) with
  | Some b, Some sh -> Some (b, sh)
  | _ -> None

(* ---------- membership epochs ---------- *)

(* The epoch governing [round]: the newest scheduled epoch whose
   activation is at or below it. [t.epochs] is newest-first and always
   ends in the genesis epoch (activation 0). *)
let epoch_at t round =
  let rec go = function
    | [] -> t.genesis_epoch
    | e :: rest -> if e.Epoch.activation <= round then e else go rest
  in
  go t.epochs

(* May [id] take part in [round]? Epochs are scheduled from definite
   blocks with a fixed lag of f + 3 rounds, one past the definiteness
   horizon (f + 2) — so the local schedule is provably complete for
   every round at or below this bound, and incomplete knowledge is only
   possible beyond it, where a node is admitted charitably. *)
let admits t ~round id =
  round > t.definite_upto + f_of t + 3 || Epoch.is_member (epoch_at t round) id

(* Last [count] proposers of the stored chain, oldest first. *)
let recent_proposers t count =
  let len = Store.length t.store in
  let rec go r acc =
    if r >= len then List.rev acc
    else
      match Store.get t.store r with
      | Some b -> go (r + 1) (b.Block.header.Header.proposer :: acc)
      | None -> List.rev acc
  in
  go (max 0 (len - count)) []

(* Re-seat the proposer cursor on a chain this node did not decide
   round by round (recovery, catch-up, boot, state transfer): the
   successor of the tip's proposer, skipping the last f proposers
   (Algorithm 2, lines b1–b3). *)
let reseat_proposer t =
  let recent = recent_proposers t (f_of t) in
  let candidate =
    match Store.last t.store with
    | Some b ->
        Rotation.successor t.rotation ~round:t.round
          b.Block.header.Header.proposer
    | None -> 0
  in
  t.proposer <- Rotation.eligible t.rotation ~round:t.round ~recent candidate

(* Resume rounds after a chain this node did not decide round by
   round: a fresh attempt in full mode, from a re-seated proposer. *)
let resume t =
  t.full_mode <- true;
  t.attempt <- 0;
  reseat_proposer t

(* The proposer of round r+1, assuming round r is decided by [k]:
   used for the piggyback decision (Algorithm 2, lines 12–14, with the
   b1–b3 skip rule applied predictively). *)
let predicted_next t ~k =
  let f = f_of t in
  let recent =
    let prior = recent_proposers t (max 0 (f - 1)) in
    prior @ [ k ]
  in
  let next_round = t.round + 1 in
  Rotation.eligible t.rotation ~round:next_round ~recent
    (Rotation.successor t.rotation ~round:next_round k)

let should_piggyback t ~k =
  t.config.Config.piggyback && t.behavior = Honest
  && predicted_next t ~k = me t

(* ---------- epoch scheduling (from definite blocks) ---------- *)

let schedule_epoch t ~round changes =
  let head = List.hd t.epochs in
  let activation = round + f_of t + 3 in
  match Epoch.succeed ~universe:(n_of t) head changes ~activation with
  | None -> ()
  | Some e ->
      t.epochs <- e :: t.epochs;
      Env.incr t.env "epochs_scheduled";
      Env.instant t.env ~name:"epoch_scheduled" ~round
        ~args:
          [ ("epoch", string_of_int e.Epoch.index);
            ("activation", string_of_int e.Epoch.activation);
            ("members", string_of_int (Epoch.n e)) ]
        ();
      Transfer.ensure_fibers t.transfer;
      t.output.on_epoch e

let note_reconfig t ~round (b : Block.t) =
  match Epoch.changes_of_block b with
  | [] -> ()
  | changes -> schedule_epoch t ~round changes

(* Rebuild the epoch schedule from the definite chain prefix — used
   when a whole chain is adopted at once (boot from disk, state
   transfer). Bodies inside the prune window are sufficient: epochs
   are only ever scheduled from definite blocks. *)
let rebuild_epochs t =
  t.epochs <- [ t.genesis_epoch ];
  for r = 0 to t.definite_upto do
    match Store.get t.store r with
    | Some b -> note_reconfig t ~round:r b
    | None -> ()
  done;
  let e = epoch_at t t.round in
  t.active_epoch <- e;
  Rotation.set_members t.rotation (Epoch.members e)

(* Activate the epoch governing the current round: swap the rotation
   onto the new member set and re-seat the proposer cursor inside it.
   Pure function of (definite chain, round) — every correct node
   switches at the same round with the same members. *)
let refresh_epoch t =
  let e = epoch_at t t.round in
  if e.Epoch.index <> t.active_epoch.Epoch.index then begin
    t.active_epoch <- e;
    Rotation.set_members t.rotation (Epoch.members e);
    Env.incr t.env "epoch_activations";
    Env.instant t.env ~name:"epoch_activate" ~round:t.round
      ~args:
        [ ("epoch", string_of_int e.Epoch.index);
          ("members", string_of_int (Epoch.n e)) ]
      ();
    let recent = recent_proposers t (f_of t) in
    t.proposer <- Rotation.eligible t.rotation ~round:t.round ~recent t.proposer
  end

(* ---------- definite decisions, pruning, GC ---------- *)

let mark_definite t =
  let tip = Store.length t.store - 1 in
  let limit = tip - (f_of t + 2) in
  while t.definite_upto < limit do
    let r = t.definite_upto + 1 in
    t.definite_upto <- r;
    match Store.get t.store r with
    | Some b ->
        let pt =
          match Hashtbl.find_opt t.times r with
          | Some pt -> pt
          | None ->
              (* adopted via recovery: only the adoption time is known *)
              { pt_a = now t; pt_b = now t; pt_c = now t }
        in
        Hashtbl.remove t.times r;
        let d = now t in
        let times = { a = pt.pt_a; b = pt.pt_b; c = pt.pt_c; d } in
        Fl_metrics.Recorder.observe (recorder t) "ev_cd" (d - pt.pt_c);
        Env.span t.env ~name:"finality_delay" ~round:r
          ~args:[ ("proposer", string_of_int b.Block.header.Header.proposer) ]
          ~t_begin:pt.pt_c ~t_end:d ();
        Fl_metrics.Recorder.mark (recorder t) "blocks_definite" ~now:d 1;
        Fl_metrics.Recorder.mark (recorder t) "txs_definite" ~now:d
          b.Block.header.Header.tx_count;
        if b.Block.header.Header.proposer = me t then
          Wrb.own_definite t.wrb ~bh:b.Block.header.Header.body_hash;
        (match t.persist with
        | Some per -> Fl_persist.Node.log_definite per ~upto:r ~era:t.era b
        | None -> ());
        note_reconfig t ~round:r b;
        t.output.on_definite ~round:r b ~times
    | None -> ()
  done

let gc t =
  let cutoff = t.round - t.config.Config.gc_window in
  if cutoff > 0 then begin
    let prune_cut = t.round - t.config.Config.prune_window in
    Wrb.gc t.wrb ~cutoff ~prune_cut;
    if prune_cut > 0 then begin
      Store.prune t.store ~keep_from:prune_cut;
      Hashtbl.iter
        (fun r _ -> if r < prune_cut then Hashtbl.remove t.signed_headers r)
        (Hashtbl.copy t.signed_headers)
    end
  end

let accept_block t (p : Types.proposal) txs ~header_at =
  let h = p.Types.sh.Types.header in
  let r = h.Header.round in
  let block = { Block.header = h; txs } in
  (* The body was verified when it entered the content-addressed table
     (store_body keys by the computed hash), so skip the re-hash. *)
  (match Store.append ~check_body:false t.store block with
  | Ok () -> ()
  | Error e ->
      Fmt.failwith "instance %d: append round %d: %a" (me t) r Store.pp_error
        e);
  Hashtbl.replace t.signed_headers r p.Types.sh;
  (* The accepted block may have outvoted an equivocating sibling that
     is still sitting in the stash: a clean majority closes the round
     without panic, so this is the only moment the losing variant and
     the winning one meet in one node's hands. *)
  (match Wrb.stashed t.wrb ~k:h.Header.proposer ~r with
  | Some st ->
      Accountability.consider_conflict ~known_valid:true t.acc st.Types.sh
        p.Types.sh
  | None -> ());
  (match t.persist with
  | Some per ->
      Fl_persist.Node.log_append per ~block
        ~signature:p.Types.sh.Types.signature
  | None -> ());
  let a =
    match Bodies.arrival t.bodies h.Header.body_hash with
    | Some at -> at
    | None -> header_at
  in
  let c = now t in
  Hashtbl.replace t.times r { pt_a = a; pt_b = header_at; pt_c = c };
  Fl_metrics.Recorder.observe (recorder t) "ev_ab" (max 0 (header_at - a));
  Fl_metrics.Recorder.observe (recorder t) "ev_bc" (max 0 (c - header_at));
  Fl_metrics.Recorder.mark (recorder t) "blocks_tentative" ~now:c 1;
  if Fl_obs.Obs.enabled t.env.Env.obs then
    Env.span t.env ~name:"tentative" ~round:r
      ~args:
        [ ("proposer", string_of_int h.Header.proposer);
          ("hash", Fl_crypto.Hex.short (Block.hash block)) ]
      ~t_begin:a ~t_end:c ();
  t.output.on_tentative ~round:r block;
  if h.Header.proposer = me t then
    Wrb.own_appended t.wrb ~bh:h.Header.body_hash;
  Bodies.remove t.bodies h.Header.body_hash;
  mark_definite t;
  t.attempt <- 0;
  (* Advance the cursor from the block's proposer, not the local
     cursor: for a member mid-round they are the same node, but a
     block adopted by pull (a joiner following the tip, the wedge
     pull) arrives with a stale cursor, and seeding the successor walk
     from anything but the accepted proposer desynchronises the
     proposer schedule from the members that decided the round. *)
  t.proposer <- Rotation.successor t.rotation ~round:r h.Header.proposer;
  t.round <- r + 1;
  if r land 63 = 0 then gc t

(* The one store surgery that rescinds tentative rounds: discard rounds
   >= [from] and append the signed [adopted] blocks (recovery adopting
   a version; catch-up dropping a dead suffix with nothing in its
   place). The discarded rounds' signed headers and timestamps go with
   them. Our own proposals among the [rescinded] blocks re-queue their
   client transactions at original fee priority (the conservation
   contract), and the WAL mirrors the surgery: a truncate record, then
   [adopted] re-appended. *)
let rescind_suffix t ~from ~rescinded adopted =
  let old_len = Store.length t.store in
  let readmit =
    List.fold_left
      (fun acc (old : Block.t) ->
        if old.Block.header.Header.proposer = me t then
          match Wrb.reclaim t.wrb ~bh:old.Block.header.Header.body_hash with
          | Some batch -> batch :: acc
          | None -> acc
        else acc)
      [] rescinded
  in
  match Store.replace_suffix t.store ~from (List.map fst adopted) with
  | Ok () ->
      for r = from to old_len - 1 do
        Hashtbl.remove t.signed_headers r;
        Hashtbl.remove t.times r
      done;
      List.iter
        (fun (b, s) ->
          Hashtbl.replace t.signed_headers b.Block.header.Header.round
            { Types.header = b.Block.header; signature = s })
        adopted;
      List.iter
        (Array.iter (fun (tx, fee) ->
             Env.incr t.env "txs_readmitted";
             ignore (Mempool.readmit t.mempool tx ~fee)))
        readmit;
      (match t.persist with
      | Some per ->
          Fl_persist.Node.log_truncate per ~from;
          List.iter
            (fun (b, s) -> Fl_persist.Node.log_append per ~block:b ~signature:s)
            adopted
      | None -> ())
  | Error e ->
      (* validated beforehand; never expected *)
      Logs.err (fun m ->
          m "instance %d: rescind from round %d failed: %a" (me t) from
            Store.pp_error e)

(* Drop the tentative suffix — every stored round past the definite
   watermark. The catch-up sync uses this when a pulled canonical
   block contradicts blocks we appended before an absence: a recovery
   we never saw rescinded them, and no amount of re-pulling will link
   onto a dead branch. Definite rounds are agreed, so the canonical
   chain is guaranteed to re-link at the watermark. *)
let rescind_tentative_suffix t =
  let from = t.definite_upto + 1 in
  let old_len = Store.length t.store in
  if from < old_len then begin
    rescind_suffix t ~from ~rescinded:(Store.sub t.store ~from) [];
    Fl_metrics.Recorder.add (recorder t) "blocks_rescinded" (old_len - from);
    Env.incr t.env "catchup_rescinds";
    Env.instant t.env ~name:"catch_up_rescind" ~round:from
      ~args:[ ("to", string_of_int (old_len - 1)) ]
      ();
    t.round <- Store.length t.store;
    t.attempt <- 0
  end

(* The next era, once a recovery for [round] adopted its version: the
   completed-recovery count advances and rounds restart at the tip. *)
let next_era t ~round:r ~rescinded ~t_begin =
  t.output.on_recovery ~round:r ~rescinded;
  Fl_metrics.Recorder.add (recorder t) "blocks_rescinded" rescinded;
  t.era <- t.era + 1;
  (match t.persist with
  | Some per ->
      (* the completed-recovery count must survive a crash, or the
         restarted node re-keys its OBBC channels under a stale era *)
      Fl_persist.Node.log_watermark per ~upto:t.definite_upto ~era:t.era
  | None -> ());
  t.round <- Store.length t.store;
  resume t;
  Env.span t.env ~name:"recovery" ~round:r
    ~args:
      [ ("era", string_of_int (t.era - 1));
        ("rescinded", string_of_int rescinded);
        ("new_round", string_of_int t.round) ]
    ~t_begin ~t_end:(now t) ();
  mark_definite t

let handle_panics t =
  t.abort <- Ivar.create (engine t);
  Panic.drain t.panic

(* The one adoption path for a whole chain this (empty) instance did
   not decide: boot from disk and joiner state transfer. Copy [src]
   into the store, let [pay] charge re-hashing its bodies (given their
   byte total) before the adopted state becomes visible, then set the
   definite watermark and era, restart rounds at the tip, rebuild the
   epoch schedule and re-seat the proposer exactly as recovery does
   after adopting a version. *)
let adopt_chain t src ~definite ~era ~pay =
  let body_bytes_total = ref 0 in
  for i = 0 to Store.length src - 1 do
    match Store.get src i with
    | Some b -> (
        body_bytes_total := !body_bytes_total + b.Block.header.Header.body_size;
        match Store.append ~check_body:false t.store b with
        | Ok () -> ()
        | Error e ->
            Fmt.failwith "instance %d: adopted append round %d: %a" (me t) i
              Store.pp_error e)
    | None -> ()
  done;
  if Store.pruned_below src > 0 then
    Store.prune t.store ~keep_from:(Store.pruned_below src);
  pay !body_bytes_total;
  t.definite_upto <- min definite (Store.length t.store - 1);
  t.era <- era;
  t.round <- Store.length t.store;
  rebuild_epochs t;
  resume t

(* ---------- Byzantine equivocation (§7.4.2) ---------- *)

let equivocate_push t =
  let round = t.round in
  let prev_hash = Store.last_hash t.store in
  let variant targets =
    let p, txs, bh = Wrb.variant t.wrb ~round ~prev_hash in
    if t.config.Config.separate_bodies then
      Env.multicast t.env ~dsts:targets
        (Msg.Body { body_hash = bh; txs; ttl = 0 });
    Env.multicast t.env ~dsts:targets (Msg.Push { proposal = p })
  in
  let half_a, half_b = t.halves in
  Env.incr t.env "equivocations";
  variant half_a;
  variant half_b

(* ---------- the main loop (Algorithm 2) ---------- *)

let nil_path t ~k =
  Env.incr t.env "wrb_nil";
  Env.instant t.env ~name:"nil_round" ~round:t.round
    ~args:[ ("proposer", string_of_int k) ]
    ();
  Detector.record_timeout t.detector ~proposer:k;
  t.full_mode <- true;
  t.attempt <- t.attempt + 1;
  t.proposer <- Rotation.successor t.rotation ~round:t.round t.proposer

let round_step t =
  Sync.maybe_catch_up t.sync ~abort:t.abort;
  refresh_epoch t;
  Sync.unwedge t.sync;
  (* lines b1–b3: skip proposers of the last f tentative blocks *)
  let recent = recent_proposers t (f_of t) in
  let chosen =
    Rotation.eligible t.rotation ~round:t.round ~recent t.proposer
  in
  if chosen <> t.proposer then begin
    t.proposer <- chosen;
    Detector.invalidate t.detector
  end;
  let k = t.proposer in
  (* proposer duties at round start *)
  if k = me t then begin
    match t.behavior with
    | Equivocator -> equivocate_push t
    | Honest ->
        (* lines 6–11: the previous attempt failed — push directly *)
        if t.full_mode then Wrb.push t.wrb ~round:t.round
  end
  else if predicted_next t ~k = me t && t.behavior = Honest
          && t.config.Config.piggyback && t.config.Config.separate_bodies
  then
    (* start shipping the next body early; the header follows on the
       OBBC vote *)
    Wrb.pre_disseminate t.wrb;
  match
    Wrb.deliver t.wrb ~round:t.round ~attempt:t.attempt ~era:t.era ~k
      ~abort:t.abort
  with
  | None -> nil_path t ~k
  | Some (p, txs, header_at) ->
      t.full_mode <- false;
      Detector.record_delivery t.detector ~proposer:k;
      if not (t.valid { Block.header = p.Types.sh.Types.header; txs }) then begin
        (* Delivered (weak agreement) but externally invalid — every
           correct node evaluates the same deterministic predicate on
           the same content, so all reject together (BBFC-Validity). *)
        Env.incr t.env "externally_invalid_blocks";
        nil_path t ~k
      end
      else if String.equal p.Types.sh.Types.header.Header.prev_hash
                (Store.last_hash t.store)
      then accept_block t p txs ~header_at
      else begin
        (* lines b4–b10: provable chain inconsistency *)
        match Hashtbl.find_opt t.signed_headers (t.round - 1) with
        | Some earlier
          when not (Panic.handled t.panic p.Types.sh.Types.header.Header.round)
          ->
            let proof = { Types.later = p.Types.sh; earlier } in
            Env.incr t.env "proofs_generated";
            Env.instant t.env ~name:"proof" ~round:t.round
              ~args:
                [ ( "against",
                    string_of_int p.Types.sh.Types.header.Header.proposer ) ]
              ();
            Panic.panic t.panic proof;
            handle_panics t
        | _ ->
            (* stale equivocation remnant or unprovable: failed round *)
            nil_path t ~k
      end

let main_loop t =
  while not t.stopped do
    if Epoch.is_member (epoch_at t t.round) (me t) then begin
      t.was_member <- true;
      match round_step t with
      | () -> ()
      | exception Race.Aborted -> handle_panics t
    end
    else
      match
        Transfer.step t.transfer ~was_member:t.was_member ~abort:t.abort
      with
      | () -> ()
      | exception Race.Aborted ->
          (* the watchdog's staleness abort is a member-path signal;
             outside the membership just re-arm and keep following *)
          t.abort <- Ivar.create (engine t)
  done

(* ---------- construction ---------- *)

(* Seed a freshly built instance from what recovery read off the
   media, through the same adoption path as a state transfer, plus the
   signed headers the WAL kept. The per-block hashing a real node pays
   to re-verify its chain is folded into [boot_delay]. *)
let adopt_recovered t (r : Fl_persist.Recovery.recovered) =
  adopt_chain t r.Fl_persist.Recovery.r_store
    ~definite:r.Fl_persist.Recovery.r_definite ~era:r.Fl_persist.Recovery.r_era
    ~pay:(fun bytes ->
      t.boot_delay <-
        t.boot_delay + Fl_crypto.Cost_model.hash_cost t.env.Env.cost ~bytes);
  List.iter
    (fun (round, signature) ->
      match Store.get t.store round with
      | Some b ->
          Hashtbl.replace t.signed_headers round
            { Types.header = b.Block.header; signature }
      | None -> ())
    r.Fl_persist.Recovery.r_sigs;
  Env.instant t.env ~name:"boot_recovered"
    ~args:
      [ ("len", string_of_int (Store.length t.store));
        ("definite", string_of_int t.definite_upto);
        ("era", string_of_int t.era) ]
    ()

let create env ~config ?(behavior = Honest) ?(valid = fun _ -> true) ?persist
    ?halves ?epoch ~output () =
  Config.validate config;
  let engine = env.Env.engine in
  let genesis_epoch =
    match epoch with
    | Some e -> e
    | None -> Epoch.genesis ~universe:config.Config.n ()
  in
  let halves =
    match halves with
    | Some h -> h
    | None ->
        let nodes = Array.init config.Config.n Fun.id in
        Rng.shuffle env.Env.rng nodes;
        let l = Array.to_list nodes in
        let rec split i acc = function
          | [] -> (List.rev acc, [])
          | rest when i = 0 -> (List.rev acc, rest)
          | x :: rest -> split (i - 1) (x :: acc) rest
        in
        split (config.Config.n / 2) [] l
  in
  let store = Store.create () in
  let mempool = Mempool.create ~capacity:config.Config.mempool_capacity () in
  let timer = Timer.create config and detector = Detector.create config in
  let bodies = Bodies.create () in
  let acc = Accountability.create env ~on_evidence:output.on_evidence in
  (* The algorithm modules reach back into the chain core through
     closures over the instance, which exists only once they do. *)
  let self = ref None in
  let it () = Option.get !self in
  let round () = (it ()).round and definite_upto () = (it ()).definite_upto in
  let epoch_at r = epoch_at (it ()) r and appended r = appended (it ()) r in
  let admits ~round = admits (it ()) ~round in
  let wrb =
    Wrb.create env ~config ~valid ~store ~mempool ~bodies ~timer ~detector ~acc
      ~round ~admits ~epoch_at ~appended
      ~piggyback:(fun ~k -> should_piggyback (it ()) ~k)
  in
  let sync =
    Sync.create env ~config ~valid ~store ~bodies ~timer ~wrb ~round
      ~definite_upto ~appended ~accept:(fun p -> accept_block (it ()) p)
      ~rescind_tentative:(fun () -> rescind_tentative_suffix (it ()))
      ~resume:(fun () -> resume (it ()))
  in
  let panic =
    Panic.create env ~config ~store ~detector ~acc ~wrb ~round ~appended
      ~epoch_at ~admits ~rescind:(fun ~from -> rescind_suffix (it ()) ~from)
      ~interrupt:(fun () -> ignore (Ivar.try_fill (it ()).abort ()))
      ~recovered:(fun ~round -> next_era (it ()) ~round)
  in
  let transfer =
    Transfer.create env ~store ~mempool ~persist ~wrb ~sync ~round
      ~definite_upto ~era:(fun () -> (it ()).era) ~epoch_at
      ~adopt_chain:(fun src -> adopt_chain (it ()) src)
      ~stopped:(fun () -> (it ()).stopped) ~on_transfer:output.on_transfer
  in
  let t =
    { env;
      config;
      behavior;
      valid;
      output;
      store;
      mempool;
      timer;
      detector;
      rotation = Rotation.create config ~seed:env.Env.seed;
      bodies;
      signed_headers = Hashtbl.create 1024;
      round = 0;
      attempt = 0;
      era = 0;
      proposer = 0;
      full_mode = true;
      definite_upto = -1;
      times = Hashtbl.create 64;
      abort = Ivar.create engine;
      halves;
      stopped = false;
      genesis_epoch;
      epochs = [ genesis_epoch ];
      active_epoch = genesis_epoch;
      was_member = Epoch.is_member genesis_epoch env.Env.me;
      persist;
      boot_delay = 0;
      acc;
      wrb;
      sync;
      panic;
      transfer }
  in
  self := Some t;
  if Epoch.n genesis_epoch < config.Config.n then
    Rotation.set_members t.rotation (Epoch.members genesis_epoch);
  (match persist with
  | None -> ()
  | Some per ->
      Fl_persist.Node.attach_chain per (fun () ->
          (t.store, t.definite_upto, t.era));
      (* A node whose persistence layer is frozen (power failure) boots
         by scanning its media back in: charge the sequential read. *)
      if not (Fl_persist.Node.live per) then
        t.boot_delay <-
          Fl_persist.Disk.read_delay
            (Fl_persist.Node.disk per)
            ~bytes:(Fl_persist.Node.media_bytes per);
      match Fl_persist.Node.recover per with
      | None -> ()  (* first boot, or nothing durable: cold start *)
      | Some r -> adopt_recovered t r);
  t

let start t =
  let engine = engine t in
  (* The spawn order is part of the simulated schedule: the proof RB,
     the evidence RB, the version AB, then the service fibers. *)
  Panic.start_proofs t.panic;
  Accountability.start t.acc;
  Panic.start_versions t.panic;
  Wrb.start t.wrb;
  Sync.start t.sync;
  (* Reconfigurable clusters (partial genesis membership, or a
     schedule restored from disk) need the state-transfer/handoff
     fibers; fully static clusters skip them entirely. *)
  if Epoch.n t.genesis_epoch < n_of t || List.length t.epochs > 1 then
    Transfer.ensure_fibers t.transfer;
  (* The staleness watchdog (see {!Sync.watchdog}). *)
  Fiber.spawn engine (fun () ->
      let stale = Sync.watchdog t.sync in
      while not t.stopped do
        Fiber.sleep engine (Time.ms 250);
        if stale ~reconfigured:(t.active_epoch.Epoch.index > 0) then
          ignore (Ivar.try_fill t.abort ())
      done);
  (match t.persist with
  | Some per -> Fl_persist.Node.maybe_start_flusher per
  | None -> ());
  Fiber.spawn engine (fun () ->
      if t.boot_delay > 0 then begin
        Fiber.sleep engine t.boot_delay;
        Env.instant t.env ~name:"boot_replay_done" ~round:t.round ()
      end;
      main_loop t)

(* Synchronous teardown for cold restarts: the node's inbox is about
   to be replaced, so message-based [stop]s would never arrive. Parks
   every consensus component; orphaned service fibers stay blocked on
   the abandoned mailboxes forever, which is harmless (and free) in
   the simulator. *)
let shutdown t =
  t.stopped <- true;
  Panic.halt t.panic;
  ignore (Ivar.try_fill t.abort ());
  Wrb.close_all t.wrb;
  Accountability.halt t.acc

let store t = t.store
let mempool t = t.mempool
let inflight_client_txs t = Wrb.client_txs t.wrb
let round t = t.round
let definite_upto t = t.definite_upto
let era t = t.era
let active_epoch t = t.active_epoch
let epochs_scheduled t = List.length t.epochs - 1
let is_member t = Epoch.is_member (epoch_at t t.round) (me t)

let submit_reconfig t change =
  ignore (Mempool.admit t.mempool (Epoch.reconfig_tx change) ~fee:max_int)

let accused t = Accountability.accused t.acc

let tee_output a b =
  { on_tentative =
      (fun ~round blk ->
        a.on_tentative ~round blk;
        b.on_tentative ~round blk);
    on_definite =
      (fun ~round blk ~times ->
        a.on_definite ~round blk ~times;
        b.on_definite ~round blk ~times);
    on_recovery =
      (fun ~round ~rescinded ->
        a.on_recovery ~round ~rescinded;
        b.on_recovery ~round ~rescinded);
    on_evidence =
      (fun ev ->
        a.on_evidence ev;
        b.on_evidence ev);
    on_epoch =
      (fun e ->
        a.on_epoch e;
        b.on_epoch e);
    on_transfer =
      (fun ~upto ~chunks ~retries ->
        a.on_transfer ~upto ~chunks ~retries;
        b.on_transfer ~upto ~chunks ~retries) }
