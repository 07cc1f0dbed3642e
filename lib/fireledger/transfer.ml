open Fl_sim
open Fl_net
open Fl_chain

type t = {
  env : Env.t;
  store : Store.t;
  mempool : Mempool.t;
  persist : Fl_persist.Node.t option;
  wrb : Wrb.t;
  sync : Sync.t;
  round : unit -> int;
  definite_upto : unit -> int;
  era : unit -> int;
  epoch_at : int -> Epoch.t;
  adopt_chain : Store.t -> definite:int -> era:int -> pay:(int -> unit) -> unit;
  stopped : unit -> bool;
  on_transfer : upto:int -> chunks:int -> retries:int -> unit;
  segments : Fl_persist.Snapshot.log;
      (* sealed definite segments served to joiners — used only when
         no persistence node holds them *)
  mutable fibers : bool;  (* snap/handoff fibers spawned *)
  mutable handoff_done : bool;  (* leaver's one-shot mempool handoff *)
}

let create env ~store ~mempool ~persist ~wrb ~sync ~round ~definite_upto ~era
    ~epoch_at ~adopt_chain ~stopped ~on_transfer =
  { env;
    store;
    mempool;
    persist;
    wrb;
    sync;
    round;
    definite_upto;
    era;
    epoch_at;
    adopt_chain;
    stopped;
    on_transfer;
    segments = { Fl_persist.Snapshot.sealed = [] };
    fibers = false;
    handoff_done = false }

let me t = t.env.Env.me
let now t = Env.now t.env
let snap_chunk_bytes = 8192

(* Donor side: serve the definite prefix as a segment-addressed
   {!Fl_persist.Snapshot} — the manifest and its segments, the on-disk
   format, chunked over the wire-true transport with no chunk
   straddling two frames. The segments are the persistence node's when
   one is attached, else this instance's own append-only list; either
   way a request seals only the rounds that became definite since the
   last one. Definite segments never change, so nothing is cached or
   invalidated. The stream id is [upto + 1], so a joiner that resumes
   mid-transfer can tell whether a later donor is continuing the same
   snapshot or starting a newer one. *)
let serve_snap_request t ~src = function
  | Msg.Snap_req { from_chunk } ->
      let upto = t.definite_upto () in
      let log =
        match t.persist with
        | Some per -> Fl_persist.Node.log per
        | None -> t.segments
      in
      if upto >= 0 then
        Env.charge_hash t.env
          ~bytes:(Fl_persist.Snapshot.extend log t.store ~upto);
      if upto < 0 || Fl_persist.Snapshot.sealed_upto log <> upto then
        (* nothing durable yet: an explicit empty reply beats
           silence — the joiner backs off instead of timing out *)
        Env.send t.env ~dst:src
          (Msg.Snap_chunk
             { sid = 0;
               seq = 0;
               total = 0;
               data = Fl_wire.Codec.Slice.of_string "" })
      else begin
        (* borrowed views of the sealed frames: the chunk bytes
           are blitted once, straight into the wire frame *)
        let chunks =
          List.concat_map
            (fun p ->
              let len = String.length p in
              List.init
                ((len + snap_chunk_bytes - 1) / snap_chunk_bytes)
                (fun i ->
                  let off = i * snap_chunk_bytes in
                  Fl_wire.Codec.Slice.of_sub p ~pos:off
                    ~len:(min snap_chunk_bytes (len - off))))
            (Fl_persist.Snapshot.parts
               (Fl_persist.Snapshot.make ~upto ~era:(t.era ()) ~app:""
                  ~app_hash:"" ~pruned_below:(Store.pruned_below t.store)
                  log))
        in
        let total = List.length chunks in
        Env.incr t.env "snap_requests_served";
        List.iteri
          (fun seq data ->
            if seq >= from_chunk then
              Env.send t.env ~dst:src
                (Msg.Snap_chunk { sid = upto + 1; seq; total; data }))
          chunks
      end
  | _ -> ()

(* Receive a leaving node's pending transactions into our pool at
   their original fee priority — the conservation half of a Leave. *)
let serve_handoff t ~src:_ = function
  | Msg.Tx_handoff { txs; fees } ->
      Array.iteri
        (fun i tx ->
          Env.incr t.env "txs_handoff_in";
          ignore (Mempool.readmit t.mempool tx ~fee:fees.(i)))
        txs;
      Wrb.wake t.wrb
  | _ -> ()

(* The snap/handoff fibers are spawned lazily — only on instances that
   can actually see reconfiguration (a partial genesis membership, or
   a scheduled epoch) — so fully static clusters run a byte-identical
   event schedule to the pre-epoch code. *)
let ensure_fibers t =
  if not t.fibers then begin
    t.fibers <- true;
    Env.serve t.env Msg.Snap_requests (serve_snap_request t);
    Env.serve t.env Msg.Handoffs (serve_handoff t)
  end

(* A leaving node's last act as a pool holder: ship every pending
   client transaction (queued and in-flight in unproposed bodies) to
   the lowest-id surviving member, at original fee priority — the
   tx-conservation oracle must hold across membership changes. Runs
   once. *)
let hand_off t =
  if not t.handoff_done then begin
    t.handoff_done <- true;
    let e = t.epoch_at (t.round ()) in
    let dst =
      Array.fold_left
        (fun acc m -> if m <> me t && acc < 0 then m else acc)
        (-1) (Epoch.members e)
    in
    if dst >= 0 then begin
      let queued = Mempool.take_batch_prio t.mempool ~max:max_int in
      let queued = List.rev (Array.to_list queued) in
      match Wrb.take_client_txs t.wrb @ queued with
      | [] -> ()
      | l ->
          let arr = Array.of_list l in
          let txs = Array.map fst arr and fees = Array.map snd arr in
          Fl_metrics.Recorder.add t.env.Env.recorder "txs_handoff_out"
            (Array.length arr);
          Env.instant t.env ~name:"leave_handoff" ~round:(t.round ())
            ~args:
              [ ("dst", string_of_int dst);
                ("txs", string_of_int (Array.length arr)) ]
            ();
          Env.send t.env ~dst (Msg.Tx_handoff { txs; fees })
    end
  end

(* Seed this (empty, joining) instance from a transferred snapshot.
   Signed headers are unknown (snapshots carry no signatures); the
   joiner re-collects them as it follows live rounds. If a durability
   layer is attached, the adopted prefix is fed through it (application
   replay + a durable snapshot) so a later cold restart recovers
   locally. *)
let adopt_snapshot t (m : Fl_persist.Snapshot.manifest) chain =
  t.adopt_chain chain ~definite:m.Fl_persist.Snapshot.m_upto
    ~era:m.Fl_persist.Snapshot.m_era ~pay:(fun bytes ->
      Env.charge_hash t.env ~bytes);
  let upto = t.definite_upto () and era = t.era () in
  (match t.persist with
  | Some per ->
      for r = 0 to upto do
        match Store.get t.store r with
        | Some b -> Fl_persist.Node.log_definite per ~upto:r ~era b
        | None -> ()
      done;
      Fl_persist.Node.take_snapshot per ~store:t.store ~upto ~era
  | None -> ());
  Env.instant t.env ~name:"snapshot_adopted" ~round:(t.round ())
    ~args:[ ("upto", string_of_int upto); ("era", string_of_int era) ]
    ()

(* Joiner state transfer: ask a donor for the chunked snapshot, with
   bounded exponential backoff on silence and donor rotation on
   retry. Chunks are accumulated per stream id — a donor crash
   mid-transfer resumes from the last verified (contiguously held)
   chunk against the next donor; a stream id mismatch (the chain moved
   on) restarts cleanly. The assembled snapshot is checked frame by
   frame by {!Fl_persist.Snapshot.restore} (fail closed: any corruption
   discards everything — never a half-applied prefix). *)
let state_transfer t =
  Env.incr t.env "state_transfers";
  let start = now t in
  let box = Hub.box t.env.Env.hub Msg.Snap_chunks in
  let chunks : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let sid = ref (-1) in
  let total = ref (-1) in
  let retries = ref 0 in
  let backoff = ref (Time.ms 50) in
  let max_backoff = Time.ms 1600 in
  let result = ref None in
  let contiguous () =
    let rec go i = if Hashtbl.mem chunks i then go (i + 1) else i in
    go 0
  in
  let complete () = !total > 0 && contiguous () >= !total in
  while !result = None && not (t.stopped ()) do
    let e = t.epoch_at (t.round ()) in
    let donors =
      Array.to_list (Epoch.members e) |> List.filter (fun m -> m <> me t)
    in
    match donors with
    | [] -> Fiber.sleep t.env.Env.engine !backoff
    | _ -> (
        let donor = List.nth donors (!retries mod List.length donors) in
        Env.send t.env ~dst:donor (Msg.Snap_req { from_chunk = contiguous () });
        let deadline = ref (now t + !backoff) in
        let progressed = ref false in
        while (not (complete ())) && now t < !deadline do
          match Mailbox.recv_timeout box ~timeout:(!deadline - now t) with
          | Some (_src, Msg.Snap_chunk { sid = s; seq; total = tot; data })
            when tot > 0 ->
              if s <> !sid then begin
                (* a different (newer) snapshot stream: restart *)
                Hashtbl.reset chunks;
                sid := s;
                total := tot
              end;
              if not (Hashtbl.mem chunks seq) then begin
                (* copy-on-retain: the chunk view borrows the delivered
                   frame; what we accumulate must outlive it *)
                Hashtbl.replace chunks seq (Fl_wire.Codec.Slice.to_string data);
                progressed := true;
                (* progress re-arms the quiet deadline *)
                deadline := now t + !backoff
              end
          | Some _ | None -> ()
        done;
        if complete () then begin
          let buf = Buffer.create (!total * snap_chunk_bytes) in
          for i = 0 to !total - 1 do
            Buffer.add_string buf (Hashtbl.find chunks i)
          done;
          let encoded = Buffer.contents buf in
          Env.charge_hash t.env ~bytes:(String.length encoded);
          let fail why =
            Env.incr t.env "transfer_decode_failures";
            Env.instant t.env ~name:"transfer_rejected" ~args:[ ("why", why) ]
              ();
            Hashtbl.reset chunks;
            sid := -1;
            total := -1
          in
          match Fl_persist.Snapshot.restore [ encoded ] with
          | Error e -> fail e
          | Ok restored -> result := Some restored
        end
        else begin
          incr retries;
          Env.incr t.env "transfer_retries";
          if not !progressed then backoff := min (2 * !backoff) max_backoff
        end)
  done;
  match !result with
  | None -> ()
  | Some (m, chain) ->
      let nchunks = !total in
      adopt_snapshot t m chain;
      Env.span t.env ~name:"state_transfer" ~round:(t.round ())
        ~args:
          [ ("upto", string_of_int m.Fl_persist.Snapshot.m_upto);
            ("chunks", string_of_int nchunks);
            ("retries", string_of_int !retries) ]
        ~t_begin:start ~t_end:(now t) ();
      t.on_transfer ~upto:m.Fl_persist.Snapshot.m_upto ~chunks:nchunks
        ~retries:!retries

(* One scheduling step of a node outside the active membership.
   Joiners: state-transfer once, then follow the chain (pull blocks
   round by round) until the epoch that includes them activates.
   Leavers: hand pending txs to a survivor, then park — service
   fibers keep answering pulls, the main fiber stays quiet. *)
let step t ~was_member ~abort =
  let engine = t.env.Env.engine in
  if was_member then begin
    hand_off t;
    Fiber.sleep engine (Time.ms 100)
  end
  else if t.definite_upto () < 0 && Store.length t.store = 0 then begin
    state_transfer t;
    if t.definite_upto () < 0 then Fiber.sleep engine (Time.ms 20)
  end
  else begin
    Sync.maybe_catch_up t.sync ~abort;
    if not (Sync.follow t.sync) then Fiber.sleep engine (Time.ms 10)
  end
