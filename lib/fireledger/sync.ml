open Fl_sim
open Fl_chain

type t = {
  env : Env.t;
  config : Config.t;
  valid : Block.t -> bool;
  store : Store.t;
  bodies : Bodies.t;
  timer : Timer.t;
  wrb : Wrb.t;
  round : unit -> int;
  definite_upto : unit -> int;
  appended : int -> (Block.t * Types.signed_header) option;
  accept : Types.proposal -> Tx.t array -> header_at:Time.t -> unit;
  rescind_tentative : unit -> unit;
  resume : unit -> unit;
  fetched : (int, Types.signed_header * Tx.t array) Hashtbl.t;
      (* pull replies keyed by round *)
  mutable wedged : bool;
      (* watchdog verdict: parked in a round whose consensus the
         cluster already completed — pull the block instead *)
}

let create env ~config ~valid ~store ~bodies ~timer ~wrb ~round ~definite_upto
    ~appended ~accept ~rescind_tentative ~resume =
  { env;
    config;
    valid;
    store;
    bodies;
    timer;
    wrb;
    round;
    definite_upto;
    appended;
    accept;
    rescind_tentative;
    resume;
    fetched = Hashtbl.create 64;
    wedged = false }

let now t = Env.now t.env

(* A pulled block is well-formed when its body matches the signed
   header and passes external validity. *)
let well_formed t ((sh : Types.signed_header), txs) =
  sh.Types.header.Header.tx_count = Array.length txs
  && (let claimed = sh.Types.header.Header.body_hash in
      String.equal (Bodies.received_hash t.bodies ~claimed txs) claimed)
  && t.valid { Block.header = sh.Types.header; txs }

(* Append the pulled block for round [r] if it is well-formed and
   extends our tip. True on progress. *)
let accept_pulled t r =
  match Hashtbl.find_opt t.fetched r with
  | Some ((sh, txs) as pulled)
    when String.equal sh.Types.header.Header.prev_hash (Store.last_hash t.store)
         && well_formed t pulled ->
      Hashtbl.remove t.fetched r;
      Env.charge_verify t.env;
      Env.charge_hash t.env ~bytes:(Bodies.bytes txs);
      t.accept { Types.sh; body = None } txs ~header_at:(now t);
      true
  | _ -> false

(* Ask every peer for round [r]'s block and wait until a reply lands in
   [fetched] or [timeout] passes. *)
let request_round t ~r ~timeout ~abort =
  Wrb.request t.wrb ~r ~timeout ~abort ~got:(fun () -> Hashtbl.mem t.fetched r)

(* Signed proposals in the stash reveal how far ahead the cluster is;
   blocks at depth > f+1 below that are definite-agreed. The round up
   to which this node should pull, when it is far enough behind. *)
let far_behind t =
  let f = t.config.Config.f in
  let target = Wrb.max_stash_round t.wrb - (f + 2) in
  if target >= t.round () + f + 4 then Some target else None

(* Catch-up sync: a node that was isolated past its peers' live
   protocol window (their per-round OBBC state is garbage-collected)
   can no longer complete old rounds by consensus, so it pulls the
   definite-agreed blocks wholesale (Req/Reply), validates signatures,
   hash links and bodies, and appends without re-running consensus.
   The paper leaves state transfer to future work; this covers
   laggards within the peers' prune window. *)
let maybe_catch_up t ~abort =
  match far_behind t with
  | None -> ()
  | Some target ->
      Env.incr t.env "catch_ups";
      let catch_up_start = now t and from_round = t.round () in
      let abort = Some abort in
      let pull_timeout = min (Timer.current t.timer) (Time.ms 200) in
      (* [stalls] counts consecutive rounds where pulling produced no
         usable block; any progress resets it, so a reachable window is
         drained completely while an unreachable one (peers pruned past
         us) is abandoned quickly. *)
      let stalls = ref 0 in
      while t.round () <= target && !stalls < 10 do
        Race.check ~abort;
        let r = t.round () in
        if accept_pulled t r then stalls := 0
        else begin
          match Hashtbl.find_opt t.fetched r with
          | Some pulled when t.definite_upto () < r - 1 && well_formed t pulled
            ->
              (* A well-formed, proposer-signed block for our next round
                 that does not link onto our tip: the tentative rounds we
                 stored before the absence were rescinded behind our
                 back. Drop them and resume pulling from the definite
                 watermark (worst case an adversarial reply costs us
                 re-pulling blocks we already had — tentative rounds
                 only, so never safety). *)
              t.rescind_tentative ();
              stalls := 0
          | _ ->
              Hashtbl.remove t.fetched r;
              request_round t ~r ~timeout:pull_timeout ~abort;
              if not (Hashtbl.mem t.fetched r) then incr stalls
        end
      done;
      (* The long absence inflated the WRB timer; rebase it on a normal
         delivery delay before resuming rounds. *)
      Timer.on_success t.timer ~delay:pull_timeout;
      t.resume ();
      Env.span t.env ~name:"catch_up" ~round:from_round
        ~args:
          [ ("target", string_of_int target);
            ("at", string_of_int (t.round ())) ]
        ~t_begin:catch_up_start ~t_end:(now t) ()

(* Pull one block for round [r] (Req/Reply) and append it if it
   extends the tip — the per-round tail of a joiner's catch-up, used
   when the gap is too small for [maybe_catch_up]. Returns true on
   progress. *)
let pull_round t ~r ~timeout =
  if not (Hashtbl.mem t.fetched r) then
    request_round t ~r ~timeout ~abort:None;
  accept_pulled t r
  ||
  (Hashtbl.remove t.fetched r;
   false)

(* Pull the current round's block: how a node that cannot vote in the
   round follows the chain. True on progress. *)
let follow t =
  pull_round t ~r:(t.round ())
    ~timeout:(min (Timer.current t.timer) (Time.ms 100))

(* A member that entered the round after its OBBC instance already
   completed among the others — a joiner at its activation round — can
   never finish the round by consensus (the peers' per-round state is
   spent) and a one-round gap is far below the catch-up trigger. The
   watchdog diagnoses the wedge (no progress while the stash holds a
   signed later-round proposal) and aborts the parked wait; here we
   pull the missed block instead of re-entering it. The pulled block
   is tentative like any other, so rescind and recovery still apply.
   The watchdog only arms this after a reconfiguration, so with
   reconfiguration unused the behaviour (and the pinned run digest) is
   untouched. *)
let unwedge t =
  if t.wedged then begin
    t.wedged <- false;
    if Wrb.max_stash_round t.wrb > t.round () then ignore (follow t)
  end

(* Staleness watchdog: the main fiber may be parked in a round the rest
   of the cluster abandoned long ago (e.g. after a long isolation) — no
   quorum will ever form there. When stashed signed proposals show the
   cluster far ahead, abort the wait so the loop falls into the
   catch-up sync. Post-reconfiguration a second, slower trip covers the
   one-round wedge: a joiner that became a member after its first
   round's OBBC already completed among the veterans waits for votes
   that can never come, and with exactly n - f live members the rest
   of the cluster cannot outrun it to arm the far-ahead trip. A signed
   proposal for any later round plus a full second without progress
   is proof enough; the main loop then pulls the missed block instead
   of waiting. *)
let watchdog t =
  let stuck_at = ref (-1) and stuck_ticks = ref 0 in
  fun ~reconfigured ->
    Option.is_some (far_behind t)
    ||
    let round = t.round () in
    if round = !stuck_at then incr stuck_ticks
    else begin
      stuck_at := round;
      stuck_ticks := 0
    end;
    if reconfigured && !stuck_ticks >= 4 && Wrb.max_stash_round t.wrb > round
    then begin
      t.wedged <- true;
      stuck_ticks := 0;
      true
    end
    else false

let start t =
  Env.serve t.env Msg.Replies (fun ~src -> function
    | Msg.Reply { round; proposal; txs } ->
        let bh =
          Bodies.received_hash t.bodies
            ~claimed:proposal.Types.sh.Types.header.Header.body_hash txs
        in
        ignore (Wrb.store_body t.wrb txs ~bh ~at:(now t));
        Wrb.note_proposal t.wrb ~src proposal;
        (* Remember whole fetched blocks for the catch-up sync. *)
        let h = proposal.Types.sh.Types.header in
        if
          round = h.Header.round
          && round >= t.round ()
          && (not (Hashtbl.mem t.fetched round))
          && Types.signed_header_valid t.env.Env.registry proposal.Types.sh
        then begin
          Hashtbl.replace t.fetched round (proposal.Types.sh, txs);
          Wrb.wake t.wrb
        end
    | _ -> ());
  Env.serve t.env Msg.Pulls (fun ~src -> function
    | Msg.Req { round = r } -> (
        let answer =
          match t.appended r with
          | Some (b, sh)
            when Array.length b.Block.txs = b.Block.header.Header.tx_count ->
              Some (sh, b.Block.txs)
          | _ ->
              (* not appended yet: serve from the stash *)
              Wrb.stashed_block t.wrb r
        in
        match answer with
        | Some (sh, txs) ->
            Env.send t.env ~dst:src
              (Msg.Reply
                 { round = r; proposal = { Types.sh; body = None }; txs })
        | None -> ())
    | _ -> ())
