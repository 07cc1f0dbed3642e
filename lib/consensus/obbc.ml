open Fl_sim
open Fl_net
open Fl_wire

type 'p msg =
  | Vote of { value : bool; pgd : 'p option }
  | Ev_req
  | Ev of Codec.Slice.t option
      (** evidence blob as a borrowed view of the received frame —
          validated in place, copied only if retained *)
  | Fallback of Bbc.msg
  | Close

(* In-body codec, parameterised by the piggyback payload's codec; the
   carrier (the node's wire message) owns the envelope. *)
let write_msg write_pgd w = function
  | Vote { value; pgd } -> (
      Codec.Writer.u8 w 0;
      Codec.Writer.bool w value;
      match pgd with
      | None -> Codec.Writer.bool w false
      | Some p ->
          Codec.Writer.bool w true;
          write_pgd w p)
  | Ev_req -> Codec.Writer.u8 w 1
  | Ev e -> (
      Codec.Writer.u8 w 2;
      match e with
      | None -> Codec.Writer.bool w false
      | Some ev ->
          Codec.Writer.bool w true;
          Codec.Writer.slice w ev)
  | Fallback b ->
      Codec.Writer.u8 w 3;
      Bbc.write_msg w b
  | Close -> Codec.Writer.u8 w 4

let read_msg read_pgd r =
  match Codec.Reader.u8 r with
  | 0 ->
      let value = Codec.Reader.bool r in
      let pgd =
        if Codec.Reader.bool r then Some (read_pgd r) else None
      in
      Vote { value; pgd }
  | 1 -> Ev_req
  | 2 ->
      Ev
        (if Codec.Reader.bool r then Some (Codec.Reader.view_bytes r)
         else None)
  | 3 -> Fallback (Bbc.read_msg r)
  | 4 -> Close
  | t -> raise (Codec.Malformed (Printf.sprintf "obbc: tag %d" t))

type 'p t = {
  engine : Engine.t;
  recorder : Fl_metrics.Recorder.t;
  coin : Coin.t;
  channel : 'p msg Channel.t;
  validate_evidence : Codec.Slice.t -> bool;
  my_evidence : unit -> string option;
  on_pgd : src:int -> 'p -> unit;
  votes : (int, bool) Hashtbl.t;
  votes_outcome : [ `Fast | `Slow ] Ivar.t;
  evidences : (int, unit) Hashtbl.t;
  mutable valid_evidence : string option;
  ev_threshold : unit Ivar.t;
  decision : bool Ivar.t;
  bbc_box : (int * Bbc.msg) Mailbox.t;
  mutable bbc_started : bool;
  mutable closed : bool;
  pgd_seen : (int, unit) Hashtbl.t;
  obs : Fl_obs.Obs.t option;
  obs_round : int;
  obs_worker : int;
}

let obs_instant t name =
  Fl_obs.Obs.instant t.obs ~cat:"consensus" ~name ~node:t.channel.Channel.self
    ~worker:t.obs_worker ~round:t.obs_round ~at:(Engine.now t.engine) ()

let obs_span t name ~t_begin =
  Fl_obs.Obs.span t.obs ~cat:"consensus" ~name ~node:t.channel.Channel.self
    ~worker:t.obs_worker ~round:t.obs_round ~t_begin
    ~t_end:(Engine.now t.engine) ()

let bbc_channel t =
  { Channel.self = t.channel.Channel.self;
    n = t.channel.Channel.n;
    f = t.channel.Channel.f;
    bcast = (fun m -> t.channel.Channel.bcast (Fallback m));
    send = (fun ~dst m -> t.channel.Channel.send ~dst (Fallback m));
    recv = (fun () -> Mailbox.recv t.bbc_box);
    recv_timeout = (fun ~timeout -> Mailbox.recv_timeout t.bbc_box ~timeout);
    close = (fun () -> ()) }

(* Start the fallback with a given proposal, exactly once per node. *)
let start_fallback t proposal =
  t.bbc_started <- true;
  Fl_metrics.Recorder.incr t.recorder "obbc_fallbacks";
  obs_instant t "fallback_enter";
  let d =
    Bbc.start t.engine ~recorder:t.recorder ~coin:t.coin
      ~channel:(bbc_channel t) proposal
  in
  if Fl_obs.Obs.enabled t.obs then begin
    let t0 = Engine.now t.engine in
    Ivar.on_fill d (fun _ -> obs_span t "obbc_fallback" ~t_begin:t0)
  end;
  d

(* A fast-decided node that observes fallback traffic joins the
   fallback proposing its decided value (paper lines OB26–OB27). *)
let maybe_join_fallback t =
  if not t.bbc_started then
    match Ivar.peek t.decision with
    | Some v ->
        let d = start_fallback t v in
        Ivar.on_fill d (fun v' ->
            if not (Ivar.try_fill t.decision v') then
              if Ivar.peek t.decision <> Some v' then
                Fl_metrics.Recorder.incr t.recorder
                  "obbc_agreement_violations")
    | None -> ()

let settle_decision t v =
  if not (Ivar.try_fill t.decision v) then
    if Ivar.peek t.decision <> Some v then
      Fl_metrics.Recorder.incr t.recorder "obbc_agreement_violations"

let handle t (src, msg) =
  match msg with
  | Close ->
      t.closed <- true;
      t.channel.Channel.close ();
      Mailbox.send t.bbc_box (t.channel.Channel.self, Bbc.Stop)
  | Vote { value; pgd } ->
      (match pgd with
      | Some p when not (Hashtbl.mem t.pgd_seen src) ->
          Hashtbl.add t.pgd_seen src ();
          t.on_pgd ~src p
      | _ -> ());
      if not (Hashtbl.mem t.votes src) then begin
        Hashtbl.add t.votes src value;
        let quorum = t.channel.Channel.n - t.channel.Channel.f in
        if Hashtbl.length t.votes = quorum then begin
          let all_one = Hashtbl.fold (fun _ v acc -> acc && v) t.votes true in
          if all_one then begin
            settle_decision t true;
            Fl_metrics.Recorder.incr t.recorder "obbc_fast_decisions";
            ignore (Ivar.try_fill t.votes_outcome `Fast)
          end
          else ignore (Ivar.try_fill t.votes_outcome `Slow)
        end
      end
  | Ev_req ->
      t.channel.Channel.send ~dst:src
        (Ev (Option.map Codec.Slice.of_string (t.my_evidence ())))
  | Ev e ->
      if not (Hashtbl.mem t.evidences src) then begin
        Hashtbl.add t.evidences src ();
        (match e with
        | Some ev when t.valid_evidence = None && t.validate_evidence ev ->
            (* copy-on-retain: the slice borrows the received frame,
               the stored evidence must outlive it *)
            t.valid_evidence <- Some (Codec.Slice.to_string ev)
        | _ -> ());
        let quorum = t.channel.Channel.n - t.channel.Channel.f in
        if Hashtbl.length t.evidences >= quorum then
          ignore (Ivar.try_fill t.ev_threshold ())
      end
  | Fallback b ->
      maybe_join_fallback t;
      Mailbox.send t.bbc_box (src, b)

let create engine ~recorder ~coin ~channel ~validate_evidence ~my_evidence
    ~on_pgd ?obs ?(obs_round = -1) ?(obs_worker = -1) () =
  let t =
    { engine;
      recorder;
      coin;
      channel;
      validate_evidence;
      my_evidence;
      on_pgd;
      votes = Hashtbl.create 16;
      votes_outcome = Ivar.create engine;
      evidences = Hashtbl.create 16;
      valid_evidence = None;
      ev_threshold = Ivar.create engine;
      decision = Ivar.create engine;
      bbc_box = Mailbox.create engine;
      bbc_started = false;
      closed = false;
      pgd_seen = Hashtbl.create 8;
      obs;
      obs_round;
      obs_worker }
  in
  Fiber.spawn engine (fun () ->
      while not t.closed do
        handle t (t.channel.Channel.recv ())
      done);
  t

let resend_interval = Time.ms 150

(* The §3.1 model builds reliable links from retransmission; a vote
   lost to a transient fault would otherwise stall the instance
   forever (quorums are exact). Re-broadcast our vote with backoff
   until the instance settles. *)
let spawn_resend t m =
  Fiber.spawn t.engine (fun () ->
      let rec loop delay =
        Fiber.sleep t.engine delay;
        if (not t.closed) && not (Ivar.is_filled t.decision) then begin
          t.channel.Channel.bcast m;
          loop (min (Time.s 2) (2 * delay))
        end
      in
      loop resend_interval)

let propose t ?abort ~vote ~pgd () =
  let m = Vote { value = vote; pgd } in
  let t_vote = Engine.now t.engine in
  t.channel.Channel.bcast m;
  spawn_resend t m;
  match Race.read t.votes_outcome ~abort with
  | `Fast ->
      obs_span t "obbc_fast" ~t_begin:t_vote;
      true
  | `Slow -> (
      Fl_metrics.Recorder.incr t.recorder "obbc_slow_paths";
      obs_instant t "obbc_slow_path";
      t.channel.Channel.bcast Ev_req;
      Fiber.spawn t.engine (fun () ->
          let rec loop delay =
            Fiber.sleep t.engine delay;
            if (not t.closed) && not (Ivar.is_filled t.ev_threshold) then begin
              t.channel.Channel.bcast Ev_req;
              loop (min (Time.s 2) (2 * delay))
            end
          in
          loop resend_interval);
      ignore (Race.read t.ev_threshold ~abort);
      let new_v = if t.valid_evidence <> None then true else vote in
      if t.bbc_started then
        (* The service fiber joined the fallback after our fast
           decision raced with slow-path traffic; just await it. *)
        Race.read t.decision ~abort
      else begin
        let d = start_fallback t new_v in
        let v = Race.read d ~abort in
        settle_decision t v;
        v
      end)

let evidence_received t = t.valid_evidence

let close t =
  if not t.closed then
    t.channel.Channel.send ~dst:t.channel.Channel.self Close
