open Fl_sim
open Fl_net
open Fl_wire

type msg =
  | Est of { round : int; value : bool }
  | Aux of { round : int; value : bool }
  | Decide of bool
  | Stop

(* In-body codec: BBC messages are embedded in a carrier (OBBC's
   [Fallback]), which owns the envelope. *)
let write_msg w = function
  | Est { round; value } ->
      Codec.Writer.u8 w 0;
      Codec.Writer.varint w round;
      Codec.Writer.bool w value
  | Aux { round; value } ->
      Codec.Writer.u8 w 1;
      Codec.Writer.varint w round;
      Codec.Writer.bool w value
  | Decide v ->
      Codec.Writer.u8 w 2;
      Codec.Writer.bool w v
  | Stop -> invalid_arg "Bbc.write_msg: Stop is local control"

let read_msg r =
  match Codec.Reader.u8 r with
  | 0 ->
      let round = Codec.Reader.varint r in
      let value = Codec.Reader.bool r in
      Est { round; value }
  | 1 ->
      let round = Codec.Reader.varint r in
      let value = Codec.Reader.bool r in
      Aux { round; value }
  | 2 -> Decide (Codec.Reader.bool r)
  | t -> raise (Codec.Malformed (Printf.sprintf "bbc: tag %d" t))

(* Per-instance state. Tables are keyed by (round, value); the sender
   sets prevent Byzantine double-counting. *)
type state = {
  engine : Engine.t;
  recorder : Fl_metrics.Recorder.t;
  coin : Coin.t;
  channel : msg Channel.t;
  est_senders : (int * bool, (int, unit) Hashtbl.t) Hashtbl.t;
  est_relayed : (int * bool, unit) Hashtbl.t;
  bin_values : (int, bool list ref) Hashtbl.t;
  aux_votes : (int, (int, bool) Hashtbl.t) Hashtbl.t;
  decide_senders : (bool, (int, unit) Hashtbl.t) Hashtbl.t;
  mutable decide_relayed : bool;
  decision : bool Ivar.t;
  mutable halted : bool;
}

let senders tbl key =
  match Hashtbl.find_opt tbl key with
  | Some s -> s
  | None ->
      let s = Hashtbl.create 8 in
      Hashtbl.add tbl key s;
      s

let add_sender tbl key src =
  let s = senders tbl key in
  if Hashtbl.mem s src then false
  else begin
    Hashtbl.add s src ();
    true
  end

let count tbl key = Hashtbl.length (senders tbl key)

let bin_values t r =
  match Hashtbl.find_opt t.bin_values r with
  | Some l -> !l
  | None -> []

let add_bin_value t r v =
  let l =
    match Hashtbl.find_opt t.bin_values r with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.add t.bin_values r l;
        l
  in
  if not (List.mem v !l) then l := !l @ [ v ]

let bcast_est t r v =
  if not (Hashtbl.mem t.est_relayed (r, v)) then begin
    Hashtbl.add t.est_relayed (r, v) ();
    t.channel.Channel.bcast (Est { round = r; value = v })
  end

let bcast_decide t v =
  if not t.decide_relayed then begin
    t.decide_relayed <- true;
    t.channel.Channel.bcast (Decide v)
  end

let decide t v =
  ignore (Ivar.try_fill t.decision v);
  bcast_decide t v

let handle t (src, msg) =
  match msg with
  | Stop -> t.halted <- true
  | Est { round = r; value = v } ->
      if add_sender t.est_senders (r, v) src then begin
        let c = count t.est_senders (r, v) in
        let f = t.channel.Channel.f in
        if c >= f + 1 then bcast_est t r v;
        if c >= (2 * f) + 1 then add_bin_value t r v
      end
  | Aux { round = r; value = v } ->
      let votes =
        match Hashtbl.find_opt t.aux_votes r with
        | Some h -> h
        | None ->
            let h = Hashtbl.create 8 in
            Hashtbl.add t.aux_votes r h;
            h
      in
      if not (Hashtbl.mem votes src) then Hashtbl.add votes src v
  | Decide v ->
      if add_sender t.decide_senders v src then begin
        let c = count t.decide_senders v in
        let f = t.channel.Channel.f in
        if c >= f + 1 then begin
          (* At least one correct node decided v: adopt and relay. *)
          decide t v;
          Fl_metrics.Recorder.incr t.recorder "bbc_gadget_decides"
        end;
        if c >= (2 * f) + 1 then t.halted <- true
      end

(* Valid AUX support for round r: senders whose value is currently in
   bin_values(r). Returns (distinct sender count, value set). *)
let aux_support t r =
  let bins = bin_values t r in
  match Hashtbl.find_opt t.aux_votes r with
  | None -> (0, [])
  | Some votes ->
      Hashtbl.fold
        (fun _src v (c, vals) ->
          if List.mem v bins then
            (c + 1, if List.mem v vals then vals else v :: vals)
          else (c, vals))
        votes (0, [])

let state_machine t v0 =
  let wait cond =
    while (not (cond ())) && not t.halted do
      handle t (t.channel.Channel.recv ())
    done
  in
  let est = ref v0 in
  let round = ref 0 in
  let aux_sent : (int, msg) Hashtbl.t = Hashtbl.create 8 in
  (* Retransmission (the §3.1 reliable-link construction): while the
     instance lives, periodically re-send the current round's EST and
     AUX so a transiently lost message cannot stall the quorum. *)
  Fiber.spawn t.engine (fun () ->
      let rec loop delay =
        Fiber.sleep t.engine delay;
        if not t.halted then begin
          let r = !round in
          t.channel.Channel.bcast (Est { round = r; value = !est });
          (match Hashtbl.find_opt aux_sent r with
          | Some a -> t.channel.Channel.bcast a
          | None -> ());
          (match Ivar.peek t.decision with
          | Some v -> t.channel.Channel.bcast (Decide v)
          | None -> ());
          loop (min (Time.s 2) (2 * delay))
        end
      in
      loop (Time.ms 200));
  Fl_metrics.Recorder.incr t.recorder "bbc_instances";
  while not t.halted do
    let r = !round in
    Fl_metrics.Recorder.incr t.recorder "bbc_rounds";
    bcast_est t r !est;
    wait (fun () -> bin_values t r <> []);
    if not t.halted then begin
      let w = List.hd (bin_values t r) in
      let m = Aux { round = r; value = w } in
      Hashtbl.replace aux_sent r m;
      t.channel.Channel.bcast m;
      wait (fun () ->
          let c, _ = aux_support t r in
          c >= t.channel.Channel.n - t.channel.Channel.f);
      if not t.halted then begin
        let _, values = aux_support t r in
        let s = Coin.flip t.coin ~round:r in
        (match values with
        | [ v ] ->
            if v = s then decide t v;
            est := v
        | _ -> est := s);
        round := r + 1
      end
    end
  done;
  t.channel.Channel.close ()

let start engine ~recorder ~coin ~channel v =
  let t =
    { engine;
      recorder;
      coin;
      channel;
      est_senders = Hashtbl.create 16;
      est_relayed = Hashtbl.create 16;
      bin_values = Hashtbl.create 8;
      aux_votes = Hashtbl.create 8;
      decide_senders = Hashtbl.create 4;
      decide_relayed = false;
      decision = Ivar.create engine;
      halted = false }
  in
  Fiber.spawn engine (fun () -> state_machine t v);
  t.decision

let run engine ~recorder ~coin ~channel ?abort v =
  let decision = start engine ~recorder ~coin ~channel v in
  Race.read decision ~abort
