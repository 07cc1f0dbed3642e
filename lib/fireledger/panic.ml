open Fl_sim
open Fl_chain
open Fl_consensus

type t = {
  env : Env.t;
  config : Config.t;
  store : Store.t;
  detector : Detector.t;
  acc : Accountability.t;
  wrb : Wrb.t;
  round : unit -> int;
  appended : int -> (Block.t * Types.signed_header) option;
  epoch_at : int -> Epoch.t;
  admits : round:int -> int -> bool;
  rescind :
    from:int ->
    rescinded:Block.t list ->
    (Block.t * Fl_crypto.Signature.signature) list ->
    unit;
  interrupt : unit -> unit;
  recovered : round:int -> rescinded:int -> t_begin:Time.t -> unit;
  mutable pending : Types.proof list;
  handled : (int, unit) Hashtbl.t;
  boxes : (int, Types.version Mailbox.t) Hashtbl.t;
  mutable rb : Types.proof Fl_broadcast.Bracha.t option;
  mutable ab : Types.version Pbft.t option;
  mutable rb_tag : int;
}

let create env ~config ~store ~detector ~acc ~wrb ~round ~appended ~epoch_at
    ~admits ~rescind ~interrupt ~recovered =
  { env;
    config;
    store;
    detector;
    acc;
    wrb;
    round;
    appended;
    epoch_at;
    admits;
    rescind;
    interrupt;
    recovered;
    pending = [];
    handled = Hashtbl.create 8;
    boxes = Hashtbl.create 4;
    rb = None;
    ab = None;
    rb_tag = 0 }

let now t = Env.now t.env

let version_box t r =
  match Hashtbl.find_opt t.boxes r with
  | Some b -> b
  | None ->
      let b = Mailbox.create t.env.Env.engine in
      Hashtbl.add t.boxes r b;
      b

let own_version t r =
  let me = t.env.Env.me in
  let s = max 0 (r - (t.config.Config.f + 1)) in
  if t.round () < r - 1 then
    { Types.recovery_round = r; origin = me; blocks = [] }
  else
    let blocks =
      Store.sub t.store ~from:s
      |> List.filter_map (fun b ->
             match t.appended b.Block.header.Header.round with
             | Some (_, sh) -> Some (b, sh.Types.signature)
             | None -> None)
    in
    { Types.recovery_round = r; origin = me; blocks }

let recovery t r =
  Env.incr t.env "recoveries";
  let recovery_start = now t in
  Fl_metrics.Recorder.mark t.env.Env.recorder "recoveries" ~now:(now t) 1;
  Detector.invalidate t.detector;
  let v = own_version t r in
  (match t.ab with Some ab -> Pbft.submit ab v | None -> assert false);
  let box = version_box t r in
  let anchor round =
    if round < 0 then Some Block.genesis_hash
    else
      match Store.get t.store round with
      | Some b -> Some (Block.hash b)
      | None -> None
  in
  let seen = Hashtbl.create 8 in
  let version_headers = Hashtbl.create 16 in
      (* per recovery: headers seen in received versions, by round *)
  let collected = ref [] in
  let count = ref 0 in
  (* The version quorum counts against the membership of the epoch
     governing the recovery round; versions from non-members (a
     departed node replaying stale state) are discarded. *)
  let an, af =
    Epoch.quorum (t.epoch_at r) ~universe:t.config.Config.n
      ~budget:t.config.Config.f
  in
  while !count < an - af do
    let vj = Mailbox.recv box in
    if
      (not (Hashtbl.mem seen vj.Types.origin))
      && t.admits ~round:r vj.Types.origin
    then begin
      Hashtbl.add seen vj.Types.origin ();
      (* price of authenticating a received version (Table 1's
         (n−f)·chain-size signature checks) *)
      List.iter
        (fun (b, _) ->
          Env.charge_verify t.env;
          Env.charge_hash t.env ~bytes:b.Block.header.Header.body_size)
        vj.Types.blocks;
      (* accountability sweep: a block claiming a slot differently
         from our own chain, or from another received version, is half
         of an equivocation — recovery is where a node that saw only
         one variant on the wire learns of the fork, because the n−f
         version quorum cannot exclude every holder of either variant *)
      List.iter
        (fun (b, s) ->
          let rb = b.Block.header.Header.round in
          let sh = { Types.header = b.Block.header; signature = s } in
          (match t.appended rb with
          | Some (local, local_sh)
            when local.Block.header.Header.proposer
                 = b.Block.header.Header.proposer ->
              Accountability.consider_conflict t.acc local_sh sh
          | _ -> ());
          (* the other variant may never have been acceptable here —
             built on a tip we did not hold — and still sit in the
             stash *)
          (match Wrb.stashed t.wrb ~k:b.Block.header.Header.proposer ~r:rb with
          | Some st -> Accountability.consider_conflict t.acc st.Types.sh sh
          | None -> ());
          let prior =
            match Hashtbl.find_opt version_headers rb with
            | Some l -> l
            | None -> []
          in
          List.iter
            (fun prior_sh -> Accountability.consider_conflict t.acc prior_sh sh)
            prior;
          if
            not
              (List.exists
                 (fun p -> Header.equal p.Types.header b.Block.header)
                 prior)
          then Hashtbl.replace version_headers rb (sh :: prior))
        vj.Types.blocks;
      match
        Types.validate_version t.env.Env.registry ~f:af ~n:t.config.Config.n
          ~anchor vj
      with
      | Types.Adoptable ->
          collected := vj :: !collected;
          incr count
      | Types.Unanchored ->
          (* counts toward the quorum but cannot be adopted here *)
          incr count
      | Types.Invalid -> Env.incr t.env "invalid_versions"
    end
  done;
  let adoptable = List.rev !collected in
  let best =
    List.fold_left
      (fun best v ->
        if v.Types.blocks = [] then best
        else
          match best with
          | Some b when Types.version_tip b >= Types.version_tip v -> best
          | _ -> Some v)
      None adoptable
  in
  let rescinded =
    match best with
    | None -> 0
    | Some v ->
        let first_round =
          match v.Types.blocks with
          | (b, _) :: _ -> b.Block.header.Header.round
          | [] -> assert false
        in
        (* the blocks this version rescinds: rounds whose block
           changes, then the stored suffix past its tip *)
        let replaced =
          List.filter_map
            (fun (b, _) ->
              match Store.get t.store b.Block.header.Header.round with
              | Some old
                when not (String.equal (Block.hash old) (Block.hash b)) ->
                  Some old
              | _ -> None)
            v.Types.blocks
          @ Store.sub t.store ~from:(Types.version_tip v + 1)
        in
        t.rescind ~from:first_round ~rescinded:replaced v.Types.blocks;
        List.length replaced
  in
  Hashtbl.remove t.boxes r;
  t.recovered ~round:r ~rescinded ~t_begin:recovery_start

let enqueue_proof t proof =
  let r = Types.proof_round proof in
  if
    (not (Hashtbl.mem t.handled r))
    && (not (List.exists (fun p -> Types.proof_round p = r) t.pending))
    && Types.proof_valid t.env.Env.registry proof
  then begin
    t.pending <- proof :: t.pending;
    t.interrupt ()
  end

let handled t r = Hashtbl.mem t.handled r

let panic t proof =
  t.rb_tag <- t.rb_tag + 1;
  (match t.rb with
  | Some rb -> Fl_broadcast.Bracha.broadcast rb ~tag:t.rb_tag proof
  | None -> assert false);
  enqueue_proof t proof

let rec drain t =
  match
    List.sort
      (fun a b -> compare (Types.proof_round a) (Types.proof_round b))
      t.pending
  with
  | [] -> ()
  | proof :: rest ->
      t.pending <- rest;
      let r = Types.proof_round proof in
      if not (Hashtbl.mem t.handled r) then begin
        Hashtbl.add t.handled r ();
        recovery t r
      end;
      drain t

(* The panic layer: reliable broadcast of proofs. *)
let start_proofs t =
  t.rb <-
    Some
      (Fl_broadcast.Bracha.create t.env.Env.engine ~recorder:t.env.Env.recorder
         ~channel:
           (Env.channel t.env Msg.Proofs
              ~inj:(fun m -> Msg.Rb m)
              ~prj:(function Msg.Rb m -> m | _ -> assert false))
         ~payload_digest:Types.proof_digest
         ~deliver:(fun ~origin:_ ~tag:_ proof -> enqueue_proof t proof))

(* The recovery layer: atomic broadcast of versions. *)
let start_versions t =
  let ab_config =
    { (Pbft.default_config ~payload_digest:Types.version_digest) with
      Pbft.max_batch = 4;
      window = 4;
      base_timeout = Time.ms 500 }
  in
  t.ab <-
    Some
      (Pbft.create t.env.Env.engine ~recorder:t.env.Env.recorder
         ~channel:
           (Env.channel t.env Msg.Versions
              ~inj:(fun m -> Msg.Ab m)
              ~prj:(function Msg.Ab m -> m | _ -> assert false))
         ~cpu:t.env.Env.cpu ~config:ab_config
         ~deliver:(fun ~seq:_ v ->
           Mailbox.send (version_box t v.Types.recovery_round) v))

let halt t =
  t.pending <- [];
  Option.iter Fl_broadcast.Bracha.halt t.rb;
  Option.iter Pbft.halt t.ab
