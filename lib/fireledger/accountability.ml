open Fl_chain

type t = {
  env : Env.t;
  on_evidence : Types.evidence -> unit;
  log : (string, Types.evidence) Hashtbl.t;  (* by digest *)
  mutable rb : Types.evidence Fl_broadcast.Bracha.t option;
  mutable tag : int;
}

let create env ~on_evidence =
  { env; on_evidence; log = Hashtbl.create 8; rb = None; tag = 0 }

(* Record equivocation evidence: two valid headers signed by the same
   proposer for one (round, prev_hash) slot. Deduped by canonical
   digest; the first local sighting is reliably broadcast so every
   correct node converges on the same evidence set even when only a
   subset directly observed the conflict. *)
let note_evidence ?(relay = true) t ev =
  if Types.evidence_valid t.env.Env.registry ev then begin
    let digest = Types.evidence_digest ev in
    if not (Hashtbl.mem t.log digest) then begin
      Hashtbl.replace t.log digest ev;
      Env.incr t.env "evidence_collected";
      Env.instant t.env ~name:"evidence"
        ~round:ev.Types.first.Types.header.Header.round
        ~args:[ ("accused", string_of_int ev.Types.accused) ]
        ();
      t.on_evidence ev;
      if relay then begin
        t.tag <- t.tag + 1;
        match t.rb with
        | Some b -> Fl_broadcast.Bracha.broadcast b ~tag:t.tag ev
        | None -> ()
      end
    end
  end

(* Two signed headers claiming the same slot with different content:
   evidence if the signatures check out. [known_valid] skips
   re-verifying a signature that was already checked on arrival. *)
let consider_conflict ?(known_valid = false) t (sha : Types.signed_header)
    (shb : Types.signed_header) =
  let ha = sha.Types.header and hb = shb.Types.header in
  if
    ha.Header.proposer = hb.Header.proposer
    && ha.Header.round = hb.Header.round
    && String.equal ha.Header.prev_hash hb.Header.prev_hash
    && not (Header.equal ha hb)
  then begin
    if not known_valid then begin
      Env.charge_verify t.env;
      Env.charge_verify t.env
    end;
    note_evidence t (Types.make_evidence ~accused:ha.Header.proposer sha shb)
  end

(* The evidence RB is keyed by payload digest like the proof channel:
   an equivocating relay cannot split the quorum. *)
let start t =
  t.rb <-
    Some
      (Fl_broadcast.Bracha.create t.env.Env.engine ~recorder:t.env.Env.recorder
         ~channel:
           (Env.channel t.env Msg.Evidence
              ~inj:(fun m -> Msg.Evd m)
              ~prj:(function Msg.Evd m -> m | _ -> assert false))
         ~payload_digest:Types.evidence_digest
         ~deliver:(fun ~origin:_ ~tag:_ ev -> note_evidence ~relay:false t ev))

let halt t = Option.iter Fl_broadcast.Bracha.halt t.rb

let accused t =
  let s = Hashtbl.create 4 in
  Hashtbl.iter (fun _ ev -> Hashtbl.replace s ev.Types.accused ()) t.log;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) s [])
