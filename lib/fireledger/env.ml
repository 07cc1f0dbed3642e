(* Everything a FireLedger instance needs from its surroundings: the
   simulation world, this node's identity and shared resources. One
   env per (node, worker). *)

open Fl_sim
open Fl_net

type t = {
  engine : Engine.t;
  rng : Rng.t;  (** private stream of this instance *)
  recorder : Fl_metrics.Recorder.t;
  registry : Fl_crypto.Signature.registry;
  cost : Fl_crypto.Cost_model.t;
  cpu : Cpu.t;  (** the node's CPU, shared by its workers *)
  net : Net.t;  (** this worker's network instance (byte transport) *)
  hub : (Msg.chan, Msg.t) Hub.t;
  me : int;
  f : int;  (** resilience parameter, shared with Config.f *)
  seed : int;  (** experiment seed (common coin, rotation) *)
  label : string;  (** worker label, namespaces coin instances *)
  obs : Fl_obs.Obs.t option;  (** span sink, [None] = off *)
  worker : int;  (** FLO worker index, [0] standalone, for attribution *)
}

(* A worker's hub over its inbox. A frame that fails to decode (bit
   flipped, truncated) is dropped and counted, like a NIC checksum
   discard. *)
let hub engine ~recorder ~obs ~node ~worker inbox =
  Hub.create engine ~inbox ~decode:Msg.decode ~key:Msg.chan
    ~on_malformed:(fun ~src ~bytes ->
      Fl_metrics.Recorder.incr recorder "decode_errors";
      Fl_obs.Obs.instant obs ~cat:"net" ~name:"decode_error" ~node ~worker
        ~args:[ ("src", string_of_int src); ("bytes", string_of_int bytes) ]
        ~at:(Engine.now engine) ())
    ()

(* ---------- helpers every protocol module shares ---------- *)

let now env = Engine.now env.engine
let incr env name = Fl_metrics.Recorder.incr env.recorder name

let span env ~name ?round ?args ~t_begin ~t_end () =
  Fl_obs.Obs.span env.obs ~cat:"fireledger" ~name ~node:env.me
    ~worker:env.worker ?round ?args ~t_begin ~t_end ()

let instant env ~name ?round ?args () =
  Fl_obs.Obs.instant env.obs ~cat:"fireledger" ~name ~node:env.me
    ~worker:env.worker ?round ?args ~at:(now env) ()

let charge_hash env ~bytes =
  Cpu.charge env.cpu (Fl_crypto.Cost_model.hash_cost env.cost ~bytes)

let charge_sign env =
  Cpu.charge env.cpu (int_of_float env.cost.Fl_crypto.Cost_model.sign_const_ns)

let charge_verify env =
  Cpu.charge env.cpu
    (int_of_float env.cost.Fl_crypto.Cost_model.verify_const_ns)

let send env ~dst m = Net.send env.net ~src:env.me ~dst (Msg.encode m)
let bcast env m = Net.broadcast env.net ~src:env.me (Msg.encode m)

let multicast env ~dsts m =
  Net.multicast env.net ~src:env.me ~dsts (Msg.encode m)

(* A service fiber: hand every message of one hub channel, in arrival
   order, to [handle], forever. *)
let serve env chan handle =
  Fiber.spawn env.engine (fun () ->
      let box = Hub.box env.hub chan in
      while true do
        let src, m = Mailbox.recv box in
        handle ~src m
      done)

(* A typed channel over one hub channel, for the broadcast layers. *)
let channel env key ~inj ~prj =
  Channel.of_hub env.hub ~key ~net:env.net ~self:env.me ~f:env.f
    ~encode:Msg.encode ~inj ~prj
