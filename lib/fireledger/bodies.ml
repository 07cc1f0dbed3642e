open Fl_chain

type t = (string, Tx.t array * Fl_sim.Time.t) Hashtbl.t

let create () = Hashtbl.create 64
let empty_hash = Block.body_hash [||]

let find t bh =
  if String.equal bh empty_hash then Some [||]
  else
    match Hashtbl.find t bh with
    | txs, _ -> Some txs
    | exception Not_found -> None

let mem = Hashtbl.mem

let arrival t bh =
  match Hashtbl.find t bh with
  | _, at -> Some at
  | exception Not_found -> None

let received_hash t ~claimed txs =
  match Hashtbl.find_opt t claimed with
  | Some (stored, _)
    when Array.length stored = Array.length txs
         && Array.for_all2 Tx.equal stored txs ->
      claimed
  | _ -> Block.body_hash txs

let add t ~bh txs ~at =
  if Hashtbl.mem t bh then false
  else begin
    Hashtbl.replace t bh (txs, at);
    true
  end

let remove = Hashtbl.remove
