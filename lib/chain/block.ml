type t = { header : Header.t; txs : Tx.t array }

let genesis_hash = Fl_crypto.Sha256.digest "fireledger-genesis"

(* The commitment stream, laid out in one buffer and fed in one call
   so the compression kernel sees every whole block at once: 16 bytes
   (id, size) per synthetic transaction, the 32-byte digest per
   payload transaction. *)
let body_hash txs =
  let len =
    Array.fold_left
      (fun acc tx -> acc + if tx.Tx.payload = "" then 16 else 32)
      0 txs
  in
  let buf = Bytes.create len in
  let pos = ref 0 in
  Array.iter
    (fun tx ->
      if tx.Tx.payload = "" then begin
        Bytes.set_int64_le buf !pos (Int64.of_int tx.Tx.id);
        Bytes.set_int64_le buf (!pos + 8) (Int64.of_int tx.Tx.size);
        pos := !pos + 16
      end
      else begin
        Bytes.blit_string (Tx.digest tx) 0 buf !pos 32;
        pos := !pos + 32
      end)
    txs;
  let ctx = Fl_crypto.Sha256.init () in
  Fl_crypto.Sha256.feed_bytes ctx buf;
  Fl_crypto.Sha256.finalize ctx

let create ~round ~proposer ~prev_hash txs =
  let body_size = Array.fold_left (fun acc tx -> acc + tx.Tx.size) 0 txs in
  { header =
      { Header.round;
        proposer;
        prev_hash;
        body_hash = body_hash txs;
        tx_count = Array.length txs;
        body_size };
    txs }

let hash t = Header.hash t.header

let body_matches t =
  t.header.Header.tx_count = Array.length t.txs
  && String.equal t.header.Header.body_hash (body_hash t.txs)

let equal a b =
  Header.equal a.header b.header
  && Array.length a.txs = Array.length b.txs
  && Array.for_all2 Tx.equal a.txs b.txs

let pp fmt t = Header.pp fmt t.header
