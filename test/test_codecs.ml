(* Property tests for every wire codec — round-trips ([decode (encode
   m) = m]) and malformed-input robustness (arbitrary or mutated bytes
   must yield [None]/[Error], raising nothing past the codec layer) —
   plus the cross-layer wire-truth check: the NIC charges exactly
   [String.length (Msg.encode m)] for a message, padding included.

   Complements test_wire.ml (scalar-level codec properties) one layer
   up: these are the protocol-struct codecs that ride the envelope. *)

open Fl_chain
open Fl_wire
module Msg = Fl_fireledger.Msg
module Types = Fl_fireledger.Types

let registry = Fl_crypto.Signature.create_registry ~seed:"codecs" ~n:4

(* ---------- generators ---------- *)

let gen_hash =
  QCheck.Gen.(
    let+ s = string_size (int_range 0 8) in
    Fl_crypto.Sha256.digest s)

let gen_tx =
  QCheck.Gen.(
    let* id = int_range 0 1_000_000 in
    let* synthetic = bool in
    if synthetic then
      let+ size = int_range 0 300 in
      Tx.create ~id ~size
    else
      let+ payload = string_size (int_range 0 64) in
      Tx.create_payload ~id payload)

let gen_txs = QCheck.Gen.(array_size (int_range 0 5) gen_tx)

let gen_block =
  QCheck.Gen.(
    let* round = int_range 0 10_000 in
    let* proposer = int_range 0 3 in
    let* prev_hash = gen_hash in
    let+ txs = gen_txs in
    Block.create ~round ~proposer ~prev_hash txs)

let gen_signed_header =
  QCheck.Gen.(
    let* b = gen_block in
    let+ signer = int_range 0 3 in
    Types.sign_header registry ~signer b.Block.header)

let gen_proposal =
  QCheck.Gen.(
    let* sh = gen_signed_header in
    let* with_body = bool in
    if with_body then
      let+ txs = gen_txs in
      { Types.sh; body = Some txs }
    else return { Types.sh; body = None })

let gen_proof =
  QCheck.Gen.(
    let* later = gen_signed_header in
    let+ earlier = gen_signed_header in
    { Types.later; earlier })

let gen_version =
  QCheck.Gen.(
    let* recovery_round = int_range 0 1_000 in
    let* origin = int_range 0 3 in
    let+ blocks =
      list_size (int_range 0 3)
        (let+ b = gen_block in
         let signer = b.Block.header.Header.proposer in
         (b, Fl_crypto.Signature.sign registry ~signer (Block.hash b)))
    in
    { Types.recovery_round; origin; blocks })

let gen_bbc =
  QCheck.Gen.(
    let open Fl_consensus.Bbc in
    oneof
      [ (let* round = int_range 0 50 in
         let+ value = bool in
         Est { round; value });
        (let* round = int_range 0 50 in
         let+ value = bool in
         Aux { round; value });
        (let+ v = bool in
         Decide v) ])

let gen_obbc =
  QCheck.Gen.(
    let open Fl_consensus.Obbc in
    oneof
      [ (let* value = bool in
         let+ pgd = option gen_proposal in
         Vote { value; pgd });
        return Ev_req;
        (let+ e = option (string_size (int_range 0 32)) in
         Ev (Option.map Codec.Slice.of_string e));
        (let+ b = gen_bbc in
         Fallback b);
        return Close ])

let gen_bracha =
  QCheck.Gen.(
    let open Fl_broadcast.Bracha in
    let body ctor =
      let* origin = int_range 0 6 in
      let* tag = int_range 0 40 in
      let+ payload = string_size (int_range 0 32) in
      ctor ~origin ~tag ~payload
    in
    oneof
      [ body (fun ~origin ~tag ~payload -> Send { origin; tag; payload });
        body (fun ~origin ~tag ~payload -> Echo { origin; tag; payload });
        body (fun ~origin ~tag ~payload -> Ready { origin; tag; payload }) ])

let gen_prepared_entry =
  QCheck.Gen.(
    let* view = int_range 0 5 in
    let* seq = int_range 0 50 in
    let* digest = gen_hash in
    let+ batch = list_size (int_range 0 2) (string_size (int_range 0 8)) in
    (view, seq, digest, batch))

let gen_pbft =
  QCheck.Gen.(
    let open Fl_consensus.Pbft in
    oneof
      [ (let+ p = string_size (int_range 0 16) in
         Submit p);
        (let* view = int_range 0 5 in
         let* seq = int_range 0 50 in
         let+ batch = list_size (int_range 0 3) (string_size (int_range 0 8)) in
         Pre_prepare { view; seq; batch });
        (let* view = int_range 0 5 in
         let* seq = int_range 0 50 in
         let+ digest = gen_hash in
         Prepare { view; seq; digest });
        (let* view = int_range 0 5 in
         let* seq = int_range 0 50 in
         let+ digest = gen_hash in
         Commit { view; seq; digest });
        (let* new_view = int_range 0 5 in
         let* last_exec = int_range 0 20 in
         let+ prepared = list_size (int_range 0 2) gen_prepared_entry in
         View_change { new_view; last_exec; prepared });
        (let* view = int_range 0 5 in
         let+ vcs =
           list_size (int_range 0 2)
             (let* sender = int_range 0 6 in
              let* last_exec = int_range 0 20 in
              let+ prepared = list_size (int_range 0 2) gen_prepared_entry in
              (sender, (last_exec, prepared)))
         in
         New_view { view; vcs }) ])

let gen_msg =
  QCheck.Gen.(
    oneof
      [ (let* body_hash = gen_hash in
         let* txs = gen_txs in
         let+ ttl = int_range 0 3 in
         Msg.Body { body_hash; txs; ttl });
        (let+ proposal = gen_proposal in
         Msg.Push { proposal });
        (let* era = int_range 0 3 in
         let* round = int_range 0 1_000 in
         let* attempt = int_range 0 2 in
         let+ m = gen_obbc in
         Msg.Ob { era; round; attempt; m });
        (let+ round = int_range 0 1_000 in
         Msg.Req { round });
        (let* round = int_range 0 1_000 in
         let* proposal = gen_proposal in
         let+ txs = gen_txs in
         Msg.Reply { round; proposal; txs });
        (let* origin = int_range 0 3 in
         let* tag = int_range 0 40 in
         let+ payload = gen_proof in
         Msg.Rb (Fl_broadcast.Bracha.Send { origin; tag; payload }));
        (let+ v = gen_version in
         Msg.Ab (Fl_consensus.Pbft.Submit v));
        (let+ from_chunk = int_range 0 20 in
         Msg.Snap_req { from_chunk });
        (let* sid = int_range 0 5 in
         let* total = int_range 1 4 in
         let* seq = int_range 0 (total - 1) in
         let+ data = string_size (int_range 0 64) in
         Msg.Snap_chunk
           { sid; seq; total; data = Codec.Slice.of_string data });
        (let+ txs = gen_txs in
         Msg.Tx_handoff { txs; fees = Array.mapi (fun i _ -> i) txs }) ])

let gen_wal_record =
  QCheck.Gen.(
    let open Fl_persist.Wal in
    oneof
      [ (let* block = gen_block in
         let+ signer = int_range 0 3 in
         Append
           { block;
             signature =
               Fl_crypto.Signature.sign registry ~signer (Block.hash block) });
        (let+ from = int_range 0 1_000 in
         Truncate { from });
        (let* upto = int_range (-1) 1_000 in
         let+ era = int_range 0 5 in
         Definite { upto; era }) ])

let arb_of gen = QCheck.make ~print:(fun _ -> "<opaque>") gen

let arb_msg =
  QCheck.make
    ~print:(fun m -> Fl_crypto.Hex.encode (Msg.encode m))
    gen_msg

(* ---------- in-body writer/reader round-trips ---------- *)

(* Write through a plain writer, read back, and require both equality
   and full consumption — an in-body codec that leaves trailing bytes
   would corrupt whatever the carrier writes next. *)
let inbody_roundtrip ?(eq = ( = )) write read x =
  let w = Codec.Writer.create () in
  write w x;
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  let y = read r in
  eq x y && Codec.Reader.at_end r

let prop_inbody ?eq name gen write read =
  QCheck.Test.make ~name ~count:200 (arb_of gen)
    (inbody_roundtrip ?eq write read)

(* Slices decode as borrowed views of the frame, so their [base]/[off]
   never match a freshly built message structurally — canonicalize
   before comparing (content equality is what the codec promises). *)
let norm_slice s = Codec.Slice.of_string (Codec.Slice.to_string s)

let norm_obbc = function
  | Fl_consensus.Obbc.Ev (Some s) ->
      Fl_consensus.Obbc.Ev (Some (norm_slice s))
  | m -> m

let norm_msg = function
  | Msg.Ob { era; round; attempt; m } ->
      Msg.Ob { era; round; attempt; m = norm_obbc m }
  | Msg.Snap_chunk { sid; seq; total; data } ->
      Msg.Snap_chunk { sid; seq; total; data = norm_slice data }
  | m -> m

let obbc_eq a b = norm_obbc a = norm_obbc b
let msg_eq a b = norm_msg a = norm_msg b

let prop_tx_roundtrip =
  prop_inbody "codecs: tx roundtrip" gen_tx Serial.encode_tx Serial.decode_tx

let prop_txs_roundtrip =
  prop_inbody "codecs: tx array roundtrip" gen_txs Serial.encode_txs
    Serial.decode_txs

let prop_header_roundtrip =
  QCheck.Test.make ~name:"codecs: header roundtrip" ~count:200
    (arb_of gen_block) (fun b ->
      inbody_roundtrip Serial.encode_header Serial.decode_header
        b.Block.header)

let prop_signed_header_roundtrip =
  QCheck.Test.make ~name:"codecs: signed header roundtrip" ~count:200
    (arb_of gen_signed_header) (fun sh ->
      inbody_roundtrip Types.write_signed_header Types.read_signed_header sh
      && Types.decode_signed_header (Types.encode_signed_header sh) = Some sh)

let prop_proposal_roundtrip =
  prop_inbody "codecs: proposal roundtrip" gen_proposal Types.write_proposal
    Types.read_proposal

let prop_proof_roundtrip =
  prop_inbody "codecs: proof roundtrip" gen_proof Types.write_proof
    Types.read_proof

let prop_version_roundtrip =
  prop_inbody "codecs: version roundtrip" gen_version Types.write_version
    Types.read_version

let prop_bbc_roundtrip =
  prop_inbody "codecs: bbc roundtrip" gen_bbc Fl_consensus.Bbc.write_msg
    Fl_consensus.Bbc.read_msg

let prop_obbc_roundtrip =
  prop_inbody ~eq:obbc_eq "codecs: obbc roundtrip" gen_obbc
    (Fl_consensus.Obbc.write_msg Types.write_proposal)
    (Fl_consensus.Obbc.read_msg Types.read_proposal)

let prop_bracha_roundtrip =
  prop_inbody "codecs: bracha roundtrip" gen_bracha
    (Fl_broadcast.Bracha.write_msg Codec.Writer.bytes)
    (Fl_broadcast.Bracha.read_msg Codec.Reader.bytes)

let prop_pbft_roundtrip =
  prop_inbody "codecs: pbft roundtrip" gen_pbft
    (Fl_consensus.Pbft.write_msg Codec.Writer.bytes)
    (Fl_consensus.Pbft.read_msg Codec.Reader.bytes)

(* ---------- framed codecs ---------- *)

let prop_block_string_roundtrip =
  QCheck.Test.make ~name:"codecs: block string roundtrip" ~count:200
    (arb_of gen_block) (fun b ->
      Serial.block_of_string (Serial.block_to_string b) = Ok b)

let prop_msg_roundtrip =
  QCheck.Test.make ~name:"codecs: fireledger msg roundtrip" ~count:300 arb_msg
    (fun m ->
      match Msg.decode (Msg.encode m) with
      | Some m' -> msg_eq m m'
      | None -> false)

let flip s off =
  let b = Bytes.of_string s in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x41));
  Bytes.to_string b

(* View decode ≡ copy decode: [Msg.decode_sub] on a frame embedded at
   an arbitrary offset of a larger buffer must agree with [Msg.decode]
   on the copied-out substring — over every message constructor (which
   transitively exercises every registered in-body codec: serial
   txs/blocks, signed headers, proposals, proofs, versions, bbc, obbc,
   bracha, pbft, snap chunks). Also under damage: a truncated or
   bit-flipped window must be rejected identically by both paths. *)
let prop_view_decode_equals_copy_decode =
  QCheck.Test.make ~name:"codecs: decode_sub = decode . String.sub"
    ~count:300
    QCheck.(
      triple arb_msg
        (string_of_size Gen.(int_range 0 24))
        (string_of_size Gen.(int_range 0 24)))
    (fun (m, prefix, suffix) ->
      let frame = Msg.encode m in
      let buf = prefix ^ frame ^ suffix in
      let pos = String.length prefix and len = String.length frame in
      let via_view = Msg.decode_sub buf ~pos ~len in
      let via_copy = Msg.decode (String.sub buf pos len) in
      match (via_view, via_copy) with
      | Some a, Some b -> msg_eq a b && msg_eq a m
      | None, None -> true
      | _ -> false)

let prop_view_decode_damage_parity =
  QCheck.Test.make
    ~name:"codecs: damaged views reject exactly like damaged copies"
    ~count:300
    QCheck.(pair arb_msg (QCheck.make Gen.(int_range 0 20_000)))
    (fun (m, seed) ->
      let frame = Msg.encode m in
      let buf = "pfx" ^ frame ^ "sfx" in
      let flen = String.length frame in
      (* alternate between truncating the window and flipping a byte *)
      let pos = 3 in
      let buf, len =
        if seed land 1 = 0 then (buf, seed / 2 mod flen)
        else (flip buf (pos + (seed / 2 mod flen)), flen)
      in
      let via_view = Msg.decode_sub buf ~pos ~len in
      let via_copy = Msg.decode (String.sub buf pos len) in
      match (via_view, via_copy) with
      | None, None -> true
      | Some a, Some b -> msg_eq a b
      | _ -> false)

(* Aliasing safety: a decoded [Slice.t] borrows the frame buffer. The
   ownership rule says anything retained past the frame's lifetime
   must be copied ([Slice.to_string]); this pins both halves — the
   borrow really does alias the buffer (mutating it changes the view),
   and the copy-on-retain really detaches (the retained string is
   unaffected). *)
let test_slice_aliasing_safety () =
  let payload = String.init 48 (fun i -> Char.chr (0x40 + (i land 31))) in
  let m =
    Msg.Snap_chunk
      { sid = 2; seq = 1; total = 3; data = Codec.Slice.of_string payload }
  in
  let frame = Msg.encode m in
  (* the receive buffer: a mutable Bytes the frame sits inside *)
  let buf = Bytes.of_string ("hdr!" ^ frame ^ "!trl") in
  let s = Bytes.unsafe_to_string buf in
  match Msg.decode_sub s ~pos:4 ~len:(String.length frame) with
  | Some (Msg.Snap_chunk { data; _ }) ->
      let retained = Codec.Slice.to_string data in
      Alcotest.(check string) "decoded payload" payload retained;
      (* clobber the receive buffer, as a reusing transport would *)
      Bytes.fill buf 0 (Bytes.length buf) '\xff';
      Alcotest.(check string) "retained copy is detached" payload retained;
      Alcotest.(check bool) "borrowed view aliases the buffer" true
        (String.for_all (fun c -> c = '\xff') (Codec.Slice.to_string data))
  | _ -> Alcotest.fail "snap_chunk did not decode"

(* Same discipline one layer down: a Writer whose [contents] was taken
   can be cleared and reused without disturbing the taken string. *)
let test_writer_reuse_detached () =
  let w = Codec.Writer.create ~capacity:32 () in
  Codec.Writer.raw w "first-record";
  let first = Codec.Writer.contents w in
  Codec.Writer.clear w;
  Codec.Writer.raw w "SECOND-RECORD-LONGER";
  Alcotest.(check string) "first contents survive reuse" "first-record" first;
  Alcotest.(check string) "second contents correct" "SECOND-RECORD-LONGER"
    (Codec.Writer.contents w)

let prop_msg_size_is_wire_length =
  QCheck.Test.make ~name:"codecs: Msg.size = String.length (encode)"
    ~count:300 arb_msg (fun m -> Msg.size m = String.length (Msg.encode m))

let prop_wal_record_roundtrip =
  QCheck.Test.make ~name:"codecs: WAL record roundtrip" ~count:200
    (arb_of gen_wal_record) (fun rec_ ->
      Fl_persist.Wal.decode_record (Fl_persist.Wal.encode_record rec_)
      = Ok rec_)

(* ---------- malformed inputs ---------- *)

(* Every [decode] is total over strings: random bytes and adversarial
   mutations must come back as [None]/[Error] — any escaped exception
   (in particular [Invalid_argument] from an unchecked allocation)
   fails the property. The standalone signed header is the one layout
   with no magic and no CRC (it is the OBBC evidence payload, carried
   inside a CRC-sealed frame), so random bytes can spell a well-formed
   one: it may decode, but only to the header whose encoding is exactly
   those bytes, and never to one whose signature checks. *)
let decoders : (string * (string -> bool)) list =
  [ ("msg", fun s -> Msg.decode s = None);
    ("block", fun s -> Result.is_error (Serial.block_of_string s));
    ("chain", fun s -> Result.is_error (Serial.decode_chain s));
    ( "signed-header",
      fun s ->
        match Types.decode_signed_header s with
        | None -> true
        | Some sh ->
            String.equal (Types.encode_signed_header sh) s
            && not (Types.signed_header_valid registry sh) );
    ("wal-record", fun s -> Result.is_error (Fl_persist.Wal.decode_record s));
    ("snapshot", fun s -> Result.is_error (Fl_persist.Snapshot.restore [ s ])) ]

let prop_random_bytes_rejected =
  QCheck.Test.make ~name:"codecs: random bytes never decode, never raise"
    ~count:500
    QCheck.(string_of_size Gen.(int_range 0 200))
    (fun s ->
      List.for_all
        (fun (name, reject) ->
          try reject s
          with e ->
            QCheck.Test.fail_reportf "%s decoder raised %s" name
              (Printexc.to_string e))
        decoders)

(* The string the property above once shrank to: an 88-byte header
   and a 54-byte signature, each behind its one-byte length. It decodes
   to its own unsigned reading; spelled with the round's top bit set
   (which a u64 field cannot carry) or a non-minimal length varint, the
   same header must not decode at all. *)
let test_random_signed_header () =
  let s = "X" ^ String.make 88 'a' ^ "6" ^ String.make 54 'a' in
  Alcotest.(check bool) "decodes" true (Types.decode_signed_header s <> None);
  List.iter
    (fun (name, ok) ->
      if not (ok s) then Alcotest.failf "%s decoder accepted it" name)
    decoders;
  let top_bit = Bytes.of_string s in
  Bytes.set top_bit 8 '\xe1';
  Alcotest.(check bool) "u64 top bit rejected" true
    (Types.decode_signed_header (Bytes.to_string top_bit) = None);
  Alcotest.(check bool) "non-minimal varint rejected" true
    (Types.decode_signed_header ("\xd8\x00" ^ String.sub s 1 143) = None)

let test_overflowing_count_rejected () =
  (* Regression: a 9-byte varint whose top bits overflow the 63-bit
     int into the sign used to slip past [seq_len]'s upper-bound
     guard and reach [Array.init] with a negative count. 88 bytes of
     filler parse as a structurally plausible header; the \x80 run is
     the overflowing transaction count. *)
  let s = String.make 88 'a' ^ String.make 8 '\x80' ^ String.make 8 'a' in
  match Serial.block_of_string s with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overflowed tx count decoded"

let prop_bitflip_rejected =
  (* A flipped byte anywhere in the CRC-covered body must be caught;
     flips in the 6-byte envelope header must at minimum never raise
     (a flipped tag re-frames the body under a different schema, which
     the structural parse may or may not reject — but must survive). *)
  QCheck.Test.make ~name:"codecs: single byte flip is caught by the envelope"
    ~count:300
    QCheck.(pair arb_msg (QCheck.make Gen.(int_range 0 10_000)))
    (fun (m, off_seed) ->
      let s = Msg.encode m in
      let off = off_seed mod String.length s in
      let mutated = flip s off in
      match Msg.decode mutated with
      | None -> true
      | Some m' ->
          (* Only a header-byte flip may still decode, and never to a
             silently different reading of the same message class. *)
          if off >= 6 then
            QCheck.Test.fail_reportf
              "body flip at %d survived the CRC" off
          else m' <> m || mutated = s)

let prop_truncation_rejected =
  QCheck.Test.make ~name:"codecs: truncated frames never decode" ~count:300
    QCheck.(pair arb_msg (QCheck.make Gen.(int_range 0 10_000)))
    (fun (m, len_seed) ->
      let s = Msg.encode m in
      let len = len_seed mod String.length s in
      Msg.decode (String.sub s 0 len) = None)

let prop_wal_record_mutation =
  QCheck.Test.make ~name:"codecs: mutated WAL records are rejected" ~count:200
    QCheck.(pair (arb_of gen_wal_record) (QCheck.make Gen.(int_range 0 10_000)))
    (fun (rec_, off_seed) ->
      let s = Fl_persist.Wal.encode_record rec_ in
      let off = off_seed mod String.length s in
      match Fl_persist.Wal.decode_record (flip s off) with
      | Error _ -> true
      | Ok _ -> off < 6 (* tag-byte reframing; body flips must fail *))

(* ---------- snapshot round-trip ---------- *)

let small_store () =
  let store = Store.create () in
  let prev = ref Block.genesis_hash in
  for round = 0 to 4 do
    let txs =
      Array.init 3 (fun i -> Tx.create ~id:((round * 10) + i) ~size:100)
    in
    let b = Block.create ~round ~proposer:(round mod 4) ~prev_hash:!prev txs in
    (match Store.append store b with
    | Ok () -> ()
    | Error e -> Alcotest.failf "append: %a" Store.pp_error e);
    prev := Block.hash b
  done;
  store

let test_snapshot_roundtrip () =
  let store = small_store () in
  let module S = Fl_persist.Snapshot in
  (* two segments: rounds 0..1 and 2..3 *)
  let image store =
    let log = { S.sealed = [] } in
    ignore (S.extend log store ~upto:1);
    ignore (S.extend log store ~upto:3);
    S.make ~upto:3 ~era:1 ~app:"app-bytes"
      ~app_hash:(Fl_crypto.Sha256.digest "state")
      ~pruned_below:(Store.pruned_below store) log
  in
  let enc = String.concat "" (S.parts (image store)) in
  match S.restore [ enc ] with
  | Error e -> Alcotest.failf "restore: %s" e
  | Ok (m, prefix) ->
      Alcotest.(check int) "upto" 3 m.S.m_upto;
      Alcotest.(check int) "era" 1 m.S.m_era;
      Alcotest.(check string) "app" "app-bytes" m.S.m_app;
      Alcotest.(check int) "prefix length" 4 (Store.length prefix);
      Alcotest.(check bool) "prefix integrity" true
        (Store.check_integrity prefix);
      (* re-sealing the restored prefix reproduces the image exactly *)
      Alcotest.(check string) "snapshot round-trips" enc
        (String.concat "" (S.parts (image prefix)));
      (* Byte corruption anywhere in the image is caught: the length
         prefixes, frame headers and manifest-first order leave no
         byte whose flip survives. *)
      for off = 0 to String.length enc - 1 do
        match S.restore [ flip enc off ] with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "snapshot flip at %d survived" off
      done

(* ---------- cross-layer: NIC bytes = encoding length ---------- *)

let test_nic_charges_encoding_length () =
  (* The acceptance check for the wire-true transport: send real
     protocol messages — including a synthetic-transaction body whose
     padding must count — and require every byte-accounting layer
     (sender NIC, per-link ledger, per-node totals) to agree with
     [String.length (Msg.encode m)] exactly. *)
  let w =
    World.make ~seed:97 ~n:2 ~key:Msg.chan ~encode:Msg.encode
      ~decode:Msg.decode ()
  in
  let txs = Array.init 4 (fun i -> Tx.create ~id:i ~size:512) in
  let block =
    Block.create ~round:0 ~proposer:0 ~prev_hash:Block.genesis_hash txs
  in
  let sh = Types.sign_header registry ~signer:0 block.Block.header in
  let msgs =
    [ Msg.Body
        { body_hash = block.Block.header.Header.body_hash; txs; ttl = 1 };
      Msg.Push { proposal = { Types.sh; body = None } };
      Msg.Req { round = 7 };
      Msg.Ob
        { era = 0;
          round = 3;
          attempt = 0;
          m = Fl_consensus.Obbc.Vote { value = true; pgd = None } } ]
  in
  let expected =
    List.fold_left (fun acc m -> acc + String.length (Msg.encode m)) 0 msgs
  in
  (* Synthetic padding is on the wire: the Body frame must charge the
     four 512-byte transactions it carries. *)
  Alcotest.(check bool) "padding counted" true
    (String.length (Msg.encode (List.hd msgs)) > 4 * 512);
  List.iter (fun m -> Fl_net.Net.send w.World.net ~src:0 ~dst:1 (Msg.encode m)) msgs;
  World.run w;
  Alcotest.(check int) "NIC bytes = encoded bytes" expected
    (Fl_net.Nic.bytes_sent w.World.nics.(0));
  Alcotest.(check int) "link ledger agrees" expected
    (Fl_net.Net.link_bytes w.World.net ~src:0 ~dst:1);
  Alcotest.(check int) "per-node total agrees" expected
    (Fl_net.Net.bytes_out w.World.net ~node:0);
  Alcotest.(check int) "all delivered" (List.length msgs)
    (Fl_net.Net.messages_delivered w.World.net)

(* Hub routing, through the hub every cluster builds for a worker:
   each frame reaches the mailbox of its [Msg.chan] and no other, OBBC
   instances that differ in any one of era, round and attempt get
   channels of their own, and a corrupted frame is one decode error. *)
let test_hub_routes_by_chan () =
  let engine = Fl_sim.Engine.create () in
  let recorder = Fl_metrics.Recorder.create () in
  let inbox = Fl_sim.Mailbox.create engine in
  let hub =
    Fl_fireledger.Env.hub engine ~recorder ~obs:None ~node:0 ~worker:0 inbox
  in
  let txs = Array.init 2 (fun i -> Tx.create ~id:i ~size:64) in
  let header round =
    (Block.create ~round ~proposer:1 ~prev_hash:Block.genesis_hash txs)
      .Block.header
  in
  let sh = Types.sign_header registry ~signer:1 (header 3) in
  let sh' = Types.sign_header registry ~signer:1 (header 4) in
  let proposal = { Types.sh; body = None } in
  let ob era round attempt =
    Msg.Ob
      { era;
        round;
        attempt;
        m = Fl_consensus.Obbc.Vote { value = true; pgd = None } }
  in
  let msgs =
    [ Msg.Body { body_hash = sh.Types.header.Header.body_hash; txs; ttl = 0 };
      Msg.Push { proposal };
      ob 0 3 0;
      ob 1 3 0;
      ob 0 4 0;
      ob 0 3 1;
      Msg.Req { round = 3 };
      Msg.Reply { round = 3; proposal; txs };
      Msg.Rb
        (Fl_broadcast.Bracha.Send
           { origin = 1; tag = 0; payload = { Types.later = sh'; earlier = sh } });
      Msg.Ab
        (Fl_consensus.Pbft.Prepare
           { view = 0; seq = 1; digest = Fl_crypto.Sha256.digest "v" });
      Msg.Evd
        (Fl_broadcast.Bracha.Send
           { origin = 1;
             tag = 0;
             payload = Types.make_evidence ~accused:1 sh sh' });
      Msg.Snap_req { from_chunk = 0 };
      Msg.Snap_chunk
        { sid = 1; seq = 0; total = 1; data = Codec.Slice.of_string "chunk" };
      Msg.Tx_handoff { txs; fees = [| 5; 6 |] } ]
  in
  let chans = List.map Msg.chan msgs in
  Alcotest.(check int) "every message has its own channel"
    (List.length msgs)
    (List.length (List.sort_uniq compare chans));
  List.iter (fun m -> Fl_sim.Mailbox.send inbox (1, Msg.encode m)) msgs;
  Fl_sim.Mailbox.send inbox (2, flip (Msg.encode (List.hd msgs)) 10);
  Fl_sim.Engine.run engine;
  Alcotest.(check int) "no stray channel" (List.length msgs)
    (Fl_net.Hub.channels hub);
  List.iter2
    (fun m chan ->
      let box = Fl_net.Hub.box hub chan in
      Alcotest.(check int) "one frame per channel" 1
        (Fl_sim.Mailbox.length box);
      match Fl_sim.Mailbox.try_recv box with
      | Some (src, m') ->
          Alcotest.(check int) "source" 1 src;
          Alcotest.(check string) "the frame sent" (Msg.encode m)
            (Msg.encode m')
      | None -> Alcotest.fail "empty channel")
    msgs chans;
  Alcotest.(check int) "one decode error" 1
    (Fl_metrics.Recorder.counter recorder "decode_errors");
  Alcotest.(check int) "hub counted it" 1 (Fl_net.Hub.malformed hub)

let suite =
  [ QCheck_alcotest.to_alcotest prop_tx_roundtrip;
    QCheck_alcotest.to_alcotest prop_txs_roundtrip;
    QCheck_alcotest.to_alcotest prop_header_roundtrip;
    QCheck_alcotest.to_alcotest prop_signed_header_roundtrip;
    QCheck_alcotest.to_alcotest prop_proposal_roundtrip;
    QCheck_alcotest.to_alcotest prop_proof_roundtrip;
    QCheck_alcotest.to_alcotest prop_version_roundtrip;
    QCheck_alcotest.to_alcotest prop_bbc_roundtrip;
    QCheck_alcotest.to_alcotest prop_obbc_roundtrip;
    QCheck_alcotest.to_alcotest prop_bracha_roundtrip;
    QCheck_alcotest.to_alcotest prop_pbft_roundtrip;
    QCheck_alcotest.to_alcotest prop_block_string_roundtrip;
    QCheck_alcotest.to_alcotest prop_msg_roundtrip;
    QCheck_alcotest.to_alcotest prop_view_decode_equals_copy_decode;
    QCheck_alcotest.to_alcotest prop_view_decode_damage_parity;
    Alcotest.test_case "slice aliasing safety (copy-on-retain)" `Quick
      test_slice_aliasing_safety;
    Alcotest.test_case "writer reuse detaches taken contents" `Quick
      test_writer_reuse_detached;
    QCheck_alcotest.to_alcotest prop_msg_size_is_wire_length;
    QCheck_alcotest.to_alcotest prop_wal_record_roundtrip;
    QCheck_alcotest.to_alcotest prop_random_bytes_rejected;
    Alcotest.test_case "random bytes spelling a signed header" `Quick
      test_random_signed_header;
    Alcotest.test_case "overflowing sequence count rejected" `Quick
      test_overflowing_count_rejected;
    QCheck_alcotest.to_alcotest prop_bitflip_rejected;
    QCheck_alcotest.to_alcotest prop_truncation_rejected;
    QCheck_alcotest.to_alcotest prop_wal_record_mutation;
    Alcotest.test_case "snapshot roundtrip + corruption" `Quick
      test_snapshot_roundtrip;
    Alcotest.test_case "nic charges encoding length" `Quick
      test_nic_charges_encoding_length;
    Alcotest.test_case "hub routes every message to its channel" `Quick
      test_hub_routes_by_chan ]
