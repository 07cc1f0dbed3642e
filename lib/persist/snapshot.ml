(* Segment-addressed snapshots of the definite chain prefix. Definite
   blocks never change, so each definite round is sealed once, into a
   segment: a CRC-sealed {!Fl_wire.Envelope} (tag 1) of rounds
   [first..last] in {!Fl_chain.Serial} block encoding (bodies where the
   source still had them). A snapshot is a manifest envelope (tag 0:
   [upto], [era], the opaque application payload and its hash, the
   prune boundary, the segment count) followed by its segments in round
   order. Every frame has a u32 length prefix, so the disk image and the
   state-transfer stream are both the plain concatenation of frames.

   A snapshot at [upto] supersedes every WAL record about rounds
   <= [upto] ({!Wal.truncate}). {!restore} re-checks every CRC, hash
   link and present body commitment and fails closed: a bad byte, a
   missing, extra or reordered segment rejects the whole image. *)

open Fl_chain
open Fl_wire

let magic = "FLSNAP2\x01"
let manifest_tag = 0
let segment_tag = 1

type segment = { first : int; last : int; frame : string }

(* A snapshot image: the sealed manifest and its segments, newest
   first — definite rounds 0..upto. *)
type t = { upto : int; manifest : string; segments : segment list }

type manifest = {
  m_upto : int;
  m_era : int;
  m_app : string;
  m_app_hash : string;
  m_pruned_below : int;
  m_segments : int;
}

(* [u32 length | envelope]: reserve the prefix, seal the envelope
   behind it, patch the length in. *)
let frame w ~tag write =
  let at = Codec.Writer.reserve w 4 in
  Envelope.seal_into w ~tag write;
  Codec.Writer.patch_u32 w at (Codec.Writer.length w - at - 4);
  Codec.Writer.contents w

(* Seal rounds [first..last] of [store] straight from the live blocks —
   no prefix copy. *)
let seal store ~first ~last =
  if first < 0 || last < first || last >= Store.length store then
    invalid_arg "Snapshot.seal: rounds not in the store";
  let capacity = ref 64 in
  for r = first to last do
    match Store.get store r with
    | Some b ->
        let h = b.Block.header in
        capacity :=
          !capacity + 128 + h.Header.body_size + (16 * h.Header.tx_count)
    | None -> ()
  done;
  let w = Codec.Writer.create ~capacity:!capacity () in
  let frame =
    frame w ~tag:segment_tag (fun w ->
        Codec.Writer.varint w first;
        Codec.Writer.varint w last;
        for r = first to last do
          match Store.get store r with
          | Some b -> Serial.encode_block w b
          | None -> assert false
        done)
  in
  { first; last; frame }

(* The append-only list of a node's sealed segments, newest first,
   covering definite rounds 0..[sealed_upto]. *)
type log = { mutable sealed : segment list }

let sealed_upto log = match log.sealed with [] -> -1 | s :: _ -> s.last

(* Seal the rounds after the newest segment up to [upto] as one new
   segment; returns the bytes newly sealed (0 when there is nothing
   new, or the store cannot supply it). *)
let extend log store ~upto =
  let first = sealed_upto log + 1 in
  if upto < first || upto >= Store.length store then 0
  else begin
    let s = seal store ~first ~last:upto in
    log.sealed <- s :: log.sealed;
    String.length s.frame
  end

let make ~upto ~era ~app ~app_hash ~pruned_below log =
  if sealed_upto log <> upto then invalid_arg "Snapshot.make: upto";
  let segments = log.sealed in
  let manifest =
    frame (Codec.Writer.create ~capacity:(64 + String.length app) ())
      ~tag:manifest_tag (fun w ->
        Codec.Writer.raw w magic;
        Codec.Writer.varint w (upto + 1);
        Codec.Writer.varint w era;
        Codec.Writer.bytes w app;
        Codec.Writer.bytes w app_hash;
        Codec.Writer.varint w (min pruned_below (upto + 1));
        Codec.Writer.varint w (List.length segments))
  in
  { upto; manifest; segments }

let parts t = t.manifest :: List.rev_map (fun s -> s.frame) t.segments

let bytes t =
  List.fold_left
    (fun acc s -> acc + String.length s.frame)
    (String.length t.manifest) t.segments

(* ---------- restore ---------- *)

let malformed fmt = Printf.ksprintf (fun s -> raise (Codec.Malformed s)) fmt

let read_manifest r =
  Codec.Reader.expect_raw r magic;
  let m_upto = Codec.Reader.varint r - 1 in
  let m_era = Codec.Reader.varint r in
  let m_app = Codec.Reader.bytes r in
  let m_app_hash = Codec.Reader.bytes r in
  let m_pruned_below = Codec.Reader.varint r in
  let m_segments = Codec.Reader.varint r in
  if not (Codec.Reader.at_end r) then malformed "manifest: trailing bytes";
  if m_upto < -1 || m_era < 0 || m_pruned_below < 0 || m_segments < 0 then
    malformed "manifest: negative field";
  { m_upto; m_era; m_app; m_app_hash; m_pruned_below; m_segments }

(* Append one segment's blocks to [store]: it must start exactly at the
   store's tip and stay inside the manifest. *)
let read_segment m store r =
  let first = Codec.Reader.varint r in
  let last = Codec.Reader.varint r in
  if first <> Store.length store || last < first || last > m.m_upto then
    malformed "segment [%d..%d] out of place at round %d" first last
      (Store.length store);
  Serial.read_blocks_into r store ~first ~last ~pruned_below:m.m_pruned_below;
  if not (Codec.Reader.at_end r) then malformed "segment: trailing bytes"

(* Walk the [u32 length | envelope] frames of one part; a frame may not
   straddle parts. *)
let iter_frames s f =
  let n = String.length s in
  let pos = ref 0 in
  while !pos < n do
    if n - !pos < 4 then raise Codec.Reader.Underflow;
    let len = Codec.Reader.u32 (Codec.Reader.of_substring s ~pos:!pos ~len:4) in
    if len > n - !pos - 4 then raise Codec.Reader.Underflow;
    let tag, r = Envelope.open_sub s ~pos:(!pos + 4) ~len in
    f tag r;
    pos := !pos + 4 + len
  done

let restore parts =
  let store = Store.create () in
  let manifest = ref None in
  let seen = ref 0 in
  let on_frame tag r =
    match !manifest with
    | None ->
        if tag <> manifest_tag then malformed "manifest must come first";
        manifest := Some (read_manifest r)
    | Some m ->
        if tag <> segment_tag then malformed "frame tag %d" tag;
        incr seen;
        if !seen > m.m_segments then malformed "extra segment";
        read_segment m store r
  in
  match List.iter (fun p -> iter_frames p on_frame) parts with
  | () -> (
      match !manifest with
      | None -> Error "snapshot: empty"
      | Some m ->
          if !seen <> m.m_segments then Error "snapshot: missing segment"
          else if Store.length store <> m.m_upto + 1 then
            Error "snapshot: segments end short of upto"
          else begin
            Store.prune store ~keep_from:m.m_pruned_below;
            Ok (m, store)
          end)
  | exception Codec.Reader.Underflow -> Error "snapshot: truncated"
  | exception Codec.Malformed e -> Error ("snapshot: " ^ e)
