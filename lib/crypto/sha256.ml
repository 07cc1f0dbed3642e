(* SHA-256 per FIPS 180-4: buffering, padding and digest layout here,
   the compression function in C (fl_sha256_stubs.c). The chaining
   state is an 8-word int array the stub updates in place, so one call
   absorbs every whole 64-byte block of a feed. *)

let digest_size = 32

external compress_blocks : int array -> bytes -> int -> int -> unit
  = "fl_sha256_compress_blocks"
[@@noalloc]

type t = {
  h : int array;          (* chaining state H0..H7, 32-bit words *)
  block : bytes;          (* 64-byte staging buffer *)
  mutable fill : int;     (* bytes currently staged *)
  mutable total : int;    (* total message bytes absorbed *)
}

let init () =
  { h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
         0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    block = Bytes.create 64; fill = 0; total = 0 }

(* Self-profiling bracket (Fl_prof): pure, observe-only, one
   load-and-branch when profiling is off. *)
let[@inline] profiled f x =
  if !Fl_prof.Prof.on then begin
    Fl_prof.Prof.enter Fl_prof.Prof.sha256;
    let r = f x in
    Fl_prof.Prof.leave ();
    r
  end
  else f x

let feed_impl t buf off len =
  t.total <- t.total + len;
  let pos = ref off and remaining = ref len in
  (* Top up a partially filled staging block first. *)
  if t.fill > 0 then begin
    let take = min !remaining (64 - t.fill) in
    Bytes.blit buf !pos t.block t.fill take;
    t.fill <- t.fill + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if t.fill = 64 then begin
      compress_blocks t.h t.block 0 1;
      t.fill <- 0
    end
  end;
  let whole = !remaining / 64 in
  if whole > 0 then compress_blocks t.h buf !pos whole;
  let rest = !remaining - (whole * 64) in
  if rest > 0 then begin
    Bytes.blit buf (!pos + (whole * 64)) t.block t.fill rest;
    t.fill <- t.fill + rest
  end

let feed_bytes t ?(off = 0) ?len buf =
  let len = match len with Some l -> l | None -> Bytes.length buf - off in
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Sha256.feed_bytes";
  if !Fl_prof.Prof.on then begin
    Fl_prof.Prof.enter Fl_prof.Prof.sha256;
    feed_impl t buf off len;
    Fl_prof.Prof.leave ()
  end
  else feed_impl t buf off len

let feed_string t ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  feed_bytes t ~off ~len (Bytes.unsafe_of_string s)

(* Padding in place: 0x80, zeros, then the 64-bit big-endian message
   length in bits at the end of the last block. *)
let finalize_impl t =
  let b = t.block in
  Bytes.set b t.fill '\x80';
  Bytes.fill b (t.fill + 1) (63 - t.fill) '\000';
  if t.fill >= 56 then begin
    compress_blocks t.h b 0 1;
    Bytes.fill b 0 56 '\000'
  end;
  Bytes.set_int64_be b 56 (Int64.of_int (t.total * 8));
  compress_blocks t.h b 0 1;
  let out = Bytes.create digest_size in
  for i = 0 to 7 do
    Bytes.set_int32_be out (i * 4) (Int32.of_int t.h.(i))
  done;
  Bytes.unsafe_to_string out

let finalize t = profiled finalize_impl t

let digest_impl s =
  let t = init () in
  feed_impl t (Bytes.unsafe_of_string s) 0 (String.length s);
  finalize_impl t

let digest s = profiled digest_impl s

let hmac_impl ~key msg =
  let block_size = 64 in
  let key = if String.length key > block_size then digest_impl key else key in
  let ipad = Bytes.make block_size '\x36' in
  let opad = Bytes.make block_size '\x5c' in
  String.iteri
    (fun i c ->
      Bytes.set ipad i (Char.chr (Char.code c lxor 0x36));
      Bytes.set opad i (Char.chr (Char.code c lxor 0x5c)))
    key;
  let inner = init () in
  feed_impl inner ipad 0 block_size;
  feed_impl inner (Bytes.unsafe_of_string msg) 0 (String.length msg);
  let outer = init () in
  feed_impl outer opad 0 block_size;
  feed_impl outer (Bytes.unsafe_of_string (finalize_impl inner)) 0 digest_size;
  finalize_impl outer

let hmac ~key msg =
  if !Fl_prof.Prof.on then begin
    Fl_prof.Prof.enter Fl_prof.Prof.sha256;
    let r = hmac_impl ~key msg in
    Fl_prof.Prof.leave ();
    r
  end
  else hmac_impl ~key msg
