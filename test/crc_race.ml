(* Regression for a first-use race on the CRC-32 tables: three domains
   plus the main one compute a checksum at the same instant, before
   anything else in the process has touched Fl_wire.Crc32. Sweeps
   shard runs over domains, so the first frame each domain seals can
   land exactly like this. A lazily built table raised
   [CamlinternalLazy.Undefined] here in a large share of fresh
   processes; the runtest rule therefore runs this program several
   times, each in a new process. *)

let domains = 4

let () =
  let ready = Atomic.make 0 in
  let go () =
    Atomic.incr ready;
    while Atomic.get ready < domains do
      Domain.cpu_relax ()
    done;
    Fl_wire.Crc32.digest_int "123456789"
  in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn go) in
  let mine = go () in
  List.iter (fun d -> assert (Domain.join d = mine)) others;
  (* the standard CRC-32 check value *)
  assert (mine = 0xCBF43926)
