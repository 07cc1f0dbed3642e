type t = {
  hash_ns_per_byte : float;
  sign_const_ns : float;
  verify_const_ns : float;
}

let default =
  { hash_ns_per_byte = 10.0;
    sign_const_ns = 800_000.0;
    verify_const_ns = 900_000.0 }

let c5_4xlarge =
  { hash_ns_per_byte = 6.0;
    sign_const_ns = 500_000.0;
    verify_const_ns = 560_000.0 }

let hash_cost t ~bytes =
  int_of_float (t.hash_ns_per_byte *. float_of_int bytes)

let sign_cost t ~bytes =
  int_of_float ((t.hash_ns_per_byte *. float_of_int bytes) +. t.sign_const_ns)

let signatures_per_second t ~payload_bytes ~cores =
  let per_sig_ns = float_of_int (sign_cost t ~bytes:payload_bytes) in
  float_of_int cores *. 1e9 /. per_sig_ns
