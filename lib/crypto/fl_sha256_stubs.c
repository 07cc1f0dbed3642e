/* SHA-256 compression kernel (FIPS 180-4, section 6.2.2).

   The OCaml side (sha256.ml) does buffering, padding and the
   digest layout; this stub only runs the compression function over
   whole 64-byte blocks. The chaining state lives in the caller's
   8-word OCaml int array (each word an immediate holding a 32-bit
   value), so the stub is reentrant: no static mutable state, safe to
   call from several domains at once. It neither allocates nor raises
   and is declared [@@noalloc]; the OCaml side has already checked the
   byte range. */

#include <caml/mlvalues.h>
#include <stdint.h>

static const uint32_t K[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static void compress(uint32_t s[8], const unsigned char *p)
{
  uint32_t w[64];
  for (int i = 0; i < 16; i++, p += 4)
    w[i] = ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
           | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
  for (int i = 16; i < 64; i++) {
    uint32_t x = w[i - 15], y = w[i - 2];
    uint32_t s0 = ROTR(x, 7) ^ ROTR(x, 18) ^ (x >> 3);
    uint32_t s1 = ROTR(y, 17) ^ ROTR(y, 19) ^ (y >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  uint32_t a = s[0], b = s[1], c = s[2], d = s[3];
  uint32_t e = s[4], f = s[5], g = s[6], h = s[7];
  for (int i = 0; i < 64; i++) {
    uint32_t t1 = h + (ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25))
                  + ((e & f) ^ (~e & g)) + K[i] + w[i];
    uint32_t t2 = (ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22))
                  + ((a & b) ^ (a & c) ^ (b & c));
    h = g; g = f; f = e; e = d + t1;
    d = c; c = b; b = a; a = t1 + t2;
  }
  s[0] += a; s[1] += b; s[2] += c; s[3] += d;
  s[4] += e; s[5] += f; s[6] += g; s[7] += h;
}

/* compress_blocks h buf off nblocks: absorb the [nblocks] 64-byte
   blocks of [buf] starting at byte [off] into the state [h]. */
value fl_sha256_compress_blocks(value h, value buf, value off, value nblocks)
{
  uint32_t s[8];
  const unsigned char *p = Bytes_val(buf) + Long_val(off);
  for (int i = 0; i < 8; i++) s[i] = (uint32_t)Long_val(Field(h, i));
  for (intnat n = Long_val(nblocks); n > 0; n--, p += 64) compress(s, p);
  /* Immediates need no write barrier. */
  for (int i = 0; i < 8; i++) Field(h, i) = Val_long(s[i]);
  return Val_unit;
}
