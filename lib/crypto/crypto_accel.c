/* C fast paths for the per-packet crypto: the two inner loops, and
 * the ESP frame kernel built on them.
 *
 * The OCaml implementations in sha256.ml / chacha20.ml / esp_kernel.ml
 * remain the reference (validated against the RFC/FIPS vectors) and
 * the fallback; these primitives compute the exact same functions on
 * the same state layout.  SHA-256 has two compressors here: a portable
 * scalar one, and on x86-64 one built on the SHA extensions (SHA-NI),
 * chosen once by CPUID when the library loads.  All are leaf calls:
 * they allocate nothing, never release the runtime lock, keep their
 * state on the stack and touch only the buffers they are handed, so
 * they are safe as [@@noalloc] externals and from any domain.
 *
 * The block functions take state as OCaml [int array]s holding u32
 * words (tagged immediates: Long_val/Val_long, no boxing, no
 * caml_modify needed); the ESP kernel reads the SA's key block, a
 * string.  Message bytes cross as [Bytes.t] or strings.
 */

#include <stdint.h>
#include <string.h>

#include <caml/mlvalues.h>
#include <caml/memory.h>

#if defined(__x86_64__) && defined(__GNUC__)
#define RESETS_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

CAMLprim value caml_resets_crypto_accel_available(value unit)
{
  (void)unit;
  return Val_true;
}

/* ---------------- SHA-256 (FIPS 180-4) ---------------- */

static const uint32_t sha_k[64] = {
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

static inline uint32_t rotr32(uint32_t x, int n)
{
  return (x >> n) | (x << (32 - n));
}

static inline uint32_t be32(const unsigned char *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
       | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

#define S0(x) (rotr32(x, 2) ^ rotr32(x, 13) ^ rotr32(x, 22))
#define S1(x) (rotr32(x, 6) ^ rotr32(x, 11) ^ rotr32(x, 25))
#define s0(x) (rotr32(x, 7) ^ rotr32(x, 18) ^ ((x) >> 3))
#define s1(x) (rotr32(x, 17) ^ rotr32(x, 19) ^ ((x) >> 10))
#define CH(x, y, z) (((x) & (y)) ^ (~(x) & (z)))
#define MAJ(x, y, z) (((x) & (y)) ^ ((x) & (z)) ^ ((y) & (z)))

#define RND(a, b, c, d, e, f, g, h, i)                                 \
  do {                                                                 \
    uint32_t t1 = h + S1(e) + CH(e, f, g) + sha_k[i] + w[i];           \
    uint32_t t2 = S0(a) + MAJ(a, b, c);                                \
    d += t1;                                                           \
    h = t1 + t2;                                                       \
  } while (0)

/* A compressor runs [n] 64-byte blocks at [p] through the chaining
 * words [h] (a..h, in FIPS order). */
typedef void sha256_compress_fn(uint32_t h[8], const unsigned char *p,
                                long n);

static void sha256_portable(uint32_t h[8], const unsigned char *p, long n)
{
  uint32_t h0 = h[0], h1 = h[1], h2 = h[2], h3 = h[3];
  uint32_t h4 = h[4], h5 = h[5], h6 = h[6], h7 = h[7];
  for (long b = 0; b < n; b++, p += 64) {
    uint32_t w[64];
    uint32_t a = h0, bb = h1, c = h2, d = h3, e = h4, f = h5, g = h6,
             hh = h7;
    int i;
    for (i = 0; i < 16; i++) w[i] = be32(p + 4 * i);
    for (i = 16; i < 64; i++)
      w[i] = s1(w[i - 2]) + w[i - 7] + s0(w[i - 15]) + w[i - 16];
    for (i = 0; i < 64; i += 8) {
      RND(a, bb, c, d, e, f, g, hh, i);
      RND(hh, a, bb, c, d, e, f, g, i + 1);
      RND(g, hh, a, bb, c, d, e, f, i + 2);
      RND(f, g, hh, a, bb, c, d, e, i + 3);
      RND(e, f, g, hh, a, bb, c, d, i + 4);
      RND(d, e, f, g, hh, a, bb, c, i + 5);
      RND(c, d, e, f, g, hh, a, bb, i + 6);
      RND(bb, c, d, e, f, g, hh, a, i + 7);
    }
    h0 += a; h1 += bb; h2 += c; h3 += d;
    h4 += e; h5 += f; h6 += g; h7 += hh;
  }
  h[0] = h0; h[1] = h1; h[2] = h2; h[3] = h3;
  h[4] = h4; h[5] = h5; h[6] = h6; h[7] = h7;
}

#ifdef RESETS_SHA_NI
/* The SHA extensions keep the state as two vectors, ABEF and CDGH
 * (highest lane first), and run two rounds per sha256rnds2; each
 * vector of message words W[4g..4g+3] carries four rounds.
 *
 * SHA_NI_ROUNDS(g, m): rounds 4g..4g+3 on the message vector [m].
 * SHA_NI_SCHEDULE(nx, pv, cur): message vector g+1 from the four
 *   before it; [nx] already holds sha256msg1 of vectors g-3 and g-2.
 * SHA_NI_MSG1(pv, cur): the sha256msg1 half of vector g+3's
 *   schedule, run once vector g-1 ([pv]) is no longer needed. */
#define SHA_NI_ROUNDS(g, m)                                            \
  do {                                                                 \
    __m128i wk = _mm_add_epi32(                                        \
        m, _mm_loadu_si128((const __m128i *)(sha_k + 4 * (g))));       \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);                      \
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e)); \
  } while (0)
#define SHA_NI_SCHEDULE(nx, pv, cur)                                   \
  nx = _mm_sha256msg2_epu32(                                           \
      _mm_add_epi32(nx, _mm_alignr_epi8(cur, pv, 4)), cur)
#define SHA_NI_MSG1(pv, cur) pv = _mm_sha256msg1_epu32(pv, cur)

__attribute__((target("sha,sse4.1,ssse3")))
static void sha256_sha_ni(uint32_t h[8], const unsigned char *p, long n)
{
  /* byte-swap each 32-bit word: the message is big-endian */
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128((const __m128i *)h);
  __m128i hgfe = _mm_loadu_si128((const __m128i *)(h + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
  for (long b = 0; b < n; b++, p += 64) {
    __m128i abef0 = abef, cdgh0 = cdgh;
    __m128i m0 = _mm_shuffle_epi8(
        _mm_loadu_si128((const __m128i *)p), bswap);
    __m128i m1 = _mm_shuffle_epi8(
        _mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    __m128i m2 = _mm_shuffle_epi8(
        _mm_loadu_si128((const __m128i *)(p + 32)), bswap);
    __m128i m3 = _mm_shuffle_epi8(
        _mm_loadu_si128((const __m128i *)(p + 48)), bswap);
    SHA_NI_ROUNDS(0, m0);
    SHA_NI_ROUNDS(1, m1); SHA_NI_MSG1(m0, m1);
    SHA_NI_ROUNDS(2, m2); SHA_NI_MSG1(m1, m2);
    SHA_NI_ROUNDS(3, m3); SHA_NI_SCHEDULE(m0, m2, m3); SHA_NI_MSG1(m2, m3);
    for (int g = 4; g < 12; g += 4) {
      SHA_NI_ROUNDS(g, m0); SHA_NI_SCHEDULE(m1, m3, m0); SHA_NI_MSG1(m3, m0);
      SHA_NI_ROUNDS(g + 1, m1); SHA_NI_SCHEDULE(m2, m0, m1); SHA_NI_MSG1(m0, m1);
      SHA_NI_ROUNDS(g + 2, m2); SHA_NI_SCHEDULE(m3, m1, m2); SHA_NI_MSG1(m1, m2);
      SHA_NI_ROUNDS(g + 3, m3); SHA_NI_SCHEDULE(m0, m2, m3); SHA_NI_MSG1(m2, m3);
    }
    SHA_NI_ROUNDS(12, m0); SHA_NI_SCHEDULE(m1, m3, m0); SHA_NI_MSG1(m3, m0);
    SHA_NI_ROUNDS(13, m1); SHA_NI_SCHEDULE(m2, m0, m1);
    SHA_NI_ROUNDS(14, m2); SHA_NI_SCHEDULE(m3, m1, m2);
    SHA_NI_ROUNDS(15, m3);
    abef = _mm_add_epi32(abef, abef0);
    cdgh = _mm_add_epi32(cdgh, cdgh0);
  }
  __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128((__m128i *)h, _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128((__m128i *)(h + 4), _mm_alignr_epi8(dchg, feba, 8));
}

/* CPUID leaf 7 EBX bit 29 (SHA), leaf 1 ECX bits 9 (SSSE3) and 19
 * (SSE4.1): every instruction sha256_sha_ni issues. */
static int cpu_has_sha_ni(void)
{
  unsigned int a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  if (!(c & (1u << 9)) || !(c & (1u << 19))) return 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return 0;
  return (b & (1u << 29)) != 0;
}
#endif

/* Written once, before any OCaml code (and so before any domain)
 * runs; read-only afterwards. */
static sha256_compress_fn *sha256_compress = sha256_portable;

#ifdef RESETS_SHA_NI
__attribute__((constructor))
static void sha256_select(void)
{
  if (cpu_has_sha_ni()) sha256_compress = sha256_sha_ni;
}
#endif

/* Run [compress] over the OCaml-side chaining words [vh]. */
static void sha256_run(sha256_compress_fn *compress, value vh, value vdata,
                       value voff, value vn)
{
  uint32_t h[8];
  int i;
  for (i = 0; i < 8; i++) h[i] = (uint32_t)Long_val(Field(vh, i));
  compress(h, (const unsigned char *)Bytes_val(vdata) + Long_val(voff),
           Long_val(vn));
  for (i = 0; i < 8; i++) Field(vh, i) = Val_long((long)h[i]);
}

/* caml_resets_sha256_blocks h data off nblocks
 *   h: int array of 8 u32 chaining words, updated in place
 *   data: message bytes; [nblocks] 64-byte blocks starting at [off]  */
CAMLprim value caml_resets_sha256_blocks(value vh, value vdata, value voff,
                                         value vn)
{
  sha256_run(sha256_compress, vh, vdata, voff, vn);
  return Val_unit;
}

/* The portable compressor whatever the CPU offers, so tests can pin
 * it against the one [caml_resets_sha256_blocks] dispatches to. */
CAMLprim value caml_resets_sha256_blocks_portable(value vh, value vdata,
                                                  value voff, value vn)
{
  sha256_run(sha256_portable, vh, vdata, voff, vn);
  return Val_unit;
}

CAMLprim value caml_resets_sha256_sha_ni(value unit)
{
  (void)unit;
  return Val_bool(sha256_compress != sha256_portable);
}

/* ---------------- ChaCha20 (RFC 8439) ---------------- */

#define QR(a, b, c, d)                                                 \
  do {                                                                 \
    a += b; d ^= a; d = (d << 16) | (d >> 16);                         \
    c += d; b ^= c; b = (b << 12) | (b >> 20);                         \
    a += b; d ^= a; d = (d << 8) | (d >> 24);                          \
    c += d; b ^= c; b = (b << 7) | (b >> 25);                          \
  } while (0)

/* XOR the keystream of the 16-word state template [st] (constants,
 * key, nonce; word 12 is ignored), from block counter [ctr] on, into
 * [buf, buf+len). */
static void chacha20_xor(const uint32_t st[16], unsigned char *buf, long len,
                         uint32_t ctr)
{
  int i;
  while (len > 0) {
    uint32_t x0 = st[0], x1 = st[1], x2 = st[2], x3 = st[3];
    uint32_t x4 = st[4], x5 = st[5], x6 = st[6], x7 = st[7];
    uint32_t x8 = st[8], x9 = st[9], x10 = st[10], x11 = st[11];
    uint32_t x12 = ctr, x13 = st[13], x14 = st[14], x15 = st[15];
    unsigned char ks[64];
    long take = len < 64 ? len : 64;
    for (i = 0; i < 10; i++) {
      QR(x0, x4, x8, x12);
      QR(x1, x5, x9, x13);
      QR(x2, x6, x10, x14);
      QR(x3, x7, x11, x15);
      QR(x0, x5, x10, x15);
      QR(x1, x6, x11, x12);
      QR(x2, x7, x8, x13);
      QR(x3, x4, x9, x14);
    }
    {
      uint32_t out[16];
      out[0] = x0 + st[0];   out[1] = x1 + st[1];
      out[2] = x2 + st[2];   out[3] = x3 + st[3];
      out[4] = x4 + st[4];   out[5] = x5 + st[5];
      out[6] = x6 + st[6];   out[7] = x7 + st[7];
      out[8] = x8 + st[8];   out[9] = x9 + st[9];
      out[10] = x10 + st[10]; out[11] = x11 + st[11];
      out[12] = x12 + ctr;   out[13] = x13 + st[13];
      out[14] = x14 + st[14]; out[15] = x15 + st[15];
      for (i = 0; i < 16; i++) {
        ks[4 * i] = (unsigned char)(out[i] & 0xff);
        ks[4 * i + 1] = (unsigned char)((out[i] >> 8) & 0xff);
        ks[4 * i + 2] = (unsigned char)((out[i] >> 16) & 0xff);
        ks[4 * i + 3] = (unsigned char)((out[i] >> 24) & 0xff);
      }
    }
    for (i = 0; i < take; i++) buf[i] ^= ks[i];
    buf += take;
    len -= take;
    ctr++;
  }
}

/* caml_resets_chacha20_xor init buf off len counter0
 *   init: int array of 16 u32 state-template words (constants, key,
 *         nonce); word 12 is ignored — the counter is [counter0],
 *         incremented per 64-byte block.
 *   buf:  XORed with the keystream in place over [off, off+len).     */
CAMLprim value caml_resets_chacha20_xor(value vinit, value vbuf, value voff,
                                        value vlen, value vctr)
{
  uint32_t st[16];
  int i;
  for (i = 0; i < 16; i++) st[i] = (uint32_t)Long_val(Field(vinit, i));
  chacha20_xor(st, Bytes_val(vbuf) + Long_val(voff), Long_val(vlen),
               (uint32_t)Long_val(vctr));
  return Val_unit;
}

/* ---------------- The ESP frame kernel ---------------- */

/* One call seals a frame and one call opens it, over the SA's packed
 * key block (Esp_kernel.key): 100 bytes, read as little-endian u32
 * words.
 *   bytes  0-31  HMAC inner midstate: SHA-256 chaining words after
 *                the ipad key block
 *   bytes 32-63  HMAC outer midstate, after the opad key block
 *   bytes 64-95  ChaCha20 key
 *   bytes 96-99  nonce salt
 * The codec shape (Esp_kernel.shape) is an immediate: bits 0-7 the
 * header length (12: the 64-bit sequence number on the wire; 8: an
 * ESN's low half), bits 8-15 the ICV length, bit 16 ChaCha20 on.
 * The ICV is HMAC-SHA-256 over spi(4) || seq(8) || ciphertext, all
 * big-endian; the ChaCha20 nonce is salt(4) || seq(8, big-endian),
 * counter from 1.  Esp checks every bound before it calls. */

#define KB_INNER 0
#define KB_OUTER 32
#define KB_KEY 64
#define KB_SALT 96

#define SHAPE_HLEN(s) ((s) & 0xff)
#define SHAPE_ICV(s) (((s) >> 8) & 0xff)
#define SHAPE_CIPHER(s) (((s) >> 16) & 1)

static inline uint32_t le32(const unsigned char *p)
{
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16)
       | ((uint32_t)p[3] << 24);
}

static inline void put_be32(unsigned char *p, uint32_t v)
{
  p[0] = (unsigned char)(v >> 24);
  p[1] = (unsigned char)(v >> 16);
  p[2] = (unsigned char)(v >> 8);
  p[3] = (unsigned char)v;
}

/* The long header the ICV covers: spi(4) || seq(8). */
static void esp_long_header(unsigned char hdr[12], uint32_t spi, uint64_t seq)
{
  put_be32(hdr, spi);
  put_be32(hdr + 4, (uint32_t)(seq >> 32));
  put_be32(hdr + 8, (uint32_t)seq);
}

/* ChaCha20 over [buf, buf+len) under the block's key; the nonce is the
 * salt and the long header's sequence number. */
static void esp_crypt(const unsigned char *kb, const unsigned char hdr[12],
                      unsigned char *buf, long len)
{
  uint32_t st[16];
  int i;
  st[0] = 0x61707865; st[1] = 0x3320646e;
  st[2] = 0x79622d32; st[3] = 0x6b206574;
  for (i = 0; i < 8; i++) st[4 + i] = le32(kb + KB_KEY + 4 * i);
  st[12] = 0;
  st[13] = le32(kb + KB_SALT);
  st[14] = le32(hdr + 4);
  st[15] = le32(hdr + 8);
  chacha20_xor(st, buf, len, 1);
}

/* The full 32-byte HMAC-SHA-256 of hdr(12) || data[0, len), resumed
 * from the key block's midstates.  The message is hashed where it
 * lies; only the first block (the header and up to 52 data bytes) and
 * the padded tail are staged. */
static void esp_mac(const unsigned char *kb, const unsigned char hdr[12],
                    const unsigned char *data, long len, unsigned char tag[32])
{
  uint32_t h[8];
  unsigned char blk[64];
  uint64_t bits = (uint64_t)(64 + 12 + len) * 8;
  long fill, take = len < 52 ? len : 52;
  int i;
  for (i = 0; i < 8; i++) h[i] = le32(kb + KB_INNER + 4 * i);
  memcpy(blk, hdr, 12);
  memcpy(blk + 12, data, take);
  fill = 12 + take;
  data += take;
  len -= take;
  if (fill == 64) {
    long full = len / 64;
    sha256_compress(h, blk, 1);
    if (full > 0) sha256_compress(h, data, full);
    data += 64 * full;
    len -= 64 * full;
    memcpy(blk, data, len);
    fill = len;
  }
  blk[fill++] = 0x80;
  if (fill > 56) {
    memset(blk + fill, 0, 64 - fill);
    sha256_compress(h, blk, 1);
    fill = 0;
  }
  memset(blk + fill, 0, 56 - fill);
  put_be32(blk + 56, (uint32_t)(bits >> 32));
  put_be32(blk + 60, (uint32_t)bits);
  sha256_compress(h, blk, 1);
  /* the outer hash: the opad midstate, then one block holding the
   * inner digest and its padding (64 + 32 bytes = 768 bits) */
  for (i = 0; i < 8; i++) put_be32(blk + 4 * i, h[i]);
  for (i = 0; i < 8; i++) h[i] = le32(kb + KB_OUTER + 4 * i);
  blk[32] = 0x80;
  memset(blk + 33, 0, 29);
  put_be32(blk + 60, 768);
  sha256_compress(h, blk, 1);
  for (i = 0; i < 8; i++) put_be32(tag + 4 * i, h[i]);
}

/* caml_resets_esp_seal key shape spi seq payload dst off
 *   Writes the frame for [payload] at [off] in [dst]: the header, the
 *   payload encrypted in place, the ICV into the tail. */
CAMLprim value caml_resets_esp_seal(value vkey, value vshape, value vspi,
                                    value vseq, value vpayload, value vdst,
                                    value voff)
{
  const unsigned char *kb = (const unsigned char *)String_val(vkey);
  long shape = Long_val(vshape);
  long hlen = SHAPE_HLEN(shape), plen = caml_string_length(vpayload);
  unsigned char *frame = Bytes_val(vdst) + Long_val(voff);
  unsigned char *ct = frame + hlen;
  unsigned char hdr[12], tag[32];
  esp_long_header(hdr, (uint32_t)Long_val(vspi), (uint64_t)Long_val(vseq));
  /* the SPI, then all of the sequence number or its low half */
  memcpy(frame, hdr, 4);
  memcpy(frame + 4, hdr + 16 - hlen, hlen - 4);
  memmove(ct, String_val(vpayload), plen);
  if (SHAPE_CIPHER(shape)) esp_crypt(kb, hdr, ct, plen);
  esp_mac(kb, hdr, ct, plen, tag);
  memcpy(ct + plen, tag, SHAPE_ICV(shape));
  return Val_unit;
}

CAMLprim value caml_resets_esp_seal_byte(value *argv, int argn)
{
  (void)argn;
  return caml_resets_esp_seal(argv[0], argv[1], argv[2], argv[3], argv[4],
                              argv[5], argv[6]);
}

/* caml_resets_esp_unseal key shape spi seq frame off clen scratch
 *   Compares, in constant time, the ICV of the frame at [off] in
 *   [frame], whose ciphertext is [clen] bytes, with the one computed
 *   under [seq].  On a match with ChaCha20 on, decrypts the ciphertext
 *   into [scratch, scratch+clen).  Returns whether it matched. */
CAMLprim value caml_resets_esp_unseal(value vkey, value vshape, value vspi,
                                      value vseq, value vframe, value voff,
                                      value vclen, value vscratch)
{
  const unsigned char *kb = (const unsigned char *)String_val(vkey);
  long shape = Long_val(vshape), clen = Long_val(vclen);
  long icv = SHAPE_ICV(shape), i;
  const unsigned char *ct =
      (const unsigned char *)String_val(vframe) + Long_val(voff)
      + SHAPE_HLEN(shape);
  const volatile unsigned char *got = ct + clen;
  unsigned char hdr[12], tag[32], diff = 0;
  esp_long_header(hdr, (uint32_t)Long_val(vspi), (uint64_t)Long_val(vseq));
  esp_mac(kb, hdr, ct, clen, tag);
  /* no early exit: every ICV byte is compared */
  for (i = 0; i < icv; i++) diff |= tag[i] ^ got[i];
  if (diff != 0) return Val_false;
  if (SHAPE_CIPHER(shape)) {
    unsigned char *out = Bytes_val(vscratch);
    memmove(out, ct, clen);
    esp_crypt(kb, hdr, out, clen);
  }
  return Val_true;
}

CAMLprim value caml_resets_esp_unseal_byte(value *argv, int argn)
{
  (void)argn;
  return caml_resets_esp_unseal(argv[0], argv[1], argv[2], argv[3], argv[4],
                                argv[5], argv[6], argv[7]);
}
