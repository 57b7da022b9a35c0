/* The SHA-256 compression function (FIPS 180-4, §6.2.2) behind
   Sha256's [@@noalloc] externals. Padding, buffering and framing stay in
   sha256.ml; this file only folds one 64-byte block into the 8-word
   state, which the OCaml side keeps as an [int array] of words below
   2^32.

   Two kernels compute the same function: a portable C one, and on x86-64
   one on the SHA extensions (SHA-NI). brdb_sha256_select, run once when
   the Sha256 module initialises, reads CPUID and picks SHA-NI when the CPU
   has SHA, SSSE3 and SSE4.1; every other CPU and every non-x86 build runs
   the portable kernel. Nothing else chooses the path.

   The stubs neither allocate nor release the runtime lock and never call
   back into OCaml, which is what [@@noalloc] requires (tools/lint.sh
   holds this file to it). */

#include <stdint.h>
#include <caml/mlvalues.h>

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
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

typedef void (*kernel_fn)(uint32_t s[8], const unsigned char *p);

/* ---- Portable kernel ---------------------------------------------- */

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static inline uint32_t load_be32(const unsigned char *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
       | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

static void compress_portable(uint32_t s[8], const unsigned char *p)
{
  uint32_t w[64];
  int i;
  for (i = 0; i < 16; i++) w[i] = load_be32(p + 4 * i);
  for (i = 16; i < 64; i++) {
    uint32_t x = w[i - 15], y = w[i - 2];
    uint32_t s0 = ROTR(x, 7) ^ ROTR(x, 18) ^ (x >> 3);
    uint32_t s1 = ROTR(y, 17) ^ ROTR(y, 19) ^ (y >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  uint32_t a = s[0], b = s[1], c = s[2], d = s[3];
  uint32_t e = s[4], f = s[5], g = s[6], h = s[7];
  for (i = 0; i < 64; i++) {
    uint32_t t1 = h + (ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25))
                + (g ^ (e & (f ^ g))) + K[i] + w[i];
    uint32_t t2 = (ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22))
                + ((a & b) | (c & (a | b)));
    h = g; g = f; f = e; e = d + t1;
    d = c; c = b; b = a; a = t1 + t2;
  }
  s[0] += a; s[1] += b; s[2] += c; s[3] += d;
  s[4] += e; s[5] += f; s[6] += g; s[7] += h;
}

static kernel_fn kernel = compress_portable;

/* ---- SHA-NI kernel (x86-64) --------------------------------------- */

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#include <immintrin.h>

/* Four rounds on message words M (of group g, 0-15): sha256rnds2 does two
   rounds on the low 64 bits of its third operand, so the sum with K is
   shifted down for the second pair. */
#define SHANI_QROUND(M, g)                                                  \
  do {                                                                      \
    msg = _mm_add_epi32(M, _mm_loadu_si128((const __m128i *)&K[4 * (g)]));  \
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);                             \
    msg = _mm_shuffle_epi32(msg, 0x0e);                                     \
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);                             \
  } while (0)

/* Schedule: NEXT += alignr(CUR, PREV) then sha256msg2 with CUR gives the
   group after CUR; PREV's sha256msg1 with CUR starts the one after that. */
#define SHANI_MSG2(NEXT, CUR, PREV)                                         \
  NEXT = _mm_sha256msg2_epu32(                                              \
      _mm_add_epi32(NEXT, _mm_alignr_epi8(CUR, PREV, 4)), CUR)
#define SHANI_MSG1(PREV, CUR) PREV = _mm_sha256msg1_epu32(PREV, CUR)

__attribute__((target("sha,ssse3,sse4.1")))
static void compress_shani(uint32_t s[8], const unsigned char *p)
{
  /* Byte-swaps each 32-bit lane: the message words are big-endian. */
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i st0, st1, msg, tmp, m0, m1, m2, m3, abef, cdgh;

  /* sha256rnds2 keeps the state as ABEF and CDGH. */
  tmp = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&s[0]), 0xb1);
  st1 = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&s[4]), 0x1b);
  st0 = _mm_alignr_epi8(tmp, st1, 8);
  st1 = _mm_blend_epi16(st1, tmp, 0xf0);
  abef = st0;
  cdgh = st1;

  m0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 0)), bswap);
  m1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
  m2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
  m3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);

  SHANI_QROUND(m0, 0);
  SHANI_QROUND(m1, 1);  SHANI_MSG1(m0, m1);
  SHANI_QROUND(m2, 2);  SHANI_MSG1(m1, m2);
  SHANI_QROUND(m3, 3);  SHANI_MSG2(m0, m3, m2); SHANI_MSG1(m2, m3);
  SHANI_QROUND(m0, 4);  SHANI_MSG2(m1, m0, m3); SHANI_MSG1(m3, m0);
  SHANI_QROUND(m1, 5);  SHANI_MSG2(m2, m1, m0); SHANI_MSG1(m0, m1);
  SHANI_QROUND(m2, 6);  SHANI_MSG2(m3, m2, m1); SHANI_MSG1(m1, m2);
  SHANI_QROUND(m3, 7);  SHANI_MSG2(m0, m3, m2); SHANI_MSG1(m2, m3);
  SHANI_QROUND(m0, 8);  SHANI_MSG2(m1, m0, m3); SHANI_MSG1(m3, m0);
  SHANI_QROUND(m1, 9);  SHANI_MSG2(m2, m1, m0); SHANI_MSG1(m0, m1);
  SHANI_QROUND(m2, 10); SHANI_MSG2(m3, m2, m1); SHANI_MSG1(m1, m2);
  SHANI_QROUND(m3, 11); SHANI_MSG2(m0, m3, m2); SHANI_MSG1(m2, m3);
  SHANI_QROUND(m0, 12); SHANI_MSG2(m1, m0, m3); SHANI_MSG1(m3, m0);
  SHANI_QROUND(m1, 13); SHANI_MSG2(m2, m1, m0);
  SHANI_QROUND(m2, 14); SHANI_MSG2(m3, m2, m1);
  SHANI_QROUND(m3, 15);

  st0 = _mm_add_epi32(st0, abef);
  st1 = _mm_add_epi32(st1, cdgh);

  /* Back from ABEF/CDGH to ABCD/EFGH. */
  tmp = _mm_shuffle_epi32(st0, 0x1b);
  st1 = _mm_shuffle_epi32(st1, 0xb1);
  _mm_storeu_si128((__m128i *)&s[0], _mm_blend_epi16(tmp, st1, 0xf0));
  _mm_storeu_si128((__m128i *)&s[4], _mm_alignr_epi8(st1, tmp, 8));
}

static int cpu_has_shani(void)
{
  unsigned int a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  /* Leaf 1 ECX: bit 9 SSSE3, bit 19 SSE4.1. */
  if (!(c & (1u << 9)) || !(c & (1u << 19))) return 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return 0;
  /* Leaf 7 EBX: bit 29 SHA. */
  return (b >> 29) & 1;
}
#endif

/* ---- OCaml entry points ------------------------------------------- */

value brdb_sha256_select(value unit)
{
  (void)unit;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (cpu_has_shani()) kernel = compress_shani;
#endif
  return Val_unit;
}

/* The state words move between the OCaml array and a C array around the
   kernel; every stored word is an immediate below 2^32, so no write
   barrier is needed. The caller guarantees [off + 64 <= length]. */
static value compress_with(kernel_fn f, value h, value block, value off)
{
  uint32_t s[8];
  int i;
  for (i = 0; i < 8; i++) s[i] = (uint32_t)Long_val(Field(h, i));
  f(s, (const unsigned char *)Bytes_val(block) + Long_val(off));
  for (i = 0; i < 8; i++) Field(h, i) = Val_long(s[i]);
  return Val_unit;
}

value brdb_sha256_compress(value h, value block, value off)
{
  return compress_with(kernel, h, block, off);
}

value brdb_sha256_compress_portable(value h, value block, value off)
{
  return compress_with(compress_portable, h, block, off);
}
