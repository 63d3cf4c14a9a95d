/* The one verification kernel of simq's files, and copies between
   word buffers (float64 Bigarrays) and bytes. No function here
   allocates; the OCaml side (Words) checks every range first. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#include <caml/alloc.h>

/* For a fixed state a bijection of the word, and for a fixed word a
   bijection of the state (xorshift, odd multiplies, a rotation). */
static inline uint64_t mix(uint64_t h, uint64_t w)
{
  w = (w ^ (w >> 29)) * UINT64_C(0xbf58476d1ce4e5b9);
  h ^= w;
  h = (h << 27) | (h >> 37);
  return h * UINT64_C(0x94d049bb133111eb);
}

#define EXPONENT UINT64_C(0x7ff0000000000000)

static inline uint64_t load(const unsigned char *p)
{
  uint64_t w;
  memcpy(&w, p, sizeof w);
  return w;
}

/* The state is five words: the four lanes, then the number of words
   absorbed so far. Word [c] of the stream goes to lane [c mod 4].
   Returns whether every word absorbed by this call is a finite double
   (all-ones exponents are the infinities and NaNs). */
static int absorb(unsigned char *state, const unsigned char *p, intnat len)
{
  uint64_t h[4], c, bad = 0, w;
  intnat i = 0;
  memcpy(h, state, sizeof h);
  memcpy(&c, state + 32, sizeof c);
  for (; i < len && (c & 3) != 0; i++, c++) {
    w = load(p + 8 * i);
    bad |= (~w & EXPONENT) == 0;
    h[c & 3] = mix(h[c & 3], w);
  }
  {
    uint64_t h0 = h[0], h1 = h[1], h2 = h[2], h3 = h[3];
    for (; i + 4 <= len; i += 4, c += 4) {
      uint64_t w0 = load(p + 8 * i), w1 = load(p + 8 * i + 8),
               w2 = load(p + 8 * i + 16), w3 = load(p + 8 * i + 24);
      bad |= ((~w0 & EXPONENT) == 0) | ((~w1 & EXPONENT) == 0)
             | ((~w2 & EXPONENT) == 0) | ((~w3 & EXPONENT) == 0);
      h0 = mix(h0, w0);
      h1 = mix(h1, w1);
      h2 = mix(h2, w2);
      h3 = mix(h3, w3);
    }
    h[0] = h0; h[1] = h1; h[2] = h2; h[3] = h3;
  }
  for (; i < len; i++, c++) {
    w = load(p + 8 * i);
    bad |= (~w & EXPONENT) == 0;
    h[c & 3] = mix(h[c & 3], w);
  }
  memcpy(state, h, sizeof h);
  memcpy(state + 32, &c, sizeof c);
  return bad == 0;
}

value simq_words_absorb(value state, value buf, value pos, value len)
{
  const unsigned char *p = (const unsigned char *) Caml_ba_data_val(buf);
  return Val_bool(absorb(Bytes_val(state), p + 8 * Long_val(pos),
                         Long_val(len)));
}

value simq_words_absorb_bytes(value state, value b, value pos, value len)
{
  return Val_bool(absorb(Bytes_val(state), Bytes_val(b) + 8 * Long_val(pos),
                         Long_val(len)));
}

/* The lanes folded by [mix] from the seed in lane order, then the
   word count. */
int64_t simq_words_sum(value state)
{
  uint64_t h[4], c, s;
  memcpy(h, Bytes_val(state), sizeof h);
  memcpy(&c, Bytes_val(state) + 32, sizeof c);
  s = UINT64_C(0x9e3779b97f4a7c15);
  s = mix(s, h[0]);
  s = mix(s, h[1]);
  s = mix(s, h[2]);
  s = mix(s, h[3]);
  return (int64_t) mix(s, c);
}

value simq_words_sum_byte(value state)
{
  return caml_copy_int64(simq_words_sum(state));
}

value simq_words_to_bytes(value buf, value pos, value b, value off, value len)
{
  memcpy(Bytes_val(b) + Long_val(off),
         (const unsigned char *) Caml_ba_data_val(buf) + Long_val(pos),
         (size_t) Long_val(len));
  return Val_unit;
}
