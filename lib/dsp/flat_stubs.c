/* Row copies between flat spectrum buffers (float64 Bigarrays): one
   memmove, no allocation. The OCaml side (Flat.blit) checks every
   range before the call. */

#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

value simq_flat_blit(value src, value pos, value dst, value off, value len)
{
  double *s = (double *) Caml_ba_data_val(src);
  double *d = (double *) Caml_ba_data_val(dst);
  memmove(d + Long_val(off), s + Long_val(pos),
          (size_t) Long_val(len) * sizeof(double));
  return Val_unit;
}
