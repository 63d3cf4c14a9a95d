/* getrusage(RUSAGE_CHILDREN)'s peak resident set, which the OCaml
   standard library does not expose. */

#include <sys/resource.h>
#include <caml/mlvalues.h>

value perfbench_children_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_CHILDREN, &ru) != 0) return Val_long(-1);
  return Val_long(ru.ru_maxrss);
}
