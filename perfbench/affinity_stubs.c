/* CPU affinity for the benchmark: which CPUs this process may run on,
   and pinning it (and every process it forks later) to some of them. */
#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/alloc.h>

/* The CPUs this process may run on, in increasing order. */
value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal2(list, cell);
  cpu_set_t set;
  list = Val_emptylist;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = CPU_SETSIZE - 1; c >= 0; c--) {
      if (CPU_ISSET(c, &set)) {
        cell = caml_alloc(2, 0);
        Store_field(cell, 0, Val_int(c));
        Store_field(cell, 1, list);
        list = cell;
      }
    }
  }
  CAMLreturn(list);
}

/* Restrict this process to the CPUs in the list; false on failure. */
value perfbench_pin_cpus(value cpus)
{
  CAMLparam1(cpus);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (value l = cpus; l != Val_emptylist; l = Field(l, 1)) {
    int c = Int_val(Field(l, 0));
    if (c >= 0 && c < CPU_SETSIZE) CPU_SET(c, &set);
  }
  CAMLreturn(Val_bool(sched_setaffinity(0, sizeof set, &set) == 0));
}
