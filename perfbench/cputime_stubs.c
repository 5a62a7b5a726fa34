/* CPU time consumed by the calling thread (an OCaml domain), in
   seconds: unlike wall time, it does not grow while the host runs
   another guest's vCPU instead of ours. */
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

value perfbench_thread_cputime(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
