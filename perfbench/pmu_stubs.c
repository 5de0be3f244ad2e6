/* User-mode instructions retired by the calling thread, read from a
   Linux perf_event hardware counter. */

#include <errno.h>
#include <linux/perf_event.h>
#include <string.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/mlvalues.h>

value perfbench_instructions_open(value unit)
{
  struct perf_event_attr a;
  long fd;
  (void)unit;
  memset(&a, 0, sizeof a);
  a.type = PERF_TYPE_HARDWARE;
  a.size = sizeof a;
  a.config = PERF_COUNT_HW_INSTRUCTIONS;
  a.exclude_kernel = 1;
  a.exclude_hv = 1;
  fd = syscall(SYS_perf_event_open, &a, 0, -1, -1, 0);
  if (fd < 0) caml_failwith(strerror(errno));
  return Val_long(fd);
}

value perfbench_instructions_read(value fd)
{
  unsigned long long v;
  if (read(Long_val(fd), &v, sizeof v) != sizeof v) caml_failwith("reading the instruction counter");
  return caml_copy_double((double)v);
}
