/* Test-only socket option for test_net: SO_NO_CHECK (no UDP checksum on
 * send) makes the kernel refuse a UDP_SEGMENT message with EINVAL, which
 * is how the suite reaches Batch_io's GSO refusal path without root. */

#include <caml/mlvalues.h>

#ifdef __linux__
#include <sys/socket.h>

CAMLprim value test_net_set_no_check(value vfd)
{
  int one = 1;
  return Val_bool(setsockopt(Int_val(vfd), SOL_SOCKET, SO_NO_CHECK, &one,
                             sizeof one) == 0);
}
#else
CAMLprim value test_net_set_no_check(value vfd)
{
  (void)vfd;
  return Val_false;
}
#endif
