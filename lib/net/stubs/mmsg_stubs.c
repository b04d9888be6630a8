/* recvmmsg/sendmmsg batched datagram I/O, with UDP segmentation
 * offload on both ends.
 *
 * One syscall moves up to RESETS_MAX_BATCH datagrams between the
 * kernel and a pre-registered ring of OCaml [Bytes.t] buffers (the
 * frame arena owned by Batch_io). The socket is nonblocking and the
 * calls never release the runtime lock, so holding direct pointers
 * into the OCaml heap across the syscall is safe: no allocation, no
 * GC, no other mutator can run.
 *
 * A send message is a run of frames (Batch_io.group_runs): one frame
 * goes out as a plain datagram, two or more as one UDP_SEGMENT (GSO)
 * message whose segment size is the run's first length, so the kernel
 * cuts it back into exactly those frames. A receive slot reports the
 * UDP_GRO segment size of a datagram the kernel coalesced.
 *
 * Outside Linux the primitives compile to "unavailable" stubs and
 * Batch_io routes everything through the portable one-syscall-per-
 * frame Unix fallback instead — same observable frame stream, just
 * slower. Where the headers lack UDP_SEGMENT or UDP_GRO, the probes
 * report them off and every send message is one frame.
 *
 * Error discipline mirrors Transport_udp: EINTR retries in place;
 * ECONNREFUSED on receive (deferred ICMP from an earlier send to a
 * dead peer) retries in place, it is not an arriving frame; EAGAIN
 * means "ring drained"/"kernel buffer full". A send refused for a
 * destination-shaped reason (dead peer, unreachable, oversized)
 * returns the count already sent — the unsent tail is the caller's
 * tx_errors, i.e. channel loss, never an exception.
 */

#define _GNU_SOURCE

#include <errno.h>
#include <stdint.h>
#include <string.h>

#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/fail.h>

#define RESETS_MAX_BATCH 64

#ifdef __linux__

#include <sys/types.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <netinet/udp.h>
#include <arpa/inet.h>
#include <sys/un.h>
#include <caml/unixsupport.h>

CAMLprim value caml_resets_mmsg_available(value unit)
{
  (void)unit;
  return Val_true;
}

/* caml_resets_gso_probe fd: whether the kernel takes UDP_SEGMENT
 * messages on [fd] (Linux >= 4.18; a unix socket never does). */
CAMLprim value caml_resets_gso_probe(value vfd)
{
#ifdef UDP_SEGMENT
  int v = 0;
  socklen_t len = sizeof v;
  return Val_bool(getsockopt(Int_val(vfd), IPPROTO_UDP, UDP_SEGMENT, &v,
                             &len) == 0);
#else
  (void)vfd;
  return Val_false;
#endif
}

/* caml_resets_gro_enable fd: turn UDP_GRO on for [fd] (Linux >= 5.0);
 * whether it is on. */
CAMLprim value caml_resets_gro_enable(value vfd)
{
#ifdef UDP_GRO
  int one = 1;
  return Val_bool(setsockopt(Int_val(vfd), IPPROTO_UDP, UDP_GRO, &one,
                             sizeof one) == 0);
#else
  (void)vfd;
  return Val_false;
#endif
}

/* caml_resets_recvmmsg fd bufs lens segs count
 *   Receive up to [count] datagrams into bufs[0..count-1]; write each
 *   datagram's length into lens[i] (-1 if it was truncated to the
 *   buffer, MSG_TRUNC, or its control data was, MSG_CTRUNC: a
 *   coalesced datagram without its segment size cannot be split) and
 *   its UDP_GRO segment size into segs[i] (0 when the kernel did not
 *   coalesce it). Returns the number received, or -1 when nothing is
 *   queued. */
CAMLprim value caml_resets_recvmmsg(value vfd, value vbufs, value vlens,
                                    value vsegs, value vcount)
{
  struct mmsghdr msgs[RESETS_MAX_BATCH];
  struct iovec iovs[RESETS_MAX_BATCH];
  union {
    char buf[CMSG_SPACE(sizeof(int))];
    struct cmsghdr align;
  } ctrl[RESETS_MAX_BATCH];
  long count = Long_val(vcount);
  int n, i;
  if (count > RESETS_MAX_BATCH) count = RESETS_MAX_BATCH;
  if (count <= 0) return Val_long(0);
  for (i = 0; i < count; i++) {
    value b = Field(vbufs, i);
    iovs[i].iov_base = Bytes_val(b);
    iovs[i].iov_len = caml_string_length(b);
    memset(&msgs[i].msg_hdr, 0, sizeof(struct msghdr));
    msgs[i].msg_hdr.msg_iov = &iovs[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
    msgs[i].msg_hdr.msg_control = ctrl[i].buf;
    msgs[i].msg_hdr.msg_controllen = sizeof ctrl[i].buf;
  }
  for (;;) {
    n = recvmmsg(Int_val(vfd), msgs, (unsigned int)count, MSG_DONTWAIT, NULL);
    if (n >= 0) break;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Val_long(-1);
    if (errno == EINTR || errno == ECONNREFUSED) continue;
    caml_uerror("recvmmsg", Nothing);
  }
  for (i = 0; i < n; i++) {
    long len = (long)msgs[i].msg_len;
    int seg = 0;
    if (msgs[i].msg_hdr.msg_flags & (MSG_TRUNC | MSG_CTRUNC)) len = -1;
#ifdef UDP_GRO
    else {
      struct cmsghdr *c;
      for (c = CMSG_FIRSTHDR(&msgs[i].msg_hdr); c != NULL;
           c = CMSG_NXTHDR(&msgs[i].msg_hdr, c))
        if (c->cmsg_level == IPPROTO_UDP && c->cmsg_type == UDP_GRO)
          memcpy(&seg, CMSG_DATA(c), sizeof seg);
    }
#endif
    Field(vlens, i) = Val_long(len);
    Field(vsegs, i) = Val_long(seg);
  }
  return Val_long(n);
}

/* Destination: OCaml Batch_io.dest, tag 0 = Inet (numeric host, port),
 * tag 1 = Unix_path path. Built here with inet_pton so the hot path
 * never touches the (allocating) Unix.sockaddr representation. */
static socklen_t build_sockaddr(value vdest, struct sockaddr_storage *ss)
{
  memset(ss, 0, sizeof *ss);
  if (Tag_val(vdest) == 0) {
    const char *host = String_val(Field(vdest, 0));
    int port = Int_val(Field(vdest, 1));
    struct sockaddr_in *sin = (struct sockaddr_in *)ss;
    struct sockaddr_in6 *sin6 = (struct sockaddr_in6 *)ss;
    if (inet_pton(AF_INET, host, &sin->sin_addr) == 1) {
      sin->sin_family = AF_INET;
      sin->sin_port = htons((unsigned short)port);
      return (socklen_t)sizeof *sin;
    }
    if (inet_pton(AF_INET6, host, &sin6->sin6_addr) == 1) {
      sin6->sin6_family = AF_INET6;
      sin6->sin6_port = htons((unsigned short)port);
      return (socklen_t)sizeof *sin6;
    }
    caml_invalid_argument("Batch_io.send_batch: host is not a numeric address");
  } else {
    struct sockaddr_un *sun = (struct sockaddr_un *)ss;
    mlsize_t plen = caml_string_length(Field(vdest, 0));
    if (plen >= sizeof sun->sun_path)
      caml_invalid_argument("Batch_io.send_batch: unix socket path too long");
    sun->sun_family = AF_UNIX;
    memcpy(sun->sun_path, String_val(Field(vdest, 0)), plen + 1);
    return (socklen_t)sizeof *sun;
  }
}

/* caml_resets_sendmmsg fd dest bufs lens firsts nmsgs
 *   Send [nmsgs] messages to [dest]: message k carries frames
 *   firsts[k] .. firsts[k+1]-1 (bufs[i][0..lens[i])), as a plain
 *   datagram when that is one frame and as one UDP_SEGMENT message of
 *   segment size lens[firsts[k]] when it is more. Returns how many
 *   messages the kernel accepted (0..nmsgs); the unsent tail — would-
 *   block, dead peer, unreachable — is the caller's per-frame loss
 *   accounting. When a partial completion stops at a GSO message the
 *   send resumes there, which is how its error is learnt; when the
 *   kernel refuses a GSO message as such (EIO: no checksum offload or
 *   an xfrm route; EINVAL or EMSGSIZE: a segment the path cannot
 *   carry), returns -1 - m, m being the messages accepted before it.
 *   Raises only on errors that are not destination-shaped (e.g.
 *   EBADF). */
CAMLprim value caml_resets_sendmmsg(value vfd, value vdest, value vbufs,
                                    value vlens, value vfirsts, value vnmsgs)
{
  struct mmsghdr msgs[RESETS_MAX_BATCH];
  struct iovec iovs[RESETS_MAX_BATCH];
  union {
    char buf[CMSG_SPACE(sizeof(uint16_t))];
    struct cmsghdr align;
  } ctrl[RESETS_MAX_BATCH];
  struct sockaddr_storage ss;
  socklen_t slen = build_sockaddr(vdest, &ss);
  long nmsgs = Long_val(vnmsgs);
  long nbufs = (long)Wosize_val(vbufs);
  long k, i, m;
  int n;
  if (nmsgs <= 0) return Val_long(0);
  if (nmsgs > RESETS_MAX_BATCH || nbufs > RESETS_MAX_BATCH ||
      (long)Wosize_val(vfirsts) <= nmsgs || Long_val(Field(vfirsts, 0)) < 0 ||
      Long_val(Field(vfirsts, nmsgs)) > nbufs)
    caml_invalid_argument("Batch_io.send_batch: runs outside the ring");
  for (k = 0; k < nmsgs; k++) {
    long first = Long_val(Field(vfirsts, k));
    long next = Long_val(Field(vfirsts, k + 1));
    struct msghdr *h = &msgs[k].msg_hdr;
    if (next <= first)
      caml_invalid_argument("Batch_io.send_batch: empty run");
    for (i = first; i < next; i++) {
      iovs[i].iov_base = Bytes_val(Field(vbufs, i));
      iovs[i].iov_len = (size_t)Long_val(Field(vlens, i));
    }
    memset(h, 0, sizeof(struct msghdr));
    h->msg_iov = &iovs[first];
    h->msg_iovlen = (size_t)(next - first);
    h->msg_name = &ss;
    h->msg_namelen = slen;
    if (next - first > 1) {
#ifdef UDP_SEGMENT
      struct cmsghdr *c;
      uint16_t seg = (uint16_t)iovs[first].iov_len;
      h->msg_control = ctrl[k].buf;
      h->msg_controllen = sizeof ctrl[k].buf;
      c = CMSG_FIRSTHDR(h);
      c->cmsg_level = IPPROTO_UDP;
      c->cmsg_type = UDP_SEGMENT;
      c->cmsg_len = CMSG_LEN(sizeof seg);
      memcpy(CMSG_DATA(c), &seg, sizeof seg);
#else
      caml_invalid_argument("Batch_io.send_batch: no UDP_SEGMENT here");
#endif
    }
  }
  /* A message is GSO when it carries a control buffer; sendmmsg does
     not write msg_hdr back. */
#define IS_GSO(k) (msgs[k].msg_hdr.msg_controllen != 0)
  m = 0;
  for (;;) {
    n = sendmmsg(Int_val(vfd), msgs + m, (unsigned int)(nmsgs - m), 0);
    if (n > 0) {
      m += n;
      if (m < nmsgs && IS_GSO(m)) continue;
      return Val_long(m);
    }
    if (n == 0) return Val_long(m);
    if (errno == EINTR) continue;
    if (IS_GSO(m) &&
        (errno == EIO || errno == EINVAL || errno == EMSGSIZE))
      return Val_long(-1 - m);
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNREFUSED ||
        errno == ENOENT || errno == ENOTCONN || errno == EHOSTUNREACH ||
        errno == ENETUNREACH || errno == ENETDOWN || errno == EMSGSIZE ||
        errno == EPERM || errno == EACCES || errno == ENOBUFS)
      return Val_long(m);
    caml_uerror("sendmmsg", Nothing);
  }
#undef IS_GSO
}

#else /* !__linux__ */

CAMLprim value caml_resets_mmsg_available(value unit)
{
  (void)unit;
  return Val_false;
}

CAMLprim value caml_resets_gso_probe(value vfd)
{
  (void)vfd;
  return Val_false;
}

CAMLprim value caml_resets_gro_enable(value vfd)
{
  (void)vfd;
  return Val_false;
}

CAMLprim value caml_resets_recvmmsg(value vfd, value vbufs, value vlens,
                                    value vsegs, value vcount)
{
  (void)vfd; (void)vbufs; (void)vlens; (void)vsegs; (void)vcount;
  caml_failwith("Batch_io: recvmmsg not available on this platform");
}

CAMLprim value caml_resets_sendmmsg(value vfd, value vdest, value vbufs,
                                    value vlens, value vfirsts, value vnmsgs)
{
  (void)vfd; (void)vdest; (void)vbufs; (void)vlens; (void)vfirsts;
  (void)vnmsgs;
  caml_failwith("Batch_io: sendmmsg not available on this platform");
}

#endif

/* Bytecode entry for the six-argument send. */
CAMLprim value caml_resets_sendmmsg_byte(value *argv, int argn)
{
  (void)argn;
  return caml_resets_sendmmsg(argv[0], argv[1], argv[2], argv[3], argv[4],
                              argv[5]);
}
