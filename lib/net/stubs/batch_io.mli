(** Batched datagram I/O: recvmmsg/sendmmsg over a pooled frame arena,
    with a portable one-syscall-per-frame fallback.

    A {!ring} owns [batch] pre-allocated 64 KiB frame buffers and a
    parallel length array — allocated once, reused for every batch, so
    the steady-state rx/tx path allocates nothing. On Linux the ring
    doubles as the iovec registration for a single [recvmmsg] /
    [sendmmsg] syscall per batch (see [mmsg_stubs.c]); elsewhere — or
    under [RESETS_NO_MMSG=1] / {!force_fallback}, which the
    differential tests use — the same ring is walked with one
    [Unix.recv]/[Unix.sendto] per frame. Both paths deliver the same
    frame stream with the same counts in the same order.

    Loss discipline matches {!Transport_udp}: a refused send (dead
    peer, full buffers) terminates the batch and the unsent tail is
    the caller's [tx_errors] — channel loss, never an exception. *)

type dest =
  | Inet of string * int
      (** Numeric IPv4/IPv6 address (no name resolution here) + port. *)
  | Unix_path of string  (** Filesystem datagram socket path. *)

val max_batch : int
(** Hard per-syscall batch ceiling (mirrors the C stubs' stack arrays). *)

val default_batch : int
(** Default batch size (32) used by {!Transport_udp} and the daemon. *)

val frame_size : int
(** Per-slot buffer size; covers the largest possible UDP datagram, so
    no frame is ever truncated. *)

val mmsg_available : unit -> bool
(** Whether the mmsg syscalls were compiled in (Linux). *)

val using_mmsg : unit -> bool
(** Whether batches currently go through the mmsg stubs. *)

val force_fallback : bool -> unit
(** [force_fallback true] routes everything through the portable path
    even when mmsg is available; used by the stub-vs-fallback
    differential tests. [RESETS_NO_MMSG=1] in the environment does the
    same at startup. *)

type ring = {
  bufs : Bytes.t array;  (** [batch] buffers of {!frame_size} bytes. *)
  lens : int array;  (** Per-slot frame length for the current batch. *)
  batch : int;
}

val ring : int -> ring
(** [ring batch] allocates the arena. @raise Invalid_argument unless
    [1 <= batch <= max_batch]. *)

val dest_of_sockaddr : Unix.sockaddr -> dest

val recv_batch : Unix.file_descr -> ring -> count:int -> int
(** Pull up to [count] queued datagrams into the ring; returns how
    many arrived (0 when the socket would block). [lens.(i)] is each
    frame's byte length — 0 for a valid empty datagram (counted, not a
    poll terminator), or -1 for a kernel-truncated frame (mmsg path
    only; impossible at {!frame_size}). *)

val send_batch : Unix.file_descr -> ring -> dest:dest -> count:int -> int
(** Send the first [count] ring slots as datagrams to [dest]; returns
    how many the kernel accepted. Stops at the first refusal; the tail
    is the caller's loss accounting. *)
