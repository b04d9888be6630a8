(** Batched datagram I/O: recvmmsg/sendmmsg over a pooled frame arena,
    with UDP segmentation offload on both ends and a portable
    one-syscall-per-frame fallback.

    A {!ring} owns [batch] pre-allocated 64 KiB frame buffers and
    parallel length arrays — allocated once, reused for every batch, so
    the steady-state rx/tx path allocates nothing. On Linux the ring
    doubles as the iovec registration for a single [recvmmsg] /
    [sendmmsg] syscall per batch (see [mmsg_stubs.c]); elsewhere — or
    under [RESETS_NO_MMSG=1] / {!force_fallback}, which the
    differential tests use — the same ring is walked with one
    [Unix.recv]/[Unix.sendto] per frame. Both paths deliver the same
    frame stream with the same counts in the same order.

    {b Segmentation offload.} A ring whose socket takes it ({!enable_gso},
    {!enable_gro}: UDP sockets on the mmsg path only, detected at build
    time and probed on the socket at run time; [UDP_SEGMENT] needs
    Linux >= 4.18, [UDP_GRO] Linux >= 5.0) moves one kernel datagram
    per run of frames instead of one per frame. Sending, each run of
    {!group_runs} goes out as one [UDP_SEGMENT] message inside the
    batch's one [sendmmsg], and the kernel cuts it back into exactly
    those frames. Receiving, a datagram the kernel coalesced reports
    its segment size in [segs]; the caller splits it. A GSO
    message the kernel refuses as such ([EIO]: no checksum offload or
    an xfrm route; [EINVAL]/[EMSGSIZE]: a segment the path cannot
    carry) turns GSO off for the ring, and its frames go again as
    plain datagrams. Unix-dgram sockets and the portable path keep one
    datagram per frame.

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

val max_run_frames : int
(** Frames in one GSO run at most (64). *)

val max_run_bytes : int
(** Bytes in one GSO run at most (65,507: an IPv4 UDP payload). *)

val mmsg_available : unit -> bool
(** Whether the mmsg syscalls were compiled in (Linux). *)

val using_mmsg : unit -> bool
(** Whether rings made now go through the mmsg stubs. *)

val force_fallback : bool -> unit
(** [force_fallback true] routes every ring made afterwards through the
    portable path even when mmsg is available; used by the
    stub-vs-fallback differential tests. [RESETS_NO_MMSG=1] in the
    environment does the same at startup. A ring keeps the path it was
    made on. *)

type ring = private {
  bufs : Bytes.t array;  (** [batch] buffers of {!frame_size} bytes. *)
  lens : int array;
      (** Per-slot datagram length for the current batch (the caller
          writes it before a send). *)
  segs : int array;
      (** rx: per-slot GRO segment size; 0 when the datagram is one
          frame. *)
  firsts : int array;
      (** tx: the current send's run boundaries ([batch + 1] slots). *)
  batch : int;
  mmsg : bool;  (** The path the ring was made on ({!using_mmsg}). *)
  mutable segment : bool;
      (** GSO (a send ring) or GRO (a receive ring) is on for its
          socket. *)
  mutable datagrams : int;
      (** Kernel datagrams moved through the ring so far. *)
}

val ring : int -> ring
(** [ring batch] allocates the arena, on the path {!using_mmsg} names
    now, with segmentation off. @raise Invalid_argument unless
    [1 <= batch <= max_batch]. *)

val enable_gso : Unix.file_descr -> ring -> bool
(** Turn GSO on for sends from [fd] through the ring when it is on the
    mmsg path and the kernel takes [UDP_SEGMENT] on [fd]; whether it is
    on. *)

val enable_gro : Unix.file_descr -> ring -> bool
(** Turn [UDP_GRO] on for [fd] when the ring that reads it is on the
    mmsg path and the kernel has it; whether it is on. *)

val dest_of_sockaddr : Unix.sockaddr -> dest

val group_runs : int array -> count:int -> int array -> int
(** [group_runs lens ~count firsts] cuts frames [0 .. count-1] of
    lengths [lens] into runs, greedily from the left, and returns how
    many: run [k] is frames [firsts.(k) .. firsts.(k+1) - 1]. Every
    frame of a run but its last has the run's length, and the last is
    nonzero and no longer; a run has at most {!max_run_frames} frames
    and {!max_run_bytes} bytes (or is one frame); a zero-length frame
    is a run of one. [firsts] needs [count + 1] slots. *)

val recv_batch : Unix.file_descr -> ring -> count:int -> int
(** Pull up to [count] queued datagrams into the ring; returns how
    many arrived (0 when the socket would block). [lens.(i)] is each
    datagram's byte length — 0 for a valid empty datagram (counted,
    not a poll terminator), or -1 for a datagram the kernel truncated
    or whose GRO segment size did not fit the control buffer (mmsg
    path only). [segs.(i)] is its GRO segment size, 0 when it is one
    frame. *)

val send_batch : Unix.file_descr -> ring -> dest:dest -> count:int -> int
(** Send the first [count] ring slots, as datagrams or GSO runs, to
    [dest]; returns how many frames the kernel accepted. Stops at the
    first refusal; the tail is the caller's loss accounting. *)
