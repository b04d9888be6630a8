(** Datagram wire transport: real packets over real sockets, batched.

    Where the simulator carries packets on a {!Resets_sim.Link}, the
    daemon carries the very same protocol's packets on a nonblocking
    UDP or UNIX-datagram socket (DESIGN.md §2f). One ESP packet per
    datagram — ESP is datagram-shaped, so the framing is the trivial
    one. A sender's channel is [fun pkt -> ignore (send_frame t
    pkt.Packet.wire)]; every received frame is fresh, because a real
    wire cannot carry provenance — telling replays apart is the replay
    window's job.

    The datapath is batched and allocation-light ({!Batch_io}):
    receives pull up to [batch] datagrams per syscall into a pooled
    frame arena and hand each frame to the one handler as a
    {!Resets_util.Slice.t}; sends stage frames in a tx pool flushed by
    one batched syscall when full — and, in the daemon, at every
    engine-tick boundary ({!Resets_sim.Engine.run_clocked}'s [tick]
    hook) so a batch never outlives a tick.

    On a UDP socket the kernel boundary is crossed once per run of
    equal-length frames, not once per frame: a flush hands each run
    ({!Batch_io.group_runs}) to the kernel as one [UDP_SEGMENT] (GSO)
    message, and a bound socket has [UDP_GRO] on, so {!drain} reads a
    coalesced datagram and splits it back into its frames, in order.
    The network still carries one ESP packet per UDP datagram, and the
    frames, their order, what a flush carries and when it leaves are
    unchanged: only {!tx_datagrams} and {!rx_datagrams} see the
    difference. Detection is automatic (build-time headers, a run-time
    probe on the socket), and a GSO message the kernel refuses goes
    again as plain datagrams with GSO off for the socket. Unix-dgram
    sockets and the portable fallback keep one datagram per frame.

    Datagram semantics match the paper's channel assumptions for free:
    the network may lose, reorder or duplicate, and the protocol is
    built to converge anyway. A send the kernel refuses (dead peer:
    [ECONNREFUSED]/[ENOENT]; full buffers: [EAGAIN]) is counted and
    treated as loss, never raised — a sender must keep sending while
    its peer is mid-reset, that being the whole experiment. The same
    discipline extends to batches: a partial [sendmmsg] completion
    counts the unsent tail in [tx_errors] and never retries (one that
    stops at a GSO run resumes there, to learn whether the kernel
    refused GSO).

    Single-owner discipline: one domain owns a socket ([drain]/[send]
    are not thread-safe). The daemon's one loop owns its socket and
    hands each received frame to its SA by SPI (see {!Daemon}). *)

(** A wire address. [Udp] for cross-host runs, [Unix_dgram] for local
    two-process harnesses (no port allocation, no firewall). *)
type addr =
  | Udp of string * int
      (** host (dotted quad, bare IPv6 literal, or name), port *)
  | Unix_dgram of string  (** filesystem socket path *)

val addr_of_string : string -> (addr, string) result
(** ["udp:HOST:PORT"], ["udp:\[V6ADDR\]:PORT"] (bracketed IPv6
    literal), or ["unix:PATH"]. An empty host ([udp::4500]) and an
    unbracketed IPv6 literal are rejected with a pointed error. *)

val addr_to_string : addr -> string
(** Inverse of {!addr_of_string}; IPv6 literals come back bracketed. *)

type t

val create :
  ?bind:addr ->
  ?peer:addr ->
  ?batch:int ->
  ?rcvbuf:int ->
  ?sndbuf:int ->
  unit ->
  t
(** A nonblocking datagram socket. [bind] makes it receivable (the
    daemon's receive side; a UNIX-dgram path is unlinked first if a
    stale one exists). [peer] is the default destination for sends.
    At least one must be given.

    [batch] (default {!Batch_io.default_batch} = 32) sizes both the rx
    arena and the tx pool; [batch = 1] degenerates to exactly the
    unbatched one-syscall-per-frame transport, including synchronous
    per-send error reporting. [rcvbuf]/[sndbuf] request explicit
    kernel socket buffer sizes; the {e effective} values (as granted —
    kernels clamp and round) are readable via {!rcvbuf_effective} /
    {!sndbuf_effective} and reported in the daemon's startup
    heartbeat.

    @raise Invalid_argument when both addresses are missing, address
    families mix, or [batch] is outside [\[1, Batch_io.max_batch\]]. *)

val send_frame : t -> string -> bool
(** Stage one datagram for [peer]; the batch is flushed by one
    [sendmmsg]-style syscall when full (or explicitly via {!flush}).
    [false] (and a [tx_errors] tick) when the frame is already known
    lost — oversized, or it sat in the unsent tail of the flush its
    enqueue triggered. With [batch = 1] this is exactly the old
    synchronous send. @raise Invalid_argument without a peer. *)

val send_slice : t -> Resets_util.Slice.t -> bool
(** {!send_frame} for a frame viewed in a borrowed buffer — blits
    straight into the tx pool, no string materialized. *)

val flush : t -> int
(** Send every staged frame now; returns how many the kernel accepted
    (the rest are counted in [tx_errors] — loss, never retried). The
    daemon calls this at every engine-tick boundary. No-op returning 0
    on an empty queue. @raise Invalid_argument without a peer. *)

val set_slice_handler : t -> (Resets_util.Slice.t -> unit) -> unit
(** Install the handler {!drain} feeds: each frame arrives as a view
    into the rx arena, valid only during the call (the slot is reused
    by the next receive batch) — a holder copies it
    ({!Resets_util.Slice.to_string}). Replaces any previous handler.
    Frames drained with no handler installed are dropped (counted in
    {!rx_dropped}). *)

val drain : t -> int
(** Batched receive: pull every datagram currently queued (whole
    batches per syscall, until the socket would block), feed each of
    its frames to the installed handler, return how many frames. A
    coalesced (GRO) datagram is split at its segment size, so the
    handler never sees two frames as one; one whose segment size came
    back cut short is counted in {!rx_dropped} and not delivered. A
    zero-length datagram is a real datagram — counted in [rx_frames]
    and delivered (the codec rejects it as a short frame); it does
    {e not} end the poll. *)

val wait_readable : t -> timeout:float -> bool
(** Block (select) until the socket is readable or [timeout] seconds
    pass — the daemon's idle hook. *)

val tx_frames : t -> int
(** Frames the kernel accepted. *)

val tx_errors : t -> int
(** Frames refused or abandoned in a partial flush: always
    [tx_frames + tx_errors] = frames attempted. *)

val rx_frames : t -> int
val rx_dropped : t -> int
(** Frames drained while no handler was installed, plus datagrams the
    kernel truncated or coalesced without a readable segment size. *)

val tx_datagrams : t -> int
(** Datagrams the kernel accepted: one per GSO run or plain frame, so
    [tx_datagrams <= tx_frames], equal when no run formed. *)

val rx_datagrams : t -> int
(** Datagrams read back from the kernel, coalesced ones counted once. *)

val gso : t -> bool
(** Sends go out as GSO runs (a UDP peer, the mmsg path, a kernel with
    [UDP_SEGMENT], and no refusal yet). *)

val gro : t -> bool
(** [UDP_GRO] is on for the socket (bound UDP, the mmsg path, a kernel
    with [UDP_GRO]). *)

(** {1 Wire-pressure observability}

    Fed into the daemon heartbeat so convergence percentiles can be
    correlated with how hard the wire was pushing (ROADMAP item 4). *)

val batch : t -> int
val tx_queued : t -> int
(** Frames currently staged awaiting {!flush}. *)

val tx_flushes : t -> int
(** Completed flushes (including auto-flushes on a full pool). *)

val tx_queue_hwm : t -> int
(** High-water mark of tx pool occupancy. *)

val rx_batches : t -> int
(** Non-empty receive batches drained (one [recvmmsg] each). *)

val rx_batch_max : t -> int
val rx_batch_percentile : t -> float -> int
(** [rx_batch_percentile t 0.5] / [... 0.99]: batch-size percentiles
    over all non-empty receive batches; 0 before any arrive. A batch's
    size counts datagrams per [recvmmsg], not frames: with GRO a
    datagram may carry up to 64 frames, and [rx_frames / rx_batches]
    is frames per batch. *)

val rcvbuf_effective : t -> int
(** [SO_RCVBUF] as the kernel granted it. *)

val sndbuf_effective : t -> int

val close : t -> unit
(** Flush staged sends (best effort), close the socket; a bound
    UNIX-dgram path is unlinked. *)
