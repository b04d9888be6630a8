(* Batched datagram I/O over a pooled frame arena.

   The mmsg path (Linux) moves a whole batch per syscall through the
   stubs in mmsg_stubs.c, and on a UDP socket hands the kernel one
   datagram per run of equal-length frames (GSO on send, GRO on
   receive); everywhere else — and whenever forced for differential
   testing — the portable fallback makes one Unix.recv / Unix.sendto
   call per frame over the very same rings. Both paths present
   identical semantics to Transport_udp: same frames, same order, same
   loss discipline. *)

type dest =
  | Inet of string * int  (* numeric host (v4 or v6), port *)
  | Unix_path of string

external mmsg_available : unit -> bool = "caml_resets_mmsg_available"
external gso_probe : Unix.file_descr -> bool = "caml_resets_gso_probe"
external gro_enable : Unix.file_descr -> bool = "caml_resets_gro_enable"

external recvmmsg_stub :
  Unix.file_descr -> Bytes.t array -> int array -> int array -> int -> int
  = "caml_resets_recvmmsg"

external sendmmsg_stub :
  Unix.file_descr -> dest -> Bytes.t array -> int array -> int array -> int ->
  int = "caml_resets_sendmmsg_byte" "caml_resets_sendmmsg"

(* Mirrors RESETS_MAX_BATCH in mmsg_stubs.c. *)
let max_batch = 64
let default_batch = 32

(* 65535 covers the largest possible UDP datagram, so the mmsg path
   can never hit MSG_TRUNC and the fallback path (which cannot detect
   truncation portably) can never truncate. A GRO datagram stays below
   64 KiB too. *)
let frame_size = 65536

(* A GSO message: at most 64 segments (UDP_MAX_SEGMENTS on every kernel
   that has UDP_SEGMENT) and 65,507 payload bytes (an IPv4 datagram). *)
let max_run_frames = 64
let max_run_bytes = 65507

let forced_fallback = ref (Sys.getenv_opt "RESETS_NO_MMSG" <> None)
let force_fallback b = forced_fallback := b
let using_mmsg () = mmsg_available () && not !forced_fallback

type ring = {
  bufs : Bytes.t array;
  lens : int array;
  segs : int array;
  firsts : int array;
  batch : int;
  mmsg : bool;
  mutable segment : bool;
  mutable datagrams : int;
}

let ring batch =
  if batch < 1 || batch > max_batch then
    invalid_arg
      (Printf.sprintf "Batch_io.ring: batch must be in [1, %d]" max_batch);
  {
    bufs = Array.init batch (fun _ -> Bytes.create frame_size);
    lens = Array.make batch 0;
    segs = Array.make batch 0;
    firsts = Array.make (batch + 1) 0;
    batch;
    mmsg = using_mmsg ();
    segment = false;
    datagrams = 0;
  }

(* Segmentation is only ever on for a ring that reads or writes through
   the stubs: the portable path cannot see a GRO segment size, so a
   coalesced datagram there would reach the handler as one frame. *)
let enable_gso fd r =
  r.segment <- r.mmsg && gso_probe fd;
  r.segment

let enable_gro fd r =
  r.segment <- r.mmsg && gro_enable fd;
  r.segment

let dest_of_sockaddr = function
  | Unix.ADDR_UNIX path -> Unix_path path
  | Unix.ADDR_INET (a, p) -> Inet (Unix.string_of_inet_addr a, p)

let sockaddr_of_dest = function
  | Unix_path path -> Unix.ADDR_UNIX path
  | Inet (h, p) -> Unix.ADDR_INET (Unix.inet_addr_of_string h, p)

(* Fill [r.bufs.(0..n-1)] / [r.lens] / [r.segs] with up to [count]
   queued datagrams; returns n. A zero-length datagram is a real
   datagram: lens.(i) = 0 and it counts. lens.(i) = -1 marks a datagram
   the kernel truncated, or whose segment size it could not report
   (mmsg path only; cannot happen at [frame_size]). *)
let recv_batch fd r ~count =
  let count = min count r.batch in
  let n =
    if r.mmsg then begin
      match recvmmsg_stub fd r.bufs r.lens r.segs count with
      | -1 -> 0
      | n -> n
    end
    else begin
      let n = ref 0 and continue = ref true in
      while !continue && !n < count do
        let buf = r.bufs.(!n) in
        match Unix.recv fd buf 0 frame_size [] with
        | len ->
          r.lens.(!n) <- len;
          r.segs.(!n) <- 0;
          incr n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          continue := false
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
          (* Deferred ICMP error from an earlier send, not a frame. *)
          ()
      done;
      !n
    end
  in
  r.datagrams <- r.datagrams + n;
  n

(* Greedy runs from the left: equal lengths, closed early by one
   shorter (nonzero) frame, by the GSO caps, or by a zero-length frame,
   which is a run of its own. *)
let group_runs lens ~count firsts =
  let runs = ref 0 and i = ref 0 in
  while !i < count do
    let first = !i and len = lens.(!i) in
    firsts.(!runs) <- first;
    incr runs;
    incr i;
    if len > 0 then begin
      let cap = min max_run_frames (max_run_bytes / len) in
      while !i < count && !i - first < cap && lens.(!i) = len do
        incr i
      done;
      if !i < count && !i - first < max_run_frames then begin
        let last = lens.(!i) in
        if last > 0 && last < len && ((!i - first) * len) + last <= max_run_bytes
        then incr i
      end
    end
  done;
  firsts.(!runs) <- count;
  !runs

(* One message per frame of [from .. count-1]. *)
let singles r ~from ~count =
  for i = from to count do
    r.firsts.(i - from) <- i
  done;
  count - from

(* Send [r.bufs.(i)][0..r.lens.(i)) for i < count to [dest]; returns
   how many frames the kernel accepted. Sending stops at the first
   refusal (would-block, dead peer, unreachable) and the unsent tail is
   the caller's tx_errors — the paper's channel is lossy, so a refused
   frame is loss, never an exception. A GSO message the kernel refuses
   as such turns segmentation off for the ring, and its frames and
   every one behind it go again as plain datagrams. *)
let send_batch fd r ~dest ~count =
  let count = min count r.batch in
  if r.mmsg then begin
    let msgs =
      if r.segment then group_runs r.lens ~count r.firsts
      else singles r ~from:0 ~count
    in
    match sendmmsg_stub fd dest r.bufs r.lens r.firsts msgs with
    | n when n >= 0 ->
      r.datagrams <- r.datagrams + n;
      r.firsts.(n)
    | refused ->
      let m = -1 - refused in
      let from = r.firsts.(m) in
      r.segment <- false;
      let n =
        sendmmsg_stub fd dest r.bufs r.lens r.firsts (singles r ~from ~count)
      in
      r.datagrams <- r.datagrams + m + n;
      from + n
  end
  else begin
    let sockaddr = sockaddr_of_dest dest in
    let sent = ref 0 and continue = ref true in
    while !continue && !sent < count do
      let buf = r.bufs.(!sent) and len = r.lens.(!sent) in
      match Unix.sendto fd buf 0 len [] sockaddr with
      | n when n = len -> incr sent
      | _ -> continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (_, _, _) -> continue := false
    done;
    r.datagrams <- r.datagrams + !sent;
    !sent
  end
