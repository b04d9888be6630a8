open Resets_util
module Batch_io = Resets_net_stubs.Batch_io

type addr =
  | Udp of string * int
  | Unix_dgram of string

let addr_of_string s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "address %S: expected udp:HOST:PORT or unix:PATH" s)
  | Some i -> (
    let scheme = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match scheme with
    | "unix" when rest <> "" -> Ok (Unix_dgram rest)
    | "udp" ->
      let parse_port port =
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 -> Ok p
        | _ -> Error (Printf.sprintf "address %S: bad port %S" s port)
      in
      let split_host_port () =
        if String.length rest > 0 && rest.[0] = '[' then
          (* Bracketed IPv6 literal: udp:[::1]:4500. *)
          match String.index_opt rest ']' with
          | None -> Error (Printf.sprintf "address %S: unterminated '[' in host" s)
          | Some j ->
            let host = String.sub rest 1 (j - 1) in
            if host = "" then
              Error (Printf.sprintf "address %S: empty host in brackets" s)
            else if j + 1 >= String.length rest || rest.[j + 1] <> ':' then
              Error (Printf.sprintf "address %S: expected ':' after ']'" s)
            else
              Ok (host, String.sub rest (j + 2) (String.length rest - j - 2))
        else
          match String.rindex_opt rest ':' with
          | None -> Error (Printf.sprintf "address %S: missing port" s)
          | Some j ->
            let host = String.sub rest 0 j in
            if host = "" then
              Error
                (Printf.sprintf
                   "address %S: empty host — write udp:HOST:PORT (or \
                    udp:[V6]:PORT for a bare IPv6 literal)"
                   s)
            else if String.contains host ':' then
              Error
                (Printf.sprintf
                   "address %S: IPv6 literals must be bracketed — udp:[%s]:%s"
                   s host
                   (String.sub rest (j + 1) (String.length rest - j - 1)))
            else Ok (host, String.sub rest (j + 1) (String.length rest - j - 1))
      in
      Result.bind (split_host_port ()) (fun (host, port) ->
          Result.map (fun p -> Udp (host, p)) (parse_port port))
    | _ -> Error (Printf.sprintf "address %S: unknown scheme %S" s scheme))

let addr_to_string = function
  | Udp (h, p) when String.contains h ':' -> Printf.sprintf "udp:[%s]:%d" h p
  | Udp (h, p) -> Printf.sprintf "udp:%s:%d" h p
  | Unix_dgram p -> "unix:" ^ p

let sockaddr_of_addr = function
  | Unix_dgram path -> Unix.ADDR_UNIX path
  | Udp (host, port) ->
    let inet =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match
          Unix.getaddrinfo host "" [ Unix.AI_SOCKTYPE Unix.SOCK_DGRAM ]
        with
        | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
        | _ -> invalid_arg (Printf.sprintf "cannot resolve host %S" host))
    in
    Unix.ADDR_INET (inet, port)

let family_of = function
  | Unix_dgram _ -> Unix.PF_UNIX
  | Udp (host, _) as a -> (
    (* A bracketed literal identifies itself; a hostname needs the
       resolver's answer. *)
    if String.contains host ':' then Unix.PF_INET6
    else
      match sockaddr_of_addr a with
      | Unix.ADDR_INET (inet, _) ->
        if String.contains (Unix.string_of_inet_addr inet) ':' then
          Unix.PF_INET6
        else Unix.PF_INET
      | Unix.ADDR_UNIX _ -> assert false)

type t = {
  sock : Unix.file_descr;
  peer : Unix.sockaddr option;
  dest : Batch_io.dest option; (* peer, pre-lowered for send_batch *)
  bound_path : string option;
  batch : int;
  rx : Batch_io.ring;
  tx : Batch_io.ring;
  mutable tx_queued : int;
  mutable handler : (Slice.t -> unit) option;
  mutable tx_frames : int;
  mutable tx_errors : int;
  mutable rx_frames : int;
  mutable rx_dropped : int;
  (* wire-pressure observability, surfaced in the daemon heartbeat *)
  mutable tx_flushes : int;
  mutable tx_queue_hwm : int;
  rx_batch_hist : int array; (* index = frames in one recv batch *)
  mutable rx_batches : int;
  mutable rx_batch_max : int;
  rcvbuf_effective : int;
  sndbuf_effective : int;
}

let create ?bind ?peer ?(batch = Batch_io.default_batch) ?rcvbuf ?sndbuf () =
  let family =
    match (bind, peer) with
    | Some a, _ | None, Some a -> family_of a
    | None, None -> invalid_arg "Transport_udp.create: need bind or peer"
  in
  (match (bind, peer) with
  | Some a, Some b when family_of a <> family_of b ->
    invalid_arg "Transport_udp.create: bind and peer families differ"
  | _ -> ());
  if batch < 1 || batch > Batch_io.max_batch then
    invalid_arg
      (Printf.sprintf "Transport_udp.create: batch must be in [1, %d]"
         Batch_io.max_batch);
  let sock = Unix.socket family Unix.SOCK_DGRAM 0 in
  let set_buf opt v =
    match v with
    | None -> ()
    | Some n -> (
      try Unix.setsockopt_int sock opt n with Unix.Unix_error _ -> ())
  in
  set_buf Unix.SO_RCVBUF rcvbuf;
  set_buf Unix.SO_SNDBUF sndbuf;
  let get_buf opt = try Unix.getsockopt_int sock opt with Unix.Unix_error _ -> 0 in
  let bound_path =
    match bind with
    | None -> None
    | Some a ->
      (match a with
      | Unix_dgram path when Sys.file_exists path -> (
        try Unix.unlink path with Unix.Unix_error _ -> ())
      | Unix_dgram _ | Udp _ -> ());
      (try
         if family <> Unix.PF_UNIX then
           Unix.setsockopt sock Unix.SO_REUSEADDR true
       with Unix.Unix_error _ -> ());
      Unix.bind sock (sockaddr_of_addr a);
      (match a with Unix_dgram path -> Some path | Udp _ -> None)
  in
  Unix.set_nonblock sock;
  let peer_sockaddr = Option.map sockaddr_of_addr peer in
  let rx = Batch_io.ring batch and tx = Batch_io.ring batch in
  (* One kernel datagram per run of frames on a UDP socket: GRO where
     it receives, GSO where it sends. *)
  if family <> Unix.PF_UNIX then begin
    if bind <> None then ignore (Batch_io.enable_gro sock rx : bool);
    if peer <> None then ignore (Batch_io.enable_gso sock tx : bool)
  end;
  {
    sock;
    peer = peer_sockaddr;
    dest = Option.map Batch_io.dest_of_sockaddr peer_sockaddr;
    bound_path;
    batch;
    rx;
    tx;
    tx_queued = 0;
    handler = None;
    tx_frames = 0;
    tx_errors = 0;
    rx_frames = 0;
    rx_dropped = 0;
    tx_flushes = 0;
    tx_queue_hwm = 0;
    rx_batch_hist = Array.make (batch + 1) 0;
    rx_batches = 0;
    rx_batch_max = 0;
    rcvbuf_effective = get_buf Unix.SO_RCVBUF;
    sndbuf_effective = get_buf Unix.SO_SNDBUF;
  }

(* ---- tx: batched sends -------------------------------------------- *)

let flush t =
  if t.tx_queued = 0 then 0
  else begin
    let count = t.tx_queued in
    let dest =
      match t.dest with
      | Some d -> d
      | None -> invalid_arg "Transport_udp.flush: no peer address"
    in
    let sent = Batch_io.send_batch t.sock t.tx ~dest ~count in
    (* Partial completion: the kernel refused frame [sent] (would-
       block, dead peer) and we never retry — the unsent tail is
       channel loss, which the protocol tolerates by design. *)
    t.tx_frames <- t.tx_frames + sent;
    t.tx_errors <- t.tx_errors + (count - sent);
    t.tx_queued <- 0;
    t.tx_flushes <- t.tx_flushes + 1;
    sent
  end

(* Stage one frame in the next tx-pool slot; flush when the batch is
   full. Returns [false] only when the frame is known lost: oversized,
   or it sat in the tail a full-queue flush could not deliver. *)
let enqueue t write_frame =
  if t.peer = None then invalid_arg "Transport_udp.send_frame: no peer address";
  let slot = t.tx_queued in
  match write_frame t.tx.bufs.(slot) with
  | exception Invalid_argument _ ->
    t.tx_errors <- t.tx_errors + 1;
    false
  | len ->
    t.tx.lens.(slot) <- len;
    t.tx_queued <- slot + 1;
    if t.tx_queued > t.tx_queue_hwm then t.tx_queue_hwm <- t.tx_queued;
    if t.tx_queued >= t.batch then flush t >= slot + 1 else true

let send_frame t frame =
  let len = String.length frame in
  enqueue t (fun buf ->
      if len > Bytes.length buf then invalid_arg "oversized frame";
      Bytes.blit_string frame 0 buf 0 len;
      len)

let send_slice t (s : Slice.t) =
  enqueue t (fun buf ->
      if s.Slice.len > Bytes.length buf then invalid_arg "oversized frame";
      Slice.blit s buf ~dst_off:0;
      s.Slice.len)

(* ---- rx: batched receive into the arena --------------------------- *)

let set_slice_handler t h = t.handler <- Some h

(* A zero-length datagram is a real datagram: counted and delivered;
   the codec rejects it as a short frame. *)
let deliver t buf ~off ~len =
  t.rx_frames <- t.rx_frames + 1;
  match t.handler with
  | Some h -> h (Slice.make buf ~off ~len)
  | None -> t.rx_dropped <- t.rx_dropped + 1

let drain t =
  let frames0 = t.rx_frames in
  let continue = ref true in
  while !continue do
    let n = Batch_io.recv_batch t.sock t.rx ~count:t.batch in
    if n = 0 then continue := false
    else begin
      t.rx_batches <- t.rx_batches + 1;
      t.rx_batch_hist.(n) <- t.rx_batch_hist.(n) + 1;
      if n > t.rx_batch_max then t.rx_batch_max <- n;
      for i = 0 to n - 1 do
        let buf = t.rx.bufs.(i) and len = t.rx.lens.(i) in
        let seg = t.rx.segs.(i) in
        if len < 0 then
          (* Kernel-truncated datagram, or a coalesced one whose
             segment size was lost (neither happens at 64 KiB slots,
             but the accounting is kept honest anyway). *)
          t.rx_dropped <- t.rx_dropped + 1
        else if seg = 0 || seg >= len then deliver t buf ~off:0 ~len
        else begin
          (* GRO coalesced equal segments, the last possibly shorter:
             one frame each, in order. *)
          let off = ref 0 in
          while !off < len do
            deliver t buf ~off:!off ~len:(min seg (len - !off));
            off := !off + seg
          done
        end
      done;
      (* A short batch means the socket queue is empty: skip the
         would-block syscall. *)
      if n < t.batch then continue := false
    end
  done;
  t.rx_frames - frames0

let wait_readable t ~timeout =
  match Unix.select [ t.sock ] [] [] timeout with
  | [], _, _ -> false
  | _ :: _, _, _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

let tx_frames t = t.tx_frames
let tx_errors t = t.tx_errors
let rx_frames t = t.rx_frames
let tx_datagrams t = t.tx.Batch_io.datagrams
let rx_datagrams t = t.rx.Batch_io.datagrams
let gso t = t.tx.Batch_io.segment
let gro t = t.rx.Batch_io.segment
let rx_dropped t = t.rx_dropped
let batch t = t.batch
let tx_queued t = t.tx_queued
let tx_flushes t = t.tx_flushes
let tx_queue_hwm t = t.tx_queue_hwm
let rx_batches t = t.rx_batches
let rx_batch_max t = t.rx_batch_max
let rcvbuf_effective t = t.rcvbuf_effective
let sndbuf_effective t = t.sndbuf_effective

(* Percentile over the rx batch-size histogram: the size at or below
   which [p] of all batches fell. 0 when no batch has arrived. *)
let rx_batch_percentile t p =
  if t.rx_batches = 0 then 0
  else begin
    let target =
      let exact = float_of_int t.rx_batches *. p in
      Stdlib.max 1 (int_of_float (ceil exact))
    in
    let acc = ref 0 and result = ref t.rx_batch_max in
    (try
       for n = 1 to t.batch do
         acc := !acc + t.rx_batch_hist.(n);
         if !acc >= target then begin
           result := n;
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

let close t =
  (try ignore (flush t : int) with Invalid_argument _ -> ());
  (try Unix.close t.sock with Unix.Unix_error _ -> ());
  match t.bound_path with
  | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | None -> ()
