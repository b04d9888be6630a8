(* Unit tests for the wire layer: address parsing (including bracketed
   IPv6 and qcheck round-trip properties), the batched nonblocking
   UNIX-datagram socket pair (empty-datagram delivery, partial-batch
   accounting, mmsg-vs-fallback differential, batched-vs-unbatched
   stream equality), the zero-copy slice face, in-process send-role
   daemons against a scratch socket (a smoke run, and the impaired
   wire in front of the socket), and the daemon executable itself: a
   graceful SIGTERM flush, a send/receive pair over a unix-dgram
   socket, a receiver behind an impaired wire, frames no SA owns, and
   the recovery gate's cross-incarnation replay check; and the CLI's
   stealth paired run, which costs goodput and breaks no invariant.
   The wire's fault model is Resets_sim.Link, tested in test_sim. The
   two-process kill-and-recover experiment is E17's
   (Resets_fleet.Matrix, run by `ipsec_resets fleet`). *)

open Resets_net
module Batch_io = Resets_net_stubs.Batch_io

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let scratch_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "resets-net-%s-%d.sock" name (Unix.getpid ()))

(* Run [f] on an empty scratch directory of this run's own, and remove
   the directory afterwards, whatever [f] does. *)
let with_scratch_dir name f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "resets-net-%s-%d" name (Unix.getpid ()))
  in
  let remove () =
    Resets_fleet.Supervisor.wipe_dir dir;
    try Sys.rmdir dir with Sys_error _ -> ()
  in
  remove ();
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:remove (fun () -> f dir)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Address parsing *)

let test_addr_parse () =
  (match Transport_udp.addr_of_string "udp:127.0.0.1:4500" with
  | Ok (Transport_udp.Udp ("127.0.0.1", 4500)) -> ()
  | Ok a -> Alcotest.failf "wrong parse: %s" (Transport_udp.addr_to_string a)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Transport_udp.addr_of_string "unix:/run/q.sock" with
  | Ok (Transport_udp.Unix_dgram "/run/q.sock") -> ()
  | Ok a -> Alcotest.failf "wrong parse: %s" (Transport_udp.addr_to_string a)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* IPv6 literals must be bracketed *)
  (match Transport_udp.addr_of_string "udp:[::1]:4500" with
  | Ok (Transport_udp.Udp ("::1", 4500)) -> ()
  | Ok a -> Alcotest.failf "wrong parse: %s" (Transport_udp.addr_to_string a)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Transport_udp.addr_of_string "udp:[fe80::1]:500" with
  | Ok (Transport_udp.Udp ("fe80::1", 500)) -> ()
  | Ok a -> Alcotest.failf "wrong parse: %s" (Transport_udp.addr_to_string a)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* empty host gets a pointed error, not a parse *)
  (match Transport_udp.addr_of_string "udp::4500" with
  | Error e -> check_bool "names the empty host" true (contains e "empty host")
  | Ok a -> Alcotest.failf "accepted udp::4500 as %s"
              (Transport_udp.addr_to_string a));
  List.iter
    (fun s ->
      match Transport_udp.addr_of_string s with
      | Ok a ->
          Alcotest.failf "accepted %S as %s" s (Transport_udp.addr_to_string a)
      | Error _ -> ())
    [ "udp:nohost"; "udp:h:notaport"; "tcp:1.2.3.4:5"; ""; "unix:";
      "udp:fe80::1:500" (* unbracketed IPv6: ambiguous, rejected *);
      "udp:[]:4500"; "udp:[::1]4500"; "udp:[::1:4500"; "udp:h:0"; "udp:h:70000" ]

let test_addr_roundtrip () =
  List.iter
    (fun s ->
      match Transport_udp.addr_of_string s with
      | Ok a -> check_string s s (Transport_udp.addr_to_string a)
      | Error e -> Alcotest.failf "parse failed: %s" e)
    [ "udp:10.0.0.1:4500"; "unix:/tmp/a.sock"; "udp:[::1]:4500";
      "udp:[2001:db8::2]:500" ]

(* qcheck: [addr_to_string] then [addr_of_string] is the identity over
   the whole addr type, and strings shaped like an empty-host or
   unbracketed-v6 address never parse. *)
let arb_addr =
  let open QCheck in
  let host =
    oneofl
      [ "10.0.0.1"; "192.168.7.3"; "example.com"; "host-7.local"; "::1";
        "fe80::1"; "2001:db8::2"; "2001:db8:0:1:1:1:1:1" ]
  in
  let port = 1 -- 65535 in
  let path =
    oneofl [ "/tmp/x.sock"; "/run/resets/a:b.sock"; "relative.sock" ]
  in
  let gen =
    Gen.oneof
      [
        Gen.map2 (fun h p -> Transport_udp.Udp (h, p)) (gen host) (gen port);
        Gen.map (fun p -> Transport_udp.Unix_dgram p) (gen path);
      ]
  in
  QCheck.make
    ~print:(fun a -> Transport_udp.addr_to_string a)
    gen

let prop_addr_roundtrip =
  QCheck.Test.make ~name:"addr_of_string (addr_to_string a) = Ok a" ~count:200
    arb_addr (fun a ->
      match Transport_udp.addr_of_string (Transport_udp.addr_to_string a) with
      | Ok b -> b = a
      | Error e -> QCheck.Test.fail_reportf "did not round-trip: %s" e)

let prop_addr_malformed =
  let open QCheck in
  Test.make ~name:"malformed addresses never parse" ~count:200
    (pair (oneofl [ "::1"; "fe80::1"; ""; "2001:db8::2" ]) (1 -- 65535))
    (fun (host, port) ->
      (* unbracketed v6 literal or empty host *)
      match
        Transport_udp.addr_of_string (Printf.sprintf "udp:%s:%d" host port)
      with
      | Error _ -> true
      | Ok a ->
        Test.fail_reportf "accepted udp:%s:%d as %s" host port
          (Transport_udp.addr_to_string a))

(* ------------------------------------------------------------------ *)
(* Socket pair over UNIX-dgram *)

let test_dgram_pair_send_drain () =
  let path = scratch_path "pair" in
  let rx = Transport_udp.create ~bind:(Transport_udp.Unix_dgram path) () in
  let tx =
    Transport_udp.create ~peer:(Transport_udp.Unix_dgram path) ~batch:1 ()
  in
  let got = ref [] in
  Transport_udp.set_slice_handler rx (fun f ->
      got := Resets_util.Slice.to_string f :: !got);
  check_bool "send a" true (Transport_udp.send_frame tx "frame-a");
  check_bool "send b" true (Transport_udp.send_frame tx "frame-b");
  check_bool "readable" true (Transport_udp.wait_readable rx ~timeout:1.0);
  let n = Transport_udp.drain rx in
  check_int "drained both" 2 n;
  Alcotest.(check (list string)) "payloads intact" [ "frame-a"; "frame-b" ]
    (List.rev !got);
  check_int "tx count" 2 (Transport_udp.tx_frames tx);
  check_int "rx count" 2 (Transport_udp.rx_frames rx);
  check_int "no tx errors" 0 (Transport_udp.tx_errors tx);
  Transport_udp.close tx;
  Transport_udp.close rx;
  check_bool "bound path unlinked on close" false (Sys.file_exists path)

let test_dgram_dead_peer_is_loss () =
  let path = scratch_path "dead" in
  let tx =
    Transport_udp.create ~peer:(Transport_udp.Unix_dgram path) ~batch:1 ()
  in
  (* nobody bound the path: the kernel refuses, the transport counts
     it and reports loss instead of raising — batch 1 keeps the old
     synchronous per-send report *)
  check_bool "refused" false (Transport_udp.send_frame tx "into-the-void");
  check_int "tx error counted" 1 (Transport_udp.tx_errors tx);
  Transport_udp.close tx

let test_dgram_no_handler_drops () =
  let path = scratch_path "nohandler" in
  let rx = Transport_udp.create ~bind:(Transport_udp.Unix_dgram path) () in
  let tx =
    Transport_udp.create ~peer:(Transport_udp.Unix_dgram path) ~batch:1 ()
  in
  check_bool "sent" true (Transport_udp.send_frame tx "orphan");
  check_bool "readable" true (Transport_udp.wait_readable rx ~timeout:1.0);
  check_int "drained" 1 (Transport_udp.drain rx);
  check_int "dropped without handler" 1 (Transport_udp.rx_dropped rx);
  Transport_udp.close tx;
  Transport_udp.close rx

let test_dgram_wait_timeout () =
  let path = scratch_path "timeout" in
  let rx = Transport_udp.create ~bind:(Transport_udp.Unix_dgram path) () in
  let t0 = Unix.gettimeofday () in
  check_bool "times out" false (Transport_udp.wait_readable rx ~timeout:0.05);
  check_bool "took about the timeout" true (Unix.gettimeofday () -. t0 < 1.0);
  Transport_udp.close rx

let test_create_validation () =
  (match Transport_udp.create () with
  | exception Invalid_argument _ -> ()
  | t ->
      Transport_udp.close t;
      Alcotest.fail "create with neither bind nor peer must be rejected");
  (match
     Transport_udp.create
       ~bind:(Transport_udp.Unix_dgram (scratch_path "mix"))
       ~peer:(Transport_udp.Udp ("127.0.0.1", 4500))
       ()
   with
  | exception Invalid_argument _ -> ()
  | t ->
      Transport_udp.close t;
      Alcotest.fail "mixed address families must be rejected");
  match
    Transport_udp.create
      ~peer:(Transport_udp.Unix_dgram (scratch_path "bigbatch"))
      ~batch:(Batch_io.max_batch + 1) ()
  with
  | exception Invalid_argument _ -> ()
  | t ->
      Transport_udp.close t;
      Alcotest.fail "oversized batch must be rejected"

(* A zero-length UDP datagram is a real datagram: it must be counted
   and delivered (the codec will reject it as short), and it must not
   terminate the drain loop — the frame behind it arrives in the same
   drain. Regression for the seed's [| 0, _ -> continue := false]. *)
let test_empty_datagram_not_poll_end () =
  let path = scratch_path "empty" in
  let rx = Transport_udp.create ~bind:(Transport_udp.Unix_dgram path) () in
  let tx =
    Transport_udp.create ~peer:(Transport_udp.Unix_dgram path) ~batch:1 ()
  in
  let got = ref [] in
  Transport_udp.set_slice_handler rx (fun f ->
      got := Resets_util.Slice.to_string f :: !got);
  check_bool "send empty" true (Transport_udp.send_frame tx "");
  check_bool "send real" true (Transport_udp.send_frame tx "after-empty");
  check_bool "readable" true (Transport_udp.wait_readable rx ~timeout:1.0);
  check_int "both delivered in one drain" 2 (Transport_udp.drain rx);
  Alcotest.(check (list string)) "empty frame first, real frame behind it"
    [ ""; "after-empty" ] (List.rev !got);
  check_int "both counted" 2 (Transport_udp.rx_frames rx);
  Transport_udp.close tx;
  Transport_udp.close rx

(* Counter consistency under batching: however a flush ends — full
   completion, dead peer refusing the whole batch — every attempted
   frame lands in exactly one of tx_frames/tx_errors. *)
let test_partial_batch_counters () =
  (* dead peer: the flush's sendmmsg fails at frame 0, the whole
     batch is the unsent tail *)
  let dead =
    Transport_udp.create
      ~peer:(Transport_udp.Unix_dgram (scratch_path "gone"))
      ~batch:4 ()
  in
  for i = 1 to 3 do
    check_bool
      (Printf.sprintf "frame %d staged" i)
      true
      (Transport_udp.send_frame dead (Printf.sprintf "f%d" i))
  done;
  check_int "nothing attempted yet" 0
    (Transport_udp.tx_frames dead + Transport_udp.tx_errors dead);
  (* 4th send fills the pool and triggers the flush; its own frame is
     in the failed tail, so the send reports false *)
  check_bool "flush-triggering send reports loss" false
    (Transport_udp.send_frame dead "f4");
  check_int "all four accounted as errors" 4 (Transport_udp.tx_errors dead);
  check_int "none as sent" 0 (Transport_udp.tx_frames dead);
  Transport_udp.close dead;
  (* live peer: same shape, everything lands in tx_frames *)
  let path = scratch_path "live" in
  let rx = Transport_udp.create ~bind:(Transport_udp.Unix_dgram path) () in
  let tx =
    Transport_udp.create ~peer:(Transport_udp.Unix_dgram path) ~batch:4 ()
  in
  for i = 1 to 10 do
    ignore (Transport_udp.send_frame tx (Printf.sprintf "m%d" i) : bool)
  done;
  let tail = Transport_udp.tx_queued tx in
  check_int "two frames still staged" 2 tail;
  ignore (Transport_udp.flush tx : int);
  check_int "attempted = tx_frames + tx_errors" 10
    (Transport_udp.tx_frames tx + Transport_udp.tx_errors tx);
  check_int "live peer: no loss" 10 (Transport_udp.tx_frames tx);
  check_int "explicit flush + 2 auto-flushes" 3 (Transport_udp.tx_flushes tx);
  check_int "pool high-water mark" 4 (Transport_udp.tx_queue_hwm tx);
  ignore (Transport_udp.drain rx : int);
  Transport_udp.close tx;
  Transport_udp.close rx

(* The mmsg stubs and the portable fallback must deliver the identical
   frame stream: same frames, same order, same counters. Drains are
   interleaved with sends and, over unix-dgram (the default [addr]),
   the batch stays under the kernel's queue-length cap
   (net.unix.max_dgram_qlen, commonly 10) so the loopback delivers
   everything — backpressure loss is real but it is not what this test
   is about. Returns the frames the handler saw, in order, and both
   (closed) transports for their counters. *)
let run_stream ?(addr = Transport_udp.Unix_dgram (scratch_path "diff")) ~batch
    frames =
  let rx = Transport_udp.create ~bind:addr ~batch () in
  let tx = Transport_udp.create ~peer:addr ~batch () in
  let got = ref [] and n_got = ref 0 in
  Transport_udp.set_slice_handler rx (fun f ->
      got := Resets_util.Slice.to_string f :: !got;
      incr n_got);
  List.iter
    (fun f ->
      ignore (Transport_udp.send_frame tx f : bool);
      ignore (Transport_udp.drain rx : int))
    frames;
  ignore (Transport_udp.flush tx : int);
  let deadline = Unix.gettimeofday () +. 2.0 in
  while !n_got < List.length frames && Unix.gettimeofday () < deadline do
    ignore (Transport_udp.wait_readable rx ~timeout:0.1 : bool);
    ignore (Transport_udp.drain rx : int)
  done;
  Transport_udp.close tx;
  Transport_udp.close rx;
  (List.rev !got, tx, rx)

let test_stub_vs_fallback_identical () =
  (* A no-op where the stubs are not in use: unavailable, or the
     fallback forced by RESETS_NO_MMSG. *)
  if not (Batch_io.using_mmsg ()) then ()
  else begin
    let frames =
      List.init 50 (fun i -> Printf.sprintf "frame-%03d-%s" i
                               (String.make (i mod 17) 'x'))
    in
    let via_mmsg, tx_mmsg, _ = run_stream ~batch:8 frames in
    Batch_io.force_fallback true;
    check_bool "fallback forced" false (Batch_io.using_mmsg ());
    let via_fallback, tx_fallback, _ =
      Fun.protect
        ~finally:(fun () -> Batch_io.force_fallback false)
        (fun () -> run_stream ~batch:8 frames)
    in
    check_int "same frames accepted" (Transport_udp.tx_frames tx_mmsg)
      (Transport_udp.tx_frames tx_fallback);
    Alcotest.(check (list string))
      "identical frame stream through stub and fallback" via_mmsg via_fallback
  end

(* Batched and unbatched transports deliver the same frames in the
   same order — batching changes syscall count, not semantics. *)
let test_batched_vs_unbatched_stream () =
  let frames = List.init 40 (fun i -> Printf.sprintf "pkt-%d" i) in
  let batched, _, _ = run_stream ~batch:8 frames in
  let unbatched, _, _ = run_stream ~batch:1 frames in
  Alcotest.(check (list string)) "same stream at batch 8 and batch 1"
    batched unbatched;
  Alcotest.(check (list string)) "nothing lost on loopback" frames batched

(* Buffer sizing: requested SO_RCVBUF/SO_SNDBUF surface as effective
   values (kernels clamp/round — only positivity and monotone growth
   are portable assertions). *)
let test_socket_buffer_sizing () =
  let path = scratch_path "bufs" in
  let small =
    Transport_udp.create ~bind:(Transport_udp.Unix_dgram path) ~rcvbuf:16384
      ~sndbuf:16384 ()
  in
  let small_rcv = Transport_udp.rcvbuf_effective small in
  let small_snd = Transport_udp.sndbuf_effective small in
  Transport_udp.close small;
  let big =
    Transport_udp.create ~bind:(Transport_udp.Unix_dgram path) ~rcvbuf:262144
      ~sndbuf:262144 ()
  in
  let big_rcv = Transport_udp.rcvbuf_effective big in
  Transport_udp.close big;
  check_bool "effective rcvbuf positive" true (small_rcv > 0);
  check_bool "effective sndbuf positive" true (small_snd > 0);
  check_bool "bigger request, no smaller grant" true (big_rcv >= small_rcv)

(* ------------------------------------------------------------------ *)
(* One kernel datagram per run of frames: GSO runs on send, GRO on
   receive, over UDP loopback. *)

(* The run grouping the send stub follows, over random length lists:
   runs tile the batch in order, a run is equal lengths closed by at
   most one shorter nonzero frame within the GSO caps, a zero-length
   frame is a run of one, and a run ends only where the next frame
   could not join it. *)
let gen_lens =
  let open QCheck.Gen in
  let len = oneof [ oneofl [ 0; 1; 40; 41; 1100; 1500 ]; int_range 0 1500 ] in
  map
    (fun runs -> List.concat_map (fun (l, n) -> List.init n (fun _ -> l)) runs)
    (list_size (int_range 1 8) (pair len (int_range 1 70)))

let prop_group_runs =
  QCheck.Test.make ~name:"GSO runs tile the batch" ~count:500
    (QCheck.make ~print:QCheck.Print.(list int) gen_lens)
    (fun l ->
      let lens = Array.of_list l and count = List.length l in
      let firsts = Array.make (count + 1) (-1) in
      let runs = Batch_io.group_runs lens ~count firsts in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      if firsts.(0) <> 0 || firsts.(runs) <> count then
        fail "runs span %d..%d, not 0..%d" firsts.(0) firsts.(runs) count;
      for k = 0 to runs - 1 do
        let first = firsts.(k) and next = firsts.(k + 1) in
        let run = next - first and len = lens.(first) in
        let last = lens.(next - 1) in
        let bytes = ref 0 in
        for i = first to next - 1 do
          bytes := !bytes + lens.(i)
        done;
        if run < 1 then fail "run %d is empty" k;
        for i = first to next - 2 do
          if lens.(i) <> len then fail "run %d: frame %d is not %d bytes" k i len
        done;
        if run > 1 && Array.exists (( = ) 0) (Array.sub lens first run) then
          fail "run %d holds an empty frame" k;
        if run > 1 && (last <= 0 || last > len) then
          fail "run %d ends with %d bytes after %d" k last len;
        if run > 1
           && (run > Batch_io.max_run_frames || !bytes > Batch_io.max_run_bytes)
        then fail "run %d: %d frames, %d bytes" k run !bytes;
        if next < count then begin
          let l = lens.(next) in
          let closed =
            len = 0 || last < len || l = 0 || l > len
            || run = Batch_io.max_run_frames
            || !bytes + l > Batch_io.max_run_bytes
          in
          if not closed then fail "run %d could take frame %d" k next
        end
      done;
      true)

let free_udp_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, port) -> port
      | Unix.ADDR_UNIX _ -> assert false)

let loopback () = Transport_udp.Udp ("127.0.0.1", free_udp_port ())

(* Run [f] with every ring made meanwhile on the portable path. *)
let on_fallback f =
  let was = Batch_io.using_mmsg () in
  Batch_io.force_fallback true;
  Fun.protect ~finally:(fun () -> if was then Batch_io.force_fallback false) f

(* Frame [i] of [len] bytes, its bytes a function of both, so a frame
   moved, cut or merged does not compare equal. *)
let frame_of i len = String.init len (fun j -> Char.chr ((i * 131 + j) land 0xff))

(* The stream differential over udp:127.0.0.1: on the stub path (GSO
   and GRO where the kernel has them) and on the portable path, the
   handler sees exactly the frames offered, in order, and every offered
   frame is accepted or counted as an error. *)
let prop_udp_stream =
  let gen =
    QCheck.Gen.(
      pair (oneofl [ 1; 8; Batch_io.max_batch ]) gen_lens)
  in
  let print (batch, l) =
    Printf.sprintf "batch %d, lengths [%s]" batch
      (String.concat "; " (List.map string_of_int l))
  in
  QCheck.Test.make ~name:"UDP stream: stub = fallback = offered" ~count:25
    (QCheck.make ~print gen)
    (fun (batch, lens) ->
      let frames = List.mapi frame_of lens in
      let offered = List.length frames in
      let check_path name (got, tx, rx) =
        let fail fmt = QCheck.Test.fail_reportf ("%s: " ^^ fmt) name in
        let attempted = Transport_udp.tx_frames tx + Transport_udp.tx_errors tx in
        if attempted <> offered then
          fail "tx_frames + tx_errors = %d, offered %d" attempted offered;
        if List.length got <> offered then
          fail "handler saw %d frames of %d" (List.length got) offered;
        List.iteri
          (fun i (a, b) -> if a <> b then fail "frame %d differs" i)
          (List.combine frames got);
        if Transport_udp.tx_datagrams tx > Transport_udp.tx_frames tx
           || Transport_udp.rx_datagrams rx > Transport_udp.rx_frames rx
        then fail "more datagrams than frames"
      in
      check_path "stub" (run_stream ~addr:(loopback ()) ~batch frames);
      let ((_, tx, rx) as fallback) =
        on_fallback (fun () -> run_stream ~addr:(loopback ()) ~batch frames)
      in
      check_path "fallback" fallback;
      if Transport_udp.gso tx || Transport_udp.gro rx then
        QCheck.Test.fail_reportf "segmentation on for the portable path";
      true)

(* Coalescing pinned on loopback: 8 equal frames flushed once cross the
   kernel boundary as one datagram on each side and reach the handler
   as 8 frames, in order. Skipped where the kernel lacks UDP_SEGMENT or
   UDP_GRO, or the portable path is in use. *)
let test_gso_gro_coalesce () =
  let addr = loopback () in
  let rx = Transport_udp.create ~bind:addr () in
  let tx = Transport_udp.create ~peer:addr () in
  Fun.protect
    ~finally:(fun () ->
      Transport_udp.close tx;
      Transport_udp.close rx)
    (fun () ->
      if Transport_udp.gso tx && Transport_udp.gro rx then begin
        let frames = List.init 8 (fun i -> frame_of i 40) in
        let got = ref [] in
        Transport_udp.set_slice_handler rx (fun f ->
            got := Resets_util.Slice.to_string f :: !got);
        List.iter (fun f -> ignore (Transport_udp.send_frame tx f : bool)) frames;
        check_int "one flush sends all 8" 8 (Transport_udp.flush tx);
        check_int "tx_flushes" 1 (Transport_udp.tx_flushes tx);
        check_int "tx_datagrams" 1 (Transport_udp.tx_datagrams tx);
        check_bool "readable" true (Transport_udp.wait_readable rx ~timeout:1.0);
        check_int "drained 8 frames" 8 (Transport_udp.drain rx);
        check_int "rx_datagrams" 1 (Transport_udp.rx_datagrams rx);
        check_int "rx_frames" 8 (Transport_udp.rx_frames rx);
        check_int "rx_batches" 1 (Transport_udp.rx_batches rx);
        Alcotest.(check (list string)) "the 8 frames, in order" frames (List.rev !got)
      end)

external set_no_check : Unix.file_descr -> bool = "test_net_set_no_check"

(* A GSO message the kernel refuses never raises out of a send: with
   SO_NO_CHECK set the kernel answers a UDP_SEGMENT message with EINVAL.
   A plain frame, then a run of 4 the kernel refuses (after a partial
   sendmmsg) go out as 5 plain datagrams, GSO stays off for the ring,
   and the receiver sees every frame in order. *)
let test_gso_refusal () =
  let port = free_udp_port () in
  let rx = Transport_udp.create ~bind:(Transport_udp.Udp ("127.0.0.1", port)) () in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  let tx = Batch_io.ring 8 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd;
      Transport_udp.close rx)
    (fun () ->
      if Batch_io.enable_gso fd tx then begin
        check_bool "SO_NO_CHECK" true (set_no_check fd);
        let dest = Batch_io.Inet ("127.0.0.1", port) in
        let send frames =
          List.iteri
            (fun i f ->
              Bytes.blit_string f 0 tx.Batch_io.bufs.(i) 0 (String.length f);
              tx.Batch_io.lens.(i) <- String.length f)
            frames;
          Batch_io.send_batch fd tx ~dest ~count:(List.length frames)
        in
        let first = frame_of 0 30 :: List.init 4 (fun i -> frame_of (i + 1) 40) in
        let second = List.init 4 (fun i -> frame_of (i + 5) 40) in
        check_int "refused run resent" 5 (send first);
        check_bool "GSO off after the refusal" false tx.Batch_io.segment;
        check_int "five plain datagrams" 5 tx.Batch_io.datagrams;
        check_int "the next batch goes plain" 4 (send second);
        check_int "four more datagrams" 9 tx.Batch_io.datagrams;
        let got = ref [] in
        Transport_udp.set_slice_handler rx (fun f ->
            got := Resets_util.Slice.to_string f :: !got);
        let deadline = Unix.gettimeofday () +. 2.0 in
        while List.length !got < 9 && Unix.gettimeofday () < deadline do
          ignore (Transport_udp.wait_readable rx ~timeout:0.05 : bool);
          ignore (Transport_udp.drain rx : int)
        done;
        Alcotest.(check (list string)) "every frame, in order" (first @ second)
          (List.rev !got)
      end)

(* ------------------------------------------------------------------ *)
(* The zero-copy face: frames leave via send_slice and arrive as arena
   slices that feed Esp.decap_of_slice without ever becoming strings. *)
let test_transport_slice_face () =
  let sa =
    Resets_ipsec.Sa.derive_params ~window_width:64 ~spi:0x51CEl
      ~secret:"slice-face" ()
  in
  let path = scratch_path "sliceface" in
  let rx = Transport_udp.create ~bind:(Transport_udp.Unix_dgram path) () in
  let tx =
    Transport_udp.create ~peer:(Transport_udp.Unix_dgram path) ~batch:1 ()
  in
  let got = ref [] in
  Transport_udp.set_slice_handler rx (fun s ->
      (match Resets_ipsec.Esp.spi_of_slice s with
      | Some spi -> check_int "spi peeked from slice" 0x51CE (Int32.to_int spi)
      | None -> Alcotest.fail "short frame");
      match Resets_ipsec.Esp.decap_of_slice ~sa s with
      | Ok (seq, payload) ->
        got := (seq, Resets_util.Slice.to_string payload) :: !got
      | Error e -> Alcotest.failf "decap: %s" (Resets_ipsec.Esp.error_to_string e));
  let frame = Resets_ipsec.Esp.encap ~sa ~seq:7 ~payload:"zero-copy rx" in
  check_bool "staged" true
    (Transport_udp.send_slice tx (Resets_util.Slice.of_string frame));
  check_bool "readable" true (Transport_udp.wait_readable rx ~timeout:1.0);
  ignore (Transport_udp.drain rx);
  (match !got with
  | [ (7, "zero-copy rx") ] -> ()
  | [ (seq, p) ] -> Alcotest.failf "wrong decap: seq=%d payload=%S" seq p
  | l -> Alcotest.failf "expected 1 frame, got %d" (List.length l));
  check_int "slice send counted as tx" 1 (Transport_udp.tx_frames tx);
  check_int "slice recv counted as rx" 1 (Transport_udp.rx_frames rx);
  Transport_udp.close tx;
  Transport_udp.close rx

(* ------------------------------------------------------------------ *)
(* Daemon smoke: a send-role daemon runs to duration against a scratch
   socket (nobody listening: every send is counted loss) and reports. *)

let test_daemon_send_smoke () =
  with_scratch_dir "daemon" @@ fun dir ->
  let cfg =
    {
      Daemon.default with
      Daemon.role = Daemon.Send;
      bind = None;
      peer = Some (Transport_udp.Unix_dgram (scratch_path "daemon"));
      sas = 2;
      k = 4;
      rate_pps = 200.;
      duration = 0.4;
      store_dir = dir;
      stats_path = None;
      json_path = None;
    }
  in
  let rc, report = Daemon.run cfg in
  check_int "clean exit" 0 rc;
  let s = Resets_util.Json.to_string report in
  check_bool "reports role" true (contains s "\"send\"");
  check_bool "reports throughput" true (contains s "\"pps\"");
  check_bool "counts refused sends as loss" true (contains s "wire_tx_errors");
  check_bool "reports wire pressure" true (contains s "tx_flushes")

(* ------------------------------------------------------------------ *)
(* Graceful SIGTERM: the daemon flushes a final SAVE and stamps the
   terminal heartbeat. Needs a real process to signal, so spawn the
   real daemon executable (a dune dep of this test) exactly as the
   fleet supervisor would. *)

let daemon_bin =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    "../bin/ipsec_resets.exe"

let test_daemon_sigterm_graceful () =
  if not (Sys.file_exists daemon_bin) then
    Alcotest.failf "daemon binary not built at %s" daemon_bin;
  with_scratch_dir "sigterm" @@ fun dir ->
  let hb = Filename.concat dir "hb.jsonl" in
  let argv =
    [|
      daemon_bin; "serve"; "--role"; "send"; "--peer";
      "unix:" ^ scratch_path "sigterm"; "--sas"; "2"; "-k"; "4"; "--rate";
      "500"; "--duration"; "30";
      (* far longer than the test: only SIGTERM can end it in time *)
      "--store"; dir; "--stats"; hb; "--heartbeat"; "0.05"; "--graceful";
      "--quiet";
    |]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process daemon_bin argv devnull devnull Unix.stderr
  in
  Unix.close devnull;
  (* wait for the first heartbeat so the SAs exist before we stop it *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec wait_hb () =
    if Sys.file_exists hb && (Unix.stat hb).Unix.st_size > 0 then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "daemon wrote no heartbeat"
    else (
      Unix.sleepf 0.05;
      wait_hb ())
  in
  wait_hb ();
  Unix.sleepf 0.3;
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  (
    (match status with
    | Unix.WEXITED 0 -> ()
    | Unix.WEXITED c -> Alcotest.failf "daemon exited %d" c
    | _ -> Alcotest.fail "daemon did not exit cleanly");
    (* The terminal heartbeat records the stop reason and the final
       counters... *)
    let lines =
      let ic = open_in hb in
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file ->
          close_in ic;
          List.rev acc
      in
      go []
    in
    let terminal =
      List.find_opt (fun l -> contains l "\"shutdown\"") lines
    in
    match terminal with
    | None -> Alcotest.fail "no terminal heartbeat"
    | Some l ->
      check_bool "reason is sigterm" true (contains l "\"sigterm\"");
      (* ...and the final blocking SAVE made exactly those counters
         durable: the stored seq for each SA equals the terminal
         heartbeat's next_seq. *)
      let j = Resets_util.Json.parse_exn l in
      let sas =
        match Resets_util.Json.member "sas" j with
        | Some (Resets_util.Json.List sas) -> sas
        | _ -> Alcotest.fail "terminal heartbeat lists no SAs"
      in
      let store = Resets_persist.File_store.create ~dir in
      List.iter
        (fun sa ->
          let geti name =
            match Resets_util.Json.member name sa with
            | Some v ->
              Option.value (Resets_util.Json.as_int v) ~default:(-1)
            | None -> -1
          in
          let spi = geti "spi" and next_seq = geti "next_seq" in
          check_bool "sender actually ran" true (next_seq > 0);
          let key = Printf.sprintf "spi-%d-seq" spi in
          match Resets_persist.File_store.fetch store ~key with
          | Some stored ->
            check_int
              (Printf.sprintf "spi %d: stored seq = terminal heartbeat" spi)
              next_seq stored
          | None -> Alcotest.failf "spi %d: no stored value" spi)
        sas)

(* ------------------------------------------------------------------ *)
(* The daemon executable as two processes over a unix-dgram socket.    *)

module Heartbeat = Resets_fleet.Heartbeat
module Json = Resets_util.Json

let spawn_serve args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process daemon_bin
      (Array.of_list (daemon_bin :: "serve" :: "--quiet" :: args))
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  pid

let exit_code pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> c
  | _ -> Alcotest.fail "daemon did not exit normally"

(* Wait until the daemon [pid] has appended its startup line to [hb]:
   its SAs are built and its engine is about to run. *)
let await_startup hb pid =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let started () =
    List.exists
      (fun (l : Heartbeat.line) -> l.event = Some "startup")
      (Heartbeat.of_pid (Heartbeat.load hb) ~pid)
  in
  while not (started ()) do
    if Unix.gettimeofday () > deadline then begin
      Unix.kill pid Sys.sigkill;
      Alcotest.fail "daemon wrote no startup line"
    end;
    Unix.sleepf 0.02
  done

let read_json path = Json.parse_exn (In_channel.with_open_bin path In_channel.input_all)
let jint name j = Option.value ~default:(-1) (Option.bind (Json.member name j) Json.as_int)

let jlist name j =
  Option.value ~default:[] (Option.bind (Json.member name j) Json.as_list)

(* The receive role under the test suite: a receiving and a sending
   daemon, 2 SAs, about a second of traffic; the receiver is stopped by
   SIGTERM once the sender has exited. Every frame the kernel accepted
   from the sender must be delivered exactly once, and the receiver's
   heartbeat file must read back through the fleet's parser. Over a
   unix-dgram socket the pair runs unbatched, one datagram per frame;
   over UDP loopback it runs at the default batch, where each tick's
   equal-length frames may share a GSO run and a GRO datagram. *)
let test_daemon_recv_pair ~udp () =
  if not (Sys.file_exists daemon_bin) then
    Alcotest.failf "daemon binary not built at %s" daemon_bin;
  with_scratch_dir "pair" @@ fun dir ->
  let file = Filename.concat dir in
  let addr, batch =
    if udp then (Transport_udp.addr_to_string (loopback ()), [])
    else ("unix:" ^ scratch_path "pair", [ "--batch"; "1" ])
  in
  let common = [ "--sas"; "2"; "-k"; "4"; "--heartbeat"; "0.1" ] @ batch in
  let recv =
    spawn_serve
      ([ "--role"; "recv"; "--bind"; addr; "--duration"; "10";
         "--graceful"; "--store"; file "store-recv"; "--stats"; file "hb-recv";
         "--json"; file "rep-recv" ]
      @ common)
  in
  await_startup (file "hb-recv") recv;
  let send =
    spawn_serve
      ([ "--role"; "send"; "--peer"; addr; "--rate"; "100";
         "--duration"; "1"; "--store"; file "store-send"; "--stats";
         file "hb-send"; "--json"; file "rep-send" ]
      @ common)
  in
  check_int "sender exit" 0 (exit_code send);
  Unix.sleepf 0.2;
  Unix.kill recv Sys.sigterm;
  check_int "receiver exit" 0 (exit_code recv);
  let rr = read_json (file "rep-recv") and rs = read_json (file "rep-send") in
  let delivered = jint "delivered" rr in
  check_bool "the sender put frames on the wire" true (jint "wire_tx" rs > 0);
  check_int "delivered = sender's wire_tx" (jint "wire_tx" rs) delivered;
  (* The wire blocks count the kernel datagrams beside the frames, and
     the startup lines say whether segmentation was on. *)
  let wire j = Option.value ~default:Json.Null (Json.member "wire" j) in
  let tx_frames = jint "tx_frames" (wire rs) and tx_dgrams = jint "tx_datagrams" (wire rs) in
  let rx_frames = jint "rx_frames" (wire rr) and rx_dgrams = jint "rx_datagrams" (wire rr) in
  check_int "tx_frames = wire_tx" (jint "wire_tx" rs) tx_frames;
  check_int "rx_frames = wire_rx" (jint "wire_rx" rr) rx_frames;
  check_bool "some tx datagrams, no more than frames" true
    (0 < tx_dgrams && tx_dgrams <= tx_frames);
  check_bool "some rx datagrams, no more than frames" true
    (0 < rx_dgrams && rx_dgrams <= rx_frames);
  let startup hb =
    match
      List.find_opt
        (fun l -> contains l "\"startup\"")
        (In_channel.with_open_bin (file hb) In_channel.input_all
        |> String.split_on_char '\n')
    with
    | Some l -> Json.parse_exn l
    | None -> Alcotest.failf "%s: no startup line" hb
  in
  let flag name j = Option.bind (Json.member name j) Json.as_bool in
  let gso = flag "gso" (startup "hb-send") and gro = flag "gro" (startup "hb-recv") in
  check_bool "startup lines record gso and gro" true (gso <> None && gro <> None);
  if not (Batch_io.using_mmsg ()) then begin
    (* RESETS_NO_MMSG reaches the daemons too *)
    check_bool "portable path: no GSO" true (gso = Some false);
    check_bool "portable path: no GRO" true (gro = Some false)
  end;
  if not udp then begin
    check_bool "unix-dgram: no GSO" true (gso = Some false);
    check_bool "unix-dgram: no GRO" true (gro = Some false);
    check_int "unix-dgram: one tx datagram per frame" tx_frames tx_dgrams;
    check_int "unix-dgram: one rx datagram per frame" rx_frames rx_dgrams
  end;
  let per_sa = jlist "per_sa" rr in
  check_int "one row per SA" 2 (List.length per_sa);
  List.iter
    (fun sa ->
      let spi = jint "spi" sa in
      check_bool (Printf.sprintf "spi %d delivered" spi) true
        (jint "delivered" sa > 0);
      List.iter
        (fun f -> check_int (Printf.sprintf "spi %d %s" spi f) 0 (jint f sa))
        [ "dups"; "bad_icv"; "lost" ])
    per_sa;
  let lines =
    In_channel.with_open_bin (file "hb-recv") In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  List.iter
    (fun l ->
      if Heartbeat.parse_line l = None then
        Alcotest.failf "heartbeat line does not parse: %s" l)
    lines;
  match Heartbeat.terminal (List.filter_map Heartbeat.parse_line lines) with
  | None -> Alcotest.fail "no terminal heartbeat"
  | Some t ->
    check_int "terminal line's per-SA delivered sum to the report's total"
      delivered
      (Heartbeat.total (fun sa -> sa.Heartbeat.delivered) t)

(* A receiver behind the impaired wire: the sender runs E17's wire
   faults (loss, duplication, reordering by 10 ms, bursts) for 1.5 s.
   Per SA the receiver delivers, delivers nothing twice, sees no
   integrity failure, loses at most 2k fresh messages, and refuses more
   fresh frames than it lost: duplicate copies reached q and were
   turned away. *)
let test_daemon_recv_behind_impaired_wire () =
  if not (Sys.file_exists daemon_bin) then
    Alcotest.failf "daemon binary not built at %s" daemon_bin;
  with_scratch_dir "impaired" @@ fun dir ->
  let file = Filename.concat dir in
  let sock = scratch_path "impaired" in
  let k = 4 in
  let common = [ "--sas"; "2"; "-k"; string_of_int k; "--heartbeat"; "0.1" ] in
  let recv =
    spawn_serve
      ([ "--role"; "recv"; "--bind"; "unix:" ^ sock; "--duration"; "10";
         "--graceful"; "--store"; file "store-recv"; "--stats"; file "hb-recv";
         "--json"; file "rep-recv" ]
      @ common)
  in
  await_startup (file "hb-recv") recv;
  let send =
    spawn_serve
      ([ "--role"; "send"; "--peer"; "unix:" ^ sock; "--rate"; "400";
         "--duration"; "1.5"; "--store"; file "store-send"; "--impair";
         "drop=0.05,dup=0.02,reorder=0.02:10ms,ge=0.02:0.3:0.8" ]
      @ common)
  in
  check_int "sender exit" 0 (exit_code send);
  Unix.sleepf 0.2;
  Unix.kill recv Sys.sigterm;
  check_int "receiver exit" 0 (exit_code recv);
  let per_sa = jlist "per_sa" (read_json (file "rep-recv")) in
  check_int "one row per SA" 2 (List.length per_sa);
  let bound = Resets_core.Analysis.max_fresh_discards ~kq:k in
  List.iter
    (fun sa ->
      let spi = jint "spi" sa and lost = jint "lost" sa in
      let name = Printf.sprintf "spi %d: %s" spi in
      check_bool (name "delivered") true (jint "delivered" sa > 0);
      check_int (name "dups") 0 (jint "dups" sa);
      check_int (name "bad_icv") 0 (jint "bad_icv" sa);
      check_bool (name "lost <= 2k") true (0 <= lost && lost <= bound);
      check_bool (name "duplicate copies refused") true
        (jint "fresh_rejected" sa > lost))
    per_sa

(* Frames no SA owns are counted, not silently dropped: a 1-SA
   receiver is fed an ESP frame under the SPI just past its range and a
   frame too short to carry an SPI. Both count as [rx_no_sa] in the
   report's and the terminal heartbeat's wire block; nothing is
   delivered. *)
let test_daemon_rx_no_sa () =
  if not (Sys.file_exists daemon_bin) then
    Alcotest.failf "daemon binary not built at %s" daemon_bin;
  with_scratch_dir "nosa" @@ fun dir ->
  let file = Filename.concat dir in
  let sock = scratch_path "nosa" in
  let spi_base = Daemon.default.Daemon.spi_base in
  let recv =
    spawn_serve
      [ "--role"; "recv"; "--bind"; "unix:" ^ sock; "--sas"; "1";
        "--duration"; "1"; "--store"; file "store"; "--stats"; file "hb";
        "--json"; file "rep" ]
  in
  await_startup (file "hb") recv;
  let foreign =
    Resets_ipsec.Sa.derive_params ~window_width:64
      ~spi:(Int32.of_int (spi_base + 1))
      ~secret:Daemon.default.Daemon.secret ()
  in
  let tx =
    Transport_udp.create ~peer:(Transport_udp.Unix_dgram sock) ~batch:1 ()
  in
  List.iter
    (fun frame -> ignore (Transport_udp.send_frame tx frame : bool))
    [ Resets_ipsec.Esp.encap ~sa:foreign ~seq:1 ~payload:"no such SA"; "abc" ];
  check_int "both frames reached the socket" 2 (Transport_udp.tx_frames tx);
  Transport_udp.close tx;
  check_int "receiver exit" 0 (exit_code recv);
  let rep = read_json (file "rep") in
  let wire j = Option.value ~default:Json.Null (Json.member "wire" j) in
  check_int "wire_rx" 2 (jint "wire_rx" rep);
  check_int "report rx_no_sa" 2 (jint "rx_no_sa" (wire rep));
  check_int "delivered" 0 (jint "delivered" rep);
  match
    List.rev
      (In_channel.with_open_bin (file "hb") In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> ""))
  with
  | last :: _ ->
    check_int "terminal heartbeat rx_no_sa" 2
      (jint "rx_no_sa" (wire (Json.parse_exn last)))
  | [] -> Alcotest.fail "no heartbeat"

(* The impaired wire sits in front of the socket: whatever its Link
   delivers is one frame attempt, so a send role aimed at a peer that
   is not listening attempts 0 frames under drop=1, two per message
   under dup=1, and one per message on a clean wire. *)
let test_daemon_impair_in_front_of_socket () =
  let attempts impair =
    with_scratch_dir "impair" @@ fun store_dir ->
    let cfg =
      {
        Daemon.default with
        Daemon.role = Daemon.Send;
        bind = None;
        peer = Some (Transport_udp.Unix_dgram (scratch_path "impair"));
        sas = 2;
        rate_pps = 200.;
        duration = 0.4;
        store_dir;
        impair =
          (match Resets_sim.Link.faults_of_string impair with
          | Ok faults -> faults
          | Error e -> Alcotest.failf "impair spec: %s" e);
      }
    in
    let rc, rep = Daemon.run cfg in
    check_int (impair ^ ": clean exit") 0 rc;
    (jint "wire_tx" rep + jint "wire_tx_errors" rep, jint "sent" rep)
  in
  let frames, sent = attempts "" in
  check_bool "the senders ran" true (sent > 0);
  check_int "no plan: one frame per message" sent frames;
  let frames, _ = attempts "drop=1" in
  check_int "drop=1: no frame reaches the socket" 0 frames;
  let frames, sent = attempts "dup=1" in
  check_int "dup=1: two frames per message" (2 * sent) frames

(* The cross-incarnation replay check must hold even when the stats
   file does not end with a heartbeat: the previous incarnation may
   have died before its first heartbeat (a trailing startup line) or
   mid-append (a torn line). The store holds edge 10, the previous
   incarnation's last heartbeat saw seq 1000 delivered, and frames
   30..40 arrive: they are above the recovered edge 10 + 2k = 18, so
   only the replay check can catch them. *)
let test_replay_check_after last_line () =
  if not (Sys.file_exists daemon_bin) then
    Alcotest.failf "daemon binary not built at %s" daemon_bin;
  with_scratch_dir "prev" @@ fun dir ->
  let file = Filename.concat dir in
  let sock = scratch_path "prev" in
  let spi = 0x5000 in
  Resets_persist.File_store.preload
    (Resets_persist.File_store.create ~dir:(file "store"))
    ~key:(Printf.sprintf "spi-%d-edge" spi)
    ~value:10;
  let prev =
    {
      Heartbeat.spi;
      recovered = false;
      recovered_from = 0;
      sent = 0;
      next_seq = 0;
      delivered = 1000;
      min_seq = 1;
      max_seq = 1000;
      fresh_rejected = 0;
      lost = 0;
      dups = 0;
      bad_icv = 0;
      edge = 1000;
      k_now = 4;
    }
  in
  let heartbeat =
    Json.to_string
      (Json.Obj
         [
           ("pid", Json.Int 1);
           ("ts_ns", Json.Int 1);
           ("elapsed_ns", Json.Int 1);
           ("role", Json.String "recv");
           ("sas", Json.List [ Heartbeat.sa_to_json prev ]);
         ])
  in
  Out_channel.with_open_bin (file "hb") (fun oc ->
      output_string oc (heartbeat ^ "\n" ^ last_line heartbeat));
  let recv =
    spawn_serve
      [ "--role"; "recv"; "--bind"; "unix:" ^ sock; "--sas"; "1"; "-k"; "4";
        "--spi-base"; string_of_int spi; "--store"; file "store"; "--stats";
        file "hb"; "--expect-recovery"; "--duration"; "1"; "--json";
        file "rep" ]
  in
  await_startup (file "hb") recv;
  let sa =
    Resets_ipsec.Sa.derive_params ~window_width:64 ~spi:(Int32.of_int spi)
      ~secret:Daemon.default.Daemon.secret ()
  in
  let tx =
    Transport_udp.create ~peer:(Transport_udp.Unix_dgram sock) ~batch:1 ()
  in
  for seq = 30 to 40 do
    ignore
      (Transport_udp.send_frame tx
         (Resets_ipsec.Esp.encap ~sa ~seq ~payload:"after the restart"));
    Unix.sleepf 0.005
  done;
  check_int "every frame reached the socket" 11 (Transport_udp.tx_frames tx);
  Transport_udp.close tx;
  check_int "the gate fails" 2 (exit_code recv);
  let rep = read_json (file "rep") in
  match
    Option.bind (Json.member "gate" rep) (fun g -> Some (jlist "violations" g))
  with
  | Some [ Json.String v ] ->
    check_bool
      (Printf.sprintf "names the cross-incarnation replay: %s" v)
      true
      (contains v "cross-incarnation replay")
  | _ -> Alcotest.fail "expected exactly one gate violation"

let test_daemon_validates () =
  (match Daemon.run { Daemon.default with Daemon.bind = None } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "recv without bind must be rejected");
  (match
     Daemon.run { Daemon.default with Daemon.role = Daemon.Send; peer = None }
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "send without peer must be rejected");
  (* a file store has no latency knob: a slow-disk plan would be
     accepted and change nothing *)
  let slow = { Resets_persist.Faults.none with latency_factor = 3. } in
  match Daemon.run { Daemon.default with Daemon.store_faults = slow } with
  | exception Invalid_argument msg ->
    check_bool (Printf.sprintf "names latency: %s" msg) true (contains msg "latency")
  | _ -> Alcotest.fail "a store-fault latency factor must be rejected"

(* The adaptive daemon: every SA starts at k = 8 and re-derives its
   cadence within the policy's clamps. *)
let test_daemon_adaptive () =
  with_scratch_dir "adaptive" @@ fun store_dir ->
  let cfg =
    {
      Daemon.default with
      Daemon.role = Daemon.Send;
      bind = None;
      peer = Some (Transport_udp.Unix_dgram (scratch_path "adaptive"));
      sas = 2;
      adaptive = true;
      rate_pps = 400.;
      duration = 0.4;
      store_dir;
      stats_path = None;
      json_path = None;
    }
  in
  let rc, report = Daemon.run cfg in
  check_int "clean exit" 0 rc;
  check_string "k_policy" "auto:8"
    (Option.value ~default:"" (Option.bind (Json.member "k_policy" report) Json.as_string));
  let sas = jlist "per_sa" report in
  check_int "one row per SA" 2 (List.length sas);
  List.iter
    (fun sa ->
      let k = jint "k_now" sa in
      check_bool (Printf.sprintf "k_now %d in [1, 4096]" k) true (k >= 1 && k <= 4096))
    sas

(* A stealth paired run on the CLI: the save-window drop costs goodput
   (the oracle is the same seed attack-free) but injects nothing, so no
   replay is accepted, nothing is delivered twice and no sequence number
   is reused. Exit 2 is the verdict that delivery did not resume in the
   horizon; only a usage or internal error fails here. *)
let test_run_stealth_paired () =
  let ic =
    Unix.open_process_args_in daemon_bin
      [| daemon_bin; "run"; "--attack"; "stealth-save-drop@5"; "--paired"; "--json" |]
  in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED (0 | 2) -> ()
  | Unix.WEXITED c -> Alcotest.failf "run exited %d" c
  | _ -> Alcotest.fail "run did not exit normally");
  let j = Json.parse_exn out in
  let ratio =
    Option.value ~default:nan (Option.bind (Json.member "goodput_ratio" j) Json.as_float)
  in
  check_bool (Printf.sprintf "goodput ratio %.3f < 1" ratio) true (ratio < 1.);
  let verdict =
    Option.bind (Json.member "primary" j) (Json.member "verdict")
    |> Option.value ~default:Json.Null
  in
  List.iter
    (fun field ->
      check_bool field true
        (Option.bind (Json.member field verdict) Json.as_bool = Some true))
    [ "no_replay_accepted"; "no_duplicate_delivery"; "no_seqno_reuse" ]

let () =
  Alcotest.run "net"
    [
      ( "addr",
        [
          Alcotest.test_case "parse" `Quick test_addr_parse;
          Alcotest.test_case "round trip" `Quick test_addr_roundtrip;
          QCheck_alcotest.to_alcotest prop_addr_roundtrip;
          QCheck_alcotest.to_alcotest prop_addr_malformed;
        ] );
      ( "dgram",
        [
          Alcotest.test_case "send/drain" `Quick test_dgram_pair_send_drain;
          Alcotest.test_case "dead peer is loss" `Quick
            test_dgram_dead_peer_is_loss;
          Alcotest.test_case "no handler drops" `Quick
            test_dgram_no_handler_drops;
          Alcotest.test_case "wait timeout" `Quick test_dgram_wait_timeout;
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "empty datagram delivered" `Quick
            test_empty_datagram_not_poll_end;
        ] );
      ( "batching",
        [
          Alcotest.test_case "partial-batch counters" `Quick
            test_partial_batch_counters;
          Alcotest.test_case "stub vs fallback identical" `Quick
            test_stub_vs_fallback_identical;
          Alcotest.test_case "batched vs unbatched stream" `Quick
            test_batched_vs_unbatched_stream;
          Alcotest.test_case "socket buffer sizing" `Quick
            test_socket_buffer_sizing;
        ] );
      ( "gso",
        [
          QCheck_alcotest.to_alcotest prop_group_runs;
          QCheck_alcotest.to_alcotest prop_udp_stream;
          Alcotest.test_case "8 equal frames, one datagram each side" `Quick
            test_gso_gro_coalesce;
          Alcotest.test_case "refused GSO run goes plain" `Quick
            test_gso_refusal;
        ] );
      ( "transport",
        [
          Alcotest.test_case "slice face" `Quick test_transport_slice_face;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "send smoke" `Quick test_daemon_send_smoke;
          Alcotest.test_case "config validation" `Quick test_daemon_validates;
          Alcotest.test_case "adaptive policy" `Quick test_daemon_adaptive;
          Alcotest.test_case "sigterm graceful flush" `Quick
            test_daemon_sigterm_graceful;
          Alcotest.test_case "recv/send pair" `Quick
            (test_daemon_recv_pair ~udp:false);
          Alcotest.test_case "recv/send pair over UDP" `Quick
            (test_daemon_recv_pair ~udp:true);
          Alcotest.test_case "receiver behind the impaired wire" `Quick
            test_daemon_recv_behind_impaired_wire;
          Alcotest.test_case "frames no SA owns are counted" `Quick
            test_daemon_rx_no_sa;
          Alcotest.test_case "impairment in front of the socket" `Quick
            test_daemon_impair_in_front_of_socket;
          Alcotest.test_case "replay check past a trailing startup line"
            `Quick
            (test_replay_check_after (fun _ ->
                 {|{"event":"startup","pid":2,"ts_ns":2,"role":"recv","batch":32}|}
                 ^ "
"));
          Alcotest.test_case "replay check past a torn line" `Quick
            (test_replay_check_after (fun hb ->
                 String.sub hb 0 (String.length hb / 2)));
        ] );
      ( "cli",
        [ Alcotest.test_case "stealth paired run" `Quick test_run_stealth_paired ] );
    ]
