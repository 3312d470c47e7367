(* Tests for the wire front end: codec round-trips (QCheck, over every
   request/reply shape including binary strings), torn-frame resumable
   decoding at 1-byte granularity, malformed-frame rejection, the
   server/client end-to-end path over Unix and TCP loopback sockets —
   including proof that a hostile connection dies alone while the worker
   domains keep serving — the per-chunk reply batching on both ends of a
   connection, plus the YCSB generator, the load-generator
   accounting, the empty-histogram contract and the atomic JSON write. *)

open Spp_shard
open Spp_benchlib
open Spp_net

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let sock_path tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "spp-test-net-%d-%s.sock" (Unix.getpid ()) tag)

(* --- codec: generators ------------------------------------------------ *)

(* Arbitrary bytes, including NULs and high bits — the codec must be
   8-bit clean. *)
let gen_blob max_len =
  QCheck.Gen.(
    int_range 0 max_len >>= fun n ->
    string_size ~gen:(map Char.chr (int_range 0 255)) (return n))

let gen_request =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map2
            (fun key value -> Serve.Put { key; value })
            (gen_blob 64) (gen_blob 300) );
        (3, map (fun k -> Serve.Get k) (gen_blob 64));
        (2, map (fun k -> Serve.Remove k) (gen_blob 64));
        ( 1,
          map3
            (fun lo hi limit -> Serve.Scan { lo; hi; limit })
            (gen_blob 32) (gen_blob 32) (int_range 0 5000) );
      ])

let gen_reply =
  QCheck.Gen.(
    frequency
      [
        (2, return Serve.Done);
        (2, map (fun v -> Serve.Value (Some v)) (gen_blob 300));
        (1, return (Serve.Value None));
        (1, return (Serve.Removed true));
        (1, return (Serve.Removed false));
        ( 2,
          map
            (fun kvs -> Serve.Scanned kvs)
            (list_size (int_range 0 12) (pair (gen_blob 32) (gen_blob 80))) );
        (1, map (fun m -> Serve.Failed (Serve.Op_raised m)) (gen_blob 100));
        (1, return (Serve.Failed Serve.Failed_over));
      ])

let pp_request r =
  match (r : Serve.request) with
  | Serve.Put { key; value } ->
    Printf.sprintf "Put(%S,%d bytes)" key (String.length value)
  | Serve.Get k -> Printf.sprintf "Get(%S)" k
  | Serve.Remove k -> Printf.sprintf "Remove(%S)" k
  | Serve.Scan { lo; hi; limit } -> Printf.sprintf "Scan(%S,%S,%d)" lo hi limit

let arb_requests =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map pp_request l))
    QCheck.Gen.(list_size (int_range 1 20) gen_request)

let arb_replies =
  QCheck.make
    ~print:(fun l -> string_of_int (List.length l))
    QCheck.Gen.(list_size (int_range 1 20) gen_reply)

(* Encode [msgs] with ascending corr ids into one byte stream, then
   decode it fed in [chunk]-byte slices; the decoded (corr, msg) stream
   must equal the input exactly. *)
let round_trip ~encode ~next ~chunk msgs =
  let b = Buffer.create 256 in
  List.iteri (fun i m -> encode b ~corr:i m) msgs;
  let stream = Buffer.contents b in
  let d = Wire.decoder ~initial:16 () in
  let out = ref [] in
  let pos = ref 0 in
  let pop_all () =
    let continue = ref true in
    while !continue do
      match next d with
      | Wire.Msg (corr, m) -> out := (corr, m) :: !out
      | Wire.Awaiting -> continue := false
      | Wire.Corrupt msg -> failwith ("unexpected Corrupt: " ^ msg)
    done
  in
  while !pos < String.length stream do
    let len = min chunk (String.length stream - !pos) in
    Wire.feed_string d (String.sub stream !pos len);
    pos := !pos + len;
    pop_all ()
  done;
  List.rev !out = List.mapi (fun i m -> (i, m)) msgs
  && Wire.buffered d = 0

let qcheck_request_round_trip =
  QCheck.Test.make ~name:"wire: request round-trip (whole stream)" ~count:200
    arb_requests
    (round_trip ~encode:Wire.encode_request ~next:Wire.next_request
       ~chunk:max_int)

let qcheck_request_torn =
  QCheck.Test.make ~name:"wire: request round-trip (1-byte feed)" ~count:60
    arb_requests
    (round_trip ~encode:Wire.encode_request ~next:Wire.next_request ~chunk:1)

let qcheck_reply_round_trip =
  QCheck.Test.make ~name:"wire: reply round-trip (whole stream)" ~count:200
    arb_replies
    (round_trip ~encode:Wire.encode_reply ~next:Wire.next_reply ~chunk:max_int)

let qcheck_reply_torn =
  QCheck.Test.make ~name:"wire: reply round-trip (1-byte feed)" ~count:60
    arb_replies
    (round_trip ~encode:Wire.encode_reply ~next:Wire.next_reply ~chunk:1)

(* --- codec: explicit torn/malformed cases ----------------------------- *)

let encode_one_request ?(corr = 7) req =
  let b = Buffer.create 64 in
  Wire.encode_request b ~corr req;
  Buffer.contents b

let test_torn_frame_resume () =
  (* a multi-message stream fed byte by byte never pops early: the
     decoder reports Awaiting until the exact byte completing a frame *)
  let reqs =
    [ Serve.Put { key = "k\x00ey"; value = String.make 300 '\xff' };
      Serve.Get ""; Serve.Scan { lo = "a"; hi = "z"; limit = 17 } ]
  in
  let stream = String.concat "" (List.map encode_one_request reqs) in
  let d = Wire.decoder ~initial:16 () in
  let popped = ref [] in
  String.iteri
    (fun _ c ->
      Wire.feed_string d (String.make 1 c);
      match Wire.next_request d with
      | Wire.Msg (corr, r) ->
        check_int "echoed corr" 7 corr;
        popped := r :: !popped
      | Wire.Awaiting -> ()
      | Wire.Corrupt m -> Alcotest.failf "corrupt on valid stream: %s" m)
    stream;
  check_int "all frames popped" (List.length reqs) (List.length !popped);
  check_bool "frames round-tripped in order" true (List.rev !popped = reqs);
  check_int "decoder drained" 0 (Wire.buffered d)

let expect_corrupt what stream =
  let d = Wire.decoder () in
  Wire.feed_string d stream;
  match Wire.next_request d with
  | Wire.Corrupt _ -> ()
  | Wire.Msg _ -> Alcotest.failf "%s: parsed as a message" what
  | Wire.Awaiting -> Alcotest.failf "%s: still awaiting" what

let test_malformed_frames () =
  let valid = encode_one_request (Serve.Get "key") in
  (* unknown tag *)
  let bad_tag = Bytes.of_string valid in
  Bytes.set bad_tag 8 '\x7f';
  expect_corrupt "unknown tag" (Bytes.to_string bad_tag);
  (* reply tag on the request stream *)
  let reply_tag = Bytes.of_string valid in
  Bytes.set reply_tag 8 '\x81';
  expect_corrupt "reply tag in request stream" (Bytes.to_string reply_tag);
  (* payload length beyond max_frame — rejected before any allocation *)
  let oversize = Bytes.of_string valid in
  Bytes.set oversize 3 '\xff';
  expect_corrupt "oversized length" (Bytes.to_string oversize);
  (* length too small to hold the header *)
  expect_corrupt "undersized length" "\x02\x00\x00\x00\x00\x00";
  (* inner string length overruns the declared payload *)
  let overrun = Bytes.of_string valid in
  Bytes.set overrun 9 '\xff';
  Bytes.set overrun 10 '\xff';
  expect_corrupt "string overruns payload" (Bytes.to_string overrun);
  (* trailing garbage inside a declared frame *)
  let padded =
    let b = Buffer.create 32 in
    Buffer.add_string b "\x0a\x00\x00\x00";          (* payload len 10 *)
    Buffer.add_string b "\x01\x00\x00\x00";          (* corr *)
    Buffer.add_char b '\x02';                        (* Get *)
    Buffer.add_string b "\x01\x00k";                 (* key "k" *)
    (* declared 10 = 5 + 2 + 1 + 2 trailing bytes *)
    Buffer.add_string b "xx";
    Buffer.contents b
  in
  (* fix the length byte: payload = 4 corr + 1 tag + 3 key + 2 trailing *)
  let padded = "\x0a\x00\x00\x00" ^ String.sub padded 4 (String.length padded - 4) in
  expect_corrupt "trailing bytes in frame" padded

let test_scanned_hostile_count () =
  (* a Scanned reply whose count field promises more entries than the
     payload can hold must be rejected without allocating the list *)
  let b = Buffer.create 32 in
  Wire.encode_reply b ~corr:1 (Serve.Scanned [ ("k", "v") ]);
  let s = Bytes.of_string (Buffer.contents b) in
  (* count is the u32 after the 4B length + 4B corr + 1B tag *)
  Bytes.set s 9 '\xff';
  Bytes.set s 10 '\xff';
  let d = Wire.decoder () in
  Wire.feed_string d (Bytes.to_string s);
  (match Wire.next_reply d with
   | Wire.Corrupt _ -> ()
   | _ -> Alcotest.fail "hostile scan count accepted")

let test_encode_rejects_oversize_key () =
  let b = Buffer.create 16 in
  (try
     Wire.encode_request b ~corr:0 (Serve.Get (String.make 70_000 'k'));
     Alcotest.fail "oversized key accepted"
   with Invalid_argument _ -> ());
  (* an oversized Op_raised message is truncated, not rejected *)
  Buffer.clear b;
  Wire.encode_reply b ~corr:0
    (Serve.Failed (Serve.Op_raised (String.make 70_000 'm')));
  let d = Wire.decoder () in
  Wire.feed_string d (Buffer.contents b);
  (match Wire.next_reply d with
   | Wire.Msg (_, Serve.Failed (Serve.Op_raised m)) ->
     check_int "truncated to max_key" Wire.max_key (String.length m)
   | _ -> Alcotest.fail "truncated failure did not round-trip")

(* --- server/client end to end ----------------------------------------- *)

let mk_store ?(engine = Spp_pmemkv.Engines.cmap) ?(nshards = 2)
    ?(cache_cap = 0) () =
  Shard.create ~nbuckets:64 ~pool_size:(1 lsl 22) ~cache_cap ~engine ~nshards
    Spp_access.Spp

let with_server ?engine ?nshards ?cache_cap ~tag f =
  let t = mk_store ?engine ?nshards ?cache_cap () in
  let sv = Serve.create ~batch_cap:8 t in
  let srv = Net_server.create sv (Unix.ADDR_UNIX (sock_path tag)) in
  Fun.protect
    ~finally:(fun () ->
      Net_server.stop srv;
      Serve.stop sv)
    (fun () -> f srv)

let test_end_to_end_unix () =
  with_server ~engine:Spp_pmemkv.Engines.btree ~tag:"e2e" (fun srv ->
    let cl = Net_client.connect (Net_server.addr srv) in
    Fun.protect
      ~finally:(fun () -> Net_client.close cl)
      (fun () ->
        (match Net_client.put cl ~key:"alpha" ~value:"1" with
         | Serve.Done -> ()
         | _ -> Alcotest.fail "put");
        (match Net_client.get cl "alpha" with
         | Serve.Value (Some v) -> check_string "get back" "1" v
         | _ -> Alcotest.fail "get");
        (match Net_client.get cl "missing" with
         | Serve.Value None -> ()
         | _ -> Alcotest.fail "get missing");
        ignore (Net_client.put cl ~key:"beta" ~value:"2");
        ignore (Net_client.put cl ~key:"gamma" ~value:"3");
        (match Net_client.scan cl ~lo:"alpha" ~hi:"zz" ~limit:10 with
         | Serve.Scanned kvs ->
           check_bool "scan ordered over the wire" true
             (List.map fst kvs = [ "alpha"; "beta"; "gamma" ])
         | _ -> Alcotest.fail "scan");
        (match Net_client.remove cl "beta" with
         | Serve.Removed true -> ()
         | _ -> Alcotest.fail "remove");
        (match Net_client.remove cl "beta" with
         | Serve.Removed false -> ()
         | _ -> Alcotest.fail "re-remove")))

let test_end_to_end_tcp () =
  (* port 0: kernel picks; Net_server.addr reports the bound port *)
  let t = mk_store () in
  let sv = Serve.create ~batch_cap:8 t in
  let srv =
    Net_server.create sv (Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
  in
  Fun.protect
    ~finally:(fun () ->
      Net_server.stop srv;
      Serve.stop sv)
    (fun () ->
      (match Net_server.addr srv with
       | Unix.ADDR_INET (_, p) -> check_bool "kernel-assigned port" true (p > 0)
       | _ -> Alcotest.fail "expected inet addr");
      let cl = Net_client.connect ~pool:2 (Net_server.addr srv) in
      Fun.protect
        ~finally:(fun () -> Net_client.close cl)
        (fun () ->
          ignore (Net_client.put cl ~key:"k" ~value:"v");
          match Net_client.get cl "k" with
          | Serve.Value (Some "v") -> ()
          | _ -> Alcotest.fail "tcp get"))

let test_pipelined_futures () =
  with_server ~tag:"pipe" (fun srv ->
    let cl = Net_client.connect (Net_server.addr srv) in
    Fun.protect
      ~finally:(fun () -> Net_client.close cl)
      (fun () ->
        let n = 500 in
        let key i = Printf.sprintf "key%04d" (i mod 50) in
        let futs =
          Array.init n (fun i ->
            if i mod 3 = 0 then
              Net_client.send cl
                (Serve.Put { key = key i; value = string_of_int i })
            else Net_client.send cl (Serve.Get (key i)))
        in
        let ok = ref 0 in
        Array.iter
          (fun fu ->
            match Net_client.await cl fu with
            | Serve.Done | Serve.Value _ -> incr ok
            | _ -> ())
          futs;
        check_int "every pipelined reply arrived, none failed" n !ok;
        check_int "nothing left in flight" 0 (Net_client.inflight cl)))

let test_malformed_kills_connection_not_server () =
  with_server ~tag:"mal" (fun srv ->
    let addr = Net_server.addr srv in
    (* a healthy connection first *)
    let cl = Net_client.connect addr in
    ignore (Net_client.put cl ~key:"stay" ~value:"alive");
    (* hostile connection: raw garbage *)
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd addr;
    let garbage = Bytes.of_string "\xde\xad\xbe\xef\xde\xad\xbe\xef" in
    ignore (Unix.write fd garbage 0 (Bytes.length garbage));
    (* server closes it: read returns EOF eventually *)
    let buf = Bytes.create 16 in
    let rec drain () = if Unix.read fd buf 0 16 > 0 then drain () in
    (try drain () with Unix.Unix_error _ -> ());
    Unix.close fd;
    (* the worker domains and the healthy connection still serve *)
    (match Net_client.get cl "stay" with
     | Serve.Value (Some v) -> check_string "old conn survives" "alive" v
     | _ -> Alcotest.fail "healthy connection broken by hostile one");
    Net_client.close cl;
    (* and a fresh connection works too *)
    let cl2 = Net_client.connect addr in
    (match Net_client.get cl2 "stay" with
     | Serve.Value (Some _) -> ()
     | _ -> Alcotest.fail "server dead after malformed frame");
    Net_client.close cl2;
    let st = Net_server.stats srv in
    check_int "malformed counted" 1 st.Net_server.sv_malformed;
    check_bool "accepted all three" true (st.Net_server.sv_accepted >= 3))

let test_dead_server_fails_typed () =
  let t = mk_store () in
  let sv = Serve.create ~batch_cap:8 t in
  let srv = Net_server.create sv (Unix.ADDR_UNIX (sock_path "dead")) in
  let cl = Net_client.connect (Net_server.addr srv) in
  ignore (Net_client.put cl ~key:"k" ~value:"v");
  Net_server.stop srv;
  Serve.stop sv;
  (* sends against the dead server resolve to a typed failure, no hang *)
  let rec poll tries =
    match Net_client.get cl "k" with
    | Serve.Failed (Serve.Op_raised _) -> ()
    | _ when tries > 0 ->
      Unix.sleepf 0.01;
      poll (tries - 1)
    | _ -> Alcotest.fail "send on dead server did not fail typed"
  in
  poll 100;
  Net_client.close cl

(* OCaml caps a process at 128 domains and every server connection takes
   two, so 80 connections to a 2-shard server run out. A connection past
   the cap must be closed, never left hanging in the backlog, and the
   acceptor must survive it: once the others are closed, a fresh
   connection is served. Every wait has a deadline, so a regression fails
   instead of hanging. *)
let test_domain_cap_refuses_and_recovers () =
  let t = mk_store () in
  let sv = Serve.create ~batch_cap:8 t in
  let srv = Net_server.create sv (Unix.ADDR_UNIX (sock_path "cap")) in
  let frame =
    let b = Buffer.create 32 in
    Wire.encode_request b ~corr:7 (Serve.Get "k");
    Buffer.contents b
  in
  let fds = ref [] in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    fds := fd :: !fds;
    Unix.connect fd (Net_server.addr srv);
    ignore (Unix.write_substring fd frame 0 (String.length frame));
    fd
  in
  (* a whole reply, EOF, or neither by [deadline] *)
  let outcome ~deadline fd =
    let dec = Wire.decoder () and buf = Bytes.create 256 in
    let rec go () =
      let left = Float.max 0. (deadline -. Unix.gettimeofday ()) in
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> `Timeout
      | _ ->
        (match Unix.read fd buf 0 (Bytes.length buf) with
         | 0 | (exception Unix.Unix_error _) -> `Eof
         | n ->
           Wire.feed dec buf ~off:0 ~len:n;
           (match Wire.next_reply dec with
            | Wire.Msg (7, Serve.Value None) -> `Reply
            | Wire.Awaiting -> go ()
            | _ -> Alcotest.fail "unexpected reply"))
    in
    go ()
  in
  let close_all () =
    List.iter (fun fd -> try Unix.close fd with _ -> ()) !fds;
    fds := []
  in
  Fun.protect
    ~finally:(fun () ->
      close_all ();
      Net_server.stop srv;
      Serve.stop sv)
    (fun () ->
      let conns = List.init 80 (fun _ -> connect ()) in
      let deadline = Unix.gettimeofday () +. 5. in
      let eofs =
        List.fold_left
          (fun n fd ->
            match outcome ~deadline fd with
            | `Reply -> n
            | `Eof -> n + 1
            | `Timeout -> Alcotest.fail "no reply and no EOF within 5 s")
          0 conns
      in
      check_bool "connections past the domain cap see EOF" true (eofs >= 1);
      close_all ();
      (* closed connections release their domains asynchronously *)
      let deadline = Unix.gettimeofday () +. 5. in
      let rec fresh () =
        match outcome ~deadline (connect ()) with
        | `Reply -> ()
        | `Eof when Unix.gettimeofday () < deadline ->
          close_all ();
          Unix.sleepf 0.02;
          fresh ()
        | _ -> Alcotest.fail "fresh connection not served after the rest closed"
      in
      fresh ())

(* --- reply batching ------------------------------------------------------ *)

let write_string fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* Pop every complete frame [next] yields from [fd] until [n] have
   arrived; fails after 5 s instead of hanging. Returns them in arrival
   order. *)
let read_frames ~next fd n =
  let dec = Wire.decoder () and buf = Bytes.create 65536 in
  let got = ref [] and count = ref 0 in
  let deadline = Unix.gettimeofday () +. 5. in
  while !count < n do
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then Alcotest.failf "only %d of %d frames within 5 s" !count n;
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> ()
    | _ ->
      let k = Unix.read fd buf 0 (Bytes.length buf) in
      if k = 0 then Alcotest.failf "EOF after %d of %d frames" !count n;
      Wire.feed dec buf ~off:0 ~len:k;
      let popping = ref true in
      while !popping do
        match next dec with
        | Wire.Msg (corr, m) ->
          got := (corr, m) :: !got;
          incr count
        | Wire.Awaiting -> popping := false
        | Wire.Corrupt m -> Alcotest.failf "corrupt frame: %s" m
      done
  done;
  List.rev !got

let raw_connect srv =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Net_server.addr srv);
  fd

(* The replies counter moves after the write returns, so wait for it to
   account for the frames already read before sampling [sv_writes]. *)
let settled_stats srv ~replies =
  let deadline = Unix.gettimeofday () +. 5. in
  let rec go () =
    let st = Net_server.stats srv in
    if st.Net_server.sv_replies >= replies then st
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "server counted %d replies, expected %d"
        st.Net_server.sv_replies replies
    else begin
      Unix.sleepf 0.001;
      go ()
    end
  in
  go ()

(* Put every key through the pipeline and await it: the committed
   batch fills the read cache, so later gets are bypass hits. *)
let warm srv kvs =
  let sv = Net_server.serve srv in
  List.iter
    (fun (key, value) ->
      match Serve.await sv (Serve.submit sv (Serve.Put { key; value })) with
      | Serve.Done -> ()
      | _ -> Alcotest.fail "warm-up put failed")
    kvs

(* Send [kvs]'s gets in one raw write and check every reply by its
   correlation id. Returns the server's [sv_writes] growth. *)
let burst_of_hits srv kvs =
  let sv = Net_server.serve srv in
  let n = List.length kvs in
  let before = Net_server.stats srv and bypassed = Serve.bypassed_gets sv in
  let fd = raw_connect srv in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Buffer.create 4096 in
      List.iteri
        (fun i (key, _) -> Wire.encode_request b ~corr:i (Serve.Get key))
        kvs;
      write_string fd (Buffer.contents b);
      let got = read_frames ~next:Wire.next_reply fd n in
      check_int "one reply per get" n (List.length got);
      let want = Array.of_list (List.map snd kvs) in
      List.iter
        (fun (corr, r) ->
          match r with
          | Serve.Value (Some v) when corr < n && v = want.(corr) -> ()
          | _ -> Alcotest.failf "reply %d is not its own key's value" corr)
        got;
      check_int "every get was a cache hit" n (Serve.bypassed_gets sv - bypassed);
      let after =
        settled_stats srv ~replies:(before.Net_server.sv_replies + n)
      in
      after.Net_server.sv_writes - before.Net_server.sv_writes)

let test_hit_chunk_one_write () =
  with_server ~cache_cap:1024 ~tag:"chunk" (fun srv ->
    let kvs =
      List.init 64 (fun i -> (Printf.sprintf "hot%03d" i, Printf.sprintf "v%d" i))
    in
    warm srv kvs;
    let writes = burst_of_hits srv kvs in
    check_bool
      (Printf.sprintf "64 hits in one chunk took %d writes (<= 2)" writes)
      true (writes <= 2))

let test_hit_burst_flush_bound () =
  with_server ~cache_cap:1024 ~tag:"burst" (fun srv ->
    let kvs =
      List.init 256 (fun i ->
        (Printf.sprintf "big%03d" i,
         Printf.sprintf "%04d" i ^ String.make 4092 (Char.chr (97 + (i mod 26)))))
    in
    warm srv kvs;
    let writes = burst_of_hits srv kvs in
    (* 1 MiB of replies through a 64 KiB outbox *)
    check_bool
      (Printf.sprintf "256 x 4 KiB hits took %d writes (>= 16)" writes)
      true (writes >= 16))

(* The outbox on a bare socket pair: staged bytes and storage stay
   within the cap frame by frame, an oversized frame stretches the
   storage only until its flush, and every frame reaches the peer. *)
let test_outbox_bounds () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let total = 257 in
  let peer = Domain.spawn (fun () -> read_frames ~next:Wire.next_reply b total) in
  let writes = Atomic.make 0 and replies = Atomic.make 0 in
  let module O = Net_server.Outbox in
  let ob = O.create a (Mutex.create ()) ~writes ~replies in
  let within = ref true in
  let v = String.make 4096 'x' in
  for corr = 0 to 255 do
    O.stage ob ~corr (Serve.Value (Some v));
    if O.pending ob > O.cap || O.retained ob > O.cap then within := false
  done;
  check_bool "staged bytes and storage stay within the cap" true !within;
  O.flush ob;
  check_int "flush empties the outbox" 0 (O.pending ob);
  O.stage ob ~corr:256 (Serve.Value (Some (String.make (3 * O.cap) 'y')));
  check_bool "an oversized frame stretches the storage" true
    (O.retained ob > O.cap);
  O.flush ob;
  check_bool "storage is back within the cap after the flush" true
    (O.retained ob <= O.cap);
  check_int "every frame counted" total (Atomic.get replies);
  check_bool
    (Printf.sprintf "%d writes, each at most the cap" (Atomic.get writes))
    true (Atomic.get writes >= 16 + 3);
  let got = Domain.join peer in
  Unix.close a;
  Unix.close b;
  check_bool "peer decoded every frame in order" true
    (List.mapi (fun i (corr, _) -> corr = i) got |> List.for_all Fun.id)

(* A test-owned listener stands in for the server and answers out of
   order: several frames in one write, then one frame torn across two
   writes, then the rest. Each future must resolve to its own reply,
   completion stamps must not go backwards along the arrival order, and
   a corrupt frame must still fail everything pending, typed. *)
let test_client_resolves_chunks () =
  let path = sock_path "fake" in
  (try Unix.unlink path with _ -> ());
  let lsock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lsock (Unix.ADDR_UNIX path);
  Unix.listen lsock 1;
  let cl = Net_client.connect (Unix.ADDR_UNIX path) in
  let fd, _ = Unix.accept lsock in
  Fun.protect
    ~finally:(fun () ->
      Net_client.close cl;
      Unix.close fd;
      Unix.close lsock;
      try Unix.unlink path with _ -> ())
    (fun () ->
      let reply_frame (corr, req) =
        let b = Buffer.create 64 in
        (match req with
         | Serve.Get key -> Wire.encode_reply b ~corr (Serve.Value (Some ("v-" ^ key)))
         | _ -> Alcotest.fail "fake server expects gets");
        Buffer.contents b
      in
      let n = 8 in
      let key i = Printf.sprintf "k%d" i in
      let futs = Array.init n (fun i -> Net_client.send cl (Serve.Get (key i))) in
      let reqs = read_frames ~next:Wire.next_request fd n in
      let order = List.rev reqs in
      let first = List.filteri (fun i _ -> i < 5) order
      and torn = List.nth order 5
      and tail = List.filteri (fun i _ -> i > 5) order in
      write_string fd (String.concat "" (List.map reply_frame first));
      let f = reply_frame torn in
      let h = String.length f / 2 in
      write_string fd (String.sub f 0 h);
      Unix.sleepf 0.02;
      write_string fd (String.sub f h (String.length f - h));
      write_string fd (String.concat "" (List.map reply_frame tail));
      Array.iteri
        (fun i fu ->
          match Net_client.await cl fu with
          | Serve.Value (Some v) -> check_string "own reply" ("v-" ^ key i) v
          | _ -> Alcotest.fail "reply shape")
        futs;
      let index = function
        | Serve.Get k -> int_of_string (String.sub k 1 (String.length k - 1))
        | _ -> assert false
      in
      let stamps =
        List.map (fun (_, req) -> Net_client.done_at futs.(index req)) order
      in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | _ -> true
      in
      check_bool "done_at never decreases along arrival order" true
        (nondecreasing stamps);
      check_int "nothing left in flight" 0 (Net_client.inflight cl);
      (* one good frame, then a corrupt one, in a single write *)
      let more = Array.init 3 (fun i -> Net_client.send cl (Serve.Get ("m" ^ key i))) in
      (match read_frames ~next:Wire.next_request fd 3 with
       | good :: next :: _ ->
         let bad = Bytes.of_string (reply_frame next) in
         Bytes.set bad 8 '\x7f';
         write_string fd (reply_frame good ^ Bytes.to_string bad)
       | _ -> Alcotest.fail "fake server read too few requests");
      (match Net_client.await cl more.(0) with
       | Serve.Value (Some "v-mk0") -> ()
       | _ -> Alcotest.fail "frame ahead of the corrupt one not resolved");
      Array.iteri
        (fun i fu ->
          if i > 0 then
            match Net_client.await cl fu with
            | Serve.Failed (Serve.Op_raised "connection lost") -> ()
            | _ -> Alcotest.fail "pending future not failed typed")
        more;
      check_int "nothing left in flight after the corrupt frame" 0
        (Net_client.inflight cl))

let test_parse_addr () =
  (match Net_server.parse_addr "unix:/tmp/x.sock" with
   | Unix.ADDR_UNIX p -> check_string "unix path" "/tmp/x.sock" p
   | _ -> Alcotest.fail "unix:");
  (match Net_server.parse_addr "4242" with
   | Unix.ADDR_INET (a, p) ->
     check_int "bare port" 4242 p;
     check_bool "loopback" true (a = Unix.inet_addr_loopback)
   | _ -> Alcotest.fail "bare port");
  (match Net_server.parse_addr "127.0.0.1:80" with
   | Unix.ADDR_INET (_, p) -> check_int "host:port" 80 p
   | _ -> Alcotest.fail "host:port");
  List.iter
    (fun bad ->
      try
        ignore (Net_server.parse_addr bad);
        Alcotest.failf "accepted %S" bad
      with Invalid_argument _ -> ())
    [ ""; "notaport"; "host:notaport"; "99999" ]

(* --- load generators --------------------------------------------------- *)

let test_loadgen_accounting () =
  with_server ~tag:"lg" (fun srv ->
    let cl = Net_client.connect (Net_server.addr srv) in
    Fun.protect
      ~finally:(fun () -> Net_client.close cl)
      (fun () ->
        let key i = Printf.sprintf "key%03d" (i mod 40) in
        let next i =
          if i mod 4 = 0 then
            [| Serve.Get (key i);
               Serve.Put { key = key i; value = "rmw" } |]
          else [| Serve.Put { key = key i; value = "v" } |]
        in
        let r = Loadgen.open_loop cl ~rate:5_000. ~ops:200 ~next in
        check_int "ops" 200 r.Loadgen.lg_ops;
        check_int "requests include RMW legs" 250 r.Loadgen.lg_requests;
        check_int "no failures" 0 r.Loadgen.lg_failed;
        check_int "one latency sample per op" 200
          (Histogram.count r.Loadgen.lg_hist);
        check_bool "target recorded" true (r.Loadgen.lg_target = 5_000.);
        let c = Loadgen.closed_loop cl ~window:16 ~ops:150 ~next in
        check_int "closed ops" 150 c.Loadgen.lg_ops;
        check_bool "closed loop has no target" true (c.Loadgen.lg_target = 0.);
        check_bool "achieved positive" true (c.Loadgen.lg_achieved > 0.)))

let test_ycsb_generator () =
  (* deterministic under a seed *)
  let ops_of letter =
    let y = Ycsb.create ~letter ~seed:42 ~universe:100 () in
    Array.init 2_000 (fun _ -> Ycsb.next y)
  in
  check_bool "deterministic replay" true (ops_of Ycsb.A = ops_of Ycsb.A);
  (* mixes land near their nominal ratios *)
  let frac pred ops =
    float_of_int (Array.length (Array.of_list (List.filter pred (Array.to_list ops))))
    /. float_of_int (Array.length ops)
  in
  let is_read = function Ycsb.Read _ -> true | _ -> false in
  let near what lo hi v =
    check_bool (Printf.sprintf "%s in [%.2f, %.2f] (got %.3f)" what lo hi v)
      true
      (v >= lo && v <= hi)
  in
  near "A reads ~50%" 0.4 0.6 (frac is_read (ops_of Ycsb.A));
  near "B reads ~95%" 0.9 1.0 (frac is_read (ops_of Ycsb.B));
  check_bool "C all reads" true (Array.for_all is_read (ops_of Ycsb.C));
  near "E scans ~95%" 0.9 1.0
    (frac (function Ycsb.Scan _ -> true | _ -> false) (ops_of Ycsb.E));
  near "F rmw ~50%" 0.4 0.6
    (frac (function Ycsb.Rmw _ -> true | _ -> false) (ops_of Ycsb.F));
  (* D: inserts extend the key space, reads stay in bounds and skew
     toward the newest indices *)
  let y = Ycsb.create ~letter:Ycsb.D ~seed:7 ~universe:100 () in
  let high = ref 0 and reads = ref 0 in
  for _ = 1 to 2_000 do
    match Ycsb.next y with
    | Ycsb.Insert i -> check_int "insert is the next fresh index" i (Ycsb.loaded y - 1)
    | Ycsb.Read i ->
      incr reads;
      check_bool "read in bounds" true (i >= 0 && i < Ycsb.loaded y);
      if i > Ycsb.loaded y / 2 then incr high
    | _ -> Alcotest.fail "unexpected op in D"
  done;
  check_bool "D skews to the newest half" true
    (float_of_int !high /. float_of_int !reads > 0.8);
  check_bool "D grew the key space" true (Ycsb.loaded y > 100)

(* --- satellites: histogram / json ------------------------------------- *)

let test_empty_histogram_defined () =
  let h = Histogram.create () in
  check_int "empty p50" 0 (Histogram.p50 h);
  check_int "empty p99" 0 (Histogram.p99 h);
  check_int "empty p999" 0 (Histogram.p999 h);
  check_int "empty percentile 100" 0 (Histogram.percentile h 100.);
  check_bool "empty mean" true (Histogram.mean h = 0.);
  check_int "empty count" 0 (Histogram.count h);
  check_int "empty max" 0 (Histogram.max_value h);
  (* p999 orders sanely on a real recorder *)
  let h = Histogram.create () in
  for v = 1 to 1_000 do
    Histogram.add h v
  done;
  check_bool "p999 >= p99" true (Histogram.p999 h >= Histogram.p99 h);
  check_bool "p999 <= max" true (Histogram.p999 h <= Histogram.max_value h)

let test_json_write_atomic () =
  let dir = Filename.get_temp_dir_name () in
  let path =
    Filename.concat dir (Printf.sprintf "spp-test-json-%d.json" (Unix.getpid ()))
  in
  let j = Json_out.create () in
  Json_out.emit j ~experiment:"x" ~name:"n" ~metric:"m" 1.0;
  Json_out.write j path;
  check_bool "file exists" true (Sys.file_exists path);
  check_bool "no temp residue" false (Sys.file_exists (path ^ ".tmp"));
  (* the write is total: the file parses and ends in a newline *)
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  check_bool "complete document" true
    (String.length s > 0 && s.[String.length s - 1] = '\n');
  check_bool "parses as the emitted record" true
    (let expected =
       Json_out.to_string
         (Json_out.J_obj
            [ ("experiment", Json_out.J_string "x");
              ("name", Json_out.J_string "n");
              ("metric", Json_out.J_string "m");
              ("value", Json_out.J_float 1.0) ])
     in
     (* substring check keeps this independent of the meta fields *)
     let rec contains i =
       if i + String.length expected > String.length s then false
       else if String.sub s i (String.length expected) = expected then true
       else contains (i + 1)
     in
     contains 0);
  Sys.remove path

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "spp_net"
    [
      ( "codec",
        [
          qt qcheck_request_round_trip;
          qt qcheck_request_torn;
          qt qcheck_reply_round_trip;
          qt qcheck_reply_torn;
          Alcotest.test_case "torn frames resume at every byte" `Quick
            test_torn_frame_resume;
          Alcotest.test_case "malformed frames are Corrupt" `Quick
            test_malformed_frames;
          Alcotest.test_case "hostile scan count rejected" `Quick
            test_scanned_hostile_count;
          Alcotest.test_case "oversize key rejected, message truncated"
            `Quick test_encode_rejects_oversize_key;
        ] );
      ( "server",
        [
          Alcotest.test_case "end to end over unix socket" `Quick
            test_end_to_end_unix;
          Alcotest.test_case "end to end over tcp loopback" `Quick
            test_end_to_end_tcp;
          Alcotest.test_case "pipelined out-of-order completion" `Quick
            test_pipelined_futures;
          Alcotest.test_case "malformed frame kills connection, not server"
            `Quick test_malformed_kills_connection_not_server;
          Alcotest.test_case "dead server fails typed, never hangs" `Quick
            test_dead_server_fails_typed;
          Alcotest.test_case "domain cap closes, acceptor survives" `Quick
            test_domain_cap_refuses_and_recovers;
          Alcotest.test_case "parse_addr" `Quick test_parse_addr;
        ] );
      ( "batching",
        [
          Alcotest.test_case "a chunk of cache hits is one write" `Quick
            test_hit_chunk_one_write;
          Alcotest.test_case "a 1 MiB burst of hits flushes at the cap"
            `Quick test_hit_burst_flush_bound;
          Alcotest.test_case "outbox stays within its cap" `Quick
            test_outbox_bounds;
          Alcotest.test_case "client resolves a chunk at once" `Quick
            test_client_resolves_chunks;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "open/closed loop accounting" `Quick
            test_loadgen_accounting;
          Alcotest.test_case "ycsb workload letters" `Quick
            test_ycsb_generator;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "empty histogram is defined" `Quick
            test_empty_histogram_defined;
          Alcotest.test_case "json write is atomic" `Quick
            test_json_write_atomic;
        ] );
    ]
