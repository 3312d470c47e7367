(* Socket front end: accept loop + one reader/writer domain pair per
   connection, all funneling into the Serve mailboxes.

   The reader submits every decoded request straight away, so a
   connection's requests pipeline into the per-shard queues without
   waiting for earlier replies; correlation ids let replies complete out
   of order. Two completion paths write frames:

   - the reader itself, for tickets [Serve.submit] pre-fulfilled (the
     read-cache bypass): the reply is written immediately under the
     connection's write mutex, ahead of everything still queued — the
     no-worker-hop fast path survives the wire;
   - the writer domain, which pops (corr, ticket) in submission order
     and blocks in [Serve.await] — per-shard tickets resolve in commit
     order, so head-of-line blocking here only reorders across shards,
     which correlation ids make harmless.

   Writes share one mutex per connection, so frames interleave at frame
   granularity only. Failure containment: a corrupt frame stops the
   reader (framing cannot resync), the writer flushes what is owed, and
   the connection closes — the serving pipeline never observes it. *)

open Spp_shard

type stats = {
  sv_accepted : int;
  sv_requests : int;
  sv_replies : int;
  sv_malformed : int;
}

type completion =
  | C_ticket of int * Serve.ticket
  | C_reply of int * Serve.reply
  | C_stop

type conn = {
  c_fd : Unix.file_descr;
  c_wmu : Mutex.t;             (* serializes whole frames onto the fd *)
  c_wbuf : Buffer.t;           (* reused per send, under [c_wmu] *)
  mutable c_scratch : Bytes.t; (* reused write staging, under [c_wmu] *)
  c_cmu : Mutex.t;
  c_work : Condition.t;
  c_cq : completion Queue.t;
}

type t = {
  ns_serve : Serve.t;
  ns_sock : Unix.file_descr;
  ns_addr : Unix.sockaddr;
  ns_accepted : int Atomic.t;
  ns_requests : int Atomic.t;
  ns_replies : int Atomic.t;
  ns_malformed : int Atomic.t;
  ns_stopping : bool Atomic.t;
  ns_cmu : Mutex.t;
  mutable ns_conns : (conn * unit Domain.t * unit Domain.t) list;
  mutable ns_accept : unit Domain.t option;
}

let parse_addr s =
  let fail () = invalid_arg ("bad address (unix:PATH | PORT | HOST:PORT): " ^ s) in
  if String.length s > 5 && String.sub s 0 5 = "unix:" then
    Unix.ADDR_UNIX (String.sub s 5 (String.length s - 5))
  else
    match String.rindex_opt s ':' with
    | None ->
      (match int_of_string_opt s with
       | Some port when port >= 0 && port < 65536 ->
         Unix.ADDR_INET (Unix.inet_addr_loopback, port)
       | _ -> fail ())
    | Some i ->
      let host = String.sub s 0 i
      and port = String.sub s (i + 1) (String.length s - i - 1) in
      (match int_of_string_opt port with
       | Some port when port >= 0 && port < 65536 ->
         (try Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
          with _ ->
            (try
               Unix.ADDR_INET
                 ((Unix.gethostbyname host).Unix.h_addr_list.(0), port)
             with _ -> fail ()))
       | _ -> fail ())

let pp_addr ppf = function
  | Unix.ADDR_UNIX path -> Format.fprintf ppf "unix:%s" path
  | Unix.ADDR_INET (a, p) ->
    Format.fprintf ppf "%s:%d" (Unix.string_of_inet_addr a) p

(* ------------------------------------------------------------------ *)
(* Frame writing                                                       *)
(* ------------------------------------------------------------------ *)

let rec write_all fd b off len =
  if len > 0 then begin
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)
  end

(* Encode under the write mutex into the reused buffer/scratch pair and
   push the whole frame in one (retried) write. Raises on a dead peer;
   callers drop the connection. *)
let send_reply t conn ~corr r =
  Mutex.lock conn.c_wmu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.c_wmu)
    (fun () ->
      Buffer.clear conn.c_wbuf;
      Wire.encode_reply conn.c_wbuf ~corr r;
      let n = Buffer.length conn.c_wbuf in
      if Bytes.length conn.c_scratch < n then
        conn.c_scratch <- Bytes.create (max n (2 * Bytes.length conn.c_scratch));
      Buffer.blit conn.c_wbuf 0 conn.c_scratch 0 n;
      write_all conn.c_fd conn.c_scratch 0 n);
  Atomic.incr t.ns_replies

let push conn c =
  Mutex.lock conn.c_cmu;
  Queue.push c conn.c_cq;
  Condition.signal conn.c_work;
  Mutex.unlock conn.c_cmu

(* ------------------------------------------------------------------ *)
(* Per-connection domains                                              *)
(* ------------------------------------------------------------------ *)

(* The writer drains the completion queue in batches and coalesces
   every already-resolved reply into one [write] — under a pipelined
   load the per-reply syscall disappears, which is most of the loopback
   overhead. It only blocks in [Serve.await] after flushing what it has
   encoded (never sitting on frames the peer could already read), and it
   always awaits every ticket even when the peer is gone, so
   [Serve.stop]'s drain never waits on a dead connection. *)
let writer t conn =
  let wbuf = Buffer.create 4096 in
  let scratch = ref (Bytes.create 4096) in
  let nframes = ref 0 in
  let flush () =
    let n = Buffer.length wbuf in
    if n > 0 then begin
      if Bytes.length !scratch < n then
        scratch := Bytes.create (max n (2 * Bytes.length !scratch));
      Buffer.blit wbuf 0 !scratch 0 n;
      Buffer.clear wbuf;
      let k = !nframes in
      nframes := 0;
      try
        Mutex.lock conn.c_wmu;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock conn.c_wmu)
          (fun () -> write_all conn.c_fd !scratch 0 n);
        ignore (Atomic.fetch_and_add t.ns_replies k)
      with _ -> ()   (* peer gone; keep draining tickets *)
    end
  in
  let enc corr r =
    Wire.encode_reply wbuf ~corr r;
    incr nframes
  in
  let batch = Queue.create () in
  let running = ref true in
  while !running do
    Mutex.lock conn.c_cmu;
    while Queue.is_empty conn.c_cq do
      Condition.wait conn.c_work conn.c_cmu
    done;
    Queue.transfer conn.c_cq batch;
    Mutex.unlock conn.c_cmu;
    while not (Queue.is_empty batch) do
      match Queue.pop batch with
      | C_stop -> running := false   (* always last: reader pushed it at exit *)
      | C_reply (corr, r) -> enc corr r
      | C_ticket (corr, tk) ->
        (match Serve.peek tk with
         | Some r -> enc corr r
         | None ->
           flush ();
           enc corr (Serve.await t.ns_serve tk))
    done;
    flush ()
  done;
  (try Unix.close conn.c_fd with _ -> ())

let handle t conn corr (req : Serve.request) =
  match req with
  | Serve.Scan { lo; hi; limit } ->
    (* whole-store scatter-gather scan; no routing key, so it runs here
       on the reader and this connection's pipeline queues behind it *)
    let r =
      try
        match Serve.scan t.ns_serve ~lo ~hi ~limit with
        | Ok kvs -> Serve.Scanned kvs
        | Error f -> Serve.Failed f
      with e -> Serve.Failed (Serve.Op_raised (Printexc.to_string e))
    in
    push conn (C_reply (corr, r))
  | _ ->
    (match Serve.submit t.ns_serve req with
     | exception e ->
       push conn
         (C_reply (corr, Serve.Failed (Serve.Op_raised (Printexc.to_string e))))
     | tk ->
       (match Serve.peek tk with
        | Some r ->
          (* cache-hit get, fulfilled at submission: answer now, ahead
             of every queued completion *)
          (try send_reply t conn ~corr r with _ -> ())
        | None -> push conn (C_ticket (corr, tk))))

let reader t conn =
  let buf = Bytes.create 65536 in
  let dec = Wire.decoder () in
  (try
     let running = ref true in
     while !running do
       let n = Unix.read conn.c_fd buf 0 (Bytes.length buf) in
       if n = 0 then running := false
       else begin
         Wire.feed dec buf ~off:0 ~len:n;
         let popping = ref true in
         while !popping do
           match Wire.next_request dec with
           | Wire.Awaiting -> popping := false
           | Wire.Msg (corr, req) ->
             Atomic.incr t.ns_requests;
             handle t conn corr req
           | Wire.Corrupt _ ->
             (* framing is gone; drop the connection, not the server *)
             Atomic.incr t.ns_malformed;
             popping := false;
             running := false
         done
       end
     done
   with _ -> ());
  (* no more requests will be accepted; the writer flushes what is owed
     and closes the fd *)
  (try Unix.shutdown conn.c_fd Unix.SHUTDOWN_RECEIVE with _ -> ());
  push conn C_stop

(* ------------------------------------------------------------------ *)
(* Accept loop / lifecycle                                             *)
(* ------------------------------------------------------------------ *)

let mk_conn fd =
  { c_fd = fd; c_wmu = Mutex.create (); c_wbuf = Buffer.create 1024;
    c_scratch = Bytes.create 1024; c_cmu = Mutex.create ();
    c_work = Condition.create (); c_cq = Queue.create () }

(* Set up one connection's domain pair. The writer goes first: if the
   reader cannot be spawned (OCaml caps a process at 128 domains), a
   [C_stop] makes the writer close the fd, and no request was read that
   would go unanswered. If the writer cannot be spawned, the fd is closed
   here. Either way the peer sees EOF, nothing is left behind, and the
   acceptor keeps going. *)
let spawn_conn t fd =
  let conn = mk_conn fd in
  match Domain.spawn (fun () -> writer t conn) with
  | exception _ -> (try Unix.close fd with _ -> ())
  | wd ->
    (match Domain.spawn (fun () -> reader t conn) with
     | exception _ ->
       push conn C_stop;
       Domain.join wd
     | rd ->
       Mutex.lock t.ns_cmu;
       t.ns_conns <- (conn, rd, wd) :: t.ns_conns;
       Mutex.unlock t.ns_cmu)

let acceptor t =
  let running = ref true in
  while !running do
    match Unix.accept t.ns_sock with
    | exception _ -> running := false   (* listening socket closed *)
    | fd, _peer ->
      if Atomic.get t.ns_stopping then (try Unix.close fd with _ -> ())
      else begin
        (match t.ns_addr with
         | Unix.ADDR_INET _ ->
           (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ())
         | _ -> ());
        Atomic.incr t.ns_accepted;
        spawn_conn t fd
      end
  done

let create ?(backlog = 64) serve addr =
  (match addr with
   | Unix.ADDR_UNIX path -> (try Unix.unlink path with _ -> ())
   | _ -> ());
  let sock = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (match addr with
   | Unix.ADDR_INET _ -> Unix.setsockopt sock Unix.SO_REUSEADDR true
   | _ -> ());
  (try
     Unix.bind sock addr;
     Unix.listen sock backlog
   with e ->
     (try Unix.close sock with _ -> ());
     raise e);
  let t =
    { ns_serve = serve; ns_sock = sock; ns_addr = Unix.getsockname sock;
      ns_accepted = Atomic.make 0; ns_requests = Atomic.make 0;
      ns_replies = Atomic.make 0; ns_malformed = Atomic.make 0;
      ns_stopping = Atomic.make false; ns_cmu = Mutex.create ();
      ns_conns = []; ns_accept = None }
  in
  t.ns_accept <- Some (Domain.spawn (fun () -> acceptor t));
  t

let addr t = t.ns_addr
let serve t = t.ns_serve

let stats t =
  { sv_accepted = Atomic.get t.ns_accepted;
    sv_requests = Atomic.get t.ns_requests;
    sv_replies = Atomic.get t.ns_replies;
    sv_malformed = Atomic.get t.ns_malformed }

let stop t =
  if not (Atomic.exchange t.ns_stopping true) then begin
    (* closing a listening fd does not wake a thread blocked in accept
       on Linux: shutdown it (accept fails with EINVAL) and poke a
       dummy connection in case shutdown is a no-op for this family *)
    (try Unix.shutdown t.ns_sock Unix.SHUTDOWN_ALL with _ -> ());
    (try
       let fd =
         Unix.socket (Unix.domain_of_sockaddr t.ns_addr) Unix.SOCK_STREAM 0
       in
       (try Unix.connect fd t.ns_addr with _ -> ());
       Unix.close fd
     with _ -> ());
    Option.iter Domain.join t.ns_accept;
    (try Unix.close t.ns_sock with _ -> ());
    t.ns_accept <- None;
    Mutex.lock t.ns_cmu;
    let conns = t.ns_conns in
    t.ns_conns <- [];
    Mutex.unlock t.ns_cmu;
    (* wake blocked readers; writers drain their queues, then close *)
    List.iter
      (fun (conn, _, _) ->
        try Unix.shutdown conn.c_fd Unix.SHUTDOWN_RECEIVE with _ -> ())
      conns;
    List.iter
      (fun (_, rd, wd) ->
        Domain.join rd;
        Domain.join wd)
      conns;
    match t.ns_addr with
    | Unix.ADDR_UNIX path -> (try Unix.unlink path with _ -> ())
    | _ -> ()
  end
