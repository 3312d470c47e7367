(* Socket front end: accept loop + one reader/writer domain pair per
   connection, all funneling into the Serve mailboxes.

   The reader submits every decoded request straight away, so a
   connection's requests pipeline into the per-shard queues without
   waiting for earlier replies; correlation ids let replies complete out
   of order. Each of the two completion paths stages its reply frames in
   an outbox of its own and writes the outbox out in one [write]:

   - the reader, for tickets [Serve.submit] pre-fulfilled (the
     read-cache bypass): the reply is staged at once, ahead of
     everything still queued — the no-worker-hop fast path survives the
     wire. The reader flushes at exactly three points: when the decoder
     runs dry (before the next blocking read), when the outbox would
     pass [Outbox.cap], and when the reader exits. A read chunk of
     cache-hit gets thus costs one write, not one per frame;
   - the writer domain, which pops (corr, ticket) in submission order
     and blocks in [Serve.await] — per-shard tickets resolve in commit
     order, so head-of-line blocking here only reorders across shards,
     which correlation ids make harmless. It flushes before it blocks,
     when the outbox would pass the cap, and after each queue batch.

   Both outboxes write under one mutex per connection, so frames
   interleave at frame granularity only. Failure containment: a corrupt
   frame stops the reader (framing cannot resync), both paths flush what
   is owed, and the connection closes — the serving pipeline never
   observes it. *)

open Spp_shard

type stats = {
  sv_accepted : int;
  sv_requests : int;
  sv_replies : int;
  sv_malformed : int;
  sv_writes : int;
}

type completion =
  | C_ticket of int * Serve.ticket
  | C_reply of int * Serve.reply
  | C_stop

type conn = {
  c_fd : Unix.file_descr;
  c_wmu : Mutex.t;             (* serializes whole frames onto the fd *)
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
  ns_writes : int Atomic.t;
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
(* Reply staging                                                       *)
(* ------------------------------------------------------------------ *)

module Outbox = struct
  (* 64 KiB is also the most [Unix.write] hands the kernel per write(2),
     so one flush of a full outbox is one syscall. *)
  let cap = 65536

  type t = {
    fd : Unix.file_descr;
    wmu : Mutex.t;               (* the connection's write mutex *)
    writes : int Atomic.t;       (* [Unix.write] calls made *)
    replies : int Atomic.t;      (* frames written *)
    frame : Buffer.t;            (* the frame being staged *)
    mutable bytes : Bytes.t;     (* staged whole frames in [0, len) *)
    mutable len : int;
    mutable frames : int;
  }

  let create fd wmu ~writes ~replies =
    { fd; wmu; writes; replies; frame = Buffer.create 256;
      bytes = Bytes.create 4096; len = 0; frames = 0 }

  let pending ob = ob.len
  let retained ob = Bytes.length ob.bytes

  let rec write_all ob off len =
    if len > 0 then begin
      let n = Unix.write ob.fd ob.bytes off (min len cap) in
      Atomic.incr ob.writes;
      write_all ob (off + n) (len - n)
    end

  (* Everything staged, under the connection's write mutex: one write,
     or one per [cap] bytes of a single oversized frame. A dead peer
     drops the frames: the reader is about to see EOF, and the writer
     keeps draining tickets either way. An outbox that an oversized
     frame stretched past [cap] shrinks back. *)
  let flush ob =
    if ob.len > 0 then begin
      let len = ob.len and frames = ob.frames in
      ob.len <- 0;
      ob.frames <- 0;
      (try
         Mutex.lock ob.wmu;
         Fun.protect
           ~finally:(fun () -> Mutex.unlock ob.wmu)
           (fun () -> write_all ob 0 len);
         ignore (Atomic.fetch_and_add ob.replies frames)
       with _ -> ());
      if Bytes.length ob.bytes > cap then ob.bytes <- Bytes.create cap
    end

  (* Append one frame, flushing first if it would take the outbox past
     [cap]. Only a single frame larger than [cap] (a big scan or value)
     stretches the bytes beyond it, until the next flush. *)
  let stage ob ~corr r =
    Buffer.clear ob.frame;
    Wire.encode_reply ob.frame ~corr r;
    let n = Buffer.length ob.frame in
    if ob.len + n > cap then flush ob;
    let need = ob.len + n in
    if need > Bytes.length ob.bytes then begin
      let grown =
        Bytes.create (max need (min cap (2 * Bytes.length ob.bytes)))
      in
      Bytes.blit ob.bytes 0 grown 0 ob.len;
      ob.bytes <- grown
    end;
    Buffer.blit ob.frame 0 ob.bytes ob.len n;
    if n > cap then Buffer.reset ob.frame;
    ob.len <- need;
    ob.frames <- ob.frames + 1
end

let outbox t conn =
  Outbox.create conn.c_fd conn.c_wmu ~writes:t.ns_writes ~replies:t.ns_replies

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
   staged (never sitting on frames the peer could already read), and it
   always awaits every ticket even when the peer is gone, so
   [Serve.stop]'s drain never waits on a dead connection. *)
let writer t conn =
  let ob = outbox t conn in
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
      | C_reply (corr, r) -> Outbox.stage ob ~corr r
      | C_ticket (corr, tk) ->
        (match Serve.peek tk with
         | Some r -> Outbox.stage ob ~corr r
         | None ->
           Outbox.flush ob;
           Outbox.stage ob ~corr (Serve.await t.ns_serve tk))
    done;
    Outbox.flush ob
  done;
  (try Unix.close conn.c_fd with _ -> ())

let handle t conn ob corr (req : Serve.request) =
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
          (* cache-hit get, fulfilled at submission: staged now, ahead
             of every queued completion, and written with the rest of
             this read chunk's hits *)
          Outbox.stage ob ~corr r
        | None -> push conn (C_ticket (corr, tk))))

let reader t conn =
  let buf = Bytes.create 65536 in
  let dec = Wire.decoder () in
  let ob = outbox t conn in
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
           | Wire.Awaiting ->
             (* the chunk is handled: its hits go out before we block *)
             Outbox.flush ob;
             popping := false
           | Wire.Msg (corr, req) ->
             Atomic.incr t.ns_requests;
             handle t conn ob corr req
           | Wire.Corrupt _ ->
             (* framing is gone; drop the connection, not the server *)
             Atomic.incr t.ns_malformed;
             popping := false;
             running := false
         done
       end
     done
   with _ -> ());
  Outbox.flush ob;
  (* no more requests will be accepted; the writer flushes what is owed
     and closes the fd *)
  (try Unix.shutdown conn.c_fd Unix.SHUTDOWN_RECEIVE with _ -> ());
  push conn C_stop

(* ------------------------------------------------------------------ *)
(* Accept loop / lifecycle                                             *)
(* ------------------------------------------------------------------ *)

let mk_conn fd =
  { c_fd = fd; c_wmu = Mutex.create (); c_cmu = Mutex.create ();
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
      ns_writes = Atomic.make 0;
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
    sv_malformed = Atomic.get t.ns_malformed;
    sv_writes = Atomic.get t.ns_writes }

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
