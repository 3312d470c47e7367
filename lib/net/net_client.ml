(* Pooled, pipelined wire client. One reader domain per connection
   demultiplexes replies by correlation id; senders only ever touch the
   write side, so send/receive never contend on a socket.

   The reader handles a read chunk as one unit: it decodes every
   complete reply frame in the chunk without holding [k_pmu], takes one
   completion stamp after decoding, then takes [k_pmu] once to resolve
   the chunk's futures and wakes the awaiters with a single broadcast.
   No reply's stamp precedes the decode of its own frame, so batching
   can only lengthen a measured latency, never shorten it. *)

open Spp_shard
open Spp_benchlib

type future = {
  fu_conn : conn;
  mutable fu_reply : Serve.reply option;
  mutable fu_done_at : float;
}

and conn = {
  k_fd : Unix.file_descr;
  k_cork : bool;                (* batch frames until flush/threshold *)
  k_wmu : Mutex.t;              (* serializes request frames *)
  k_wbuf : Buffer.t;            (* pending encoded frames, under [k_wmu] *)
  mutable k_scratch : Bytes.t;  (* reused write staging, under [k_wmu] *)
  k_pmu : Mutex.t;              (* guards pending/corr/alive *)
  k_done : Condition.t;
  k_pending : (int, future) Hashtbl.t;
  mutable k_corr : int;
  mutable k_alive : bool;
  mutable k_reader : unit Domain.t option;
}

type t = {
  nc_conns : conn array;
  nc_next : int Atomic.t;       (* round-robin cursor *)
  mutable nc_closed : bool;
}

let conn_lost = Serve.Failed (Serve.Op_raised "connection lost")

(* Resolve every pending future with [r]; used when the connection
   dies. Under [k_pmu]. *)
let fail_all_locked c r =
  let now = Bench_util.now_mono () in
  Hashtbl.iter
    (fun _ fu ->
      if fu.fu_reply = None then begin
        fu.fu_reply <- Some r;
        fu.fu_done_at <- now
      end)
    c.k_pending;
  Hashtbl.reset c.k_pending;
  c.k_alive <- false;
  Condition.broadcast c.k_done

let reader c =
  let buf = Bytes.create 65536 in
  let dec = Wire.decoder () in
  let resolve_chunk got =
    let now = Bench_util.now_mono () in
    Mutex.lock c.k_pmu;
    List.iter
      (fun (corr, r) ->
        match Hashtbl.find_opt c.k_pending corr with
        | Some fu ->
          Hashtbl.remove c.k_pending corr;
          fu.fu_reply <- Some r;
          fu.fu_done_at <- now
        | None -> ())   (* stray corr: reply to a forgotten send *)
      got;
    Condition.broadcast c.k_done;
    Mutex.unlock c.k_pmu
  in
  (try
     let running = ref true in
     while !running do
       let n = Unix.read c.k_fd buf 0 (Bytes.length buf) in
       if n = 0 then running := false
       else begin
         Wire.feed dec buf ~off:0 ~len:n;
         let got = ref [] and popping = ref true in
         while !popping do
           match Wire.next_reply dec with
           | Wire.Awaiting -> popping := false
           | Wire.Corrupt _ ->
             (* the frames before it are good; the rest fail below *)
             popping := false;
             running := false
           | Wire.Msg (corr, r) -> got := (corr, r) :: !got
         done;
         if !got <> [] then resolve_chunk !got
       end
     done
   with _ -> ());
  Mutex.lock c.k_pmu;
  fail_all_locked c conn_lost;
  Mutex.unlock c.k_pmu

(* Half-close, join the reader, close the fd. *)
let close_conn c =
  (try Unix.shutdown c.k_fd Unix.SHUTDOWN_SEND with _ -> ());
  Option.iter Domain.join c.k_reader;
  c.k_reader <- None;
  try Unix.close c.k_fd with _ -> ()

let connect ?(pool = 1) ?(cork = false) addr =
  if pool < 1 then invalid_arg "Net_client.connect: pool must be >= 1";
  let mk () =
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    (try
       Unix.connect fd addr;
       (match addr with
        | Unix.ADDR_INET _ ->
          (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ())
        | _ -> ())
     with e ->
       (try Unix.close fd with _ -> ());
       raise e);
    let c =
      { k_fd = fd; k_cork = cork; k_wmu = Mutex.create ();
        k_wbuf = Buffer.create 1024;
        k_scratch = Bytes.create 1024; k_pmu = Mutex.create ();
        k_done = Condition.create (); k_pending = Hashtbl.create 64;
        k_corr = 0; k_alive = true; k_reader = None }
    in
    (try c.k_reader <- Some (Domain.spawn (fun () -> reader c))
     with e ->
       (try Unix.close fd with _ -> ());
       raise e);
    c
  in
  (* a failed connection (refused, or no domain left for its reader)
     releases the pool members already made before re-raising *)
  let conns = ref [] in
  (try
     for _ = 1 to pool do
       conns := mk () :: !conns
     done
   with e ->
     List.iter close_conn !conns;
     raise e);
  { nc_conns = Array.of_list (List.rev !conns); nc_next = Atomic.make 0;
    nc_closed = false }

let rec write_all fd b off len =
  if len > 0 then begin
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)
  end

(* Corked connections let pending frames pile up to this many bytes
   before forcing a write; [await] flushes whatever is pending first, so
   a blocked caller never waits for requests that were never sent. *)
let cork_threshold = 8192

(* Under [k_wmu]. *)
let flush_locked c =
  let n = Buffer.length c.k_wbuf in
  if n > 0 then begin
    if Bytes.length c.k_scratch < n then
      c.k_scratch <- Bytes.create (max n (2 * Bytes.length c.k_scratch));
    Buffer.blit c.k_wbuf 0 c.k_scratch 0 n;
    Buffer.clear c.k_wbuf;
    write_all c.k_fd c.k_scratch 0 n
  end

let flush_conn c =
  try
    Mutex.lock c.k_wmu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock c.k_wmu)
      (fun () -> flush_locked c)
  with _ ->
    Mutex.lock c.k_pmu;
    fail_all_locked c conn_lost;
    Mutex.unlock c.k_pmu

let send_on c req =
  (* register before writing: the reply can arrive before [send]
     returns, and the reader must find the future *)
  Mutex.lock c.k_pmu;
  if not c.k_alive then begin
    Mutex.unlock c.k_pmu;
    { fu_conn = c; fu_reply = Some conn_lost;
      fu_done_at = Bench_util.now_mono () }
  end
  else begin
    let corr = c.k_corr land 0xFFFFFFFF in
    c.k_corr <- c.k_corr + 1;
    let fu = { fu_conn = c; fu_reply = None; fu_done_at = 0. } in
    Hashtbl.replace c.k_pending corr fu;
    Mutex.unlock c.k_pmu;
    (try
       Mutex.lock c.k_wmu;
       Fun.protect
         ~finally:(fun () -> Mutex.unlock c.k_wmu)
         (fun () ->
           Wire.encode_request c.k_wbuf ~corr req;
           if (not c.k_cork) || Buffer.length c.k_wbuf >= cork_threshold then
             flush_locked c)
     with _ ->
       Mutex.lock c.k_pmu;
       fail_all_locked c conn_lost;
       Mutex.unlock c.k_pmu);
    fu
  end

let send t req =
  let n = Array.length t.nc_conns in
  let i = Atomic.fetch_and_add t.nc_next 1 in
  send_on t.nc_conns.(((i mod n) + n) mod n) req

let peek fu = fu.fu_reply

let await _t fu =
  match fu.fu_reply with
  | Some r -> r
  | None ->
    let c = fu.fu_conn in
    if c.k_cork then flush_conn c;
    Mutex.lock c.k_pmu;
    while fu.fu_reply = None do
      Condition.wait c.k_done c.k_pmu
    done;
    Mutex.unlock c.k_pmu;
    Option.get fu.fu_reply

let done_at fu = fu.fu_done_at

let inflight t =
  Array.fold_left
    (fun a c ->
      Mutex.lock c.k_pmu;
      let n = Hashtbl.length c.k_pending in
      Mutex.unlock c.k_pmu;
      a + n)
    0 t.nc_conns

let put t ~key ~value = await t (send t (Serve.Put { key; value }))
let get t k = await t (send t (Serve.Get k))
let remove t k = await t (send t (Serve.Remove k))
let scan t ~lo ~hi ~limit = await t (send t (Serve.Scan { lo; hi; limit }))

let close t =
  if not t.nc_closed then begin
    t.nc_closed <- true;
    (* half-close: the server drains, flushes every owed reply, then
       closes its side; our reader sees EOF after the last reply *)
    Array.iter
      (fun c ->
        if c.k_cork then flush_conn c;
        try Unix.shutdown c.k_fd Unix.SHUTDOWN_SEND with _ -> ())
      t.nc_conns;
    Array.iter close_conn t.nc_conns
  end
