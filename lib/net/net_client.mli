(** Pipelined client for the {!Wire} protocol with connection pooling.

    A {!t} holds one or more connections to a {!Net_server}; each
    connection has a dedicated reader domain demultiplexing reply frames
    by correlation id into {!future}s. {!send} encodes onto one pooled
    connection (round-robin) and returns immediately — any number of
    requests can be in flight, and replies resolve out of order.

    Futures record their completion time ({!done_at}, a
    [Bench_util.now_mono] stamp taken by the reader domain once per read
    chunk, after every reply frame in the chunk is decoded), so an
    open-loop load generator can measure latency without itself
    blocking in {!await}.

    If a connection dies (EOF, write error, corrupt reply frame) every
    future pending on it resolves to [Failed (Op_raised "connection
    lost")] and subsequent sends on it fail the same way — a dead server
    yields typed failures, not hangs. *)

type t

type future

val connect : ?pool:int -> ?cork:bool -> Unix.sockaddr -> t
(** Open [pool] connections (default 1) to the server. Raises
    [Unix.Unix_error] if the server is unreachable.

    [cork] (default false) batches encoded request frames in the
    connection's buffer until ~8 KiB accumulate, {!await} blocks on one
    of its futures, or {!close} runs — collapsing the per-request
    [write] syscall under pipelined load. Leave it off for latency
    measurement: a corked send may sit in the buffer until the next
    flush point, which is exactly the send-time distortion an open-loop
    driver must not have. *)

val send : t -> Spp_shard.Serve.request -> future
(** Encode and write one request frame on the next pooled connection;
    returns a future resolving to its reply. Never blocks on the reply
    (it can block in [write] if the socket buffer is full — the server
    reader always drains, so this is bounded). *)

val peek : future -> Spp_shard.Serve.reply option
(** [Some r] once the reply has arrived, without blocking. *)

val await : t -> future -> Spp_shard.Serve.reply
(** Block until the reply arrives. *)

val done_at : future -> float
(** Monotonic time at which the reader finished decoding the read chunk
    that carried this future's reply — one stamp per chunk, taken after
    the chunk's last frame is decoded, so never earlier than the
    frame's own decode. Non-decreasing in reply arrival order on one
    connection. Meaningless (0.) before the future resolves. *)

val inflight : t -> int
(** Futures sent but not yet resolved, across the pool. *)

(* Blocking one-shot conveniences. *)
val put : t -> key:string -> value:string -> Spp_shard.Serve.reply
val get : t -> string -> Spp_shard.Serve.reply
val remove : t -> string -> Spp_shard.Serve.reply
val scan : t -> lo:string -> hi:string -> limit:int -> Spp_shard.Serve.reply

val close : t -> unit
(** Shut down the write sides (letting the server flush every reply
    still owed), drain the readers, close the sockets. Pending futures
    that never got a reply resolve to [Failed (Op_raised _)].
    Idempotent. *)
