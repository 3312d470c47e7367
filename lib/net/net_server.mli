(** Socket front end over the serving pipeline.

    Listens on a TCP or Unix-domain socket and multiplexes pipelined
    {!Wire} requests into {!Spp_shard.Serve}'s per-shard mailboxes. Each
    accepted connection gets a reader and a writer domain:

    - the {b reader} decodes frames as they arrive and submits each
      request through [Serve.submit] immediately — requests pipeline
      into the shard mailboxes without waiting for earlier replies. A
      cache-hit [Get] (whose ticket [Serve.submit] pre-fulfils on the
      submitting thread, no worker hop) is answered by the reader
      itself, overtaking queued completions — replies are matched by
      correlation id, not order. Those replies collect in the reader's
      {!Outbox}, written out once the read chunk is decoded (or when the
      outbox fills, or the reader exits): one write per chunk, not per
      frame. A [Scan] executes as a whole-store [Serve.scan] on the
      reader (it has no routing key), serializing that one connection's
      pipeline behind it.
    - the {b writer} drains a per-connection completion queue of
      (correlation id, ticket) pairs, awaiting each ticket — tickets
      resolve in per-shard commit order, so a multi-shard pipeline
      completes out of submission order — and stages every reply that
      is already resolved into its own outbox, flushing before it
      blocks.

    A malformed frame closes that connection only: the reader counts it,
    stops decoding and lets the writer flush the replies already owed;
    the serving pipeline and its worker domains are untouched. A request
    that cannot be submitted (e.g. the pipeline is stopping) is answered
    [Failed (Op_raised _)] instead of killing the connection.

    Lifecycle: {!stop} the server before [Serve.stop] if possible;
    either order is safe (tickets resolve during the pipeline drain, so
    writers never hang), but stopping the server first lets clients see
    every in-flight reply. *)

type t

type stats = {
  sv_accepted : int;    (** connections accepted *)
  sv_requests : int;    (** frames decoded and dispatched *)
  sv_replies : int;     (** reply frames written *)
  sv_malformed : int;   (** connections dropped on a corrupt frame *)
  sv_writes : int;
      (** [Unix.write] calls on the reply paths, each of at most
          {!Outbox.cap} bytes; [sv_replies / sv_writes] is the batching
          factor *)
}

(** Reply staging: each connection's reader and writer own one outbox
    and write whole frames out of it under the connection's write
    mutex. Exposed so its bounds can be checked on a plain socket. *)
module Outbox : sig
  type t

  val cap : int
  (** 64 KiB. A frame that would take the staged bytes past it flushes
      what is staged first. *)

  val create :
    Unix.file_descr -> Mutex.t -> writes:int Atomic.t ->
    replies:int Atomic.t -> t
  (** An empty outbox writing to the fd under the mutex, counting its
      [Unix.write] calls into [writes] and its frames into [replies]. *)

  val stage : t -> corr:int -> Spp_shard.Serve.reply -> unit
  (** Encode and append one reply frame. *)

  val flush : t -> unit
  (** Write everything staged, in [Unix.write] calls of at most {!cap}
      bytes, under the mutex. A write error (dead peer) drops the
      staged frames silently. *)

  val pending : t -> int
  (** Bytes staged and not yet written. *)

  val retained : t -> int
  (** Bytes of staging storage held. At most {!cap} after any flush; a
      single frame larger than {!cap} stretches it until the next. *)
end

val parse_addr : string -> Unix.sockaddr
(** ["unix:PATH"], ["PORT"] (loopback TCP) or ["HOST:PORT"]. Raises
    [Invalid_argument] on anything else. *)

val pp_addr : Format.formatter -> Unix.sockaddr -> unit

val create : ?backlog:int -> Spp_shard.Serve.t -> Unix.sockaddr -> t
(** Bind, listen and start the accept domain. A Unix-domain path is
    unlinked first if stale; TCP sockets set [SO_REUSEADDR] and accept
    port 0 (see {!addr} for the bound port). [backlog] defaults to 64. *)

val addr : t -> Unix.sockaddr
(** The actually-bound address — the kernel-chosen port for TCP port 0. *)

val serve : t -> Spp_shard.Serve.t

val stats : t -> stats
(** Live monotone snapshot. *)

val stop : t -> unit
(** Close the listening socket, shut down every connection, join the
    accept/reader/writer domains and unlink a Unix-domain path.
    Idempotent. In-flight tickets are awaited and their replies flushed
    before each connection closes. *)
