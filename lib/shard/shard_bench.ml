(* True-parallel db_bench over the sharded router.

   The operation stream is generated once on the main domain, routed
   into per-shard streams, and then driven either sequentially (the
   logical-shard model fig5 uses — the differential baseline) or with
   one [Domain] per shard. Both modes execute the identical per-shard
   streams against identically constructed stores, so the per-shard op
   results — op/hit/put counts and an order-sensitive digest of every
   get — must match bit for bit; only the wall clock may differ.

   The second half holds the serving-stack helpers that bench/, sppctl
   and the tests share: the stack builder, the windowed [Serve] driver,
   the deterministic async run, the durable-restart check and the
   correctness-gate ledger. *)

open Spp_benchlib

type dist =
  | Uniform
  | Zipfian of float   (* theta in (0, 1); YCSB default 0.99 *)
  | Rotating of { theta : float; period : int }
      (* Zipfian whose hot set jumps to a fresh key region every
         [period] draws — the moving-hotspot workload the rebalancer
         chases; deterministic under the seed like the others *)

let dist_name = function
  | Uniform -> "uniform"
  | Zipfian theta -> Printf.sprintf "zipfian%.2f" theta
  | Rotating { theta; period } ->
    Printf.sprintf "rotating%.2f-%d" theta period

type op_kind =
  | O_get
  | O_put
  | O_scan of { span : int; limit : int }
      (* ordered range of [span] consecutive keys upward from o_key *)

type op = {
  o_key : string;
  o_kind : op_kind;
}

let write_pct (w : Spp_pmemkv.Db_bench.workload) =
  match w with
  | Spp_pmemkv.Db_bench.Update_heavy -> 50
  | Spp_pmemkv.Db_bench.Read_heavy -> 5
  | Spp_pmemkv.Db_bench.Random_reads | Spp_pmemkv.Db_bench.Seq_reads -> 0

let gen_ops ?(scan_pct = 0) ?(scan_span = 16) ?(scan_limit = 16) ~seed ~ops
    ~universe ~dist workload =
  let pct = write_pct workload in
  let gen =
    match dist with
    | Uniform -> Keygen.uniform ~seed ~universe
    | Zipfian theta -> Keygen.zipfian ~theta ~seed ~universe ()
    | Rotating { theta; period } ->
      Keygen.rotating ~theta ~seed ~universe ~period ()
  in
  (* separate stream for the op-mix coin so changing the key
     distribution never changes the op mix *)
  let coin = Random.State.make [| seed; 0x11C9 |] in
  Array.init ops (fun i ->
    let idx =
      match workload with
      | Spp_pmemkv.Db_bench.Seq_reads -> (seed + i) mod universe
      | _ -> Keygen.next gen
    in
    (* one coin draw per op whatever the kind, so adding scans to a mix
       leaves the put/get decisions of the remaining ops untouched *)
    let roll = Random.State.int coin 100 in
    let kind =
      if roll < scan_pct then O_scan { span = scan_span; limit = scan_limit }
      else if pct > 0 && roll - scan_pct < pct then O_put
      else O_get
    in
    { o_key = Spp_pmemkv.Db_bench.key_of_int idx; o_kind = kind })

(* Route any stream by [key] into per-shard streams, program order kept
   within each shard. Partitioning depends only on the shard count, so
   two stores of equal [nshards] see identical streams. [reassemble] is
   its inverse on the per-shard replies, putting them back into send
   order. *)
let partition_by ~key ~nshards xs =
  let buckets = Array.make nshards [] in
  Array.iter
    (fun x ->
      let s = Shard.shard_of_key ~nshards (key x) in
      buckets.(s) <- x :: buckets.(s))
    xs;
  Array.map (fun l -> Array.of_list (List.rev l)) buckets

let reassemble ~key ~nshards xs per_shard =
  let cursors = Array.make nshards 0 in
  Array.map
    (fun x ->
      let s = Shard.shard_of_key ~nshards (key x) in
      let r = per_shard.(s).(cursors.(s)) in
      cursors.(s) <- cursors.(s) + 1;
      r)
    xs

let partition ~nshards ops = partition_by ~key:(fun o -> o.o_key) ~nshards ops

let preload t ~keys =
  for i = 0 to keys - 1 do
    Shard.put t ~key:(Spp_pmemkv.Db_bench.key_of_int i)
      ~value:Spp_pmemkv.Db_bench.value_block
  done

(* Per-shard execution result. [sr_digest] folds every get outcome in
   op order, so two runs agree only if they saw the same hit/miss
   sequence with the same value shapes. [sr_elapsed] is measurement,
   not result — [signature] deliberately excludes it. *)
type shard_result = {
  sr_shard : int;
  sr_ops : int;
  sr_hits : int;
  sr_puts : int;
  sr_scans : int;
  sr_scan_entries : int;       (* pairs returned across all scans *)
  sr_scan_digests : int array; (* one digest per scan, in op order *)
  sr_digest : int;
  sr_elapsed : float;
}

let signature r =
  ( r.sr_shard, r.sr_ops, r.sr_hits, r.sr_puts, r.sr_scans,
    r.sr_scan_entries, r.sr_scan_digests, r.sr_digest )

(* A scan op covers [o_key, o_key + span) in key-of-int order — the
   string encoding is zero-padded, so lexicographic equals numeric
   order and the upper bound is the key one past the span. *)
let scan_hi_of ~key ~span =
  let n = String.length "key" in
  let idx = int_of_string (String.sub key n (String.length key - n)) in
  Spp_pmemkv.Db_bench.key_of_int (idx + span - 1)

let exec_shard (s : Shard.shard) ops =
  let kv = Shard.shard_kv s in
  let digest = ref 0x1505 in
  let mix v = digest := (!digest * 0x01000193) lxor v in
  let hits = ref 0 and puts = ref 0 in
  let scans = ref 0 and scan_entries = ref 0 in
  let scan_digests = ref [] in
  let t0 = Bench_util.now_mono () in
  Array.iter
    (fun op ->
      match op.o_kind with
      | O_put ->
        Spp_pmemkv.Engine.put kv ~key:op.o_key
          ~value:Spp_pmemkv.Db_bench.value_block;
        incr puts;
        mix 1
      | O_get ->
        (match Spp_pmemkv.Engine.get kv op.o_key with
         | Some v ->
           incr hits;
           mix (String.length v + Char.code v.[0])
         | None -> mix 0x7F)
      | O_scan { span; limit } ->
        let hi = scan_hi_of ~key:op.o_key ~span in
        let kvs = Spp_pmemkv.Engine.scan kv ~lo:op.o_key ~hi ~limit in
        incr scans;
        (* per-scan digest so a divergence report can name the exact
           scan reply that differed, not just "some scan" *)
        let sd = ref 0x1505 in
        let smix v = sd := (!sd * 0x01000193) lxor v in
        List.iter
          (fun (k, v) ->
            incr scan_entries;
            smix (String.length k + Char.code k.[0]);
            smix (String.length v + Char.code v.[0]))
          kvs;
        scan_digests := (!sd land max_int) :: !scan_digests;
        mix !sd)
    ops;
  let elapsed = Bench_util.now_mono () -. t0 in
  { sr_shard = Shard.shard_index s; sr_ops = Array.length ops;
    sr_hits = !hits; sr_puts = !puts; sr_scans = !scans;
    sr_scan_entries = !scan_entries;
    sr_scan_digests = Array.of_list (List.rev !scan_digests);
    sr_digest = !digest land max_int;
    sr_elapsed = elapsed }

type mode =
  | Sequential   (* logical shards, one domain — the fig5 baseline *)
  | Parallel     (* one Domain per shard *)

let mode_name = function Sequential -> "sequential" | Parallel -> "parallel"

type run_result = {
  r_mode : mode;
  r_shards : shard_result array;
  r_wall : float;        (* whole-run wall clock, spawn to join *)
  r_total_ops : int;
  r_throughput : float;  (* total ops / wall *)
}

let run t ~mode per_shard_ops =
  if Array.length per_shard_ops <> Shard.nshards t then
    invalid_arg "Shard_bench.run: stream count <> shard count";
  (* drain the GC before timing so a pending major collection from
     preload does not land inside the measured window *)
  Gc.full_major ();
  let t0 = Bench_util.now_mono () in
  let r_shards =
    match mode with
    | Sequential ->
      Array.mapi (fun i ops -> exec_shard (Shard.shard t i) ops) per_shard_ops
    | Parallel ->
      let domains =
        Array.mapi
          (fun i ops ->
            let s = Shard.shard t i in
            Domain.spawn (fun () -> exec_shard s ops))
          per_shard_ops
      in
      Array.map Domain.join domains
  in
  let r_wall = Bench_util.now_mono () -. t0 in
  let r_total_ops = Array.fold_left (fun a r -> a + r.sr_ops) 0 r_shards in
  { r_mode = mode; r_shards; r_wall; r_total_ops;
    r_throughput = float_of_int r_total_ops /. Float.max r_wall 1e-9 }

let results_agree a b =
  Array.length a.r_shards = Array.length b.r_shards
  && Array.for_all2
       (fun x y -> signature x = signature y)
       a.r_shards b.r_shards

(* Diagnostic differential: [None] when the runs agree, otherwise the
   first diverging shard index and the first diverging signature field —
   a bare "signatures differ" is useless when 8 shards each fold 3000
   ops into one digest. *)
let explain_divergence a b =
  let na = Array.length a.r_shards and nb = Array.length b.r_shards in
  if na <> nb then
    Some (Printf.sprintf "shard count differs: %d (%s) vs %d (%s)" na
            (mode_name a.r_mode) nb (mode_name b.r_mode))
  else begin
    let explain_shard i =
      let x = a.r_shards.(i) and y = b.r_shards.(i) in
      if signature x = signature y then None
      else
        let first_scan_diff () =
          let n = min (Array.length x.sr_scan_digests)
                    (Array.length y.sr_scan_digests) in
          let rec go j =
            if j >= n then None
            else if x.sr_scan_digests.(j) <> y.sr_scan_digests.(j) then Some j
            else go (j + 1)
          in
          go 0
        in
        let field =
          if x.sr_shard <> y.sr_shard then
            Printf.sprintf "sr_shard %d vs %d" x.sr_shard y.sr_shard
          else if x.sr_ops <> y.sr_ops then
            Printf.sprintf "sr_ops %d vs %d" x.sr_ops y.sr_ops
          else if x.sr_puts <> y.sr_puts then
            Printf.sprintf "sr_puts %d vs %d" x.sr_puts y.sr_puts
          else if x.sr_hits <> y.sr_hits then
            Printf.sprintf "sr_hits %d vs %d" x.sr_hits y.sr_hits
          else if x.sr_scans <> y.sr_scans then
            Printf.sprintf "sr_scans %d vs %d" x.sr_scans y.sr_scans
          else if x.sr_scan_entries <> y.sr_scan_entries then
            Printf.sprintf "sr_scan_entries %d vs %d" x.sr_scan_entries
              y.sr_scan_entries
          else
            match first_scan_diff () with
            | Some j ->
              Printf.sprintf
                "scan reply %d (of %d) digest 0x%x vs 0x%x" j x.sr_scans
                x.sr_scan_digests.(j) y.sr_scan_digests.(j)
            | None ->
              Printf.sprintf "sr_digest 0x%x vs 0x%x" x.sr_digest y.sr_digest
        in
        Some
          (Printf.sprintf "first divergence at shard %d: %s (%s vs %s)" i
             field (mode_name a.r_mode) (mode_name b.r_mode))
    in
    let rec go i =
      if i >= na then None
      else match explain_shard i with Some _ as s -> s | None -> go (i + 1)
    in
    go 0
  end

(* ------------------------------------------------------------------ *)
(* Serving-stack helpers shared by bench/, sppctl and the tests          *)
(* ------------------------------------------------------------------ *)

let dev_of t i = Spp_pmdk.Pool.dev (Shard.shard_access (Shard.shard t i)).Spp_access.pool

(* The bench stack: [nshards] shards of 512 buckets, Memdev store
   tracking on every shard if asked, [keys] preloaded, stats zeroed. *)
let stack ?(variant = Spp_access.Spp) ?engine ?cache_cap ?nslots
    ?(pool_size = 1 lsl 24) ?(tracking = false) ?(keys = 0) nshards =
  let t =
    Shard.create ~nbuckets:512 ~pool_size ?cache_cap ?engine ?nslots ~nshards
      variant
  in
  if tracking then
    for i = 0 to nshards - 1 do Spp_sim.Memdev.set_tracking (dev_of t i) true done;
  preload t ~keys;
  Shard.reset_stats t;
  t

(* A submission window: at most [cap] tickets outstanding, a push into a
   full window first awaits the oldest, [drain] awaits the rest in
   submission order. Polymorphic so the bookkeeping is testable apart
   from a live pipeline; [serve_window] is the [Serve] instance. *)
type ('a, 'tk) window = {
  cap : int;
  submit : 'a -> 'tk;
  await : 'tk -> unit;
  pending : 'tk Queue.t;
}

let window ~cap ~submit ~await = { cap; submit; await; pending = Queue.create () }

let push w x =
  if Queue.length w.pending >= w.cap then w.await (Queue.pop w.pending);
  Queue.push (w.submit x) w.pending

let drain w =
  Queue.iter w.await w.pending;
  Queue.clear w.pending

let serve_window sv cap =
  window ~cap ~submit:(Serve.submit sv) ~await:(fun tk -> ignore (Serve.await sv tk))

(* Requests [lo, hi) of [reqs] through one window. *)
let drive ?(lo = 0) ?hi sv ~window reqs =
  let hi = Option.value hi ~default:(Array.length reqs) in
  let w = serve_window sv window in
  for i = lo to hi - 1 do push w reqs.(i) done;
  drain w

(* One domain per client stream, each through its own window; the wall
   seconds from spawn to join. *)
let drive_clients sv ~window per_client =
  let t0 = Bench_util.now_mono () in
  Array.map (fun reqs -> Domain.spawn (fun () -> drive sv ~window reqs)) per_client
  |> Array.iter Domain.join;
  Bench_util.now_mono () -. t0

(* The async pipeline made deterministic — fixed batching, every stream
   pre-enqueued before the workers start — so its replies and all
   Space/Memdev accounting can be compared bit for bit with
   [Serve.run_sequential] on an identically built store. Keyed requests
   go through the router; a scan, which has no routing key, enters its
   stream's shard directly. *)
let run_async t ~batch_cap streams =
  let sv = Serve.create ~batch_cap ~adaptive:false ~autostart:false t in
  let submit i = function
    | Serve.Scan _ as r -> Serve.submit_to sv i r
    | r -> Serve.submit sv r
  in
  let tickets = Array.mapi (fun i s -> Array.map (submit i) s) streams in
  Serve.start sv;
  let replies = Array.map (Array.map (Serve.await sv)) tickets in
  Serve.stop sv;
  replies

let replies_agree a b =
  Array.for_all2 (fun x y -> Serve.digest_replies x = Serve.digest_replies y) a b

(* Restart every shard from its durable bytes alone: snapshot the
   device, reopen it through recovery, reattach the engine from the
   parked root, and read back the entry count and keys [0, keys). [None]
   for a shard whose image fails recovery. Two distinct pools never
   match byte for byte (the uuid is in the header and every oid), so
   this is how two runs' durable states are compared. *)
let durable_restart t ~keys =
  Array.init (Shard.nshards t) (fun i ->
    let sh = Shard.shard t i in
    let img = Spp_sim.Memdev.durable_snapshot (dev_of t i) in
    let dev = Spp_sim.Memdev.of_image ~name:(Printf.sprintf "restart%d" i) img in
    match Spp_pmdk.Pool.open_dev (Spp_sim.Space.create ()) ~base:4096 dev with
    | Error _ -> None
    | Ok (pool, _) ->
      let kv =
        Spp_pmemkv.Engine.attach (Shard.engine t)
          (Spp_access.attach (Spp_pmdk.Pool.space pool) pool)
          ~root:(Spp_pmemkv.Engine.root_oid (Shard.shard_kv sh))
      in
      Some
        ( Spp_pmemkv.Engine.count_all kv,
          Array.init keys (fun k ->
            Spp_pmemkv.Engine.get kv (Spp_pmemkv.Db_bench.key_of_int k)) ))

(* Correctness-gate ledger: a run records every gate it checks, and any
   failed one turns into a non-zero exit status. *)
let record_gate failed ~name ok = if ok then failed else failed @ [ name ]

let exit_status failed = if failed = [] then 0 else 1
