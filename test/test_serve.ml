(* Tests for the group-commit stack and the asynchronous batched serving
   pipeline: histogram unit tests, Cmap.run_batch vs a model oracle and
   vs the synchronous path, the fences/op amortization bar on both
   tracking engines, the async-pipeline differential, and the shard
   divergence diagnostics. *)

open Spp_benchlib
open Spp_shard
open Spp_pmemkv

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Histogram -------------------------------------------------------- *)

let test_histogram_buckets () =
  (* values below 16 are exact *)
  for v = 0 to 15 do
    check_int "small value exact" v (Histogram.bucket_index v);
    let lo, hi = Histogram.bucket_range v in
    check_int "small lo" v lo;
    check_int "small hi" v hi
  done;
  (* octave boundaries land in their bucket, and every bucket contains
     the values its range claims *)
  List.iter
    (fun v ->
      let i = Histogram.bucket_index v in
      let lo, hi = Histogram.bucket_range i in
      check_bool
        (Printf.sprintf "%d in bucket [%d, %d]" v lo hi)
        true
        (lo <= v && v <= hi);
      (* relative bucket width stays within 1/16 of the magnitude *)
      if v >= 16 then
        check_bool
          (Printf.sprintf "bucket width %d <= %d/16" (hi - lo + 1) v)
          true
          (hi - lo + 1 <= max 1 (v / 8)))
    [ 16; 17; 31; 32; 33; 63; 64; 100; 1_000; 4_095; 4_096; 65_535;
      1_000_000; 123_456_789; max_int / 2 ];
  (* bucket index is monotone in the value *)
  let prev = ref (-1) in
  List.iter
    (fun v ->
      let i = Histogram.bucket_index v in
      check_bool "bucket index monotone" true (i >= !prev);
      prev := i)
    [ 0; 1; 7; 15; 16; 20; 90; 1024; 1025; 999_999; max_int / 4 ]

let test_histogram_percentiles () =
  let h = Histogram.create () in
  for v = 1 to 1000 do
    Histogram.add h v
  done;
  check_int "count" 1000 (Histogram.count h);
  check_int "max exact" 1000 (Histogram.max_value h);
  (* percentile is conservative (>= true quantile) but within a bucket
     width, and monotone in p *)
  let prev = ref 0 in
  List.iter
    (fun p ->
      let v = Histogram.percentile h p in
      let truth = int_of_float (ceil (p /. 100. *. 1000.)) in
      check_bool
        (Printf.sprintf "p%.0f = %d >= %d" p v truth)
        true (v >= truth);
      check_bool
        (Printf.sprintf "p%.0f = %d within bucket of %d" p v truth)
        true
        (v <= truth + (max 1 (truth / 8)));
      check_bool "monotone in p" true (v >= !prev);
      prev := v)
    [ 1.; 10.; 25.; 50.; 75.; 90.; 95.; 99.; 99.9; 100. ];
  check_int "p100 = max" 1000 (Histogram.percentile h 100.);
  check_int "empty histogram percentile" 0
    (Histogram.percentile (Histogram.create ()) 99.)

let test_histogram_merge () =
  let fill seed n =
    let st = Random.State.make [| seed |] in
    let h = Histogram.create () in
    for _ = 1 to n do
      Histogram.add h (Random.State.int st 1_000_000)
    done;
    h
  in
  let a = fill 1 500 and b = fill 2 900 and c = fill 3 40 in
  let xy = Histogram.merge (Histogram.merge a b) c in
  let yz = Histogram.merge a (Histogram.merge b c) in
  check_bool "merge associative (exact state)" true
    (Histogram.to_alist xy = Histogram.to_alist yz);
  check_int "merge count" 1440 (Histogram.count xy);
  check_int "merge max" (Histogram.max_value yz) (Histogram.max_value xy);
  check_bool "merge commutative" true
    (Histogram.to_alist (Histogram.merge a b)
     = Histogram.to_alist (Histogram.merge b a));
  (* merged percentiles match a histogram fed the union *)
  let u = Histogram.merge a b in
  check_int "p50 of union" (Histogram.percentile u 50.)
    (Histogram.percentile (Histogram.merge b a) 50.)

let test_histogram_mean () =
  let h = Histogram.create () in
  check_int "empty count" 0 (Histogram.count h);
  Alcotest.(check (float 0.)) "empty mean" 0. (Histogram.mean h);
  List.iter (Histogram.add h) [ 10; 20; 30; 100 ];
  (* the mean is exact — it comes from the value sum, not the buckets *)
  Alcotest.(check (float 1e-9)) "exact mean" 40. (Histogram.mean h);
  check_int "count" 4 (Histogram.count h);
  let g = Histogram.create () in
  List.iter (Histogram.add g) [ 0; 0 ];
  let m = Histogram.merge h g in
  Alcotest.(check (float 1e-9)) "merged mean reweights" (160. /. 6.)
    (Histogram.mean m);
  Alcotest.(check (float 0.)) "all-zero values still mean 0" 0.
    (Histogram.mean g)

(* --- Cmap.run_batch --------------------------------------------------- *)

let mk_map ?(nbuckets = 32) variant =
  let a = Spp_access.create ~pool_size:(1 lsl 21) ~name:"serve-test" variant in
  Cmap.create ~nbuckets a

let test_run_batch_oracle () =
  List.iter
    (fun variant ->
      let kv = mk_map variant in
      let model = Hashtbl.create 64 in
      let st = Random.State.make [| 77 |] in
      for _round = 1 to 30 do
        let n = 1 + Random.State.int st 40 in
        let ops =
          Array.init n (fun _ ->
            let key = Printf.sprintf "key-%d" (Random.State.int st 60) in
            match Random.State.int st 3 with
            | 0 ->
              Cmap.B_put
                { key;
                  value = Printf.sprintf "val-%d" (Random.State.int st 9999) }
            | 1 -> Cmap.B_remove key
            | _ -> Cmap.B_get key)
        in
        let replies = Cmap.run_batch kv ops in
        Array.iteri
          (fun i op ->
            match (op, replies.(i)) with
            | Cmap.B_put { key; value }, Cmap.R_put ->
              Hashtbl.replace model key value
            | Cmap.B_get key, Cmap.R_get v ->
              Alcotest.(check (option string))
                "batched get agrees with model" (Hashtbl.find_opt model key) v
            | Cmap.B_remove key, Cmap.R_removed r ->
              check_bool "batched remove agrees" (Hashtbl.mem model key) r;
              Hashtbl.remove model key
            | _ -> Alcotest.fail "reply shape mismatch")
          ops
      done;
      check_int "surviving entries" (Hashtbl.length model) (Cmap.count_all kv);
      (* the synchronous path reads what the batched path wrote *)
      Hashtbl.iter
        (fun k v ->
          Alcotest.(check (option string)) "sync get sees batched put" (Some v)
            (Cmap.get kv k))
        model)
    [ Spp_access.Spp; Spp_access.Pmdk ]

let test_run_batch_within_batch_visibility () =
  let kv = mk_map Spp_access.Spp in
  let replies =
    Cmap.run_batch kv
      [| Cmap.B_put { key = "a"; value = "1" };
         Cmap.B_get "a";                          (* sees the staged put *)
         Cmap.B_put { key = "a"; value = "22" };  (* replaces in-batch entry *)
         Cmap.B_get "a";
         Cmap.B_remove "a";
         Cmap.B_get "a";
         Cmap.B_put { key = "a"; value = "333" } |]
  in
  check_bool "get after put" true (replies.(1) = Cmap.R_get (Some "1"));
  check_bool "get after replace" true (replies.(3) = Cmap.R_get (Some "22"));
  check_bool "remove hits" true (replies.(4) = Cmap.R_removed true);
  check_bool "get after remove" true (replies.(5) = Cmap.R_get None);
  Alcotest.(check (option string)) "final state" (Some "333") (Cmap.get kv "a")

(* Group commit must survive a crash mid-stream like any other path:
   recovery replays or discards the staged log, never tears an op. The
   torture suite (test_torture) enumerates every crash point; here we
   sanity-check a plain power cut between batches. *)
let test_run_batch_crash_between_batches () =
  let a = Spp_access.create ~pool_size:(1 lsl 20) ~name:"crashkv"
      Spp_access.Spp in
  let pool = a.Spp_access.pool in
  let kv = Cmap.create ~nbuckets:16 a in
  let root = a.Spp_access.root a.Spp_access.oid_size in
  Spp_pmdk.Pool.store_oid pool ~off:root.Spp_pmdk.Oid.off (Cmap.buckets_oid kv);
  Spp_pmdk.Pool.persist pool ~off:root.Spp_pmdk.Oid.off
    ~len:a.Spp_access.oid_size;
  Spp_sim.Memdev.set_tracking (Spp_pmdk.Pool.dev pool) true;
  ignore
    (Cmap.run_batch kv
       [| Cmap.B_put { key = "k1"; value = "v1" };
          Cmap.B_put { key = "k2"; value = "v2" } |]);
  ignore (Spp_pmdk.Pool.crash_and_recover pool);
  let a' = Spp_access.attach (Spp_pmdk.Pool.space pool) pool in
  let buckets =
    Spp_pmdk.Pool.load_oid pool ~off:(Spp_pmdk.Pool.root_oid pool).Spp_pmdk.Oid.off
  in
  let kv' = Cmap.attach a' ~buckets in
  Alcotest.(check (option string)) "committed batch durable" (Some "v1")
    (Cmap.get kv' "k1");
  Alcotest.(check (option string)) "committed batch durable (2)" (Some "v2")
    (Cmap.get kv' "k2")

(* --- Fence amortization (acceptance bar) ------------------------------ *)

let value_256 = String.make 256 'v'

let serve_streams ~nshards ~ops =
  let reqs =
    Array.init ops (fun i ->
      let key = Spp_pmemkv.Db_bench.key_of_int (i mod 64) in
      if i mod 4 = 3 then Serve.Get key
      else Serve.Put { key; value = value_256 })
  in
  let streams = Array.make nshards [] in
  Array.iter
    (fun r ->
      let s = Shard.shard_of_key ~nshards (Serve.request_key r) in
      streams.(s) <- r :: streams.(s))
    reqs;
  Array.map (fun l -> Array.of_list (List.rev l)) streams

let build_serve_store ?(nshards = 2) ?(tracking = false) ?(cache_cap = 0)
    ?engine () =
  let t = Shard.create ~nbuckets:64 ~pool_size:(1 lsl 22) ~cache_cap ?engine
      ~nshards Spp_access.Spp in
  if tracking then
    for i = 0 to nshards - 1 do
      Spp_sim.Memdev.set_tracking
        (Spp_pmdk.Pool.dev (Shard.shard_access (Shard.shard t i)).Spp_access.pool)
        true
    done;
  Shard.reset_stats t;
  t

let fences_per_op ~batch_cap =
  let nshards = 2 and ops = 512 in
  let t = build_serve_store ~nshards ~tracking:true () in
  let streams = serve_streams ~nshards ~ops in
  ignore (Serve.run_sequential t ~batch_cap streams);
  let c = Shard.merged_counters t in
  ( float_of_int c.Spp_sim.Memdev.fences /. float_of_int ops,
    c )

let test_fence_amortization_both_engines () =
  List.iter
    (fun engine ->
      Spp_sim.Memdev.with_default_engine engine (fun () ->
        let f32, c32 = fences_per_op ~batch_cap:32 in
        let f1, c1 = fences_per_op ~batch_cap:1 in
        check_bool
          (Printf.sprintf "fences/op %.3f (cap 32) <= 1/4 of %.3f (cap 1)"
             f32 f1)
          true
          (f32 <= f1 /. 4.);
        (* the saved fences are accounted on the device; a batch of one
           saves nothing *)
        check_bool "fences_saved recorded" true
          (c32.Spp_sim.Memdev.fences_saved > 0);
        check_int "cap-1 batches save nothing" 0 c1.Spp_sim.Memdev.fences_saved;
        check_bool "batched_ops recorded" true
          (c32.Spp_sim.Memdev.batched_ops > 0)))
    [ Spp_sim.Memdev.Line_indexed; Spp_sim.Memdev.List_based ]

(* --- Async pipeline --------------------------------------------------- *)

let test_serve_pipeline_oracle () =
  let nshards = 3 in
  let t = build_serve_store ~nshards () in
  let serve = Serve.create ~batch_cap:8 t in
  let model = Hashtbl.create 64 in
  let st = Random.State.make [| 5 |] in
  let tickets = ref [] in
  for i = 0 to 599 do
    let key = Printf.sprintf "key-%d" (Random.State.int st 80) in
    let req =
      match i mod 3 with
      | 0 ->
        let value = Printf.sprintf "val-%d" i in
        Hashtbl.replace model key value;
        Serve.Put { key; value }
      | 1 -> Serve.Get key
      | _ ->
        Hashtbl.remove model key;
        Serve.Remove key
    in
    tickets := (req, Serve.submit serve req) :: !tickets
  done;
  (* resolve every promise; puts/removes must have been applied in
     submission order per key (same-shard FIFO) *)
  List.iter
    (fun (req, tk) ->
      match (req, Serve.await serve tk) with
      | Serve.Put _, Serve.Done -> ()
      | Serve.Get _, Serve.Value _ -> ()
      | Serve.Remove _, Serve.Removed _ -> ()
      | _ -> Alcotest.fail "reply shape mismatch")
    !tickets;
  Serve.stop serve;
  check_int "final store contents" (Hashtbl.length model) (Shard.count_all t);
  Hashtbl.iter
    (fun k v ->
      Alcotest.(check (option string)) "final value" (Some v) (Shard.get t k))
    model;
  let stats = Serve.stats serve in
  check_int "every op executed" 600
    (Array.fold_left (fun a s -> a + s.Serve.ss_ops) 0 stats);
  check_int "latency recorded per request" 600
    (Histogram.count (Serve.merged_hist serve));
  Array.iter
    (fun s ->
      check_bool "batch sizes within cap" true (s.Serve.ss_max_batch <= 8))
    stats

(* Interleave a bounded full-window Scan every [every] requests into
   each per-shard stream. Scans carry no routing key, so they are mixed
   in after partitioning and submitted per shard. *)
let mix_scans ~every streams =
  Array.map
    (fun stream ->
      let out = ref [] in
      Array.iteri
        (fun i r ->
          if i mod every = every - 1 then
            out :=
              Serve.Scan
                { lo = Spp_pmemkv.Db_bench.key_of_int 0;
                  hi = Spp_pmemkv.Db_bench.key_of_int 9_999; limit = 24 }
              :: !out;
          out := r :: !out)
        stream;
      Array.of_list (List.rev !out))
    streams

(* The differential the tentpole must preserve, on either engine: the
   async pipeline (pre-enqueued, fixed batching) against the sequential
   baseline on identically built stores — replies (ordered scan slices
   included), merged Space stats and merged Memdev counters all
   bit-identical. *)
let serve_differential engine () =
  let nshards = 4 and ops = 1_200 and batch_cap = 16 in
  let streams = mix_scans ~every:60 (serve_streams ~nshards ~ops) in
  let t_seq = build_serve_store ~nshards ~engine () in
  let t_par = build_serve_store ~nshards ~engine () in
  let seq_replies = Serve.run_sequential t_seq ~batch_cap streams in
  let serve = Serve.create ~batch_cap ~adaptive:false ~autostart:false t_par in
  let tickets =
    Array.mapi
      (fun i stream ->
        Array.map (fun req -> (req, Serve.submit_to serve i req)) stream)
      streams
  in
  Serve.start serve;
  let par_replies =
    Array.map (Array.map (fun (_, tk) -> Serve.await serve tk)) tickets
  in
  Serve.stop serve;
  Array.iteri
    (fun i seq ->
      check_int
        (Printf.sprintf "shard %d reply digest" i)
        (Serve.digest_replies seq)
        (Serve.digest_replies par_replies.(i)))
    seq_replies;
  check_bool "merged Space stats identical" true
    (Shard.merged_stats t_seq = Shard.merged_stats t_par);
  check_bool "merged Memdev counters identical (incl. fences_saved)" true
    (Shard.merged_counters t_seq = Shard.merged_counters t_par);
  check_int "same surviving entries" (Shard.count_all t_seq)
    (Shard.count_all t_par)

let test_serve_differential () = serve_differential Spp_pmemkv.Engines.cmap ()

let test_serve_differential_btree () =
  serve_differential Spp_pmemkv.Engines.btree ()

let test_serve_adaptive_batching () =
  (* pre-enqueue a big backlog: the adaptive drain must actually grow
     beyond 1 and stay within the cap *)
  let nshards = 1 in
  let t = build_serve_store ~nshards () in
  let serve = Serve.create ~batch_cap:32 ~adaptive:true ~autostart:false t in
  let tickets =
    Array.init 500 (fun i ->
      Serve.submit serve
        (Serve.Put { key = Printf.sprintf "k%d" i; value = "v" }))
  in
  Serve.start serve;
  Array.iter (fun tk -> ignore (Serve.await serve tk)) tickets;
  Serve.stop serve;
  let s = (Serve.stats serve).(0) in
  check_int "all ops served" 500 s.Serve.ss_ops;
  check_bool "batches grew under pressure" true (s.Serve.ss_max_batch > 4);
  check_bool "cap respected" true (s.Serve.ss_max_batch <= 32);
  check_bool "fewer batches than ops" true (s.Serve.ss_batches < 500)

(* --- Read cache ------------------------------------------------------- *)

(* Get-heavy streams over a small hot set, with removes mixed in so the
   invalidation paths are on the differential too. *)
let cache_streams ~nshards ~ops =
  let st = Random.State.make [| 0xCAFE; nshards; ops |] in
  let reqs =
    Array.init ops (fun i ->
      let key =
        if Random.State.int st 4 < 3 then
          Spp_pmemkv.Db_bench.key_of_int (Random.State.int st 8)
        else Spp_pmemkv.Db_bench.key_of_int (Random.State.int st 48)
      in
      match i mod 8 with
      | 0 -> Serve.Put { key; value = value_256 }
      | 1 when i mod 40 = 33 -> Serve.Remove key
      | _ -> Serve.Get key)
  in
  let streams = Array.make nshards [] in
  Array.iter
    (fun r ->
      let s = Shard.shard_of_key ~nshards (Serve.request_key r) in
      streams.(s) <- r :: streams.(s))
    reqs;
  Array.map (fun l -> Array.of_list (List.rev l)) streams

(* The tentpole's safety property: a cached sequential run must be
   bit-identical to a cache-off run of the same streams — every reply,
   every Memdev counter (loads are not simulated events and fills stage
   nothing), and the recovered durable image. *)
let cache_differential engine () =
  let nshards = 2 and ops = 1_600 and batch_cap = 16 in
  let streams = mix_scans ~every:80 (cache_streams ~nshards ~ops) in
  let t_on =
    build_serve_store ~nshards ~tracking:true ~cache_cap:256 ~engine ()
  in
  let t_off = build_serve_store ~nshards ~tracking:true ~engine () in
  check_bool "cache attached" true (Shard.cache_enabled t_on);
  check_bool "cache absent" false (Shard.cache_enabled t_off);
  let r_on = Serve.run_sequential t_on ~batch_cap streams in
  let r_off = Serve.run_sequential t_off ~batch_cap streams in
  Array.iteri
    (fun i off ->
      check_int
        (Printf.sprintf "shard %d reply digest" i)
        (Serve.digest_replies off)
        (Serve.digest_replies r_on.(i)))
    r_off;
  check_bool "merged Memdev counters identical" true
    (Shard.merged_counters t_on = Shard.merged_counters t_off);
  (* Loads are where the cache pays off — everything on the store side
     (the durability-relevant traffic) must not move by a single byte,
     while the cached run must do strictly less PM reading. *)
  let s_on = Shard.merged_stats t_on and s_off = Shard.merged_stats t_off in
  check_int "pm_stores identical" s_off.Spp_sim.Space.pm_stores
    s_on.Spp_sim.Space.pm_stores;
  check_int "pm_bytes_stored identical" s_off.Spp_sim.Space.pm_bytes_stored
    s_on.Spp_sim.Space.pm_bytes_stored;
  check_int "vol_stores identical" s_off.Spp_sim.Space.vol_stores
    s_on.Spp_sim.Space.vol_stores;
  check_bool "cache hits skip PM loads" true
    (s_on.Spp_sim.Space.pm_loads < s_off.Spp_sim.Space.pm_loads);
  let rc = Shard.merged_cache_stats t_on in
  check_bool "the cached run actually hit" true (rc.Rcache.rc_hits > 0);
  check_bool "and invalidated" true (rc.Rcache.rc_invalidations > 0);
  (* Durable images: crash both stores (dropping all volatile state,
     including the cache) and compare what recovery brings back. *)
  let recovered t =
    Array.init nshards (fun i ->
      let sh = Shard.shard t i in
      let pool = (Shard.shard_access sh).Spp_access.pool in
      let root = Engine.root_oid (Shard.shard_kv sh) in
      ignore (Spp_pmdk.Pool.crash_and_recover pool);
      let a' = Spp_access.attach (Spp_pmdk.Pool.space pool) pool in
      let kv' = Engine.attach (Shard.engine t) a' ~root in
      check_bool "recovered map starts cold" true (Engine.cache kv' = None);
      ( Engine.count_all kv',
        List.init 48 (fun k ->
          Engine.get kv' (Spp_pmemkv.Db_bench.key_of_int k)) ))
  in
  let img_on = recovered t_on and img_off = recovered t_off in
  check_bool "recovered durable contents identical" true (img_on = img_off)

let test_cache_sequential_differential () =
  cache_differential Spp_pmemkv.Engines.cmap ()

let test_cache_sequential_differential_btree () =
  cache_differential Spp_pmemkv.Engines.btree ()

(* use_cache:false on a cached store must take the pure PM path. *)
let test_run_sequential_use_cache_off () =
  let nshards = 2 in
  let t = build_serve_store ~nshards ~cache_cap:256 () in
  let streams = cache_streams ~nshards ~ops:400 in
  ignore (Serve.run_sequential ~use_cache:false t ~batch_cap:16 streams);
  check_int "no probes with use_cache:false" 0
    (Shard.merged_cache_stats t).Rcache.rc_hits

(* The async fast path: on an adaptive cached pipeline, hot gets are
   answered on the submitting thread, replies still match the model, and
   a pipelined put-then-get of one key can never be answered from ahead
   of the write (submit-time invalidation). *)
let test_serve_bypass_fast_path () =
  let nshards = 2 in
  let t = build_serve_store ~nshards ~cache_cap:256 () in
  let serve = Serve.create ~batch_cap:8 t in
  for i = 0 to 63 do
    let key = Spp_pmemkv.Db_bench.key_of_int i in
    ignore (Serve.await serve (Serve.submit serve (Serve.Put { key; value = "v0" })))
  done;
  (* Awaited puts committed, so their batch replay filled the cache:
     these gets bypass the mailbox entirely. *)
  for i = 0 to 63 do
    let key = Spp_pmemkv.Db_bench.key_of_int i in
    match Serve.await serve (Serve.submit serve (Serve.Get key)) with
    | Serve.Value (Some "v0") -> ()
    | _ -> Alcotest.fail "wrong value from fast path"
  done;
  check_bool "gets bypassed the mailbox" true (Serve.bypassed_gets serve > 0);
  (* Read-your-writes across the pipeline: submit a put and, without
     awaiting it, a get of the same key. The get must see the new value
     (the submit invalidated the cache, so it queued behind the put). *)
  let key = Spp_pmemkv.Db_bench.key_of_int 7 in
  let tk_put = Serve.submit serve (Serve.Put { key; value = "v1" }) in
  let tk_get = Serve.submit serve (Serve.Get key) in
  (match Serve.await serve tk_get with
   | Serve.Value (Some "v1") -> ()
   | Serve.Value v ->
     Alcotest.failf "pipelined get saw %s, not its own write"
       (match v with Some s -> s | None -> "None")
   | _ -> Alcotest.fail "reply shape");
  ignore (Serve.await serve tk_put);
  Serve.stop serve;
  let s = Serve.cache_stats serve in
  check_bool "cache stats exposed" true (s.Rcache.rc_fills > 0)

(* Deterministic mode must ignore the cache: no bypass, and the async
   run stays bit-identical to the uncached sequential baseline. *)
let test_cache_deterministic_mode () =
  let nshards = 2 and batch_cap = 16 in
  let streams = cache_streams ~nshards ~ops:800 in
  let t_seq = build_serve_store ~nshards ~tracking:true ~cache_cap:256 () in
  let t_par = build_serve_store ~nshards ~tracking:true ~cache_cap:256 () in
  let seq_replies =
    Serve.run_sequential ~use_cache:false t_seq ~batch_cap streams
  in
  let serve = Serve.create ~batch_cap ~adaptive:false ~autostart:false t_par in
  let tickets =
    Array.map (Array.map (fun req -> (req, Serve.submit serve req))) streams
  in
  Serve.start serve;
  let par_replies =
    Array.map (Array.map (fun (_, tk) -> Serve.await serve tk)) tickets
  in
  Serve.stop serve;
  check_int "deterministic mode never bypasses" 0 (Serve.bypassed_gets serve);
  Array.iteri
    (fun i seq ->
      check_int
        (Printf.sprintf "shard %d reply digest" i)
        (Serve.digest_replies seq)
        (Serve.digest_replies par_replies.(i)))
    seq_replies;
  check_bool "merged Memdev counters identical" true
    (Shard.merged_counters t_seq = Shard.merged_counters t_par)

(* Client-facing scans: scatter per shard through the worker batches,
   gather into one globally ordered limit-clipped window; a scan queued
   behind an un-awaited put of an in-range key must observe it
   (same-shard FIFO), and the result is identical on both engines. *)
let test_serve_scan_api () =
  List.iter
    (fun engine ->
      let nshards = 3 in
      let t = build_serve_store ~nshards ~cache_cap:256 ~engine () in
      let serve = Serve.create ~batch_cap:8 t in
      for i = 0 to 99 do
        let key = Spp_pmemkv.Db_bench.key_of_int i in
        ignore
          (Serve.await serve
             (Serve.submit serve
                (Serve.Put { key; value = Printf.sprintf "s%03d" i })))
      done;
      let key_of = Spp_pmemkv.Db_bench.key_of_int in
      let expect =
        List.init 50 (fun i -> (key_of (10 + i), Printf.sprintf "s%03d" (10 + i)))
      in
      (match Serve.scan serve ~lo:(key_of 10) ~hi:(key_of 59) ~limit:1000 with
       | Ok kvs ->
         Alcotest.(check (list (pair string string)))
           (Spp_pmemkv.Engine.spec_name engine ^ ": gathered window")
           expect kvs
       | Error _ -> Alcotest.fail "scan failed");
      (match Serve.scan serve ~lo:(key_of 10) ~hi:(key_of 59) ~limit:5 with
       | Ok kvs ->
         Alcotest.(check (list (pair string string)))
           "global limit clips the merge"
           (List.filteri (fun i _ -> i < 5) expect)
           kvs
       | Error _ -> Alcotest.fail "scan failed");
      (* read-your-writes: un-awaited put, then scan — FIFO per shard *)
      let tk =
        Serve.submit serve
          (Serve.Put { key = key_of 30; value = "fresh" })
      in
      (match Serve.scan serve ~lo:(key_of 30) ~hi:(key_of 30) ~limit:4 with
       | Ok [ (k, v) ] ->
         check_bool "scan sees the queued put" true
           (k = key_of 30 && v = "fresh")
       | Ok _ -> Alcotest.fail "wrong scan width"
       | Error _ -> Alcotest.fail "scan failed");
      ignore (Serve.await serve tk);
      Serve.stop serve)
    [ Spp_pmemkv.Engines.cmap; Spp_pmemkv.Engines.btree ]

(* --- Live slot migration ---------------------------------------------- *)

(* The migration differential: one key-routed op stream executed twice
   on identically built stores — once on the static slot table, once
   with slot migrations forced mid-stream (including one slot moved and
   later moved back) — must produce bit-identical replies in submission
   order, and the recovered durable contents (each shard's durable image
   reopened through recovery and reattached) must merge to the same
   key-value map with every key served by exactly one shard. *)
let migration_differential engine () =
  let nshards = 4 and nops = 1_200 in
  let universe = 96 in
  let key_of = Spp_pmemkv.Db_bench.key_of_int in
  let ops =
    Array.init nops (fun i ->
      let key = key_of (i * 7 mod universe) in
      match i mod 5 with
      | 0 | 1 -> Serve.Put { key; value = Printf.sprintf "mv-%06d" i }
      | 2 -> Serve.Remove key
      | _ -> Serve.Get key)
  in
  let hot_keys = [ key_of 0; key_of 7; key_of 13 ] in
  let run ~migrate =
    let t = build_serve_store ~nshards ~engine () in
    let serve = Serve.create ~batch_cap:8 ~adaptive:false t in
    let tickets = Array.make nops None in
    let submit_range lo hi =
      for i = lo to hi - 1 do
        tickets.(i) <- Some (Serve.submit serve ops.(i))
      done
    in
    let move key =
      let slot = Shard.slot_of t key in
      let src = Shard.route t key in
      let r = Serve.migrate_slot serve ~slot ~dst:((src + 1) mod nshards) in
      check_int "migration moved the slot" ((src + 1) mod nshards)
        (Shard.route t key);
      check_int "report names the slot" slot r.Serve.mig_slot
    in
    submit_range 0 (nops / 3);
    if migrate then List.iter move hot_keys;
    submit_range (nops / 3) (2 * nops / 3);
    if migrate then List.iter move hot_keys;   (* second hop, live again *)
    submit_range (2 * nops / 3) nops;
    let replies =
      Array.map
        (fun tk -> Serve.await serve (Option.get tk))
        tickets
    in
    Serve.stop serve;
    (t, replies)
  in
  let (t_static, r_static) = run ~migrate:false in
  let (t_mig, r_mig) = run ~migrate:true in
  check_int "replies bit-identical to the no-migration run"
    (Serve.digest_replies r_static) (Serve.digest_replies r_mig);
  check_int "same surviving entries" (Shard.count_all t_static)
    (Shard.count_all t_mig);
  (* recovered durable contents: reopen every shard's durable image
     through recovery and merge — each key on exactly one shard, and the
     merged map equal across the two runs *)
  let recovered t =
    let per_shard =
      Array.map
        (function
          | None -> Alcotest.fail "durable image failed recovery"
          | Some (_, contents) -> contents)
        (Shard_bench.durable_restart t ~keys:universe)
    in
    Array.init universe (fun k ->
      let holders =
        Array.to_list per_shard
        |> List.filter_map (fun contents -> contents.(k))
      in
      check_bool
        (Printf.sprintf "key %d durable on at most one shard" k)
        true (List.length holders <= 1);
      holders)
  in
  Alcotest.(check (array (list string)))
    "recovered durable contents equivalent" (recovered t_static)
    (recovered t_mig);
  ignore (Serve.forwarded : Serve.t -> int)

let test_migration_differential () =
  migration_differential Spp_pmemkv.Engines.cmap ()

let test_migration_differential_btree () =
  migration_differential Spp_pmemkv.Engines.btree ()

(* Migration accounting and edge cases on a settled store: reports count
   the copied keys, a no-op migration reports zero, invalid arguments
   are rejected, Migration_failed has a printer, and a whole-store scan
   right after a migration still serves every key exactly once. *)
let test_migration_report_and_scan () =
  let nshards = 3 in
  let t = build_serve_store ~nshards () in
  let serve = Serve.create ~batch_cap:8 t in
  let key_of = Spp_pmemkv.Db_bench.key_of_int in
  for i = 0 to 63 do
    ignore
      (Serve.await serve
         (Serve.submit serve
            (Serve.Put { key = key_of i; value = Printf.sprintf "r%02d" i })))
  done;
  let slot = Shard.slot_of t (key_of 5) in
  let src = Shard.route t (key_of 5) in
  let dst = (src + 1) mod nshards in
  let r = Serve.migrate_slot serve ~slot ~dst in
  check_bool "copied at least the probe key" true (r.Serve.mig_keys >= 1);
  check_int "from" src r.Serve.mig_from;
  check_int "to" dst r.Serve.mig_to;
  check_int "migrations counted" 1 (Serve.migrations serve);
  check_bool "keys_moved accumulates" true (Serve.keys_moved serve >= 1);
  let r2 = Serve.migrate_slot serve ~slot ~dst in
  check_int "no-op migration copies nothing" 0 r2.Serve.mig_keys;
  Alcotest.(check (option string))
    "migrated key served from the new owner" (Some "r05")
    (Shard.get t (key_of 5));
  (match Serve.scan serve ~lo:(key_of 0) ~hi:(key_of 63) ~limit:1000 with
   | Ok kvs ->
     check_int "post-migration scan serves every key once" 64
       (List.length kvs);
     check_bool "scan ordered" true
       (List.for_all2
          (fun (k, _) i -> k = key_of i)
          kvs
          (List.init 64 Fun.id))
   | Error _ -> Alcotest.fail "scan failed");
  check_bool "bad slot rejected" true
    (try ignore (Serve.migrate_slot serve ~slot:(-1) ~dst); false
     with Invalid_argument _ -> true);
  check_bool "bad dst rejected" true
    (try ignore (Serve.migrate_slot serve ~slot ~dst:nshards); false
     with Invalid_argument _ -> true);
  let printed =
    Printexc.to_string (Serve.Migration_failed { slot = 3; reason = "x" })
  in
  check_bool "Migration_failed printer registered" true
    (let sub = "slot 3" in
     let n = String.length printed and m = String.length sub in
     let rec hit i = i + m <= n && (String.sub printed i m = sub || hit (i + 1)) in
     hit 0);
  Serve.stop serve

(* The rebalancer chases a forced hotspot: hammer two co-owned slots of
   shard 0, tick until the hysteresis fires, and the hot slots must land
   on another shard while every reply stays correct. *)
let test_rebalancer_moves_hot_slots () =
  let nshards = 2 in
  let t = build_serve_store ~nshards () in
  let serve = Serve.create ~batch_cap:8 ~adaptive:false t in
  let key_of = Spp_pmemkv.Db_bench.key_of_int in
  (* find keys owned by shard 0 *)
  let hot =
    List.filteri (fun i _ -> i < 4)
      (List.filter
         (fun k -> Shard.route t k = 0)
         (List.init 64 (fun i -> key_of i)))
  in
  List.iter
    (fun k ->
      ignore
        (Serve.await serve
           (Serve.submit serve (Serve.Put { key = k; value = "hot-" ^ k }))))
    hot;
  let cfg =
    { Rebalance.default_config with
      Rebalance.min_ops = 8; persist = 1; cooldown = 0 }
  in
  let rb = Rebalance.create ~cfg serve in
  let fired = ref 0 in
  for _tick = 1 to 6 do
    List.iter
      (fun k ->
        for _ = 1 to 16 do
          ignore (Serve.await serve (Serve.submit serve (Serve.Get k)))
        done)
      hot;
    fired := !fired + Rebalance.tick rb
  done;
  check_bool "rebalancer fired" true (!fired > 0);
  check_bool "a hot slot moved off shard 0" true
    (List.exists (fun k -> Shard.route t k <> 0) hot);
  List.iter
    (fun k ->
      Alcotest.(check (option string))
        "value survives the move" (Some ("hot-" ^ k)) (Shard.get t k))
    hot;
  let s = Rebalance.stats rb in
  check_int "stats count the ticks" 6 s.Rebalance.rb_ticks;
  check_bool "stats count the moves" true (s.Rebalance.rb_moves = !fired);
  Serve.stop serve

(* Reply-byte stability under the reusable per-worker drain buffers:
   distinct value lengths and bytes interleaved through one worker's
   batches must come back exact — a scratch buffer aliasing replies
   across a drain would corrupt earlier replies in the same batch. *)
let test_reply_bytes_unchanged () =
  let t = build_serve_store ~nshards:1 () in
  let serve = Serve.create ~batch_cap:32 ~adaptive:false ~autostart:false t in
  let value i = String.init (1 + (i * 37 mod 300)) (fun j ->
    Char.chr (32 + ((i + j) mod 95)))
  in
  let n = 128 in
  for i = 0 to n - 1 do
    ignore (Serve.submit_to serve 0
              (Serve.Put { key = Printf.sprintf "rb-%03d" i; value = value i }))
  done;
  (* gets of every key plus full scans ride the same drains *)
  let gets =
    Array.init n (fun i ->
      Serve.submit_to serve 0 (Serve.Get (Printf.sprintf "rb-%03d" i)))
  in
  let scan_all =
    Serve.submit_to serve 0
      (Serve.Scan { lo = "rb-"; hi = "rb-999"; limit = 4096 })
  in
  let scan_limited =
    Serve.submit_to serve 0
      (Serve.Scan { lo = "rb-"; hi = "rb-999"; limit = 7 })
  in
  Serve.start serve;
  Array.iteri
    (fun i tk ->
      match Serve.await serve tk with
      | Serve.Value (Some v) ->
        check_bool (Printf.sprintf "get %d bytes exact" i) true (v = value i)
      | _ -> Alcotest.fail "get reply shape")
    gets;
  (match (Serve.await serve scan_all, Serve.await serve scan_limited) with
   | Serve.Scanned all, Serve.Scanned limited ->
     check_int "scan width" n (List.length all);
     List.iteri
       (fun i (k, v) ->
         check_bool "scan key exact" true (k = Printf.sprintf "rb-%03d" i);
         check_bool "scan value bytes exact" true (v = value i))
       all;
     Alcotest.(check (list (pair string string)))
       "limited scan = prefix of full scan, byte-equal"
       (List.filteri (fun i _ -> i < 7) all)
       limited
   | _ -> Alcotest.fail "scan reply shape");
  Serve.stop serve

(* --- Divergence diagnostics ------------------------------------------- *)

let test_explain_divergence () =
  let ops =
    Shard_bench.gen_ops ~seed:3 ~ops:400 ~universe:100 ~dist:Shard_bench.Uniform
      Spp_pmemkv.Db_bench.Update_heavy
  in
  let streams = Shard_bench.partition ~nshards:2 ops in
  let build () =
    let t = Shard.create ~nbuckets:32 ~pool_size:(1 lsl 21) ~nshards:2
        Spp_access.Spp in
    Shard_bench.preload t ~keys:50;
    t
  in
  let r1 = Shard_bench.run (build ()) ~mode:Shard_bench.Sequential streams in
  let r2 = Shard_bench.run (build ()) ~mode:Shard_bench.Parallel streams in
  check_bool "agreement explains as None" true
    (Shard_bench.explain_divergence r1 r2 = None);
  (* doctor a divergence and check the report names shard and field *)
  let broken =
    { r2 with
      Shard_bench.r_shards =
        Array.mapi
          (fun i s ->
            if i = 1 then { s with Shard_bench.sr_hits = s.Shard_bench.sr_hits + 7 }
            else s)
          r2.Shard_bench.r_shards }
  in
  (match Shard_bench.explain_divergence r1 broken with
   | None -> Alcotest.fail "divergence not detected"
   | Some msg ->
     let has needle =
       let nl = String.length needle and ml = String.length msg in
       let rec go i =
         i + nl <= ml && (String.sub msg i nl = needle || go (i + 1))
       in
       go 0
     in
     check_bool (Printf.sprintf "names the shard: %s" msg) true
       (has "shard 1");
     check_bool (Printf.sprintf "names the field: %s" msg) true
       (has "sr_hits"));
  (* shard-count mismatch reported too *)
  let truncated =
    { r2 with Shard_bench.r_shards = [| r2.Shard_bench.r_shards.(0) |] }
  in
  check_bool "count mismatch detected" true
    (Shard_bench.explain_divergence r1 truncated <> None)

(* Scan-bearing streams: a doctored scan-reply digest must be named by
   index in the divergence report, and the request/reply printers must
   render Scan/Scanned. *)
let test_explain_divergence_scan () =
  let ops =
    Shard_bench.gen_ops ~scan_pct:25 ~seed:3 ~ops:400 ~universe:100
      ~dist:Shard_bench.Uniform Spp_pmemkv.Db_bench.Update_heavy
  in
  let streams = Shard_bench.partition ~nshards:2 ops in
  let build () =
    let t = Shard.create ~nbuckets:32 ~pool_size:(1 lsl 21) ~nshards:2
        Spp_access.Spp in
    Shard_bench.preload t ~keys:50;
    t
  in
  let r1 = Shard_bench.run (build ()) ~mode:Shard_bench.Sequential streams in
  let r2 = Shard_bench.run (build ()) ~mode:Shard_bench.Parallel streams in
  check_bool "scan-bearing runs agree" true
    (Shard_bench.explain_divergence r1 r2 = None);
  check_bool "scans ran" true
    (Array.exists (fun sr -> sr.Shard_bench.sr_scans > 2)
       r1.Shard_bench.r_shards);
  let has msg needle =
    let nl = String.length needle and ml = String.length msg in
    let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
    go 0
  in
  let broken =
    { r2 with
      Shard_bench.r_shards =
        Array.map
          (fun sr ->
            if sr.Shard_bench.sr_shard = 0 then begin
              let d = Array.copy sr.Shard_bench.sr_scan_digests in
              d.(2) <- d.(2) lxor 0xBEEF;
              { sr with Shard_bench.sr_scan_digests = d }
            end
            else sr)
          r2.Shard_bench.r_shards }
  in
  (match Shard_bench.explain_divergence r1 broken with
   | None -> Alcotest.fail "scan divergence not detected"
   | Some msg ->
     check_bool (Printf.sprintf "names the scan reply: %s" msg) true
       (has msg "scan reply 2"));
  let pp pp_v v = Format.asprintf "%a" pp_v v in
  check_bool "pp_request renders Scan" true
    (has
       (pp Serve.pp_request (Serve.Scan { lo = "a"; hi = "z"; limit = 9 }))
       "Scan");
  check_bool "pp_reply renders Scanned" true
    (has (pp Serve.pp_reply (Serve.Scanned [ ("a", "1"); ("b", "2") ]))
       "Scanned")

(* --- Histogram properties (QCheck) ----------------------------------- *)

(* A histogram as the multiset of values fed into it: merge must be an
   exact elementwise sum (commutative, associative, order-invariant),
   and percentiles of any merge must stay conservative against the
   exact quantile of the combined multiset, monotone in p. *)

let gen_values = QCheck.(list_of_size Gen.(int_range 0 40) (int_bound 2_000_000))

let hist_of values =
  let h = Histogram.create () in
  List.iter (Histogram.add h) values;
  h

let full_state h =
  (Histogram.to_alist h, Histogram.count h, Histogram.max_value h,
   Histogram.mean h)

let qtest_merge_commutative =
  QCheck.Test.make ~name:"merge commutative" ~count:300
    QCheck.(pair gen_values gen_values)
    (fun (xs, ys) ->
      let a = hist_of xs and b = hist_of ys in
      full_state (Histogram.merge a b) = full_state (Histogram.merge b a))

let qtest_merge_associative =
  QCheck.Test.make ~name:"merge associative" ~count:300
    QCheck.(triple gen_values gen_values gen_values)
    (fun (xs, ys, zs) ->
      let a = hist_of xs and b = hist_of ys and c = hist_of zs in
      full_state (Histogram.merge (Histogram.merge a b) c)
      = full_state (Histogram.merge a (Histogram.merge b c)))

let exact_quantile values p =
  let arr = Array.of_list values in
  Array.sort compare arr;
  let n = Array.length arr in
  let rank =
    min (max (int_of_float (ceil (p /. 100. *. float_of_int n))) 1) n
  in
  arr.(rank - 1)

let qtest_percentiles_after_merges =
  (* fold a random list of value lists in two different merge orders:
     percentiles must agree between orders, sit at or above the exact
     quantile of the union, never exceed the exact maximum, and be
     monotone in p *)
  QCheck.Test.make ~name:"percentiles conservative after arbitrary merges"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 6) gen_values)
    (fun lists ->
      let all = List.concat lists in
      QCheck.assume (all <> []);
      let hs = List.map hist_of lists in
      let fwd =
        List.fold_left Histogram.merge (Histogram.create ()) hs
      in
      let rev =
        List.fold_left Histogram.merge (Histogram.create ()) (List.rev hs)
      in
      let ps = [ 1.; 25.; 50.; 90.; 95.; 99.; 100. ] in
      List.for_all
        (fun p ->
          Histogram.percentile fwd p = Histogram.percentile rev p)
        ps
      && List.for_all
           (fun p ->
             let est = Histogram.percentile fwd p in
             est >= exact_quantile all p && est <= Histogram.max_value fwd)
           ps
      && fst
           (List.fold_left
              (fun (ok, prev) p ->
                let v = Histogram.percentile fwd p in
                (ok && v >= prev, v))
              (true, 0) ps))

(* --- Worker failure propagation -------------------------------------- *)

(* An op that raises mid-batch must fail its drain's tickets with a
   typed [Op_raised] — not strand every later ticket in the mailbox —
   and the shard must keep serving afterwards. Driven for real: a pool
   small enough that big puts exhaust it ([Heap.Out_of_pm] escapes
   [run_batch]). *)
let test_worker_failure_propagation () =
  let t =
    Shard.create ~nbuckets:16 ~pool_size:(1 lsl 16) ~nshards:1 Spp_access.Spp
  in
  let serve = Serve.create ~batch_cap:4 t in
  let big = String.make 2048 'x' in
  let rec fill i =
    if i > 200 then Alcotest.fail "pool never filled"
    else
      match
        Serve.await serve
          (Serve.submit serve
             (Serve.Put { key = Printf.sprintf "big-%d" i; value = big }))
      with
      | Serve.Done -> fill (i + 1)
      | Serve.Failed (Serve.Op_raised msg) ->
        check_bool
          (Printf.sprintf "failure names the exception: %s" msg)
          true
          (String.length msg > 0);
        i
      | _ -> Alcotest.fail "unexpected reply while filling"
  in
  let failed_at = fill 0 in
  check_bool "needed several puts to fill the pool" true (failed_at > 0);
  (* the shard still serves: reads work, and freeing space lets a small
     put through on the same worker *)
  (match Serve.await serve (Serve.submit serve (Serve.Get "big-0")) with
   | Serve.Value (Some v) -> check_int "survivor intact" 2048 (String.length v)
   | _ -> Alcotest.fail "get after failure did not serve");
  (match Serve.await serve (Serve.submit serve (Serve.Remove "big-0")) with
   | Serve.Removed true -> ()
   | _ -> Alcotest.fail "remove after failure did not serve");
  (match
     Serve.await serve
       (Serve.submit serve (Serve.Put { key = "small"; value = "fits" }))
   with
   | Serve.Done -> ()
   | _ -> Alcotest.fail "put after free did not serve");
  Serve.stop serve;
  check_bool "failed tickets counted" true (Serve.total_failed serve >= 1)

(* --- Failover: kill + promote ---------------------------------------- *)

(* End-to-end: replicate through the pipeline, kill the primary's
   device, watch queued tickets fail typed, promote the replica on the
   worker, and keep serving every acked pre-kill op from the promoted
   stack. Inline sync replication keeps it deterministic. *)
let test_serve_kill_promote () =
  let t =
    Shard.create ~nbuckets:32 ~pool_size:(1 lsl 20) ~nshards:1 Spp_access.Spp
  in
  let cfg =
    { Replica.default_config with
      replicas = 2; policy = Replica.Sync; threaded = false }
  in
  let serve = Serve.create ~batch_cap:8 ~replication:cfg t in
  let key i = Printf.sprintf "key-%03d" i
  and value i = Printf.sprintf "value-%05d" i in
  for i = 1 to 50 do
    match
      Serve.await serve
        (Serve.submit serve (Serve.Put { key = key i; value = value i }))
    with
    | Serve.Done -> ()
    | _ -> Alcotest.fail "preload put failed"
  done;
  let rs = Serve.replication_stats serve in
  check_int "one group" 1 (List.length rs);
  let r0 = List.hd rs in
  check_int "both replicas live" 2 r0.Replica.rs_live;
  check_bool "commits shipped" true (r0.Replica.rs_seq > 0);
  check_int "sync acked everything shipped" r0.Replica.rs_seq
    r0.Replica.rs_acked_seq;
  (* kill the primary: stores silently discard from here on *)
  Spp_sim.Memdev.power_off
    (Spp_pmdk.Pool.dev (Shard.shard_access (Shard.shard t 0)).Spp_access.pool);
  (match
     Serve.await serve
       (Serve.submit serve (Serve.Put { key = "late"; value = "lost" }))
   with
   | Serve.Failed Serve.Failed_over -> ()
   | _ -> Alcotest.fail "put on dead primary not failed over");
  check_bool "shard marked failed" true (Serve.shard_failed serve 0);
  (* everything queued before promotion keeps failing typed, not hanging *)
  (match
     Serve.await serve (Serve.submit serve (Serve.Get (key 1)))
   with
   | Serve.Failed Serve.Failed_over -> ()
   | _ -> Alcotest.fail "get on dead primary not failed over");
  let p = Serve.promote serve 0 in
  check_int "promotions counted" 1 (Serve.promotions serve);
  check_bool "shard serving again" true (not (Serve.shard_failed serve 0));
  check_bool "sealed prefix covers the acked ops" true
    (p.Replica.pr_ops >= 50);
  (* every acked op survives the failover on the promoted stack *)
  for i = 1 to 50 do
    match Serve.await serve (Serve.submit serve (Serve.Get (key i))) with
    | Serve.Value (Some v) when v = value i -> ()
    | _ -> Alcotest.fail (Printf.sprintf "acked op %d lost in failover" i)
  done;
  (* the unacked post-kill put is gone — its ticket said so *)
  (match Serve.await serve (Serve.submit serve (Serve.Get "late")) with
   | Serve.Value None -> ()
   | _ -> Alcotest.fail "unacked op resurrected");
  (* and the promoted stack accepts new writes *)
  (match
     Serve.await serve
       (Serve.submit serve (Serve.Put { key = "after"; value = "alive" }))
   with
   | Serve.Done -> ()
   | _ -> Alcotest.fail "put after promotion failed");
  (match Serve.promote serve 0 with
   | exception Replica.Promotion_failed _ -> ()
   | _ -> Alcotest.fail "second promotion not rejected");
  Serve.stop serve;
  check_bool "failed tickets counted" true (Serve.total_failed serve >= 2)

(* Threaded appliers + semi-sync acks under concurrent submitters, with
   a planned (no-kill) switchover at the end: the promoted stack must
   hold every acked key. *)
let test_serve_threaded_replication () =
  let nshards = 2 in
  let t =
    Shard.create ~nbuckets:64 ~pool_size:(1 lsl 21) ~nshards Spp_access.Spp
  in
  let cfg =
    { Replica.default_config with
      replicas = 1; policy = Replica.Semi_sync; threaded = true }
  in
  let serve = Serve.create ~batch_cap:8 ~replication:cfg t in
  let key i = Printf.sprintf "key-%03d" i in
  let doms =
    Array.init 2 (fun d ->
      Domain.spawn (fun () ->
        for i = 0 to 99 do
          if i mod 2 = d then
            ignore
              (Serve.await serve
                 (Serve.submit serve
                    (Serve.Put { key = key i; value = string_of_int i })))
        done))
  in
  Array.iter Domain.join doms;
  (* planned switchover of shard 0 to its replica *)
  let p = Serve.promote serve 0 in
  check_int "switched the requested shard" 0 p.Replica.pr_shard;
  for i = 0 to 99 do
    match Serve.await serve (Serve.submit serve (Serve.Get (key i))) with
    | Serve.Value (Some v) when v = string_of_int i -> ()
    | _ -> Alcotest.fail (Printf.sprintf "key %d lost across switchover" i)
  done;
  Serve.stop serve;
  check_int "no ticket failed" 0 (Serve.total_failed serve);
  let lag = Serve.replication_lag serve in
  check_bool "lag recorded per commit" true (Histogram.count lag > 0);
  (* promote on the unreplicated... both shards are replicated; an
     out-of-range index is rejected, as is promoting after stop *)
  (match Serve.promote serve 5 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "out-of-range promote not rejected")

let test_replication_exn_printers () =
  let printed ex needle =
    let s = Printexc.to_string ex in
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "Promotion_failed printer" true
    (printed
       (Replica.Promotion_failed { shard = 3; reason = "no quorum" })
       "shard 3: no quorum");
  check_bool "Not_replicated printer" true
    (printed (Serve.Not_replicated 2) "shard 2")

let () =
  Alcotest.run "spp_serve"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_histogram_buckets;
          Alcotest.test_case "percentiles conservative + monotone" `Quick
            test_histogram_percentiles;
          Alcotest.test_case "merge associative" `Quick test_histogram_merge;
          Alcotest.test_case "count and mean (incl. empty)" `Quick
            test_histogram_mean;
          QCheck_alcotest.to_alcotest qtest_merge_commutative;
          QCheck_alcotest.to_alcotest qtest_merge_associative;
          QCheck_alcotest.to_alcotest qtest_percentiles_after_merges;
        ] );
      ( "run_batch",
        [
          Alcotest.test_case "vs model oracle (both variants)" `Quick
            test_run_batch_oracle;
          Alcotest.test_case "within-batch visibility" `Quick
            test_run_batch_within_batch_visibility;
          Alcotest.test_case "crash between batches" `Quick
            test_run_batch_crash_between_batches;
        ] );
      ( "amortization",
        [
          Alcotest.test_case "cap 32 <= 1/4 fences of cap 1 (both engines)"
            `Quick test_fence_amortization_both_engines;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "async serve vs model" `Quick
            test_serve_pipeline_oracle;
          Alcotest.test_case "async = sequential differential (btree)" `Quick
            test_serve_differential_btree;
          Alcotest.test_case "async = sequential differential" `Quick
            test_serve_differential;
          Alcotest.test_case "adaptive batch sizing" `Quick
            test_serve_adaptive_batching;
        ] );
      ( "read cache",
        [
          Alcotest.test_case "cache-on = cache-off differential (btree)"
            `Quick test_cache_sequential_differential_btree;
          Alcotest.test_case "scan scatter-gather API (both engines)" `Quick
            test_serve_scan_api;
          Alcotest.test_case "cache-on = cache-off differential" `Quick
            test_cache_sequential_differential;
          Alcotest.test_case "use_cache:false takes the PM path" `Quick
            test_run_sequential_use_cache_off;
          Alcotest.test_case "bypass fast path + read-your-writes" `Quick
            test_serve_bypass_fast_path;
          Alcotest.test_case "deterministic mode ignores the cache" `Quick
            test_cache_deterministic_mode;
        ] );
      ( "migration",
        [
          Alcotest.test_case "migration = static differential" `Quick
            test_migration_differential;
          Alcotest.test_case "migration = static differential (btree)"
            `Quick test_migration_differential_btree;
          Alcotest.test_case "report, no-op, scan exactly-once" `Quick
            test_migration_report_and_scan;
          Alcotest.test_case "rebalancer chases a hotspot" `Quick
            test_rebalancer_moves_hot_slots;
          Alcotest.test_case "reply bytes exact through drain buffers"
            `Quick test_reply_bytes_unchanged;
        ] );
      ( "failure propagation",
        [
          Alcotest.test_case "raising op fails its drain, shard survives"
            `Quick test_worker_failure_propagation;
          Alcotest.test_case "exception printers registered" `Quick
            test_replication_exn_printers;
        ] );
      ( "failover",
        [
          Alcotest.test_case "kill primary, fail typed, promote, serve"
            `Quick test_serve_kill_promote;
          Alcotest.test_case "threaded semi-sync + planned switchover"
            `Quick test_serve_threaded_replication;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "explain_divergence names scan replies" `Quick
            test_explain_divergence_scan;
          Alcotest.test_case "explain_divergence" `Quick
            test_explain_divergence;
        ] );
    ]
