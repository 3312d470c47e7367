(* Serving-stack experiments (ours): the tracking-engine and hot-path
   pipeline, domain-parallel scaleout, the async batched pipeline, the
   read cache, failover, ordered scans, resharding and the wire front
   end. Each proves its correctness gate before it reports a number,
   and a failed gate fails the run (see Harness.gate). *)

open Spp_pmdk
open Spp_benchlib
open Spp_benchlib.Bench_util
open Spp_shard
open Spp_net
open Harness

let key_of = Spp_pmemkv.Db_bench.key_of_int

(* the 256 B value every serving stream writes *)
let value = String.make 256 'v'

let split nshards reqs =
  Shard_bench.partition_by ~key:Serve.request_key ~nshards reqs

let f1 = Printf.sprintf "%.1f"
let f0 = Printf.sprintf "%.0f"
let bar ~min x = if x >= min then Printf.sprintf "(>= %gx: OK)" min
  else Printf.sprintf "(below the %gx bar!)" min

(* ------------------------------------------------------------------ *)
(* Pipeline microbenchmark: translate / flush / fence paths            *)
(* ------------------------------------------------------------------ *)

(* Before/after evidence for the fast-path refactor: address translation
   through the TLB-fronted sorted-array lookup, and the tracking-mode
   store/flush/fence pipeline under both engines. The List_based engine
   is the pre-refactor implementation kept selectable precisely for this
   comparison; the acceptance bar is >= 2x on the flush/fence-heavy
   workload. *)

let pipeline () =
  let open Spp_sim in
  print_title "Pipeline microbenchmark: translation TLB and tracking engines";
  (* -- translation: hot loads through the TLB, with decoy regions so the
        slow path has a real array to search -- *)
  let space = Space.create () in
  let psize = 1 lsl 22 in
  let dev = Memdev.create_persistent ~name:"pipe" psize in
  Space.map space ~base:4096 ~size:psize ~kind:Space.Persistent ~name:"pm" dev;
  for i = 0 to 7 do
    let d = Memdev.create_volatile ~name:(Printf.sprintf "v%d" i) 4096 in
    Space.map space ~base:((1 lsl 30) + (i * 8192)) ~size:4096
      ~kind:Space.Volatile ~name:(Printf.sprintf "v%d" i) d
  done;
  let n = sc 1_000_000 in
  Space.reset_stats space;
  let t_translate =
    best_of (fun () ->
      for i = 0 to n - 1 do
        (* 64 B stride over 2 MiB: sequential pages, TLB-friendly *)
        ignore (Space.load_word space (4096 + ((i land 0x7FFF) * 64)))
      done)
  in
  let st = Space.stats space in
  let hit_rate =
    float_of_int st.Space.tlb_hits
    /. float_of_int (max 1 (st.Space.tlb_hits + st.Space.tlb_misses))
  in
  let ns_translate = t_translate /. float_of_int n *. 1e9 in
  Printf.printf "translate+load        %8.1f ns/op   (TLB hit rate %s)\n"
    ns_translate (fmt_pct hit_rate);
  jemit ~experiment:"pipeline" ~name:"translate_load" ~metric:"ns_per_op"
    ~unit_:"ns" ~extra:[ ("tlb_hit_rate", Json_out.J_float hit_rate) ]
    ns_translate;
  (* -- tracking engines: P stores to distinct cachelines, P flushes, one
        fence — the PMDK commit pattern. The list engine walks all
        pending stores on every flush (O(P^2) per round); the
        line-indexed engine touches only the flushed line's bucket. -- *)
  (* [lines] stays fixed even under --quick: the engines differ in
     per-round asymptotics, so shrinking the pending set would shrink the
     very effect being measured. Quick mode scales rounds only. *)
  let lines = 1024 in
  let rounds = sc 100 in
  let ops_per_run = rounds * ((2 * lines) + 1) in
  let bench_engine engine =
    let dev = Memdev.create_persistent ~name:"engine" (1 lsl 20) in
    Memdev.set_engine dev engine;
    Memdev.set_tracking dev true;
    best_of (fun () ->
      for _ = 1 to rounds do
        for i = 0 to lines - 1 do
          Memdev.store_word dev ~off:(i * 64) i
        done;
        for i = 0 to lines - 1 do
          Memdev.flush dev ~off:(i * 64) ~len:8
        done;
        Memdev.fence dev
      done)
  in
  let t_list = bench_engine Memdev.List_based in
  let t_indexed = bench_engine Memdev.Line_indexed in
  let ns_of t = t /. float_of_int ops_per_run *. 1e9 in
  let speedup = t_list /. t_indexed in
  Printf.printf
    "store/flush/fence     %8.1f ns/op (list engine, pre-refactor)\n\
     store/flush/fence     %8.1f ns/op (line-indexed engine)\n\
     engine speedup        %8.2fx %s\n"
    (ns_of t_list) (ns_of t_indexed) speedup (bar ~min:2. speedup);
  jemit ~experiment:"pipeline" ~name:"flush_fence/list" ~metric:"ns_per_op"
    ~unit_:"ns" (ns_of t_list);
  jemit ~experiment:"pipeline" ~name:"flush_fence/line_indexed"
    ~metric:"ns_per_op" ~unit_:"ns" (ns_of t_indexed);
  jemit ~experiment:"pipeline" ~name:"flush_fence" ~metric:"speedup" speedup;
  (* -- hot path: engine gets and scans under the two read paths. The
        [Lease] path hoists the pointer check and region resolution into
        lease acquisition and reads each value in a single copy;
        [Copying] is the pre-lease reference kept selectable exactly for
        this comparison. Replies are gated bit-identical per engine
        before numbers are reported; pm_bytes_loaded per get quantifies
        the copy amplification the lease path removes. -- *)
  print_subtitle "hot path: uncached gets and scans, copying vs lease";
  let universe = sc 4_000 in
  let ngets = sc 40_000 in
  let nscans = sc 400 in
  (* load factor ~4 in both quick and full mode, so the chain walk the
     lease path accelerates is exercised the same way at either scale;
     1 KiB values are the YCSB record size *)
  let nbuckets = max 64 (universe / 4) in
  let value = String.make 1024 'v' in
  Printf.printf
    "(Spp variant, %d-key universe, %d B values, %d uncached gets, %d \
     scans of limit 64)\n"
    universe (String.length value) ngets nscans;
  print_row ~w:13
    [ "engine"; "path"; "ns/get"; "B loaded/get"; "ns/scan entry";
      "get speedup" ];
  List.iter
    (fun ename ->
      let spec = Option.get (Spp_pmemkv.Engines.of_name ename) in
      let run path =
        Gc.compact ();
        Spp_pmemkv.Engine.with_read_path path (fun () ->
          let a =
            Spp_access.create ~pool_size:(1 lsl 25) ~name:("hot-" ^ ename)
              Spp_access.Spp
          in
          let kv = Spp_pmemkv.Engine.create ~nbuckets spec a in
          for k = 0 to universe - 1 do
            Spp_pmemkv.Engine.put kv ~key:(key_of k) ~value
          done;
          let ks = Array.map key_of (keys ~seed:11 ~universe ngets) in
          let scan_of i =
            Spp_pmemkv.Engine.scan kv
              ~lo:(key_of (i * 37 mod universe))
              ~hi:"~" ~limit:64
          in
          (* digest pass: the identical-reply gate rides the exact key
             and scan streams the timed passes use *)
          let dig = ref 5381 in
          let mix v = dig := ((!dig * 131) + Hashtbl.hash v) land max_int in
          Array.iter (fun k -> mix (Spp_pmemkv.Engine.get kv k)) ks;
          let entries = ref 0 in
          for i = 0 to nscans - 1 do
            let l = scan_of i in
            entries := !entries + List.length l;
            List.iter mix l
          done;
          let space = Pool.space a.Spp_access.pool in
          let get_pass () =
            Array.iter (fun k -> ignore (Spp_pmemkv.Engine.get kv k)) ks
          in
          Space.reset_stats space;
          let t_first, () = time get_pass in
          let bytes_per_get =
            float_of_int (Space.stats space).Space.pm_bytes_loaded
            /. float_of_int ngets
          in
          let t_get = min t_first (best_of ~n:2 get_pass) in
          let t_scan =
            best_of (fun () ->
              for i = 0 to nscans - 1 do
                ignore (scan_of i)
              done)
          in
          ( !dig,
            t_get /. float_of_int ngets *. 1e9,
            bytes_per_get,
            t_scan /. float_of_int (max 1 !entries) *. 1e9 ))
      in
      let dig_c, ns_get_c, bytes_c, ns_scan_c =
        run Spp_pmemkv.Engine.Copying in
      let dig_l, ns_get_l, bytes_l, ns_scan_l =
        run Spp_pmemkv.Engine.Lease in
      let nm what = Printf.sprintf "hotpath/%s/%s" ename what in
      gate ~experiment:"pipeline" ~name:(nm "differential")
        ~what:(ename ^ ": copying vs lease replies") ~pass:"bit-identical"
        (dig_c = dig_l);
      let get_speedup = ns_get_c /. Float.max ns_get_l 1e-9 in
      let scan_speedup = ns_scan_c /. Float.max ns_scan_l 1e-9 in
      (* Copy amplification of the copying path: every PM byte it loads
         is materialized into a fresh DRAM buffer, so bytes-loaded per
         get over the value size is how many bytes it copies per byte
         returned. The lease path copies the value exactly once; its
         bytes-loaded count whole leased windows (block-op accounting),
         not copies. *)
      let amplification = bytes_c /. float_of_int (String.length value) in
      print_row ~w:13
        [ ename; "copying"; f0 ns_get_c; f0 bytes_c; f1 ns_scan_c; "1.00x" ];
      print_row ~w:13
        [ ename; "lease"; f0 ns_get_l; f0 bytes_l; f1 ns_scan_l;
          Printf.sprintf "%.2fx %s" get_speedup (bar ~min:2. get_speedup) ];
      Printf.printf
        "  %s copying loads+copies %.0f B/get for a %d B value (%.2fx copy \
         amplification); lease copies the value once (%.0f B/get windowed). \
         scan %.2fx\n"
        ename bytes_c (String.length value) amplification bytes_l
        scan_speedup;
      let get path ns bytes =
        jemit ~experiment:"pipeline" ~name:(nm ("get/" ^ path))
          ~metric:"ns_per_get" ~unit_:"ns"
          ~extra:[ ("pm_bytes_per_get", Json_out.J_float bytes) ] ns
      and scan path ns =
        jemit ~experiment:"pipeline" ~name:(nm ("scan/" ^ path))
          ~metric:"ns_per_scanned_entry" ~unit_:"ns" ns
      in
      get "copying" ns_get_c bytes_c;
      get "lease" ns_get_l bytes_l;
      jemit ~experiment:"pipeline" ~name:(nm "get") ~metric:"speedup"
        ~extra:[ ("copy_amplification", Json_out.J_float amplification) ]
        get_speedup;
      scan "copying" ns_scan_c;
      scan "lease" ns_scan_l;
      jemit ~experiment:"pipeline" ~name:(nm "scan") ~metric:"speedup"
        scan_speedup)
    [ "cmap"; "btree" ]

(* ------------------------------------------------------------------ *)
(* Scaleout: domain-parallel sharded serving vs logical shards          *)
(* ------------------------------------------------------------------ *)

(* Fig. 5's thread model runs logical shards sequentially; this
   experiment runs the same per-shard streams with one Domain per shard
   (shard-per-pool, see lib/shard) and reports the throughput ladder,
   the parallel-vs-sequential speedup, and uniform-vs-Zipfian skew.
   Every point first proves the two modes bit-identical on the same
   seed — a wrong-by-construction parallel path must not produce a
   throughput number. *)

let scaleout () =
  print_title "Scaleout: domain-parallel sharded KV (shard-per-pool)";
  let domain_counts = capped [ 1; 2; 4; 8 ] in
  let preload_keys = sc 2_000 and total_ops = sc 24_000 in
  Printf.printf
    "(cmap engine under SPP, %d preloaded keys, %d routed ops, update-heavy; \
     %d core(s) recommended by the runtime)\n"
    preload_keys total_ops
    (Domain.recommended_domain_count ());
  let build nshards =
    Shard_bench.stack ~pool_size:(1 lsl 23) ~keys:preload_keys nshards
  in
  let run_pair ~nshards ~dist =
    (* two identically constructed stores: an update-heavy stream
       mutates the store, so sequential and parallel must not share one *)
    let ops =
      Shard_bench.gen_ops ~seed:42 ~ops:total_ops ~universe:preload_keys ~dist
        Spp_pmemkv.Db_bench.Update_heavy
    in
    let streams = Shard_bench.partition ~nshards ops in
    let t_seq = build nshards and t_par = build nshards in
    let rs = Shard_bench.run t_seq ~mode:Shard_bench.Sequential streams in
    let rp = Shard_bench.run t_par ~mode:Shard_bench.Parallel streams in
    let diverged =
      match Shard_bench.explain_divergence rs rp with
      | Some _ as why -> why
      | None when Shard.merged_stats t_seq <> Shard.merged_stats t_par ->
        Some "op results agree but merged Space stats differ"
      | None -> None
    in
    let dname = Shard_bench.dist_name dist in
    Option.iter
      (Printf.printf
         "!! parallel/sequential DIVERGENCE at %d shards (%s) — results \
          invalid\n   %s\n"
         nshards dname)
      diverged;
    check ~name:(Printf.sprintf "scaleout/%d/%s" nshards dname) (diverged = None);
    (rs, rp, diverged = None)
  in
  let yes_no agree = if agree then "yes" else "NO" in
  let identical agree = [ ("identical_to_sequential", Json_out.J_bool agree) ] in
  print_row ~w:12
    [ "domains"; "seq op/s"; "par op/s"; "speedup"; "identical" ];
  List.iter
    (fun nd ->
      Gc.compact ();
      let rs, rp, agree = run_pair ~nshards:nd ~dist:Shard_bench.Uniform in
      let speedup = rs.Shard_bench.r_wall /. Float.max rp.Shard_bench.r_wall 1e-9 in
      print_row ~w:12
        [ string_of_int nd; fmt_ops rs.Shard_bench.r_throughput;
          fmt_ops rp.Shard_bench.r_throughput; fmt_slowdown speedup;
          yes_no agree ];
      let nm mode = Printf.sprintf "update_heavy/uniform/%d%s" nd mode in
      jemit ~experiment:"scaleout" ~name:(nm "/sequential") ~metric:"ops_per_s"
        ~unit_:"op/s" rs.Shard_bench.r_throughput;
      jemit ~experiment:"scaleout" ~name:(nm "/parallel") ~metric:"ops_per_s"
        ~unit_:"op/s" ~extra:(identical agree) rp.Shard_bench.r_throughput;
      jemit ~experiment:"scaleout" ~name:(nm "") ~metric:"speedup" speedup;
      if nd = 4 then
        Printf.printf "  4-domain speedup %.2fx %s\n" speedup
          (if speedup >= 2.0 then "(>= 2x: OK)"
           else "(below the 2x bar — needs >= 4 hardware cores)"))
    domain_counts;
  (* Uniform vs Zipfian under full parallelism: skew concentrates the
     hot keys on few shards, so the Zipfian ladder shows what a real
     skewed tenant does to the router. *)
  let nd = List.fold_left max 1 domain_counts in
  Gc.compact ();
  print_subtitle
    (Printf.sprintf "key-distribution skew at %d domains (parallel)" nd);
  print_row ~w:16 [ "distribution"; "par op/s"; "identical" ];
  List.iter
    (fun dist ->
      let _, rp, agree = run_pair ~nshards:nd ~dist in
      let dname = Shard_bench.dist_name dist in
      print_row ~w:16
        [ dname; fmt_ops rp.Shard_bench.r_throughput; yes_no agree ];
      jemit ~experiment:"scaleout"
        ~name:(Printf.sprintf "update_heavy/%s/%d/parallel" dname nd)
        ~metric:"ops_per_s" ~unit_:"op/s" ~extra:(identical agree)
        rp.Shard_bench.r_throughput)
    [ Shard_bench.Uniform; Shard_bench.Zipfian 0.99 ]

(* ------------------------------------------------------------------ *)
(* Serve: async batched pipeline — group commit + latency               *)
(* ------------------------------------------------------------------ *)

(* Three parts. (1) Fence amortization, deterministic and timing-free:
   the sequential baseline chunked at each batch cap, fences/op from the
   Memdev counters, under both tracking engines — the acceptance bar is
   cap 32 <= 1/4 of cap 1. (2) Differential: the async pipeline in
   deterministic mode (fixed batching, pre-enqueued) must be
   bit-identical to that baseline before any live number is reported.
   (3) Live sweep: batch cap x offered load (per-client submission
   window) x shard count, with adaptive batching and per-request
   latency percentiles from the shard histograms. *)

let serve () =
  print_title "Serve: asynchronous batched pipeline (group-committed redo)";
  let shard_counts = capped [ 1; 2; 4 ] in
  let caps = [ 1; 8; 32 ] in
  let universe = sc 2_000 in
  let total_ops = sc 16_000 in
  Printf.printf
    "(cmap engine under SPP, %d-key universe, %d requests, 3:1 put:get, \
     256 B values)\n"
    universe total_ops;
  let gen_requests ~seed n =
    let st = Random.State.make [| seed; 0x5EFE |] in
    Array.init n (fun _ ->
      let key = key_of (Random.State.int st universe) in
      if Random.State.int st 4 = 3 then Serve.Get key
      else Serve.Put { key; value })
  in
  let build ?tracking nshards = Shard_bench.stack ?tracking ~keys:universe nshards in
  (* -- part 1: fence amortization, both engines -- *)
  print_subtitle "group-commit fence amortization (sequential path, 2 shards)";
  print_row ~w:14
    ("engine" :: List.map (Printf.sprintf "cap %d") caps @ [ "ratio 32/1" ]);
  let streams2 = split 2 (gen_requests ~seed:7 total_ops) in
  List.iter
    (fun (ename, engine) ->
      let per_cap =
        List.map
          (fun cap ->
            Spp_sim.Memdev.with_default_engine engine (fun () ->
              let t = build ~tracking:true 2 in
              ignore (Serve.run_sequential t ~batch_cap:cap streams2);
              let c = Shard.merged_counters t in
              (cap, (float_of_int c.Spp_sim.Memdev.fences /. float_of_int total_ops, c))))
          caps
      in
      let ratio =
        fst (List.assoc 32 per_cap) /. Float.max (fst (List.assoc 1 per_cap)) 1e-9
      in
      print_row ~w:14
        (ename
         :: List.map (fun (_, (f, _)) -> Printf.sprintf "%.3f" f) per_cap
         @ [ Printf.sprintf "%.3f %s" ratio
               (if ratio <= 0.25 then "(<= 1/4: OK)" else "(above the bar!)") ]);
      List.iter
        (fun (cap, (f, (c : Spp_sim.Memdev.counters))) ->
          jemit ~experiment:"serve"
            ~name:(Printf.sprintf "amortization/%s/cap%d" ename cap)
            ~metric:"fences_per_op"
            ~extra:
              [ ("fences_saved", Json_out.J_int c.fences_saved);
                ("batched_ops", Json_out.J_int c.batched_ops) ]
            f)
        per_cap;
      jemit ~experiment:"serve" ~name:("amortization/" ^ ename)
        ~metric:"fence_ratio_32_vs_1" ratio)
    [ ("line_indexed", Spp_sim.Memdev.Line_indexed);
      ("list_based", Spp_sim.Memdev.List_based) ];
  (* -- part 2: async pipeline == sequential baseline, bit for bit -- *)
  let nd_max = List.fold_left max 1 shard_counts in
  let streams = split nd_max (gen_requests ~seed:7 total_ops) in
  let t_seq = build nd_max and t_par = build nd_max in
  let seq = Serve.run_sequential t_seq ~batch_cap:16 streams in
  let par = Shard_bench.run_async t_par ~batch_cap:16 streams in
  gate ~experiment:"serve" ~name:"differential"
    ~what:
      (Printf.sprintf "async pipeline vs sequential baseline (%d shards, cap 16)"
         nd_max)
    ~pass:"bit-identical (replies, stats, counters)"
    (Shard_bench.replies_agree seq par
     && Shard.merged_stats t_seq = Shard.merged_stats t_par
     && Shard.merged_counters t_seq = Shard.merged_counters t_par);
  (* -- part 3: live sweep -- *)
  print_subtitle "live async sweep (adaptive batching, 2 client domains)";
  if quick then
    Printf.printf
      "(note: latency percentiles are meaningless under --quick; use a full \
       run)\n";
  print_row ~w:11
    [ "shards"; "cap"; "window"; "op/s"; "p50 us"; "mean us"; "p95 us";
      "p99 us"; "max us"; "avg batch"; "fences/op" ];
  let nclients = 2 in
  let points =
    List.concat_map
      (fun nshards ->
        List.concat_map (fun cap -> [ (nshards, cap, 1); (nshards, cap, 64) ]) caps)
      shard_counts
  in
  List.iter
    (fun (nshards, cap, window) ->
      Gc.compact ();
      let t = build ~tracking:true nshards in
      let sv = Serve.create ~batch_cap:cap t in
      let per_client =
        Array.init nclients (fun c ->
          gen_requests ~seed:(100 + c) (total_ops / nclients))
      in
      let wall = Shard_bench.drive_clients sv ~window per_client in
      Serve.stop sv;
      let ops = nclients * (total_ops / nclients) in
      let thr = float_of_int ops /. Float.max wall 1e-9 in
      let h = Serve.merged_hist sv in
      let max_us = float_of_int (Histogram.max_value h) /. 1e3 in
      let mean_us = Histogram.mean h /. 1e3 in
      let avg_batch = float_of_int ops /. float_of_int (max 1 (Serve.total_batches sv)) in
      let c = Shard.merged_counters t in
      let fpo = float_of_int c.Spp_sim.Memdev.fences /. float_of_int ops in
      print_row ~w:11
        [ string_of_int nshards; string_of_int cap; string_of_int window;
          fmt_ops thr; f1 (us h 50.); f1 mean_us; f1 (us h 95.); f1 (us h 99.);
          f1 max_us; f1 avg_batch; Printf.sprintf "%.3f" fpo ];
      let nm = Printf.sprintf "live/shards%d/cap%d/win%d/%s" nshards cap window in
      jemit ~experiment:"serve" ~name:(nm "throughput") ~metric:"ops_per_s"
        ~unit_:"op/s"
        ~extra:
          [ ("avg_batch", Json_out.J_float avg_batch);
            ("fences_per_op", Json_out.J_float fpo);
            ("fences_saved", Json_out.J_int c.Spp_sim.Memdev.fences_saved) ]
        thr;
      emit_percentiles ~experiment:"serve" ~nm h [ 50.; 95.; 99. ];
      jemit ~experiment:"serve" ~name:(nm "mean") ~metric:"latency_us"
        ~unit_:"us" mean_us;
      jemit ~experiment:"serve" ~name:(nm "max") ~metric:"latency_us"
        ~unit_:"us" max_us)
    points

(* ------------------------------------------------------------------ *)
(* Read cache: volatile DRAM cache over the serving stack               *)
(* ------------------------------------------------------------------ *)

(* Two parts. (1) Correctness gate, deterministic and timing-free: the
   same read-mostly streams through [run_sequential] on a cached and an
   uncached store must produce bit-identical replies, identical Memdev
   counters and identical recovered durable contents — the cache is
   volatile DRAM only, invisible to the persistence layer (gets stage no
   redo entries, fills come only from committed state, chunk boundaries
   sit at fixed request positions). (2) Live sweep: the async pipeline
   with the read fast path, distribution x shard count x capacity. Each
   point runs one warm pass (windowed, fills the cache) then one timed
   pass in which puts ride the async window but every get is a
   *dependent* point read — submitted and awaited before the client
   continues, the access pattern a read cache exists for. ns/get is that
   client-observed submit-to-reply time: cache-off stalls each read on
   the mailbox and group-commit round trip, a cache hit is answered on
   the submitting thread without entering the mailbox or walking PM.
   The acceptance bar is >= 2x ns/get on the Zipfian read-mostly point
   at the largest capacity vs cache-off. *)

let cache () =
  print_title "Read cache: volatile DRAM read cache over the serving stack";
  let shard_counts = capped [ 1; 2 ] in
  let universe = sc 2_000 in
  let total_ops = sc 24_000 in
  Printf.printf
    "(cmap engine under SPP, %d-key universe, %d requests, 1:15 put:get, \
     256 B values)\n"
    universe total_ops;
  let dist_label = function
    | `Uniform -> "uniform"
    | `Zipfian -> "zipfian0.99"
  in
  let gen_requests ~seed ~dist n =
    let gen =
      match dist with
      | `Uniform -> Keygen.uniform ~seed ~universe
      | `Zipfian -> Keygen.zipfian ~theta:0.99 ~seed ~universe ()
    in
    let st = Random.State.make [| seed; 0xCAC4E |] in
    Array.init n (fun _ ->
      let key = key_of (Keygen.next gen) in
      if Random.State.int st 16 = 0 then Serve.Put { key; value }
      else Serve.Get key)
  in
  let build ?tracking ~cache_cap nshards =
    Shard_bench.stack ?tracking ~cache_cap ~keys:universe nshards
  in
  (* -- part 1: cache-on == cache-off, bit for bit -- *)
  let nd_diff = List.fold_left max 1 shard_counts in
  let streams = split nd_diff (gen_requests ~seed:11 ~dist:`Zipfian total_ops) in
  let t_on = build ~tracking:true ~cache_cap:4096 nd_diff in
  let t_off = build ~tracking:true ~cache_cap:0 nd_diff in
  let r_on = Serve.run_sequential t_on ~batch_cap:16 streams in
  let r_off = Serve.run_sequential t_off ~batch_cap:16 streams in
  (* Identical Memdev counters pin the two runs to the same
     store/flush/fence schedule; the durable images are compared the
     way a restart would see them. *)
  let c_on = Shard_bench.durable_restart t_on ~keys:universe in
  let durable_equal =
    Array.for_all Option.is_some c_on
    && c_on = Shard_bench.durable_restart t_off ~keys:universe
  in
  let hit_rate = Spp_pmemkv.Rcache.hit_rate (Shard.merged_cache_stats t_on) in
  gate ~experiment:"cache" ~name:"differential"
    ~extra:
      [ ("hit_rate", Json_out.J_float hit_rate);
        ("durable_images_equal", Json_out.J_bool durable_equal) ]
    ~what:
      (Printf.sprintf
         "cache-on vs cache-off (sequential, %d shards, cap 4096; cached run \
          hit rate %s)"
         nd_diff (fmt_pct hit_rate))
    ~pass:"bit-identical (replies, counters, recovered durable contents)"
    (Shard_bench.replies_agree r_on r_off
     && Shard.merged_counters t_on = Shard.merged_counters t_off
     && durable_equal);
  (* -- part 2: live sweep -- *)
  print_subtitle "live async sweep (read fast path, window 64)";
  if quick then
    Printf.printf "(note: ns/get is noisy under --quick; use a full run)\n";
  print_row ~w:13
    [ "dist"; "shards"; "cap"; "ns/get"; "hit rate"; "bypassed"; "vs off" ];
  let caps = [ 0; 512; 8192 ] in
  let last = (`Zipfian, List.fold_left max 1 shard_counts, List.fold_left max 0 caps) in
  let points =
    List.concat_map
      (fun dist ->
        List.concat_map (fun n -> List.map (fun cap -> (dist, n, cap)) caps) shard_counts)
      [ `Uniform; `Zipfian ]
  in
  let window = 64 and base_ns = ref 0. in
  List.iter
    (fun ((dist, nshards, cap) as point) ->
      Gc.compact ();
      let t = build ~cache_cap:cap nshards in
      let reqs = gen_requests ~seed:21 ~dist total_ops in
      let ngets =
        Array.fold_left (fun a -> function Serve.Get _ -> a + 1 | _ -> a) 0 reqs
      in
      let sv = Serve.create ~batch_cap:32 t in
      (* warm pass: everything windowed, fills the cache *)
      Shard_bench.drive sv ~window reqs;
      Shard.reset_stats t;
      (* timed pass: puts ride the window, gets are dependent *)
      let w = Shard_bench.serve_window sv window in
      let t_get = ref 0. in
      Array.iter
        (function
          | Serve.Get _ as r ->
            let t0 = now_mono () in
            ignore (Serve.await sv (Serve.submit sv r));
            t_get := !t_get +. (now_mono () -. t0)
          | r -> Shard_bench.push w r)
        reqs;
      Shard_bench.drain w;
      Serve.stop sv;
      let rc = Shard.merged_cache_stats t in
      let hr = Spp_pmemkv.Rcache.hit_rate rc in
      let ns_get = !t_get /. float_of_int (max 1 ngets) *. 1e9 in
      (* cap 0 leads each (dist, shards) group: the cache-off baseline *)
      if cap = 0 then base_ns := ns_get;
      let speedup = !base_ns /. Float.max ns_get 1e-9 in
      print_row ~w:13
        [ dist_label dist; string_of_int nshards; string_of_int cap; f0 ns_get;
          (if cap = 0 then "-" else fmt_pct hr);
          string_of_int (Serve.bypassed_gets sv);
          (if cap = 0 then "1.00x" else Printf.sprintf "%.2fx" speedup) ];
      let nm = Printf.sprintf "%s/shards%d/cap%d/%s" (dist_label dist) nshards cap in
      jemit ~experiment:"cache" ~name:(nm "ns_per_get") ~metric:"ns_per_get"
        ~unit_:"ns"
        ~extra:
          [ ("hit_rate", Json_out.J_float hr);
            ("hits", Json_out.J_int rc.Spp_pmemkv.Rcache.rc_hits);
            ("misses", Json_out.J_int rc.Spp_pmemkv.Rcache.rc_misses);
            ("invalidations", Json_out.J_int rc.Spp_pmemkv.Rcache.rc_invalidations);
            ("bypassed_gets", Json_out.J_int (Serve.bypassed_gets sv)) ]
        ns_get;
      if cap > 0 then
        jemit ~experiment:"cache" ~name:(nm "speedup")
          ~metric:"speedup_vs_cache_off" speedup;
      if point = last then
        Printf.printf "  zipfian ns/get improvement %.2fx %s
" speedup
          (bar ~min:2. speedup))
    points

(* ------------------------------------------------------------------ *)
(* Failover: batch replication, primary kill and promotion              *)
(* ------------------------------------------------------------------ *)

(* Three parts. (1) Correctness gate, deterministic and timing-free: a
   crash-point enumeration of the replicated batch program (torture
   workload "kvfailover", plus its lossy-channel variant) must report
   zero invariant failures — the promoted replica serves a whole-op
   prefix that never leads cold recovery of the primary, lags it by at
   most one commit on a lossless channel, and holds every acked op.
   (2) Ack-policy sweep, steady state: the same Zipfian put/get load
   through the async pipeline with replication off / async / semi-sync
   / sync, reporting throughput, serving p99 and the replication-lag
   histogram — what each ack guarantee costs. (3) Kill + promote under
   load: drive half the requests, power the hot shard's device off,
   promote its replica (timed), drive the rest; reports whole-run
   throughput, p99, the typed-failure count and the promotion stall. *)

let failover () =
  print_title "Failover: batch replication, primary kill and promotion";
  (* -- part 1: correctness gate -- *)
  let budget = if quick then 120 else max_int in
  List.iter
    (fun w ->
      let r = Spp_torture.Torture.run ~budget w in
      let open Spp_torture.Torture in
      let summary =
        Printf.sprintf "%d crash points, %d invariant failures%s"
          r.r_crash_points r.r_invariant_failures
          (match r.r_first_failure with
           | None -> ""
           | Some (i, msg) -> Printf.sprintf " (first at %d: %s)" i msg)
      in
      gate ~experiment:"failover" ~name:("gate/" ^ r.r_workload)
        ~extra:[ ("crash_points", Json_out.J_int r.r_crash_points) ]
        ~what:("gate " ^ r.r_workload) ~pass:summary ~fail:summary
        (r.r_invariant_failures = 0))
    [ Spp_torture.Workloads.kvfailover ~ops:8 ();
      Spp_torture.Workloads.kvfailover_drop ~ops:8 () ];
  (* -- shared load shape -- *)
  let nshards = match domains_cap with Some c when c < 2 -> 1 | _ -> 2 in
  let universe = sc 1_000 in
  let total_ops = sc 16_000 in
  let window = 64 in
  Printf.printf
    "(%d shards, %d-key universe, %d requests, zipfian 0.99, 1:3 put:get, \
     256 B values, window %d)\n"
    nshards universe total_ops window;
  let gen_requests ~seed =
    let gen = Keygen.zipfian ~theta:0.99 ~seed ~universe () in
    let st = Random.State.make [| seed; 0xFA170 |] in
    Array.init total_ops (fun _ ->
      let key = key_of (Keygen.next gen) in
      if Random.State.int st 4 = 0 then Serve.Put { key; value }
      else Serve.Get key)
  in
  let build () = Shard_bench.stack ~keys:universe nshards in
  let replicated policy =
    { Replica.default_config with replicas = 1; policy; threaded = true }
  in
  let lat_extra h =
    [ ("p50_us", Json_out.J_float (us h 50.)); ("p99_us", Json_out.J_float (us h 99.)) ]
  in
  (* -- part 2: ack-policy sweep -- *)
  print_subtitle "ack-policy sweep (1 replica per shard, threaded appliers)";
  print_row ~w:12
    [ "policy"; "ops/s"; "p50 us"; "p99 us"; "lag p50 us"; "lag p99 us";
      "degraded" ];
  List.iter
    (fun policy ->
      Gc.compact ();
      let t = build () in
      let sv =
        Serve.create ~batch_cap:32 ?replication:(Option.map replicated policy) t
      in
      let reqs = gen_requests ~seed:31 in
      let dt, () = time (fun () -> Shard_bench.drive sv ~window reqs) in
      Serve.stop sv;
      let h = Serve.merged_hist sv in
      let lag = Serve.replication_lag sv in
      let degraded =
        List.fold_left
          (fun a s -> a + s.Replica.rs_degraded_acks)
          0
          (Serve.replication_stats sv)
      in
      let label =
        Option.fold ~none:"off" ~some:Replica.ack_policy_to_string policy
      in
      let if_replicated s = if policy = None then "-" else s in
      let tp = float_of_int total_ops /. dt in
      print_row ~w:12
        [ label; f0 tp; f1 (us h 50.); f1 (us h 99.);
          if_replicated (f1 (us lag 50.)); if_replicated (f1 (us lag 99.));
          if_replicated (string_of_int degraded) ];
      jemit ~experiment:"failover" ~name:("policy/" ^ label ^ "/throughput")
        ~metric:"ops_per_s" ~unit_:"op/s"
        ~extra:(lat_extra h @ [ ("degraded_acks", Json_out.J_int degraded) ])
        tp;
      if policy <> None then
        jemit ~experiment:"failover" ~name:("policy/" ^ label ^ "/lag")
          ~metric:"lag_us" ~unit_:"us"
          ~extra:
            [ ("p99_us", Json_out.J_float (us lag 99.));
              ("commits", Json_out.J_int (Histogram.count lag)) ]
          (us lag 50.))
    [ None; Some Replica.Async; Some Replica.Semi_sync; Some Replica.Sync ];
  (* -- part 3: kill + promote under load -- *)
  print_subtitle "kill + promote mid-run (semi-sync, 1 replica per shard)";
  Gc.compact ();
  let t = build () in
  let sv = Serve.create ~batch_cap:32 ~replication:(replicated Replica.Semi_sync) t in
  let reqs = gen_requests ~seed:41 in
  let half = total_ops / 2 in
  let burst = min (2 * window) (total_ops - half) in
  let dt, promote_s =
    time (fun () ->
      Shard_bench.drive sv ~window ~hi:half reqs;
      (* the window is drained: the worker is idle, kill its device *)
      Spp_sim.Memdev.power_off (Shard_bench.dev_of t 0);
      (* drain a burst against the dead primary before promoting: its
         share of these tickets must resolve [Failed Failed_over], not
         hang, while the other shard keeps serving.  (Requests still
         queued when the promotion lands would instead execute on the
         promoted stack — awaiting here pins the drains to the dead
         device so the typed-failure path is what gets measured.) *)
      let in_flight =
        Array.init burst (fun j -> Serve.submit sv reqs.(half + j))
      in
      Array.iter (fun tk -> ignore (Serve.await sv tk)) in_flight;
      let p_dt, _p = time (fun () -> Serve.promote sv 0) in
      Shard_bench.drive sv ~window ~lo:(half + burst) reqs;
      p_dt)
  in
  Serve.stop sv;
  let h = Serve.merged_hist sv in
  let failed = Serve.total_failed sv in
  let tp = float_of_int total_ops /. dt in
  Printf.printf
    "whole run: %.0f op/s, p50 %.1f us, p99 %.1f us; promotion stall %.2f \
     ms; %d tickets failed typed; %d promotion(s)\n"
    tp (us h 50.) (us h 99.) (promote_s *. 1e3) failed (Serve.promotions sv);
  jemit ~experiment:"failover" ~name:"kill/throughput" ~metric:"ops_per_s"
    ~unit_:"op/s"
    ~extra:
      (lat_extra h
       @ [ ("failed_tickets", Json_out.J_int failed);
           ("promotions", Json_out.J_int (Serve.promotions sv)) ])
    tp;
  jemit ~experiment:"failover" ~name:"kill/promotion_stall" ~metric:"ms"
    ~unit_:"ms" (promote_s *. 1e3)

(* ------------------------------------------------------------------ *)
(* Scan: ordered ranges through the engine seam                        *)
(* ------------------------------------------------------------------ *)

(* YCSB-E-shaped range scans against both engines behind the serve
   pipeline: 95% short scans (16-key spans through [Serve.scan]'s
   scatter-gather) and 5% inserts, against a point-get baseline on an
   identically built store. Per engine, no number is reported until the
   async pipeline is bit-identical to the sequential baseline over
   scan-bearing streams — the same differential the tier-1 tests pin,
   re-run here at bench scale. *)
let scan_bench () =
  print_title "Scan: ordered ranges through the engine seam (YCSB-E shape)";
  let nshards = 4 in
  let universe = sc 8_000 in
  let total_ops = sc 6_000 in
  let span = 16 and lim = 16 in
  Printf.printf
    "(%d keys preloaded, %d ops, 95%% scans of %d-key spans / 5%% inserts, \
     %d shards)\n"
    universe total_ops span nshards;
  let build engine = Shard_bench.stack ~engine ~keys:universe nshards in
  (* -- gate: async = sequential over scan-bearing streams -- *)
  let gate_streams =
    let st = Random.State.make [| 0x5CA7 |] in
    let reqs =
      Array.init (sc 4_000) (fun _ ->
        let k = key_of (Random.State.int st universe) in
        match Random.State.int st 10 with
        | 0 | 1 -> Serve.Put { key = k; value }
        | 2 -> Serve.Remove k
        | _ -> Serve.Get k)
    in
    (* scans carry no routing key: splice one into each shard stream
       every 40 requests, windows sliding deterministically *)
    Array.map
      (fun stream ->
        Array.to_list stream
        |> List.mapi (fun i r ->
          if i mod 40 <> 39 then [ r ]
          else
            let lo = i * 37 mod (universe - span) in
            [ Serve.Scan { lo = key_of lo; hi = key_of (lo + span - 1); limit = lim };
              r ])
        |> List.concat |> Array.of_list)
      (split nshards reqs)
  in
  print_subtitle "gate: async = sequential over scan-bearing streams";
  let gated =
    List.filter
      (fun (nm, engine) ->
        let t_seq = build engine and t_par = build engine in
        let seq = Serve.run_sequential t_seq ~batch_cap:16 gate_streams in
        let par = Shard_bench.run_async t_par ~batch_cap:16 gate_streams in
        let ok =
          Shard_bench.replies_agree seq par
          && Shard.merged_counters t_seq = Shard.merged_counters t_par
        in
        gate ~experiment:"scan" ~name:(nm ^ "/differential")
          ~what:(Printf.sprintf "  %-8s" nm)
          ~pass:"bit-identical (replies + Memdev counters)"
          ~fail:"DIVERGENCE -- engine skipped" ok;
        ok)
      [ ("cmap", Spp_pmemkv.Engines.cmap); ("btree", Spp_pmemkv.Engines.btree) ]
  in
  (* -- measurement -- *)
  print_subtitle
    (Printf.sprintf "YCSB-E (95%% scans, span %d) vs point-get baseline" span);
  if quick then
    print_endline
      "(note: latency percentiles are meaningless under --quick; use a full \
       run)";
  print_row ~w:13
    [ "engine"; "scans/s"; "p50 us"; "p99 us"; "ns/entry"; "base get/s" ];
  List.iter
    (fun (nm, engine) ->
      Gc.compact ();
      let sv = Serve.create ~batch_cap:32 (build engine) in
      let st = Random.State.make [| 0xE5CA |] in
      let hist = Histogram.create () in
      let nscans = ref 0 and entries = ref 0 and t_scan = ref 0. in
      for _ = 1 to total_ops do
        if Random.State.int st 100 < 5 then
          ignore
            (Serve.await sv
               (Serve.submit sv
                  (Serve.Put
                     { key = key_of (Random.State.int st universe); value })))
        else begin
          let lo = Random.State.int st (universe - span) in
          let s0 = now_mono () in
          (match
             Serve.scan sv ~lo:(key_of lo) ~hi:(key_of (lo + span - 1))
               ~limit:lim
           with
           | Ok kvs ->
             incr nscans;
             entries := !entries + List.length kvs
           | Error _ -> ());
          let dt = now_mono () -. s0 in
          t_scan := !t_scan +. dt;
          Histogram.add hist (int_of_float (dt *. 1e9))
        end
      done;
      Serve.stop sv;
      (* point-get baseline: the same request count, all point gets,
         on a fresh identically preloaded store *)
      let svb = Serve.create ~batch_cap:32 (build engine) in
      let stb = Random.State.make [| 0xE5CB |] in
      let wall_b, () =
        time (fun () ->
          for _ = 1 to !nscans do
            ignore
              (Serve.await svb
                 (Serve.submit svb
                    (Serve.Get (key_of (Random.State.int stb universe)))))
          done)
      in
      Serve.stop svb;
      let scans_s = float_of_int !nscans /. Float.max !t_scan 1e-9 in
      let ns_entry =
        if !entries = 0 then 0.
        else !t_scan *. 1e9 /. float_of_int !entries
      in
      let gets_s = float_of_int !nscans /. Float.max wall_b 1e-9 in
      print_row ~w:13
        [ nm; f0 scans_s; f1 (us hist 50.); f1 (us hist 99.); f0 ns_entry;
          f0 gets_s ];
      jemit ~experiment:"scan" ~name:(nm ^ "/ycsb_e")
        ~metric:"scans_per_s" ~unit_:"scan/s"
        ~extra:
          [ ("p50_us", Json_out.J_float (us hist 50.));
            ("p99_us", Json_out.J_float (us hist 99.));
            ("ns_per_scanned_entry", Json_out.J_float ns_entry);
            ("scanned_entries", Json_out.J_int !entries);
            ("scans", Json_out.J_int !nscans) ]
        scans_s;
      jemit ~experiment:"scan" ~name:(nm ^ "/point_get_baseline")
        ~metric:"ops_per_s" ~unit_:"op/s" gets_s)
    gated

(* ------------------------------------------------------------------ *)
(* Reshard: slot migration + rebalancer under a moving hotspot          *)
(* ------------------------------------------------------------------ *)

(* Two parts. (1) Correctness gate, deterministic and timing-free: one
   key-routed request stream executed on a static slot table and again
   with slot migrations forced mid-stream must produce bit-identical
   replies and the same surviving store. (2) Migration storm: a
   rotating-hotspot Zipfian read-heavy stream served in windows, static
   router vs rebalancer ticking between windows (with traffic still
   queued, so migrations run under load). Aggregate throughput is
   modelled as total ops over the summed per-window critical path
   (max over shards of that window's [run_batch] seconds) — the wall
   clock a host with >= nshards cores would see, measurable even on one
   core; the wall clock of this host is reported alongside. *)
let reshard () =
  print_title "Reshard: live slot migration + hot-slot rebalancer";
  let nshards = 4 in
  let universe = 256 in
  (* -- part 1: migration differential gate -- *)
  let gate_ops = sc 6_000 in
  let hot_keys = [ key_of 1; key_of 17; key_of 33 ] in
  let run_gate ~migrate =
    let t = Shard_bench.stack ~keys:universe nshards in
    let sv = Serve.create ~batch_cap:16 ~adaptive:false t in
    let st = Random.State.make [| 0x7E5A |] in
    let reqs =
      Array.init gate_ops (fun i ->
        let key = key_of (Random.State.int st universe) in
        match i mod 5 with
        | 0 | 1 -> Serve.Put { key; value = Printf.sprintf "g%06d" i }
        | 2 -> Serve.Remove key
        | _ -> Serve.Get key)
    in
    let move k =
      ignore
        (Serve.migrate_slot sv ~slot:(Shard.slot_of t k)
           ~dst:((Shard.route t k + 1) mod nshards))
    in
    let submit lo hi = Array.init (hi - lo) (fun i -> Serve.submit sv reqs.(lo + i)) in
    let a = submit 0 (gate_ops / 3) in
    if migrate then List.iter move hot_keys;
    let b = submit (gate_ops / 3) (2 * gate_ops / 3) in
    if migrate then List.iter move hot_keys;
    let c = submit (2 * gate_ops / 3) gate_ops in
    let replies = Array.map (Serve.await sv) (Array.concat [ a; b; c ]) in
    Serve.stop sv;
    (t, Serve.digest_replies replies, Serve.migrations sv)
  in
  let t_st, d_st, _ = run_gate ~migrate:false in
  let t_mg, d_mg, nmig = run_gate ~migrate:true in
  gate ~experiment:"reshard" ~name:"differential"
    ~what:
      (Printf.sprintf "migration differential (%d ops, %d forced migrations)"
         gate_ops nmig)
    ~pass:"bit-identical replies, same surviving store"
    (d_st = d_mg && Shard.count_all t_st = Shard.count_all t_mg);
  (* -- part 2: migration storm under a rotating hotspot -- *)
  let total_ops = sc 48_000 in
  (* quick mode keeps windows large enough (~480 ops) for the load
     signal to rise above sampling noise; the full run gets 8 epochs of
     6 windows, quick a 2-epoch smoke *)
  let nwindows = if quick then 10 else 48 in
  let nepochs = if quick then 2 else 8 in
  let window_ops = total_ops / nwindows in
  let period = total_ops / nepochs in
  let theta = 0.9 and storm_universe = 64 in
  let gen_storm () =
    let gen =
      Keygen.rotating ~theta ~seed:31 ~universe:storm_universe ~period ()
    in
    let coin = Random.State.make [| 31; 0x0A1D |] in
    Array.init total_ops (fun _ ->
      let key = key_of (Keygen.next gen) in
      if Random.State.int coin 10 = 0 then Serve.Put { key; value }
      else Serve.Get key)
  in
  Printf.printf
    "(storm: %d ops in %d windows, rotating zipfian %.2f over %d keys, \
     period %d, 9:1 get:put; 1-core hosts: model throughput = ops / summed \
     per-window critical path)\n"
    total_ops nwindows theta storm_universe period;
  let run_storm ~nshards ~rebalance =
    Gc.compact ();
    let t = Shard_bench.stack ~keys:storm_universe nshards in
    let sv = Serve.create ~batch_cap:32 t in
    let tick =
      if rebalance then
        let cfg =
          { Rebalance.min_ratio = 1.3;
            min_ops = max 16 (window_ops / 16);
            persist = 1; cooldown = 0; moves_per_tick = 16 }
        in
        let rb = Rebalance.create ~cfg sv in
        fun () -> ignore (Rebalance.tick rb)
      else ignore
    in
    let reqs = gen_storm () in
    (* Critical path in op units: per window, the bottleneck shard's
       executed-op delta (which includes any migration copy traffic it
       absorbed). Op counts are immune to the scheduler noise a 1-core
       host injects into wall-clock busy sampling — with more domains
       than cores, a preempted drain charges a whole timeslice to a
       microsecond batch. Time conversion happens later with one per-op
       cost calibrated from the static run, identical for both routers. *)
    let critical_ops = ref 0 in
    let t0 = now_mono () in
    for w = 0 to nwindows - 1 do
      let ops0 = Serve.ops_counts sv in
      (* The control loop ticks at 4x the measurement window: submit in
         sub-chunks with a tick after each, so the rebalancer reacts to
         a hotspot rotation a quarter-window in — with the chunk still
         queued, its migrations run under load. *)
      let nchunks = 8 in
      let chunk = window_ops / nchunks in
      let tks =
        List.init nchunks (fun c ->
          let base = c * chunk in
          let len = if c = nchunks - 1 then window_ops - base else chunk in
          let part =
            Array.init len (fun j ->
              Serve.submit sv reqs.((w * window_ops) + base + j))
          in
          tick ();
          part)
      in
      List.iter (Array.iter (fun tk -> ignore (Serve.await sv tk))) tks;
      (* and once more on the drained pipeline: full slot deltas, empty
         queues — the clean signal that preps the next window *)
      tick ();
      let ops1 = Serve.ops_counts sv in
      let peak = ref 0 in
      Array.iteri (fun i o1 -> peak := max !peak (o1 - ops0.(i))) ops1;
      critical_ops := !critical_ops + !peak
    done;
    let wall = now_mono () -. t0 in
    Serve.stop sv;
    let st = Serve.stats sv in
    let tot_busy = Array.fold_left (fun a s -> a +. s.Serve.ss_busy) 0. st in
    let tot_ops = Array.fold_left (fun a s -> a + s.Serve.ss_ops) 0 st in
    (!critical_ops, tot_busy, tot_ops, wall, us (Serve.merged_hist sv) 99.,
     Serve.migrations sv, Serve.keys_moved sv)
  in
  print_row ~w:13
    [ "shards"; "router"; "model op/s"; "wall s"; "p99 us"; "migrations";
      "keys moved" ];
  List.iter
    (fun nshards ->
      let crit_st, busy_st, ops_st, wall_st, p99_st, _, _ =
        run_storm ~nshards ~rebalance:false
      in
      let crit_rb, _, _, wall_rb, p99_rb, migs, keys =
        run_storm ~nshards ~rebalance:true
      in
      (* one per-op cost for both routers, from the static run *)
      let per_op = busy_st /. float_of_int (max 1 ops_st) in
      let thr_of crit =
        1. /. (per_op *. float_of_int (max 1 crit)) *. float_of_int total_ops
      in
      let thr_st = thr_of crit_st and thr_rb = thr_of crit_rb in
      let speedup = thr_rb /. Float.max thr_st 1e-9 in
      let p99_bounded = p99_rb <= Float.max (5. *. p99_st) 1e3 in
      print_row ~w:13
        [ string_of_int nshards; "static"; fmt_ops thr_st;
          Printf.sprintf "%.2f" wall_st; f1 p99_st; "0"; "0" ];
      print_row ~w:13
        [ string_of_int nshards; "rebalanced"; fmt_ops thr_rb;
          Printf.sprintf "%.2f" wall_rb; f1 p99_rb; string_of_int migs;
          string_of_int keys ];
      Printf.printf
        "  %d shards: rebalancer speedup %.2fx (critical-path model) %s; \
         p99 %s under the storm\n"
        nshards speedup
        (if speedup >= 1.5 then "(>= 1.5x: OK)" else "(below the 1.5x bar)")
        (if p99_bounded then "bounded" else "UNBOUNDED");
      let nm what = Printf.sprintf "storm/%d/%s" nshards what in
      jemit ~experiment:"reshard" ~name:(nm "static") ~metric:"ops_per_s"
        ~unit_:"op/s"
        ~extra:[ ("p99_us", Json_out.J_float p99_st);
                 ("wall_s", Json_out.J_float wall_st) ]
        thr_st;
      jemit ~experiment:"reshard" ~name:(nm "rebalanced") ~metric:"ops_per_s"
        ~unit_:"op/s"
        ~extra:
          [ ("p99_us", Json_out.J_float p99_rb);
            ("wall_s", Json_out.J_float wall_rb);
            ("migrations", Json_out.J_int migs);
            ("keys_moved", Json_out.J_int keys);
            ("p99_bounded", Json_out.J_bool p99_bounded) ]
        thr_rb;
      jemit ~experiment:"reshard" ~name:(nm "speedup") ~metric:"speedup"
        speedup)
    [ 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Net: wire-protocol front end + open-loop YCSB macrobenchmark        *)
(* ------------------------------------------------------------------ *)

(* Four parts over a unix-domain loopback (no port collisions in CI).
   (1) Correctness gate: the same point-op stream through one wire
   connection and through [run_sequential] on an identically built
   store must produce bit-identical reply digests, both engines.
   (2) Closed-loop ceiling: loopback throughput vs the in-process
   pipeline at equal shard count — the wire must keep >= 0.5x (a
   failure on full runs; quick mode's tiny op counts are all fixed
   cost). (3) Open-loop arrival-rate sweep (YCSB-B): latency measured
   from the *intended* send time of a pre-drawn schedule, i.e.
   coordinated-omission-safe; the service-time p99 is printed alongside
   so the gap (the omission a closed-loop driver hides) is visible in
   the output. (4) The YCSB letter suite A-F against the btree engine
   (E needs ordered scans), each letter open-loop at a fixed fraction
   of the measured ceiling. *)
let net () =
  print_title "Net: wire front end, open-loop (CO-safe) YCSB macrobenchmark";
  let nshards = 2 in
  let universe = sc 2_000 in
  let build engine = Shard_bench.stack ~engine ~keys:universe nshards in
  let with_client ?pool ?cork addr f =
    let cl = Net_client.connect ?pool ?cork addr in
    Fun.protect ~finally:(fun () -> Net_client.close cl) (fun () -> f cl)
  in
  let with_wire ~tag engine f =
    let sv = Serve.create ~batch_cap:32 (build engine) in
    let sock =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "spp-net-%d-%s.sock" (Unix.getpid ()) tag)
    in
    let srv = Net_server.create sv (Unix.ADDR_UNIX sock) in
    Fun.protect
      ~finally:(fun () ->
        Net_server.stop srv;
        Serve.stop sv)
      (fun () -> f (Net_server.addr srv))
  in
  Printf.printf
    "(%d shards, %d-key universe preloaded, 256 B values, unix-domain \
     loopback)\n"
    nshards universe;
  (* -- part 1: wire vs in-process differential, both engines -- *)
  print_subtitle "wire vs in-process differential (reply digests, per engine)";
  let diff_ops = sc 4_000 in
  List.iter
    (fun (ename, engine) ->
      (* point ops only: the wire executes a scan the moment it is
         decoded, while [run_sequential] orders it within its shard
         stream — routed ops are order-identical on both paths, scans
         are pinned by the tier-1 net tests instead *)
      let st = Random.State.make [| 0xE77; diff_ops |] in
      let reqs =
        Array.init diff_ops (fun _ ->
          let key = key_of (Random.State.int st universe) in
          match Random.State.int st 10 with
          | 0 | 1 | 2 | 3 -> Serve.Put { key; value }
          | 4 -> Serve.Remove key
          | _ -> Serve.Get key)
      in
      let wire =
        with_wire ~tag:("diff-" ^ ename) engine (fun addr ->
          with_client addr (fun cl ->
            let futs = Array.map (Net_client.send cl) reqs in
            Array.map (Net_client.await cl) futs))
      in
      (* identically built store, run sequentially per shard, replies
         reassembled into send order *)
      let seq =
        Shard_bench.reassemble ~key:Serve.request_key ~nshards reqs
          (Serve.run_sequential (build engine) ~batch_cap:32 (split nshards reqs))
      in
      gate ~experiment:"net" ~name:("differential/" ^ ename)
        ~what:(Printf.sprintf "  %-6s %d ops" ename diff_ops)
        ~pass:"bit-identical reply digests"
        (Serve.digest_replies wire = Serve.digest_replies seq))
    [ ("cmap", Spp_pmemkv.Engines.cmap); ("btree", Spp_pmemkv.Engines.btree) ];
  (* -- part 2: closed-loop throughput ceiling -- *)
  print_subtitle "closed-loop ceiling: loopback wire vs in-process pipeline";
  let window = 128 and nclients = 2 in
  let per_client =
    let n = sc 24_000 / nclients in
    Array.init nclients (fun c ->
      let st = Random.State.make [| 50 + c; 0xB0A7 |] in
      Array.init n (fun _ ->
        let key = key_of (Random.State.int st universe) in
        if Random.State.int st 4 = 3 then Serve.Get key
        else Serve.Put { key; value }))
  in
  let inproc_thr =
    let sv = Serve.create ~batch_cap:32 (build Spp_pmemkv.Engines.cmap) in
    let wall = Shard_bench.drive_clients sv ~window per_client in
    Serve.stop sv;
    float_of_int (Array.fold_left (fun a r -> a + Array.length r) 0 per_client)
    /. Float.max wall 1e-9
  in
  let wire_thr =
    with_wire ~tag:"ceiling" Spp_pmemkv.Engines.cmap (fun addr ->
      let t0 = now_mono () in
      let drivers =
        Array.map
          (fun reqs ->
            Domain.spawn (fun () ->
              (* corked: the ceiling is a throughput number, so batching
                 request frames into ~8 KiB writes is fair game *)
              with_client ~cork:true addr (fun cl ->
                Loadgen.closed_loop cl ~window ~ops:(Array.length reqs)
                  ~next:(fun i -> [| reqs.(i) |]))))
          per_client
      in
      let results = Array.map Domain.join drivers in
      let wall = now_mono () -. t0 in
      let ops = Array.fold_left (fun a r -> a + r.Loadgen.lg_ops) 0 results in
      float_of_int ops /. Float.max wall 1e-9)
  in
  let ratio = wire_thr /. Float.max inproc_thr 1e-9 in
  Printf.printf "  in-process %s | loopback %s | ratio %.2fx %s\n"
    (fmt_ops inproc_thr) (fmt_ops wire_thr) ratio (bar ~min:0.5 ratio);
  jemit ~experiment:"net" ~name:"ceiling/inproc" ~metric:"ops_per_s"
    ~unit_:"op/s" inproc_thr;
  jemit ~experiment:"net" ~name:"ceiling/loopback" ~metric:"ops_per_s"
    ~unit_:"op/s"
    ~extra:[ ("ratio_vs_inproc", Json_out.J_float ratio) ]
    wire_thr;
  check ~name:"net/ceiling" (quick || ratio >= 0.5);
  (* -- parts 3 and 4: open loop over the wire, one fresh store each -- *)
  let open_loop ~tag engine ~y ~rate ~ops =
    Gc.compact ();
    with_wire ~tag engine (fun addr ->
      with_client ~pool:2 addr (fun cl ->
        Loadgen.open_loop cl ~rate ~ops
          ~next:(Loadgen.ycsb_next y ~key:key_of ~value:(fun _ -> value))))
  in
  let lat r = Loadgen.[ f1 (us r.lg_hist 50.); f1 (us r.lg_hist 99.); f1 (us r.lg_hist 99.9) ] in
  let emit_run ~nm ?(extra = []) ?service r =
    jemit ~experiment:"net" ~name:(nm "throughput") ~metric:"ops_per_s"
      ~unit_:"op/s"
      ~extra:
        ((("target_ops_per_s", Json_out.J_float r.Loadgen.lg_target) :: extra)
         @ [ ("failed", Json_out.J_int r.Loadgen.lg_failed) ])
      r.Loadgen.lg_achieved;
    let extra =
      Option.map (fun h p -> [ ("service_us", Json_out.J_float (us h p)) ]) service
    in
    emit_percentiles ~experiment:"net" ~nm ?extra r.Loadgen.lg_hist [ 50.; 99.; 99.9 ]
  in
  (* -- part 3: open-loop arrival-rate sweep (YCSB-B) -- *)
  print_subtitle "open-loop sweep (YCSB-B, latency from intended send time)";
  if quick then
    Printf.printf
      "(note: percentiles are meaningless under --quick; use a full run)\n";
  print_row ~w:12
    [ "rate frac"; "target/s"; "achieved/s"; "p50 us"; "p99 us"; "p999 us";
      "svc p99 us"; "failed" ];
  List.iter
    (fun frac ->
      let r =
        open_loop ~tag:(Printf.sprintf "open%02.0f" (frac *. 100.))
          Spp_pmemkv.Engines.cmap
          ~y:(Ycsb.create ~letter:Ycsb.B ~seed:11 ~universe ())
          ~rate:(Float.max 1. (frac *. wire_thr)) ~ops:(sc 20_000)
      in
      print_row ~w:12
        ((f1 frac :: f0 r.Loadgen.lg_target :: f0 r.Loadgen.lg_achieved :: lat r)
         @ [ f1 (us r.Loadgen.lg_service 99.); string_of_int r.Loadgen.lg_failed ]);
      emit_run r ~service:r.Loadgen.lg_service
        ~nm:(Printf.sprintf "open/frac%.0f/%s" (frac *. 100.)))
    [ 0.3; 0.6; 0.9 ];
  (* -- part 4: YCSB letter suite A-F (btree engine, ordered scans) -- *)
  print_subtitle "YCSB A-F (btree engine, open loop at 0.25x cmap ceiling)";
  let short = function
    | Ycsb.A -> "A upd-heavy"
    | Ycsb.B -> "B read-heavy"
    | Ycsb.C -> "C read-only"
    | Ycsb.D -> "D read-latest"
    | Ycsb.E -> "E scan-heavy"
    | Ycsb.F -> "F rmw"
  in
  print_row ~w:14
    [ "workload"; "target/s"; "achieved/s"; "p50 us"; "p99 us"; "p999 us";
      "failed" ];
  List.iter
    (fun letter ->
      let lc = Ycsb.char_of_letter letter in
      let r =
        open_loop ~tag:(Printf.sprintf "ycsb-%c" lc) Spp_pmemkv.Engines.btree
          ~y:(Ycsb.create ~max_span:16 ~letter ~seed:23 ~universe ())
          ~rate:(Float.max 1. (0.25 *. wire_thr)) ~ops:(sc 8_000)
      in
      print_row ~w:14
        ((short letter :: f0 r.Loadgen.lg_target :: f0 r.Loadgen.lg_achieved
          :: lat r)
         @ [ string_of_int r.Loadgen.lg_failed ]);
      emit_run r ~nm:(Printf.sprintf "ycsb/%c/%s" lc)
        ~extra:[ ("mix", Json_out.J_string (Ycsb.describe letter)) ])
    [ Ycsb.A; Ycsb.B; Ycsb.C; Ycsb.D; Ycsb.E; Ycsb.F ]
