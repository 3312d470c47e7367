(* The paper's evaluation (§VI): Fig. 4-7, Tables II-IV, the §VI-D bugs
   and §VI-E crash consistency, plus the timing-free access counters,
   the compiler-pass ablation and the hook micro-costs.

   Absolute numbers come from the simulator, not the authors' Optane
   testbed; what must match the paper is the *shape*: who wins, by
   roughly what factor, and where the outliers are. EXPERIMENTS.md
   records paper-vs-measured for every row. *)

open Spp_pmdk
open Spp_benchlib.Bench_util
open Harness

(* ------------------------------------------------------------------ *)
(* Fig. 4: persistent indices — insert/get/remove slowdowns            *)
(* ------------------------------------------------------------------ *)

let fig4_variants = [ Spp_access.Pmdk; Spp_access.Safepm; Spp_access.Spp ]

let index_pool_size = function
  | "rtree" -> 1 lsl 27
  | _ -> 1 lsl 26

let index_ops = function
  | "rtree" -> sc 4_000
  | _ -> sc 30_000

(* A fresh index in its own pool, under [variant]. *)
let fresh_index variant index_name =
  let a =
    Spp_access.create ~pool_size:(index_pool_size index_name)
      ~name:index_name variant
  in
  (a, Spp_indices.Indices.create index_name a)

let run_index_workload variant index_name =
  Gc.full_major ();
  let n = index_ops index_name in
  let ks = keys ~seed:1 ~universe:(4 * n) n in
  let _, ix = fresh_index variant index_name in
  let t_insert, () =
    time (fun () ->
      Array.iter (fun k -> ix.Spp_indices.Indices.insert ~key:k ~value:k) ks)
  in
  let t_get, () =
    time (fun () ->
      Array.iter (fun k -> ignore (ix.Spp_indices.Indices.get k)) ks)
  in
  let t_remove, () =
    time (fun () ->
      Array.iter (fun k -> ignore (ix.Spp_indices.Indices.remove k)) ks)
  in
  (t_insert, t_get, t_remove)

let fig4 () =
  print_title "Figure 4: index throughput slowdown w.r.t. native PMDK";
  Printf.printf "(%d queries per operation type, 8-byte uniform keys)\n"
    (index_ops "ctree");
  print_row ~w:15
    ("index"
     :: List.concat_map
          (fun op ->
            List.map
              (fun v -> op ^ ":" ^ Spp_access.variant_name v)
              [ Spp_access.Safepm; Spp_access.Spp ])
          [ "ins"; "get"; "rem" ]);
  List.iter
    (fun index_name ->
      let results =
        List.map (fun v -> (v, run_index_workload v index_name)) fig4_variants
      in
      let bi, bg, br = List.assoc Spp_access.Pmdk results in
      let nops = float_of_int (index_ops index_name) in
      List.iter
        (fun (v, (ti, tg, tr)) ->
          let vn = Spp_access.variant_name v in
          List.iter
            (fun (op, t, b) ->
              let nm = Printf.sprintf "%s/%s/%s" index_name op vn in
              jemit ~experiment:"fig4" ~name:nm ~metric:"ns_per_op" ~unit_:"ns"
                (t /. nops *. 1e9);
              if v <> Spp_access.Pmdk then
                jemit ~experiment:"fig4" ~name:nm ~metric:"slowdown"
                  (slowdown ~baseline:b t))
            [ ("insert", ti, bi); ("get", tg, bg); ("remove", tr, br) ])
        results;
      let cells =
        List.concat_map
          (fun sel ->
            List.map
              (fun v ->
                let ti, tg, tr = List.assoc v results in
                let t, b =
                  match sel with
                  | `I -> (ti, bi)
                  | `G -> (tg, bg)
                  | `R -> (tr, br)
                in
                fmt_slowdown (slowdown ~baseline:b t))
              [ Spp_access.Safepm; Spp_access.Spp ])
          [ `I; `G; `R ]
      in
      print_row ~w:15 (index_name :: cells))
    [ "ctree"; "rbtree"; "rtree"; "hashmap_tx" ]

(* ------------------------------------------------------------------ *)
(* Fig. 5: pmemkv (cmap) — 4 workloads × thread counts                 *)
(* ------------------------------------------------------------------ *)

let fig5_threads = [ 1; 2; 4; 8; 16; 32 ]

let fig5 () =
  print_title "Figure 5: pmemkv slowdown w.r.t. native PMDK";
  let preload_keys = sc 3_000 and ops_per_thread = sc 1_500 in
  Printf.printf
    "(cmap engine, %d preloaded keys, 16 B keys / 1024 B values, %d \
     ops per logical thread)\n"
    preload_keys ops_per_thread;
  List.iter
    (fun workload ->
      print_subtitle (Spp_pmemkv.Db_bench.workload_name workload);
      let per_variant =
        List.map
          (fun v ->
            let a =
              Spp_access.create ~pool_size:(1 lsl 27)
                ~name:(Spp_access.variant_name v) v
            in
            let kv = Spp_pmemkv.Cmap.create a in
            Spp_pmemkv.Db_bench.preload kv ~keys:preload_keys;
            let times =
              List.map
                (fun threads ->
                  let r =
                    Spp_pmemkv.Db_bench.run kv ~threads ~ops_per_thread
                      ~universe:preload_keys workload
                  in
                  (* the median shard time is the robust per-thread cost
                     estimator under the logical-thread model *)
                  r.Spp_pmemkv.Db_bench.median_shard)
                fig5_threads
            in
            (v, times))
          fig4_variants
      in
      let base = List.assoc Spp_access.Pmdk per_variant in
      print_row ~w:10 ("threads" :: List.map string_of_int fig5_threads);
      List.iter
        (fun v ->
          if v <> Spp_access.Pmdk then begin
            let times = List.assoc v per_variant in
            print_row ~w:10
              (Spp_access.variant_name v
               :: List.map2
                    (fun t b -> fmt_slowdown (slowdown ~baseline:b t))
                    times base)
          end)
        fig4_variants)
    Spp_pmemkv.Db_bench.all_workloads

(* ------------------------------------------------------------------ *)
(* Fig. 6: Phoenix suite                                               *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  print_title "Figure 6: Phoenix benchmark suite slowdown w.r.t. native PMDK";
  Printf.printf "(PM port, 31 tag bits as in the paper)\n";
  print_row ~w:20 [ "application"; "safepm"; "spp" ];
  List.iter
    (fun app ->
      let scale = sc app.Spp_phoenix.Phx_apps.default_scale in
      let run v =
        let a =
          Spp_access.create ~tag_bits:31 ~pool_size:(1 lsl 26)
            ~name:app.Spp_phoenix.Phx_apps.app_name v
        in
        Gc.full_major ();
        time (fun () -> app.Spp_phoenix.Phx_apps.run a ~scale)
      in
      let tb, rb = run Spp_access.Pmdk in
      let ts, rs = run Spp_access.Safepm in
      let tp, rp = run Spp_access.Spp in
      assert (rb = rs && rb = rp);
      print_row ~w:20
        [ app.Spp_phoenix.Phx_apps.app_name;
          fmt_slowdown (slowdown ~baseline:tb ts);
          fmt_slowdown (slowdown ~baseline:tb tp) ])
    Spp_phoenix.Phx_apps.apps

(* ------------------------------------------------------------------ *)
(* Fig. 7: atomic and transactional PM management operations           *)
(* ------------------------------------------------------------------ *)

let fig7_sizes = [ 64; 256; 1024; 4096; 16384 ]
let fig7_ops = sc 4_000

let fig7_run mode =
  let results = Hashtbl.create 32 in
  List.iter
    (fun size ->
      Gc.compact ();
      let fresh_pool () =
        let space = Spp_sim.Space.create () in
        (* large enough for 4000 reallocs whose old blocks land in a
           different class and cannot be reused *)
        Pool.create space ~base:4096 ~size:(1 lsl 28) ~mode ~name:"ops"
      in
      let record name f =
        let t, () = time (fun () -> for i = 0 to fig7_ops - 1 do f i done) in
        Hashtbl.replace results (size, name) t
      in
      let grown = size * 3 / 2 in
      (* atomic API *)
      let p = fresh_pool () in
      let oids = Array.make fig7_ops Oid.null in
      record "atomic alloc" (fun i -> oids.(i) <- Pool.alloc p ~size);
      record "atomic realloc" (fun i ->
        oids.(i) <- Pool.realloc p oids.(i) ~size:grown);
      record "atomic free" (fun i -> Pool.free_ p oids.(i));
      (* transactional API: one operation per transaction (pmembench) *)
      let p = fresh_pool () in
      let tx f = Pool.with_tx p f in
      record "tx alloc" (fun i ->
        oids.(i) <- tx (fun () -> Pool.tx_alloc p ~size));
      record "tx realloc" (fun i ->
        oids.(i) <- tx (fun () -> Pool.tx_realloc p oids.(i) ~size:grown));
      record "tx free" (fun i -> tx (fun () -> Pool.tx_free p oids.(i))))
    fig7_sizes;
  results

let fig7 () =
  print_title "Figure 7: PM management operations — SPP slowdown w.r.t. PMDK";
  Printf.printf "(%d operations per point)\n" fig7_ops;
  let native = fig7_run Mode.Native in
  let spp = fig7_run (Mode.Spp Spp_core.Config.default) in
  let ops =
    [ "atomic alloc"; "tx alloc"; "atomic free"; "tx free";
      "atomic realloc"; "tx realloc" ]
  in
  print_row ~w:16
    ("operation" :: List.map (fun s -> Printf.sprintf "%d B" s) fig7_sizes);
  List.iter
    (fun op ->
      let cells =
        List.map
          (fun size ->
            let b = Hashtbl.find native (size, op) in
            let t = Hashtbl.find spp (size, op) in
            fmt_slowdown (slowdown ~baseline:b t))
          fig7_sizes
      in
      print_row ~w:16 (op :: cells))
    ops

(* ------------------------------------------------------------------ *)
(* Table II: recovery time vs number of snapshotted PMEMoids           *)
(* ------------------------------------------------------------------ *)

let table2_counts =
  if quick then [ 100; 1000; 10_000 ]
  else [ 100; 1000; 10_000; 100_000; 1_000_000 ]

let table2_run mode n =
  Gc.compact ();
  let space = Spp_sim.Space.create () in
  let pool = Pool.create space ~base:4096 ~size:(1 lsl 28) ~mode ~name:"rec" in
  let oz = Pool.oid_stored_size pool in
  let slots = Pool.alloc pool ~size:(n * oz) in
  for i = 0 to n - 1 do
    let oid = Pool.alloc pool ~size:32 in
    Pool.store_oid pool ~off:(slots.Oid.off + (i * oz)) oid
  done;
  (* snapshot exclusively PMEMoids, then crash before commit *)
  Pool.tx_begin pool;
  for i = 0 to n - 1 do
    Pool.tx_add_range pool ~off:(slots.Oid.off + (i * oz)) ~len:oz
  done;
  Spp_sim.Memdev.crash (Pool.dev pool);
  let t, (_ : Pool.recovery_report) = time (fun () -> Pool.recover pool) in
  t

let table2 () =
  print_title "Table II: recovery time (ms) vs snapshotted PMEMoids";
  print_row ~w:14 ("variant" :: List.map string_of_int table2_counts);
  List.iter
    (fun (name, mode) ->
      let cells =
        List.map
          (fun n -> Printf.sprintf "%.2f" (1000. *. table2_run mode n))
          table2_counts
      in
      print_row ~w:14 (name :: cells))
    [ ("pmdk", Mode.Native); ("spp", Mode.Spp Spp_core.Config.default) ]

(* ------------------------------------------------------------------ *)
(* Table III: PM space overhead of SPP                                 *)
(* ------------------------------------------------------------------ *)

let table3 () =
  print_title "Table III: SPP PM space overhead (after insert + get)";
  print_row ~w:14 [ "index"; "pmdk"; "spp"; "overhead"; "pct" ];
  List.iter
    (fun index_name ->
      let bytes variant =
        let n = index_ops index_name / 2 in
        let ks = keys ~seed:1 ~universe:(4 * n) n in
        let a, ix = fresh_index variant index_name in
        Array.iter (fun k -> ix.Spp_indices.Indices.insert ~key:k ~value:k) ks;
        Array.iter (fun k -> ignore (ix.Spp_indices.Indices.get k)) ks;
        (Pool.heap_stats a.Spp_access.pool).Heap.allocated_bytes
      in
      let native = bytes Spp_access.Pmdk in
      let spp = bytes Spp_access.Spp in
      let over = spp - native in
      print_row ~w:14
        [ index_name; fmt_mb native; fmt_mb spp; fmt_mb over;
          fmt_pct (float_of_int over /. float_of_int native) ])
    [ "ctree"; "rbtree"; "rtree"; "hashmap_tx" ]

(* ------------------------------------------------------------------ *)
(* Table IV: RIPE attacks                                              *)
(* ------------------------------------------------------------------ *)

let table4 () =
  print_title "Table IV: RIPE attacks under different protection mechanisms";
  Printf.printf "(%d buffer-overflow attacks per row; see lib/ripe)\n"
    (List.length Spp_ripe.Ripe.all_attacks);
  print_row ~w:16 [ "variant"; "successful"; "prevented"; "failed" ];
  List.iter
    (fun r ->
      print_row ~w:16
        [ r.Spp_ripe.Ripe.row_name;
          string_of_int r.Spp_ripe.Ripe.successful;
          string_of_int r.Spp_ripe.Ripe.prevented;
          string_of_int r.Spp_ripe.Ripe.failed ])
    (Spp_ripe.Ripe.run_all ());
  Printf.printf
    "SPP blind spots (as in the paper): int2ptr laundering, uninstrumented \
     external writes, intra-object overflows.\n"

(* ------------------------------------------------------------------ *)
(* §VI-D: reproduced real bugs                                         *)
(* ------------------------------------------------------------------ *)

let bugs () =
  print_title "Section VI-D: reproduced bugs";
  let show name outcome =
    Printf.printf "%-46s %s\n" name
      (match outcome with
       | Spp_access.Prevented r -> "DETECTED (" ^ r ^ ")"
       | Spp_access.Ok_completed -> "not detected")
  in
  let btree variant =
    let a =
      Spp_access.create ~pool_size:(1 lsl 20)
        ~name:(Spp_access.variant_name variant) variant
    in
    let t = Spp_indices.Btree_map.create ~buggy:true a in
    let ix = Spp_indices.Indices.of_btree t in
    Spp_access.run_guarded (fun () ->
      for k = 1 to 7 do
        ix.Spp_indices.Indices.insert ~key:k ~value:k
      done;
      ignore (ix.Spp_indices.Indices.remove 1))
  in
  show "btree memmove overflow (pmdk#5333) / SPP" (btree Spp_access.Spp);
  show "btree memmove overflow (pmdk#5333) / PMDK" (btree Spp_access.Pmdk);
  let arr variant =
    let a =
      Spp_access.create ~pool_size:(1 lsl 16)
        ~name:(Spp_access.variant_name variant) variant
    in
    Spp_access.run_guarded (fun () ->
      Spp_ripe.Bug_repros.array_example ~buggy:true a)
  in
  show "PMDK array example realloc overflow / SPP" (arr Spp_access.Spp);
  show "PMDK array example realloc overflow / PMDK" (arr Spp_access.Pmdk);
  let sm variant =
    let a =
      Spp_access.create ~tag_bits:31 ~pool_size:(1 lsl 22)
        ~name:(Spp_access.variant_name variant) variant
    in
    Spp_access.run_guarded (fun () ->
      ignore (Spp_phoenix.Phx_apps.string_match ~buggy:true a ~scale:8192))
  in
  show "Phoenix string_match off-by-one / SPP" (sm Spp_access.Spp);
  show "Phoenix string_match off-by-one / PMDK" (sm Spp_access.Pmdk)

(* ------------------------------------------------------------------ *)
(* §VI-E: crash-consistency validation                                 *)
(* ------------------------------------------------------------------ *)

(* Raw consistency check of a recovered hashmap_tx image: the stored
   count must equal the number of entries reachable from the buckets. *)
let hashmap_consistent ~map_off pool' =
  let oz = Pool.oid_stored_size pool' in
  let count = Pool.load_word pool' ~off:map_off in
  let nbuckets = Pool.load_word pool' ~off:(map_off + 8) in
  let buckets = Pool.load_oid pool' ~off:(map_off + 16) in
  if Oid.is_null buckets || nbuckets <= 0 then false
  else begin
    let entries = ref 0 in
    (try
       for b = 0 to nbuckets - 1 do
         let rec walk slot_off depth =
           if depth > 10_000 then failwith "cycle";
           let oid = Pool.load_oid pool' ~off:slot_off in
           if not (Oid.is_null oid) then begin
             incr entries;
             walk (oid.Oid.off + 16) (depth + 1)
           end
         in
         walk (buckets.Oid.off + (b * oz)) 0
       done;
       ()
     with _ -> entries := -1);
    !entries = count
  end

let crashcheck () =
  print_title "Section VI-E: crash consistency (pmemcheck + pmreorder)";
  let n = sc 1_000 in
  List.iter
    (fun (mode_name, variant) ->
      List.iter
        (fun index_name ->
          let a, ix = fresh_index variant index_name in
          let (), report =
            Spp_pmemcheck.Pmemcheck.check_run a.Spp_access.pool (fun () ->
              let count = if index_name = "rtree" then n / 10 else n in
              for k = 1 to count do
                ix.Spp_indices.Indices.insert ~key:k ~value:k
              done;
              for k = 1 to count / 2 do
                ignore (ix.Spp_indices.Indices.remove k)
              done)
          in
          Printf.printf "pmemcheck %-6s %-12s %s [%s]\n" mode_name index_name
            (Format.asprintf "%a" Spp_pmemcheck.Pmemcheck.pp_report report)
            (if Spp_pmemcheck.Pmemcheck.is_clean report then "CLEAN"
             else "VIOLATIONS"))
        [ "ctree"; "rbtree"; "hashmap_tx" ])
    [ ("pmdk", Spp_access.Pmdk); ("spp", Spp_access.Spp) ];
  (* pmreorder over transactional index updates *)
  let a =
    Spp_access.create ~pool_size:(1 lsl 20) ~name:"reorder" Spp_access.Spp
  in
  let t = Spp_indices.Hashmap_tx.create a in
  Spp_indices.Hashmap_tx.insert t ~key:1 ~value:10;
  let map_off = (Spp_indices.Hashmap_tx.map_oid_of t).Oid.off in
  let result =
    Spp_pmemcheck.Pmreorder.explore ~pool:a.Spp_access.pool
      ~workload:(fun () ->
        Spp_indices.Hashmap_tx.insert t ~key:2 ~value:20;
        ignore (Spp_indices.Hashmap_tx.remove t 1))
      ~consistent:(hashmap_consistent ~map_off)
      ()
  in
  Printf.printf "pmreorder  spp    hashmap_tx   %s [%s]\n"
    (Format.asprintf "%a" Spp_pmemcheck.Pmreorder.pp_result result)
    (if result.Spp_pmemcheck.Pmreorder.failures = 0 then "CLEAN"
     else "VIOLATIONS")

(* ------------------------------------------------------------------ *)
(* Access amplification (ours): timing-free overhead evidence          *)
(* ------------------------------------------------------------------ *)

(* Counts, not clocks: how many PM loads/stores each variant issues for
   the same workload. Immune to scheduler noise, and it shows the
   mechanism directly: SafePM adds shadow loads on every access, SPP
   adds none (its checks are register arithmetic). *)
let counters () =
  print_title "Access amplification per variant (counts, not time)";
  let workload_ops = sc 5_000 in
  Printf.printf "(ctree: %d inserts + %d gets)
" workload_ops workload_ops;
  print_row ~w:16 [ "variant"; "pm loads"; "pm stores"; "hook calls" ];
  let baseline_loads = ref 0 in
  List.iter
    (fun v ->
      let a =
        Spp_access.create ~pool_size:(1 lsl 26)
          ~name:(Spp_access.variant_name v) v
      in
      let ix = Spp_indices.Indices.create "ctree" a in
      Spp_sim.Space.reset_stats a.Spp_access.space;
      Spp_core.Runtime.reset_counters ();
      for k = 1 to workload_ops do
        ix.Spp_indices.Indices.insert ~key:k ~value:k
      done;
      for k = 1 to workload_ops do
        ignore (ix.Spp_indices.Indices.get k)
      done;
      let st = Spp_sim.Space.stats a.Spp_access.space in
      let hooks =
        let c = Spp_core.Runtime.counters in
        c.Spp_core.Runtime.updatetag + c.Spp_core.Runtime.cleantag
        + c.Spp_core.Runtime.checkbound + c.Spp_core.Runtime.memintr_check
      in
      if v = Spp_access.Pmdk then baseline_loads := st.Spp_sim.Space.pm_loads;
      print_row ~w:16
        [ Spp_access.variant_name v;
          Printf.sprintf "%d (%.2fx)" st.Spp_sim.Space.pm_loads
            (float_of_int st.Spp_sim.Space.pm_loads
             /. float_of_int (max 1 !baseline_loads));
          string_of_int st.Spp_sim.Space.pm_stores;
          string_of_int hooks ])
    fig4_variants

(* ------------------------------------------------------------------ *)
(* Ablation: the compiler optimizations (ours)                         *)
(* ------------------------------------------------------------------ *)

let ablation () =
  print_title "Ablation: SPP compiler optimizations (miniature IR)";
  let open Spp_instr.Ir in
  let count = sc 20_000 in
  let prog =
    {
      main = "main";
      funcs =
        [
          {
            fname = "main";
            params = [];
            nregs = 16;
            body =
              [
                Pm_alloc { obj = 0; size = 8 * (count + 1) };
                Pm_direct { dst = 0; obj = 0 };
                Const { dst = 1; value = 7 };
                Gep { dst = 0; src = 0; off = -8 };
                Loop
                  {
                    count;
                    body =
                      [
                        Gep { dst = 0; src = 0; off = 8 };
                        Store { ptr = 0; value = 1; width = 8 };
                      ];
                  };
                (* volatile traffic that tracking should deinstrument *)
                Vheap_alloc { dst = 2; size = 4096 };
                Loop
                  {
                    count = count / 4;
                    body =
                      [
                        Store { ptr = 2; value = 1; width = 8 };
                        Load { dst = 3; ptr = 2; width = 8 };
                      ];
                  };
              ];
          };
        ];
    }
  in
  print_row ~w:28 [ "configuration"; "hook execs"; "time" ];
  List.iter
    (fun (name, options) ->
      let p, _ = Spp_instr.Passes.compile ~options prog in
      let m = Spp_instr.Interp.make_machine ~pool_size:(1 lsl 22) () in
      let t, () = time (fun () -> Spp_instr.Interp.run_program m p) in
      print_row ~w:28
        [ name; string_of_int m.Spp_instr.Interp.hook_execs; fmt_ms t ])
    [
      ("no optimizations",
       { Spp_instr.Passes.tracking = false; preemption = false });
      ("+ pointer tracking",
       { Spp_instr.Passes.tracking = true; preemption = false });
      ("+ bound-check preemption", Spp_instr.Passes.default_options);
    ]

(* ------------------------------------------------------------------ *)
(* Hook micro-costs via Bechamel                                       *)
(* ------------------------------------------------------------------ *)

let hook_microbench () =
  print_title "SPP hook micro-costs (Bechamel, ns/op)";
  let open Bechamel in
  let cfg = Spp_core.Config.default in
  let ptr = Spp_core.Encoding.mk_tagged cfg ~addr:0x1000 ~size:4096 in
  let tests =
    Test.make_grouped ~name:"hooks"
      [
        Test.make ~name:"updatetag"
          (Staged.stage (fun () -> Spp_core.Encoding.update_tag cfg ptr 8));
        Test.make ~name:"cleantag"
          (Staged.stage (fun () -> Spp_core.Encoding.clean_tag cfg ptr));
        Test.make ~name:"checkbound"
          (Staged.stage (fun () -> Spp_core.Encoding.check_bound cfg ptr 8));
        Test.make ~name:"gep"
          (Staged.stage (fun () -> Spp_core.Encoding.gep cfg ptr 8));
        Test.make ~name:"native add (baseline)"
          (Staged.stage (fun () -> Sys.opaque_identity (ptr + 8)));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let bcfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all bcfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Printf.printf "%-32s %8.2f ns/op\n" name est
      | Some _ | None -> Printf.printf "%-32s (no estimate)\n" name)
    results
