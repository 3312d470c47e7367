(* Tests for the domain-parallel sharded serving path and the benchlib
   generators feeding it: Zipfian determinism/range/skew, router
   consistency, routed-operation correctness against an oracle, and the
   parallel-vs-sequential differential on a fixed seed. *)

open Spp_benchlib
open Spp_shard

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Keygen ----------------------------------------------------------- *)

let draws gen n = Array.init n (fun _ -> Keygen.next gen)

let test_zipfian_deterministic () =
  let mk () = Keygen.zipfian ~theta:0.99 ~seed:7 ~universe:1000 () in
  check_bool "same seed, same stream" true
    (draws (mk ()) 2000 = draws (mk ()) 2000);
  let other = Keygen.zipfian ~theta:0.99 ~seed:8 ~universe:1000 () in
  check_bool "different seed, different stream" false
    (draws (mk ()) 2000 = draws other 2000)

let test_zipfian_range () =
  List.iter
    (fun (theta, universe) ->
      let gen = Keygen.zipfian ~theta ~seed:3 ~universe () in
      Array.iter
        (fun v ->
          check_bool
            (Printf.sprintf "0 <= %d < %d (theta %.2f)" v universe theta)
            true
            (v >= 0 && v < universe))
        (draws gen 5000))
    [ (0.5, 10); (0.99, 1); (0.99, 1000); (0.8, 65536) ]

(* theta = 0.99 over 10k keys: the hottest 1% must carry at least 35% of
   the draws (the analytic head mass is ~0.5; the bar leaves sampling
   slack). Uniform over the same universe sits at ~1%, so the test also
   separates the two generators. *)
let required_head_mass = 0.35

let test_zipfian_skew () =
  let universe = 10_000 in
  let zipf = Keygen.zipfian ~theta:0.99 ~seed:11 ~universe () in
  let mass = Keygen.head_mass zipf ~samples:50_000 ~hot_fraction:0.01 in
  check_bool
    (Printf.sprintf "hottest 1%% carries %.3f >= %.2f" mass required_head_mass)
    true
    (mass >= required_head_mass);
  let uni = Keygen.uniform ~seed:11 ~universe in
  let umass = Keygen.head_mass uni ~samples:50_000 ~hot_fraction:0.01 in
  check_bool (Printf.sprintf "uniform head mass %.4f < 0.05" umass) true
    (umass < 0.05)

let test_uniform_deterministic_range () =
  let mk () = Keygen.uniform ~seed:5 ~universe:333 in
  let a = draws (mk ()) 3000 in
  check_bool "deterministic" true (a = draws (mk ()) 3000);
  Array.iter (fun v -> check_bool "in range" true (v >= 0 && v < 333)) a

(* Rotating hotspot: deterministic under the seed like the others, stays
   in range, and the hot region actually moves — the modal key of one
   epoch's draws must differ from the next epoch's. *)
let test_rotating_deterministic_moves () =
  let universe = 1000 and period = 500 in
  let mk seed = Keygen.rotating ~theta:0.99 ~seed ~universe ~period () in
  let a = draws (mk 7) 3000 in
  check_bool "same seed, same stream" true (a = draws (mk 7) 3000);
  check_bool "different seed, different stream" false (a = draws (mk 8) 3000);
  Array.iter
    (fun v -> check_bool "in range" true (v >= 0 && v < universe))
    a;
  let modal lo hi =
    let counts = Hashtbl.create 64 in
    for i = lo to hi - 1 do
      Hashtbl.replace counts a.(i)
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts a.(i)))
    done;
    Hashtbl.fold
      (fun k n (bk, bn) -> if n > bn then (k, n) else (bk, bn))
      counts (-1, 0)
  in
  let (m0, n0) = modal 0 period and (m1, n1) = modal period (2 * period) in
  check_bool "epochs are skewed" true (n0 > period / 10 && n1 > period / 10);
  check_bool
    (Printf.sprintf "hot key moved across epochs (%d vs %d)" m0 m1)
    true (m0 <> m1)

(* --- Router ----------------------------------------------------------- *)

let test_router_consistency () =
  let nshards = 4 in
  let seen = Array.make nshards 0 in
  for i = 0 to 999 do
    let key = Spp_pmemkv.Db_bench.key_of_int i in
    let s = Shard.shard_of_key ~nshards key in
    check_bool "in [0, nshards)" true (s >= 0 && s < nshards);
    (* stable across calls *)
    check_int "stable" s (Shard.shard_of_key ~nshards key);
    seen.(s) <- seen.(s) + 1
  done;
  Array.iteri
    (fun i n ->
      check_bool (Printf.sprintf "shard %d serves some keys" i) true (n > 0))
    seen;
  (* routing through a store instance agrees with the pure function *)
  let t = Shard.create ~nbuckets:16 ~pool_size:(1 lsl 20) ~nshards
      Spp_access.Pmdk in
  for i = 0 to 99 do
    let key = Spp_pmemkv.Db_bench.key_of_int i in
    check_int "instance route = pure route"
      (Shard.shard_of_key ~nshards key)
      (Shard.route t key)
  done

let test_routed_ops_oracle () =
  let t = Shard.create ~nbuckets:32 ~pool_size:(1 lsl 21) ~nshards:3
      Spp_access.Spp in
  let model = Hashtbl.create 64 in
  let st = Random.State.make [| 23 |] in
  for _ = 1 to 1500 do
    let key = Printf.sprintf "key-%d" (Random.State.int st 150) in
    match Random.State.int st 3 with
    | 0 ->
      let value = Printf.sprintf "val-%d" (Random.State.int st 10_000) in
      Shard.put t ~key ~value;
      Hashtbl.replace model key value
    | 1 ->
      check_bool "remove agrees" (Hashtbl.mem model key) (Shard.remove t key);
      Hashtbl.remove model key
    | _ ->
      Alcotest.(check (option string))
        "get agrees" (Hashtbl.find_opt model key) (Shard.get t key)
  done;
  check_int "count" (Hashtbl.length model) (Shard.count_all t)

(* --- Slot map ---------------------------------------------------------- *)

(* The versioned slot table: key->slot hashing is pure and stable, the
   fresh table reproduces the static modulo router, reassignment bumps
   the version and is visible through every accessor, and the store scan
   ownership-filters so a reassigned slot is served exactly once. *)
let test_slot_map () =
  let nslots = Shard.default_nslots in
  for i = 0 to 499 do
    let key = Spp_pmemkv.Db_bench.key_of_int i in
    let s = Shard.slot_of_key ~nslots key in
    check_bool "slot in range" true (s >= 0 && s < nslots);
    check_int "slot hashing stable" s (Shard.slot_of_key ~nslots key)
  done;
  let nshards = 4 in
  let t = Shard.create ~nbuckets:16 ~pool_size:(1 lsl 21) ~nshards
      Spp_access.Spp in
  check_int "default slot count" nslots (Shard.nslots t);
  let v0 = Shard.table_version t in
  for i = 0 to 199 do
    let key = Spp_pmemkv.Db_bench.key_of_int i in
    check_int "fresh table = static modulo router"
      (Shard.shard_of_key ~nshards key) (Shard.route t key);
    check_int "route = owner of slot"
      (Shard.owner t (Shard.slot_of t key)) (Shard.route t key)
  done;
  let counts = Array.init nshards (fun i -> Shard.owned_slots t i) in
  check_int "slots partitioned" nslots (Array.fold_left ( + ) 0 counts);
  (* pick a real key, move its slot, and watch everything update *)
  let key = Spp_pmemkv.Db_bench.key_of_int 0 in
  Shard.put t ~key ~value:"v0";
  let slot = Shard.slot_of t key in
  let src = Shard.route t key in
  let dst = (src + 1) mod nshards in
  Shard.set_slot_owner t ~slot ~shard:dst;
  check_bool "version bumped" true (Shard.table_version t > v0);
  check_int "route follows the table" dst (Shard.route t key);
  check_int "owner agrees" dst (Shard.owner t slot);
  check_int "owned_slots src shrank" (counts.(src) - 1)
    (Shard.owned_slots t src);
  check_int "owned_slots dst grew" (counts.(dst) + 1)
    (Shard.owned_slots t dst);
  check_bool "slots_of_shard dst lists the slot" true
    (List.mem slot (Shard.slots_of_shard t dst));
  check_bool "slots_of_shard src dropped it" false
    (List.mem slot (Shard.slots_of_shard t src));
  (* the assignment snapshot is a copy — mutating it must not route *)
  let a = Shard.assignment t in
  a.(slot) <- src;
  check_int "assignment returns a copy" dst (Shard.route t key);
  (* ownership filter: the key's value lives only on src's engine (we
     reassigned without copying), so a store scan must not serve it —
     the slot's owner is dst and dst has no copy *)
  let window = Shard.scan t ~lo:key ~hi:key ~limit:10 in
  check_int "reassigned slot not served from old owner" 0
    (List.length window);
  Shard.set_slot_owner t ~slot ~shard:src;
  Alcotest.(check (list (pair string string)))
    "restored owner serves it again" [ (key, "v0") ]
    (Shard.scan t ~lo:key ~hi:key ~limit:10);
  check_bool "invalid slot rejected" true
    (try ignore (Shard.set_slot_owner t ~slot:nslots ~shard:0); false
     with Invalid_argument _ -> true);
  check_bool "invalid shard rejected" true
    (try ignore (Shard.set_slot_owner t ~slot:0 ~shard:nshards); false
     with Invalid_argument _ -> true)

(* --- Parallel-vs-sequential differential ------------------------------ *)

let build_store ?engine nshards =
  let t = Shard.create ~nbuckets:64 ~pool_size:(1 lsl 21) ?engine ~nshards
      Spp_access.Spp in
  Shard_bench.preload t ~keys:300;
  Shard.reset_stats t;
  t

(* The parallel = sequential differential over both engines, with range
   scans mixed into the streams: per-shard signatures (including every
   individual scan-reply digest), merged Space stats and merged Memdev
   counters must all be bit-identical. *)
let test_parallel_sequential_differential () =
  List.iter
    (fun (engine, dist, workload) ->
      let nshards = 4 in
      let ops =
        Shard_bench.gen_ops ~scan_pct:10 ~seed:99 ~ops:2_000 ~universe:300
          ~dist workload
      in
      let streams = Shard_bench.partition ~nshards ops in
      check_int "partition preserves every op" 2_000
        (Array.fold_left (fun a s -> a + Array.length s) 0 streams);
      let t_seq = build_store ~engine nshards
      and t_par = build_store ~engine nshards in
      let rs = Shard_bench.run t_seq ~mode:Shard_bench.Sequential streams in
      let rp = Shard_bench.run t_par ~mode:Shard_bench.Parallel streams in
      check_bool
        (Spp_pmemkv.Engine.spec_name engine
         ^ ": per-shard results bit-identical")
        true
        (Shard_bench.results_agree rs rp);
      check_bool "some scans actually ran" true
        (Array.exists (fun sr -> sr.Shard_bench.sr_scans > 0) rs.Shard_bench.r_shards);
      check_bool "merged Space stats identical" true
        (Shard.merged_stats t_seq = Shard.merged_stats t_par);
      check_bool "merged Memdev counters identical" true
        (Shard.merged_counters t_seq = Shard.merged_counters t_par);
      check_int "same surviving entries" (Shard.count_all t_seq)
        (Shard.count_all t_par);
      check_int "all ops executed" 2_000 rs.Shard_bench.r_total_ops)
    [ (Spp_pmemkv.Engines.cmap, Shard_bench.Uniform,
       Spp_pmemkv.Db_bench.Update_heavy);
      (Spp_pmemkv.Engines.cmap, Shard_bench.Zipfian 0.99,
       Spp_pmemkv.Db_bench.Read_heavy);
      (Spp_pmemkv.Engines.btree, Shard_bench.Uniform,
       Spp_pmemkv.Db_bench.Update_heavy);
      (Spp_pmemkv.Engines.btree, Shard_bench.Zipfian 0.99,
       Spp_pmemkv.Db_bench.Read_heavy) ]

(* Scatter-gather scans through the store facade: per-shard slices must
   merge into one globally ordered, limit-clipped window, identically on
   the hash engine (sorting bucket walks) and the B-tree (native
   in-order traversal). *)
let test_store_scan_scatter_gather () =
  List.iter
    (fun engine ->
      let nshards = 3 in
      let t = Shard.create ~nbuckets:32 ~pool_size:(1 lsl 21) ~engine
          ~nshards Spp_access.Spp in
      for i = 0 to 199 do
        Shard.put t ~key:(Spp_pmemkv.Db_bench.key_of_int i)
          ~value:(Printf.sprintf "v%03d" i)
      done;
      let lo = Spp_pmemkv.Db_bench.key_of_int 20
      and hi = Spp_pmemkv.Db_bench.key_of_int 119 in
      let got = Shard.scan t ~lo ~hi ~limit:1000 in
      let expect =
        List.init 100 (fun i ->
          (Spp_pmemkv.Db_bench.key_of_int (20 + i),
           Printf.sprintf "v%03d" (20 + i)))
      in
      Alcotest.(check (list (pair string string)))
        (Spp_pmemkv.Engine.spec_name engine ^ ": merged window ordered")
        expect got;
      Alcotest.(check (list (pair string string)))
        (Spp_pmemkv.Engine.spec_name engine ^ ": limit clips globally")
        (List.filteri (fun i _ -> i < 7) expect)
        (Shard.scan t ~lo ~hi ~limit:7);
      check_int "empty window" 0
        (List.length
           (Shard.scan t ~lo:"zzz" ~hi:"zzzz" ~limit:10)))
    [ Spp_pmemkv.Engines.cmap; Spp_pmemkv.Engines.btree ]

(* A second run over the same parallel store must also be deterministic:
   shard state after run 1 is a pure function of the stream. *)
let test_parallel_rerun_deterministic () =
  let nshards = 2 in
  let ops =
    Shard_bench.gen_ops ~seed:5 ~ops:1_000 ~universe:300
      ~dist:Shard_bench.Uniform Spp_pmemkv.Db_bench.Update_heavy
  in
  let streams = Shard_bench.partition ~nshards ops in
  let t1 = build_store nshards and t2 = build_store nshards in
  let a1 = Shard_bench.run t1 ~mode:Shard_bench.Parallel streams in
  let a2 = Shard_bench.run t2 ~mode:Shard_bench.Parallel streams in
  check_bool "independent parallel runs agree" true
    (Shard_bench.results_agree a1 a2);
  let b1 = Shard_bench.run t1 ~mode:Shard_bench.Parallel streams in
  let b2 = Shard_bench.run t2 ~mode:Shard_bench.Parallel streams in
  check_bool "second round agrees too" true (Shard_bench.results_agree b1 b2)

(* --- Bench harness helpers -------------------------------------------- *)

let mixed_requests n =
  let st = Random.State.make [| 0x9A27 |] in
  Array.init n (fun i ->
    let key = Spp_pmemkv.Db_bench.key_of_int (Random.State.int st 40) in
    match i mod 3 with
    | 0 -> Serve.Put { key; value = Printf.sprintf "v%04d" i }
    | 1 -> Serve.Get key
    | _ -> Serve.Remove key)

(* Partition a mixed put/get/remove stream, then reassemble: each shard
   stream keeps program order, and the per-shard replies of a 3-shard
   store come back in send order — equal to a 1-shard store's replies
   to the same stream. *)
let test_partition_reassemble () =
  let reqs = mixed_requests 600 in
  let key = Serve.request_key and nshards = 3 in
  let streams = Shard_bench.partition_by ~key ~nshards reqs in
  Array.iteri
    (fun s stream ->
      Array.iter
        (fun r ->
          check_int "request on its key's shard" s
            (Shard.shard_of_key ~nshards (key r)))
        stream)
    streams;
  check_bool "reassembling the streams themselves restores send order" true
    (Shard_bench.reassemble ~key ~nshards reqs streams = reqs);
  let replies n =
    let t = Shard_bench.stack ~pool_size:(1 lsl 21) ~keys:20 n in
    Serve.run_sequential t ~batch_cap:8 (Shard_bench.partition_by ~key ~nshards:n reqs)
  in
  let sharded = Shard_bench.reassemble ~key ~nshards reqs (replies nshards) in
  check_int "sharded replies in send order = one-shard replies"
    (Serve.digest_replies (replies 1).(0)) (Serve.digest_replies sharded)

(* The window never holds more than [cap] tickets, and draining awaits
   every ticket once, in submission order. *)
let test_window_bound () =
  let outstanding = ref 0 and peak = ref 0 and awaited = ref [] in
  let w =
    Shard_bench.window ~cap:4
      ~submit:(fun x ->
        incr outstanding;
        peak := max !peak !outstanding;
        x)
      ~await:(fun x ->
        decr outstanding;
        awaited := x :: !awaited)
  in
  for i = 0 to 99 do
    Shard_bench.push w i;
    check_bool "at most 4 outstanding" true (!outstanding <= 4)
  done;
  Shard_bench.drain w;
  check_int "window filled to its cap" 4 !peak;
  check_int "nothing left outstanding" 0 !outstanding;
  Alcotest.(check (list int)) "every ticket awaited once, in order"
    (List.init 100 Fun.id) (List.rev !awaited);
  (* the Serve instance: a [lo, hi) slice through window 8 executes
     exactly that slice *)
  let t = Shard_bench.stack ~pool_size:(1 lsl 21) 2 in
  let sv = Serve.create t in
  Shard_bench.drive sv ~window:8 ~lo:10 ~hi:90 (mixed_requests 100);
  Serve.stop sv;
  check_int "every driven request executed" 80
    (Array.fold_left (fun a s -> a + s.Serve.ss_ops) 0 (Serve.stats sv))

(* Gate accounting: a failed gate is recorded by name, a later pass does
   not clear it, and any failure makes the exit status non-zero. *)
let test_gate_accounting () =
  let ok = Shard_bench.record_gate [] ~name:"serve/differential" true in
  check_int "all passed: exit 0" 0 (Shard_bench.exit_status ok);
  let failed = Shard_bench.record_gate ok ~name:"net/differential/cmap" false in
  let failed = Shard_bench.record_gate failed ~name:"cache/differential" true in
  Alcotest.(check (list string)) "failure recorded" [ "net/differential/cmap" ]
    failed;
  check_int "a failure exits 1" 1 (Shard_bench.exit_status failed)

let () =
  Alcotest.run "spp_shard"
    [
      ( "keygen",
        [
          Alcotest.test_case "zipfian deterministic per seed" `Quick
            test_zipfian_deterministic;
          Alcotest.test_case "zipfian stays in range" `Quick test_zipfian_range;
          Alcotest.test_case "zipfian skew (theta 0.99)" `Quick
            test_zipfian_skew;
          Alcotest.test_case "uniform deterministic + range" `Quick
            test_uniform_deterministic_range;
          Alcotest.test_case "rotating hotspot deterministic + moves" `Quick
            test_rotating_deterministic_moves;
        ] );
      ( "router",
        [
          Alcotest.test_case "consistent stable routing" `Quick
            test_router_consistency;
          Alcotest.test_case "routed ops vs oracle" `Quick
            test_routed_ops_oracle;
          Alcotest.test_case "slot map versioned reassignment" `Quick
            test_slot_map;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "store scan scatter-gather (both engines)"
            `Quick test_store_scan_scatter_gather;
          Alcotest.test_case "parallel = sequential (fixed seed)" `Quick
            test_parallel_sequential_differential;
          Alcotest.test_case "parallel reruns deterministic" `Quick
            test_parallel_rerun_deterministic;
        ] );
      ( "harness",
        [
          Alcotest.test_case "partition then reassemble keeps send order"
            `Quick test_partition_reassemble;
          Alcotest.test_case "window bounds outstanding tickets" `Quick
            test_window_bound;
          Alcotest.test_case "failed gate exits non-zero" `Quick
            test_gate_accounting;
        ] );
    ]
