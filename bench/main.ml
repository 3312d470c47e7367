(* Benchmark driver: regenerates every table and figure of the paper's
   evaluation (§VI, bench/paper.ml) and the serving-stack experiments
   (bench/serving.ml). Run all experiments with `dune exec
   bench/main.exe` or a subset by name, e.g. `dune exec bench/main.exe
   -- fig4 table4`. Flags (bench/harness.ml): `--quick` divides workload
   sizes by 10, `--json FILE` writes every record, `--domains N` caps
   the serving experiments' shard counts. The run exits 1 if any
   correctness gate failed, after the JSON is written. *)

let experiments =
  [
    ("fig4", Paper.fig4);
    ("fig5", Paper.fig5);
    ("fig6", Paper.fig6);
    ("fig7", Paper.fig7);
    ("table2", Paper.table2);
    ("table3", Paper.table3);
    ("table4", Paper.table4);
    ("bugs", Paper.bugs);
    ("crashcheck", Paper.crashcheck);
    ("counters", Paper.counters);
    ("ablation", Paper.ablation);
    ("hooks", Paper.hook_microbench);
    ("pipeline", Serving.pipeline);
    ("scaleout", Serving.scaleout);
    ("serve", Serving.serve);
    ("cache", Serving.cache);
    ("failover", Serving.failover);
    ("scan", Serving.scan_bench);
    ("reshard", Serving.reshard);
    ("net", Serving.net);
  ]

let () =
  let to_run =
    if Harness.requested = [] then experiments
    else
      List.map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> (name, f)
          | None ->
            Printf.eprintf "unknown experiment %s; available: %s\n" name
              (String.concat ", " (List.map fst experiments));
            exit 1)
        Harness.requested
  in
  Printf.printf "SPP reproduction benchmarks%s\n"
    (if Harness.quick then " (quick mode)" else "");
  List.iter
    (fun (name, f) ->
      (* return freed pool buffers to the OS between experiments so a
         later experiment's timings never pay for an earlier one's heap *)
      Gc.compact ();
      let t, () = Spp_benchlib.Bench_util.time f in
      Harness.jemit ~experiment:name ~name:"total" ~metric:"wall_s" ~unit_:"s" t;
      Printf.printf "[%s finished in %.1f s]\n%!" name t)
    to_run;
  Harness.finish ()
