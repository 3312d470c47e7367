(* Serving-stack benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 runs the end-to-end run (see [E2e]) and reports the
   end-to-end metrics; --trace 1 runs it too, for the layer counters,
   then the traced per-layer ladder (see [Ladder]) and reports the
   per-layer metrics. Every metric is printed by name with its unit,
   then a pass/fail line for the output checks, then — as the last
   line — one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

   Out of scope: replication, slot migration and rebalancing are not on
   the request path being measured; more than one client connection
   waits until [Net_server] stops spawning two domains per connection. *)

open Sppbench

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  prerr_endline
    ("workloads: "
    ^ String.concat ", " (List.map (fun s -> s.Workload.name) Workload.all));
  exit 2

(* The commit of the checkout, read from .git when there is one. *)
let git_commit () =
  let read f =
    try
      let ic = open_in f in
      let l = input_line ic in
      close_in ic;
      Some (String.trim l)
    with _ -> None
  in
  match read ".git/HEAD" with
  | Some h when String.length h > 5 && String.sub h 0 5 = "ref: " ->
    let r = String.sub h 5 (String.length h - 5) in
    Option.value ~default:"unknown" (read (Filename.concat ".git" r))
  | Some h -> h
  | None -> "unknown"

let nproc () =
  try
    let ic = Unix.open_process_args_in "nproc" [| "nproc" |] in
    let n = int_of_string_opt (String.trim (input_line ic)) in
    ignore (Unix.close_process_in ic);
    Option.value ~default:(-1) n
  with _ -> -1

(* Domains the configuration under test runs: the shard workers, the
   acceptor, a reader and a writer per server connection, the client's
   reader and the main domain. *)
let domains_under_test = Workload.nshards + 1 + 2 + 1 + 1

let json_string s = Printf.sprintf "%S" s

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let host_json ~s ~seed ~seconds ~trace =
  Printf.sprintf
    "{\"nproc\": %d, \"recommended_domain_count\": %d, \"ocaml\": %s, \
     \"commit\": %s, \"workload\": %s, \"seed\": %d, \"seconds\": %d, \
     \"trace\": %d, \"domains_under_test\": %d}"
    (nproc ()) (Domain.recommended_domain_count ())
    (json_string Sys.ocaml_version) (json_string (git_commit ()))
    (json_string s.Workload.name) seed seconds trace domains_under_test

let e2e_metrics (r : E2e.result) =
  let open Stats in
  [
    ("throughput_ops_s", r.throughput, "ops/s");
    ("p50_us", median r.closed, "us");
    ("read_p50_us", median r.reads, "us");
    ("write_p50_us", median r.writes, "us");
    ("open_p50_us", median r.opened, "us");
    ("setup_s", r.setup_s, "s");
    ("heap_mb", r.heap_mb, "MB");
  ]

let layer_metrics (r : E2e.result) ~stale ladder =
  r.counters @ ladder
  @ [
      (* tails too unsteady between runs on a shared 2-core host to gate
         on; reported here, unresolved *)
      ("p99_us", Stats.pct r.closed 99., "us");
      ("open_p99_us", Stats.pct_all r.opened 99., "us");
      ("stale_reads", float_of_int stale, "count");
      ("loadgen.send_lag_p99_us", Stats.pct r.lag 99., "us");
      ("samples.closed", float_of_int (Stats.count r.closed), "count");
      ("samples.open", float_of_int (Stats.count r.opened), "count");
    ]

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0
  and trace = ref (-1) in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated op streams");
      ("--seconds", Arg.Set_int seconds, "S measured time budget");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics") ]
  in
  (try Arg.parse_argv Sys.argv spec (fun _ -> raise (Arg.Bad "")) ""
   with Arg.Bad _ | Arg.Help _ -> usage ());
  let s =
    match Workload.find !workload with Some s -> s | None -> usage ()
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  Printf.printf "# sppbench %s seed=%d seconds=%d trace=%d\n# why: %s\n"
    s.name !seed !seconds !trace s.why;
  Printf.printf "# host %s\n%!"
    (host_json ~s ~seed:!seed ~seconds:!seconds ~trace:!trace);
  let tally = Check.tally () in
  let r = E2e.run s ~seed:!seed ~seconds:!seconds tally in
  let stale = tally.Check.stale in
  Printf.printf "# closed latency us: %s\n" (Stats.describe r.closed);
  Printf.printf "# closed read latency us: %s\n" (Stats.describe r.reads);
  Printf.printf "# closed write latency us: %s\n" (Stats.describe r.writes);
  Printf.printf "# open latency us (from intended send): %s\n"
    (Stats.describe r.opened);
  Printf.printf "# open sender lag us: %s\n" (Stats.describe r.lag);
  Printf.printf "# restart check: %d keys reopened from durable bytes\n"
    r.restart_keys;
  let metrics =
    if !trace = 0 then e2e_metrics r
    else layer_metrics r ~stale (Ladder.run s ~seed:!seed tally)
  in
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-32s %14.4f %s\n" name v unit)
    metrics;
  List.iter print_endline (List.rev tally.stale_notes);
  List.iter (fun n -> print_endline ("error " ^ n)) (List.rev tally.error_notes);
  let correct = tally.failed = 0 in
  Printf.printf
    "checks: %s (%d ops checked, %d failed, error_rate %.6f, %d stale reads \
     [known Serve cache-fill race], %d keys checked after restart)\n"
    (if correct then "PASS" else "FAIL")
    tally.attempted tally.failed
    (float_of_int tally.failed /. float_of_int (max 1 tally.attempted))
    stale r.restart_keys;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct tally.attempted tally.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
              (num v) (json_string unit))
          metrics))
