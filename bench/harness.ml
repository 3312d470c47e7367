(* Plumbing every experiment shares: the command line, JSON records,
   latency emission and the correctness gate. *)

open Spp_benchlib

(* Flags: --quick divides workload sizes by 10; --json FILE dumps every
   record as schema "spp-bench/1" (EXPERIMENTS.md, "Benchmark
   methodology"); --domains N caps the shard/domain counts of the
   serving experiments. Everything else names an experiment. *)
let quick, json_file, domains_cap, requested =
  let rec go (q, j, d, names) = function
    | [] -> (q, j, d, List.rev names)
    | "--quick" :: rest -> go (true, j, d, names) rest
    | "--json" :: path :: rest -> go (q, Some path, d, names) rest
    | "--domains" :: n :: rest -> go (q, j, int_of_string_opt n, names) rest
    | a :: rest -> go (q, j, d, a :: names) rest
  in
  go (false, None, None, []) (List.tl (Array.to_list Sys.argv))

let sc n = if quick then max 1 (n / 10) else n

(* The counts of [all] that fit under --domains. *)
let capped all =
  match domains_cap with
  | None -> all
  | Some cap -> List.filter (fun d -> d <= max 1 cap) all

let jout = Json_out.create ()

let jemit ~experiment ~name ~metric ?unit_ ?extra v =
  Json_out.emit jout ~experiment ~name ~metric ?unit_ ?extra v

let us h p = float_of_int (Histogram.percentile h p) /. 1e3

(* One [latency_us] record per percentile [p], named [nm "p<p>"]. *)
let emit_percentiles ~experiment ~nm ?(extra = fun _ -> []) h ps =
  List.iter
    (fun p ->
      jemit ~experiment ~name:(nm (Printf.sprintf "p%g" p)) ~metric:"latency_us"
        ~unit_:"us" ~extra:(extra p) (us h p))
    ps

let failed = ref []

(* A correctness check that emits no record of its own. *)
let check ~name ok = failed := Spp_shard.Shard_bench.record_gate !failed ~name ok

(* A correctness gate: prints [what: pass] (or the failure), emits the
   [identical] record, and makes the run exit 1 once the JSON is
   written. *)
let gate ~experiment ~name ?extra ~what ~pass
    ?(fail = "DIVERGENCE — results invalid") ok =
  Printf.printf "%s: %s\n" what (if ok then pass else "!! " ^ fail);
  jemit ~experiment ~name ~metric:"identical" ?extra (if ok then 1. else 0.);
  check ~name:(experiment ^ "/" ^ name) ok

(* Write the JSON (if asked for) and exit non-zero if any gate failed. *)
let finish () =
  Option.iter
    (fun path ->
      Json_out.write jout
        ~meta:
          [ ("generator", Json_out.J_string "bench/main.exe");
            ("quick", Json_out.J_bool quick) ]
        path;
      Printf.printf "wrote %s\n%!" path)
    json_file;
  if !failed <> [] then
    Printf.printf "!! correctness gate(s) failed: %s\n%!"
      (String.concat ", " !failed);
  exit (Spp_shard.Shard_bench.exit_status !failed)
