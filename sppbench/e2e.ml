(* The end-to-end run: one client connection over a Unix-domain socket
   into [Net_server] over [Serve] over a 2-shard store.

   A run is [rounds] rounds, each on a fresh stack, so that how the
   host happens to schedule one stack's seven domains does not decide
   the run. Each round goes through, in order:

   1. Setup (timed; setup_s is the median over the rounds): build and
      preload the store, start [Serve] and the server, connect, and warm
      up with read-only traffic.
   2. Closed phase: a window of 32 requests (= batch_cap) in flight for
      a fixed op count.
   3. Open phase: requests sent at the workload's fixed absolute rate,
      each timed from its intended send time; the sender's lateness is
      recorded.
   4. Stop, read the public counters (last round), and restart every
      shard from its durable bytes to check it against the model.

   Op streams and expected replies are generated before any timing;
   every reply is checked as it is collected. See [Stats] for how a
   round's samples become one figure. *)

open Spp_shard
open Spp_net
module Histogram = Spp_benchlib.Histogram

let now = Spp_benchlib.Bench_util.now_mono

let rounds = 5
let open_share = 0.5     (* of --seconds, for the open phase *)
let spin = 60e-6         (* covers nanosleep's default 50 µs timer slack *)

(* Sockets live under the working directory; relative paths keep them
   short whatever the checkout's depth. *)
let run_dir = ".sppbench"

let sock_addr tag =
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  Unix.ADDR_UNIX
    (Filename.concat run_dir (Printf.sprintf "%s-%d.sock" tag (Unix.getpid ())))

type live = {
  store : Shard.t;
  serve : Serve.t;
  server : Net_server.t;
  client : Net_client.t;
}

let start s keys ~tag =
  let store = Stack.store s keys in
  let serve = Serve.create ~batch_cap:Workload.batch_cap store in
  let addr = sock_addr tag in
  let server = Net_server.create serve addr in
  { store; serve; server; client = Net_client.connect addr }

let stop l =
  Net_client.close l.client;
  Net_server.stop l.server;
  Serve.stop l.serve

(* Keep [window] requests in flight, awaiting the oldest before each
   send; [on_reply i r] checks each reply as it is collected. Latency
   (µs) runs from the send to the reader's decode stamp, so a reply
   collected late is still timed when it arrived. Also returns the send
   times and the time the last reply was collected. *)
let closed (s : Workload.spec) keys client b ~window ~on_reply =
  let n = Workload.length b in
  let lat = Array.make n 0. and sent = Array.make n 0. in
  let q = Queue.create () in
  let finish (j, fu) =
    let r = Net_client.await client fu in
    lat.(j) <- (Net_client.done_at fu -. sent.(j)) *. 1e6;
    on_reply j r
  in
  for i = 0 to n - 1 do
    if Queue.length q >= window then finish (Queue.pop q);
    let req = Workload.request s keys b i in
    sent.(i) <- now ();
    Queue.push (i, Net_client.send client req) q
  done;
  Queue.iter finish q;
  (lat, sent, now ())

(* Send op [i] at [t0 + i / rate]: sleep until [spin] before the due
   time, then spin, so the sender holds a core only briefly on a host
   with fewer cores than the stack has domains. Replies that have
   arrived are collected in order while waiting. Latency (µs) runs from
   the due time; lag (µs) is how late each send actually left. *)
let open_loop (s : Workload.spec) keys client b ~rate ~on_reply =
  let n = Workload.length b in
  let futs = Array.make n None in
  let lat = Array.make n 0. and lag = Array.make n 0. in
  let t0 = now () +. 0.001 in
  let due i = t0 +. (float_of_int i /. rate) in
  let next = ref 0 in
  let collect () =
    let i = !next in
    let fu = Option.get futs.(i) in
    let r = Net_client.await client fu in
    lat.(i) <- (Net_client.done_at fu -. due i) *. 1e6;
    futs.(i) <- None;
    incr next;
    on_reply i r
  in
  let ready sent =
    !next < sent && Option.is_some (Net_client.peek (Option.get futs.(!next)))
  in
  for i = 0 to n - 1 do
    let req = Workload.request s keys b i in
    let d = due i in
    while ready i && now () < d -. 5e-6 do collect () done;
    let ahead = d -. now () in
    if ahead > spin then Unix.sleepf (ahead -. spin);
    while now () < d do
      Domain.cpu_relax ()
    done;
    lag.(i) <- (now () -. d) *. 1e6;
    futs.(i) <- Some (Net_client.send client req)
  done;
  while !next < n do collect () done;
  (lat, lag)

type result = {
  setup_s : float;
  throughput : float;            (** closed phase, op/s, sliced median *)
  closed : Stats.t;
  reads : Stats.t;
  writes : Stats.t;
  opened : Stats.t;
  lag : Stats.t;
  heap_mb : float;
  restart_keys : int;
  counters : (string * float * string) list;   (** name, value, unit *)
}

(* Ops per second over the [Stats.slices] consecutive slices of a
   closed phase, from the send times and the phase's end. *)
let slice_rates sent t_end =
  let n = Array.length sent in
  let at i = if i >= n then t_end else sent.(i) in
  Array.map
    (fun (lo, hi) -> float_of_int (hi - lo) /. (at hi -. at lo))
    (Stats.bounds Stats.slices n)

(* A percentile of [Serve]'s bucketed sojourn histogram, interpolated
   linearly inside the bucket holding the rank (ns). *)
let hist_pct h q =
  let total = Histogram.count h in
  let rank = Float.ceil (q /. 100. *. float_of_int total) in
  let rec go seen = function
    | [] -> float_of_int (Histogram.max_value h)
    | (lo, hi, c) :: tl ->
      let upto = seen +. float_of_int c in
      if upto >= rank then
        float_of_int lo
        +. (float_of_int (hi - lo) *. (rank -. seen -. 0.5) /. float_of_int c)
      else go upto tl
  in
  if total = 0 then 0. else go 0. (Histogram.to_alist h)

let ratio a b = if b = 0. then 0. else a /. b

(* Every layer counter, read once after the stack has stopped. Per-op
   figures divide by the requests the server decoded. *)
let counters l ~user_bytes =
  let ns = Net_server.stats l.server in
  let ops = float_of_int (max 1 ns.Net_server.sv_requests) in
  let per x = float_of_int x /. ops in
  let ss = Serve.stats l.serve in
  let executed = Array.fold_left (fun a s -> a + s.Serve.ss_ops) 0 ss in
  let busy = Array.fold_left (fun a s -> a +. s.Serve.ss_busy) 0. ss in
  let hist = Serve.merged_hist l.serve in
  let counts = Array.map float_of_int (Serve.ops_counts l.serve) in
  let mean_count =
    Array.fold_left ( +. ) 0. counts /. float_of_int (Array.length counts)
  in
  let rc = Shard.merged_cache_stats l.store in
  let sp = Shard.merged_stats l.store in
  let md = Shard.merged_counters l.store in
  let gc = Gc.quick_stat () in
  let open Spp_pmemkv.Rcache in
  [
    ("net_server.requests", float_of_int ns.sv_requests, "count");
    ("net_server.replies", float_of_int ns.sv_replies, "count");
    ("net_server.malformed", float_of_int ns.sv_malformed, "count");
    ("serve.ops_per_batch",
     ratio (float_of_int executed) (float_of_int (Serve.total_batches l.serve)),
     "ops");
    ("serve.busy_us_per_op", ratio (busy *. 1e6) (float_of_int executed), "us");
    ("serve.sojourn_p50_us", hist_pct hist 50. /. 1e3, "us");
    ("serve.sojourn_p99_us", hist_pct hist 99. /. 1e3, "us");
    ("serve.peak_queue",
     float_of_int (Array.fold_left max 0 (Serve.peak_queue_depths l.serve)),
     "requests");
    ("serve.bypass_frac", per (Serve.bypassed_gets l.serve), "ratio");
    ("serve.failed", float_of_int (Serve.total_failed l.serve), "count");
    ("shard.imbalance", ratio (Array.fold_left max 0. counts) mean_count, "ratio");
    ("rcache.hit_rate", hit_rate rc, "ratio");
    ("rcache.fills_per_op", per rc.rc_fills, "count/op");
    ("rcache.invalidations_per_op", per rc.rc_invalidations, "count/op");
    ("space.pm_loads_per_op", per sp.Spp_sim.Space.pm_loads, "count/op");
    ("space.pm_bytes_loaded_per_op", per sp.pm_bytes_loaded, "B/op");
    ("space.tlb_hit_rate",
     ratio (float_of_int sp.tlb_hits) (float_of_int (sp.tlb_hits + sp.tlb_misses)),
     "ratio");
    ("memdev.fences_per_op", per md.Spp_sim.Memdev.fences, "count/op");
    ("memdev.flushes_per_op", per md.flushes, "count/op");
    ("memdev.stores_per_op", per md.stores, "count/op");
    ("memdev.fences_saved_per_op", per md.fences_saved, "count/op");
    ("memdev.write_amp",
     ratio (float_of_int sp.pm_bytes_stored) (float_of_int user_bytes), "ratio");
    ("gc.minor_collections", float_of_int gc.Gc.minor_collections, "count");
    ("gc.major_collections", float_of_int gc.Gc.major_collections, "count");
  ]

let put_bytes (s : Workload.spec) keys (b : Workload.batch) =
  Array.fold_left
    (fun a -> function
      | Workload.Put id -> a + String.length keys.(id) + s.value_bytes
      | _ -> a)
    0 b.ops

(* What one round measured. *)
type round = {
  setup : float;
  rates : float array;           (** per-slice closed-phase op/s *)
  closed_lat : Stats.t;
  read_lat : Stats.t;
  write_lat : Stats.t;
  open_lat : Stats.t;
  open_lag : Stats.t;
  checked : int;
}

let run (s : Workload.spec) ~seed ~seconds (t : Check.tally) =
  let keys = Workload.key_table s in
  let warm =
    Workload.materialize s (Workload.initial_model s)
      (Workload.generate_reads s ~seed s.warm_ops)
  in
  let n_closed = s.closed_per_s * seconds / rounds in
  let n_open =
    max 1
      (int_of_float (s.open_rate *. open_share *. float_of_int seconds)
      / rounds)
  in
  (* every round's stream and expected replies, before any timing; each
     round starts from the preload on a fresh stack *)
  let ops = Workload.generate s ~seed (rounds * (n_closed + n_open)) in
  let plan =
    Array.init rounds (fun r ->
      let m = Workload.initial_model s and base = r * (n_closed + n_open) in
      let cb = Workload.materialize s m (Array.sub ops base n_closed) in
      let ob = Workload.materialize s m (Array.sub ops (base + n_closed) n_open) in
      (cb, ob, m))
  in
  let on_reply what b = Check.check t s keys ~what b in
  let heap_words = ref 0 and counters_last = ref [] in
  let round r (cb, ob, m) =
    (* 1. setup *)
    Gc.compact ();
    let t0 = now () in
    let l = start s keys ~tag:s.name in
    ignore
      (closed s keys l.client warm ~window:Workload.window
         ~on_reply:(on_reply "warm-up" warm));
    let setup = now () -. t0 in
    (* 2. closed phase *)
    let lat, sent, t_end =
      closed s keys l.client cb ~window:Workload.window
        ~on_reply:(on_reply "closed" cb)
    in
    (* closed-phase latencies of the reads or of the writes *)
    let pick write =
      let mine i = Workload.is_write cb.ops.(i) = write in
      let out = Array.make n_closed 0. and j = ref 0 in
      Array.iteri (fun i x -> if mine i then begin out.(!j) <- x; incr j end) lat;
      Stats.of_round (Array.sub out 0 !j)
    in
    (* 3. open phase *)
    let olat, lag =
      open_loop s keys l.client ob ~rate:s.open_rate ~on_reply:(on_reply "open" ob)
    in
    let last = r = rounds - 1 in
    if last then begin
      (* live heap words of the running stack (and the run's own arrays)
         after a full collection: the top heap size moves by a third
         between runs of the same code with the collector's pacing *)
      Gc.full_major ();
      heap_words := (Gc.stat ()).Gc.live_words
    end;
    (* 4. stop, counters, restart check *)
    stop l;
    if last then
      counters_last :=
        counters l ~user_bytes:(put_bytes s keys cb + put_bytes s keys ob);
    { setup;
      rates = slice_rates sent t_end;
      closed_lat = Stats.of_round lat;
      read_lat = pick false;
      write_lat = pick true;
      open_lat = Stats.of_round olat;
      open_lag = Stats.of_round lag;
      checked = Check.restart t s keys l.store m }
  in
  let rs = Array.to_list (Array.mapi round plan) in
  let pool f = Stats.merge (List.map f rs) in
  {
    setup_s = Stats.median_of (Array.of_list (List.map (fun r -> r.setup) rs));
    throughput =
      Stats.robust ~best:Stats.highest
        (Array.of_list (List.map (fun r -> r.rates) rs));
    closed = pool (fun r -> r.closed_lat);
    reads = pool (fun r -> r.read_lat);
    writes = pool (fun r -> r.write_lat);
    opened = pool (fun r -> r.open_lat);
    lag = pool (fun r -> r.open_lag);
    heap_mb = float_of_int (!heap_words * (Sys.word_size / 8)) /. 1048576.;
    restart_keys = List.fold_left (fun a r -> a + r.checked) 0 rs;
    counters = !counters_last;
  }
