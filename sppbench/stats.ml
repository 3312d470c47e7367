(* Exact percentiles over raw latency samples, robust to a noisy host.

   [Histogram]'s 1/16-octave buckets move in steps of about 4.4%, too
   coarse for a 10% regression bound, so latencies are kept as raw
   samples and ranked exactly.

   On a shared 2-core host the stack's seven domains lose the CPU to
   other tenants (5-35% steal measured) in bursts of a fraction of a
   second, and such interference only ever slows the stack. So each
   round's samples are cut, in the order they were taken, into [slices]
   equal slices and ranked exactly per slice; a round's figure is its
   best slice (the least interfered-with stretch, as in a best-of-n
   timing) and the run's figure is the median over its rounds, so one
   unlucky round cannot move it. A slowdown of the code moves every
   slice of every round. Every percentile carries its sample count. *)

let slices = 8   (* per round *)

type t = {
  all : float array;                 (** every sample, sorted *)
  rounds : float array array array;  (** per round, its slices, each sorted *)
}

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Nearest-rank percentile of a sorted array, [q] in (0, 100]. *)
let rank_pct s q =
  let m = Array.length s in
  if m = 0 then nan
  else
    let r = int_of_float (Float.ceil (q /. 100. *. float_of_int m)) in
    s.(max 0 (min (m - 1) (r - 1)))

let median_of a = rank_pct (sorted a) 50.

(* The [k] equal consecutive slices of [n] items, as (lo, hi) bounds. *)
let bounds k n = Array.init k (fun j -> (j * n / k, (j + 1) * n / k))

(* One round's samples, in the order they were taken. *)
let of_round a =
  let n = Array.length a in
  { all = sorted a;
    rounds =
      [| Array.map
           (fun (lo, hi) -> sorted (Array.sub a lo (hi - lo)))
           (bounds (max 1 (min slices n)) n) |] }

let merge ts =
  { all = sorted (Array.concat (List.map (fun t -> t.all) ts));
    rounds = Array.concat (List.map (fun t -> t.rounds) ts) }

let count t = Array.length t.all

(* Median over rounds of each round's best per-slice value. *)
let robust ~best per_round = median_of (Array.map best per_round)
let lowest a = Array.fold_left Float.min infinity a
let highest a = Array.fold_left Float.max neg_infinity a

(* The [q]th percentile: each round's lowest slice value, median over
   rounds. *)
let pct t q =
  robust ~best:lowest
    (Array.map (fun slices -> Array.map (fun s -> rank_pct s q) slices) t.rounds)

let median t = pct t 50.

(* The [q]th percentile over every sample, unsliced. *)
let pct_all t q = rank_pct t.all q

(* Samples ranked above the [q]th percentile of [s]. *)
let beyond_in s q =
  let m = Array.length s in
  m - int_of_float (Float.ceil (q /. 100. *. float_of_int m))

let thinnest t q =
  Array.fold_left
    (Array.fold_left (fun acc s -> min acc (beyond_in s q)))
    max_int t.rounds

let standard = [ 99.99; 99.9; 99.; 90.; 50. ]

(* Each percentile printed is the highest one that has at least ten
   samples beyond it: in every slice for the robust figure, over all
   samples for the unsliced one. *)
let describe t =
  let nslices = Array.fold_left (fun a r -> a + Array.length r) 0 t.rounds in
  let robust =
    match List.find_opt (fun q -> thinnest t q >= 10) standard with
    | None -> "too few samples per slice"
    | Some q ->
      Printf.sprintf "robust p50=%.2f p%g=%.2f (>=%d beyond per slice)"
        (median t) q (pct t q) (thinnest t q)
  in
  let whole =
    match List.find_opt (fun q -> beyond_in t.all q >= 10) standard with
    | None -> "too few samples"
    | Some q ->
      Printf.sprintf "unsliced p50=%.2f p%g=%.2f (%d beyond)" (pct_all t 50.) q
        (pct_all t q) (beyond_in t.all q)
  in
  Printf.sprintf "n=%d in %d rounds x %d slices; %s; %s" (count t)
    (Array.length t.rounds) (nslices / max 1 (Array.length t.rounds)) robust whole

let mean a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)
