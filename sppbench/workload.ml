(* The benchmark's three workloads, their seeded op streams, and the
   sequential model every reply is checked against.

   Every workload runs on the same stack: one client connection over a
   Unix-domain socket into [Net_server] over [Serve] (adaptive batching,
   batch_cap 32) over a 2-shard [Shard] store on the SPP variant. The
   workloads differ in mix, key universe, engine and read cache so that
   each one loads a different set of layers; [why] records which.

   Put values encode their key and their write number, so a reply that
   does not match the model can be classified: an earlier write of the
   right key is a stale read, anything else is a reply no execution of
   the stream could produce. *)

open Spp_shard

type mix =
  | Point of { read_frac : float }
      (** gets and puts over preloaded keys *)
  | Scan_insert of { scan_frac : float; span : int }
      (** scans of at most [span] keys, and inserts of fresh keys *)

type dist = Zipfian of float | Uniform

type spec = {
  name : string;
  why : string;
  engine : string;        (** [Spp_pmemkv.Engines] name *)
  keys : int;             (** preloaded keys *)
  value_bytes : int;
  cache_cap : int;        (** [Rcache] entries per shard; 0 = no cache *)
  pool_size : int;        (** bytes per shard pool *)
  mix : mix;
  dist : dist;
  open_rate : float;      (** absolute open-phase rate, op/s *)
  closed_per_s : int;     (** closed-phase ops per second of run budget *)
  warm_ops : int;         (** read-only warm-up ops, part of setup *)
  ladder_ops : int;       (** ops per pass of each traced rung *)
}

let nshards = 2
let batch_cap = 32
let window = 32

(* Open rates are fixed numbers, 7-8% of each workload's closed-loop
   ceiling on a 2-core host, low enough that the sender and the seven
   domains of the stack do not saturate the cores. *)
let all =
  [
    { name = "read_hot";
      why =
        "YCSB-B on a cache-resident hot set: about 93% of requests are \
         Rcache hits answered on the connection reader, so Wire, the \
         socket and the cache fast path do the work and the engine idles";
      engine = "cmap"; keys = 2_000; value_bytes = 256; cache_cap = 4_096;
      pool_size = 8 lsl 20; mix = Point { read_frac = 0.95 };
      dist = Zipfian 0.99; open_rate = 8_000.; closed_per_s = 60_000;
      warm_ops = 4_000; ladder_ops = 4_000 };
    { name = "write_mix";
      why =
        "50/50 get/put, uniform over 50k keys with a cache of ~4% of them: \
         nearly every op takes a Serve mailbox, a group-committed redo \
         batch and an engine walk, so a read-path win that costs puts shows";
      engine = "cmap"; keys = 50_000; value_bytes = 256; cache_cap = 1_024;
      pool_size = 32 lsl 20; mix = Point { read_frac = 0.5 };
      dist = Uniform; open_rate = 4_000.; closed_per_s = 30_000;
      warm_ops = 4_000; ladder_ops = 4_000 };
    { name = "scan_btree";
      why =
        "YCSB-E on the B-tree without a cache: each scan fans out to both \
         shards and returns a ~4 KiB frame, so engine scan cost, PM loads \
         and wire bytes dominate";
      engine = "btree"; keys = 20_000; value_bytes = 256; cache_cap = 0;
      pool_size = 16 lsl 20; mix = Scan_insert { scan_frac = 0.95; span = 16 };
      dist = Zipfian 0.99; open_rate = 800.; closed_per_s = 5_000;
      warm_ops = 1_000; ladder_ops = 2_000 };
  ]

let find name = List.find_opt (fun s -> s.name = name) all

let engine_spec s =
  match Spp_pmemkv.Engines.of_name s.engine with
  | Some e -> e
  | None -> invalid_arg ("unknown engine " ^ s.engine)

(* {1 Keys and values}

   Keys are identified by an integer id; fixed-width names make the
   lexicographic order the numeric one, so a scan over ids is a scan
   over keys. Point workloads preload ids [0, keys); the scan workload
   preloads the even ids [0, 2 keys) and inserts at odd ids, so inserts
   land inside the ranges scans cover. *)

let id_space s =
  match s.mix with Point _ -> s.keys | Scan_insert _ -> 2 * s.keys

let preloaded s id =
  match s.mix with Point _ -> true | Scan_insert _ -> id land 1 = 0

let key_of_id id = Printf.sprintf "user%08d" id

let key_table s = Array.init (id_space s) key_of_id

(* ["<key>#<write number>|"] padded to [value_bytes]. *)
let value s ~key ~w =
  let head = Printf.sprintf "%s#%d|" key w in
  let n = max s.value_bytes (String.length head) in
  let b = Bytes.make n '.' in
  Bytes.blit_string head 0 b 0 (String.length head);
  Bytes.unsafe_to_string b

(* The key and write number a value claims, if it is shaped like one. *)
let parse_value v =
  match String.index_opt v '#', String.index_opt v '|' with
  | Some h, Some e when h < e ->
    (match int_of_string_opt (String.sub v (h + 1) (e - h - 1)) with
     | Some w -> Some (String.sub v 0 h, w)
     | None -> None)
  | _ -> None

(* {1 Op streams} *)

type op = Get of int | Put of int | Scan of int  (** scan start id *)

let is_write = function Put _ -> true | Get _ | Scan _ -> false

let keygen s ~seed =
  match s.dist with
  | Zipfian theta ->
    Spp_benchlib.Keygen.zipfian ~theta ~seed ~universe:s.keys ()
  | Uniform -> Spp_benchlib.Keygen.uniform ~seed ~universe:s.keys

(* [n] ops of the workload's mix, a pure function of [seed]. *)
let generate s ~seed n =
  let mix = Random.State.make [| seed; 0x5bb |] in
  let draw = keygen s ~seed in
  Array.init n (fun _ ->
    let p = Random.State.float mix 1. in
    let z = Spp_benchlib.Keygen.next draw in
    match s.mix with
    | Point { read_frac } -> if p < read_frac then Get z else Put z
    | Scan_insert { scan_frac; _ } ->
      if p < scan_frac then Scan (2 * z) else Put ((2 * z) + 1))

(* Read-only ops for the warm-up: they leave the model unchanged, so
   every repeated setup can replay the same warm-up stream. *)
let generate_reads s ~seed n =
  let draw = keygen s ~seed:(seed lxor 0x3a3a) in
  Array.init n (fun _ ->
    let z = Spp_benchlib.Keygen.next draw in
    match s.mix with Point _ -> Get z | Scan_insert _ -> Scan (2 * z))

(* {1 The sequential model}

   [w.(id)] is the write number of the key's latest write, -1 while the
   key is absent. The preload is write 0. *)

type model = { w : int array }

let initial_model s =
  { w = Array.init (id_space s) (fun id -> if preloaded s id then 0 else -1) }

(* A stretch of the stream ready to send, with what the model predicts:
   [w.(i)] is the write number a put sends or a get expects, and
   [ranges.(i)] the (id, write number) pairs a scan expects. Requests are
   built from it at send time, so a long stream stays small on the heap
   and does not load the collector the stack under test shares. *)
type batch = {
  ops : op array;
  w : int array;
  ranges : (int * int) list array;
}

let scan_span s = match s.mix with Scan_insert { span; _ } -> span | Point _ -> 16

(* The ids a scan from [lo] covers: [lo, lo + 2 span), clipped. *)
let scan_bounds s lo = (lo, min (id_space s - 1) (lo + (2 * scan_span s) - 1))

let model_range s (m : model) lo =
  let lo, hi = scan_bounds s lo in
  let limit = scan_span s in
  let rec go id n acc =
    if id > hi || n = limit then List.rev acc
    else if m.w.(id) >= 0 then go (id + 1) (n + 1) ((id, m.w.(id)) :: acc)
    else go (id + 1) n acc
  in
  go lo 0 []

(* Predict every reply, advancing [m] as a sequential execution would.
   Done before any timing. *)
let materialize s (m : model) ops =
  let n = Array.length ops in
  let w = Array.make n 0 and ranges = Array.make n [] in
  Array.iteri
    (fun i op ->
      match op with
      | Get id -> w.(i) <- m.w.(id)
      | Put id ->
        m.w.(id) <- m.w.(id) + 1;
        w.(i) <- m.w.(id)
      | Scan lo -> ranges.(i) <- model_range s m lo)
    ops;
  { ops; w; ranges }

let length b = Array.length b.ops

let request s keys b i =
  match b.ops.(i) with
  | Get id -> Serve.Get keys.(id)
  | Put id -> Serve.Put { key = keys.(id); value = value s ~key:keys.(id) ~w:b.w.(i) }
  | Scan lo ->
    let lo, hi = scan_bounds s lo in
    Serve.Scan { lo = keys.(lo); hi = keys.(hi); limit = scan_span s }

let requests s keys b = Array.init (length b) (request s keys b)

(* The reply a correct server sends for op [i]. *)
let reply_of s keys b i =
  match b.ops.(i) with
  | Put _ -> Serve.Done
  | Get id -> Serve.Value (Some (value s ~key:keys.(id) ~w:b.w.(i)))
  | Scan _ ->
    Serve.Scanned
      (List.map (fun (id, w) -> (keys.(id), value s ~key:keys.(id) ~w))
         b.ranges.(i))

(* [v = value s ~key ~w], without building the expected value. *)
let value_is s ~key ~w v =
  let kl = String.length key and n = String.length v in
  let rec same_key i = i = kl || (key.[i] = v.[i] && same_key (i + 1)) in
  (* the write number after '#', and the index of its closing '|' *)
  let rec digits i acc =
    if i >= n then (-1, i)
    else
      match v.[i] with
      | '0' .. '9' as c -> digits (i + 1) ((acc * 10) + Char.code c - 48)
      | '|' -> (acc, i)
      | _ -> (-1, i)
  in
  let rec pad i = i = n || (v.[i] = '.' && pad (i + 1)) in
  n > kl + 2 && same_key 0 && v.[kl] = '#'
  &&
  let got, bar = digits (kl + 1) 0 in
  got = w && bar > kl + 1 && bar < n && n = max s.value_bytes (bar + 1)
  && pad (bar + 1)
