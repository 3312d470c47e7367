(* The traced run: a prefix of the workload's op stream pushed through
   each layer's public functions in turn, one rung at a time —

     engine (Pmdk, Spp, Safepm; op by op and group-committed)
     -> Shard -> Serve (window 1, window 32) -> Wire codec
     -> Net_client over a socket (window 1, window 32)

   Each rung runs on its own freshly preloaded stack and alternates
   untraced and traced passes over fresh batches of the same ops, every
   reply checked against the model. A traced pass records one span per
   call: layer, op id, start and end; the parent of a span is the rung
   above for the same op id, so a layer's self time is the difference
   between adjacent rungs. Spans are kept in memory and written out when
   the run ends. Tracing overhead is traced over untraced wall time. *)

open Spp_shard
open Spp_net
module Engine = Spp_pmemkv.Engine

let now = Spp_benchlib.Bench_util.now_mono

(* Layers, each with the index of its parent layer (-1: none). *)
let layers =
  [| ("net.w1", -1); ("net.w32", -1); ("wire.encode", 0); ("wire.decode", 0);
     ("serve.w1", 0); ("serve.w32", 1); ("shard", 4); ("engine.spp", 6);
     ("engine.pmdk", 6); ("engine.safepm", 6); ("engine.spp.batch", 5);
     ("probe.get.spp", 6); ("probe.get.pmdk", 6); ("probe.get.safepm", 6);
     ("probe.scan.spp", 6) |]

let l_net1 = 0 and l_net32 = 1 and l_enc = 2 and l_dec = 3 and l_serve1 = 4
and l_serve32 = 5 and l_shard = 6 and l_batch = 10 and l_scan_probe = 14

(* The (rung, get probe) layers of an engine variant. *)
let engine_layer = function
  | Spp_access.Spp -> (7, 11)
  | Spp_access.Pmdk -> (8, 12)
  | Spp_access.Safepm -> (9, 13)
  | v -> invalid_arg ("no ladder rung for " ^ Spp_access.variant_name v)

type spans = {
  mutable layer : int array;
  mutable op : int array;
  mutable items : int array;   (** entries the call returned or carried *)
  mutable t0 : float array;
  mutable t1 : float array;
  mutable n : int;
}

let spans () =
  let c = 1 lsl 16 in
  { layer = Array.make c 0; op = Array.make c 0; items = Array.make c 0;
    t0 = Array.make c 0.; t1 = Array.make c 0.; n = 0 }

let push sp layer op items t0 t1 =
  if sp.n = Array.length sp.layer then begin
    let grow a z = Array.append a (Array.make (Array.length a) z) in
    sp.layer <- grow sp.layer 0;
    sp.op <- grow sp.op 0;
    sp.items <- grow sp.items 0;
    sp.t0 <- grow sp.t0 0.;
    sp.t1 <- grow sp.t1 0.
  end;
  let i = sp.n in
  sp.layer.(i) <- layer;
  sp.op.(i) <- op;
  sp.items.(i) <- items;
  sp.t0.(i) <- t0;
  sp.t1.(i) <- t1;
  sp.n <- i + 1

let items = function Serve.Scanned l -> List.length l | _ -> 1

type ctx = {
  s : Workload.spec;
  keys : string array;
  prefix : Workload.op array;
  tally : Check.tally;
  sp : spans;
  mutable walls : (int * bool * float * int) list;  (** layer, traced, s, ops *)
  mutable words : (int * float) list;               (** layer, words/op *)
}

(* Untraced and traced passes alternate. *)
let passes = [ false; true; false; true ]

(* Run the rung's passes over fresh batches advancing [m]: [prepare]
   builds whatever the pass needs before the clock starts, [exec] is
   the timed pass, [replies] reads its results back for checking. *)
let rung c m ~layer ~prepare ~exec ~replies =
  List.iter
    (fun traced ->
      let b = Workload.materialize c.s m c.prefix in
      let p = prepare b in
      let w0 = Gc.minor_words () in
      let t0 = now () in
      exec ~traced p;
      let wall = now () -. t0 in
      let n = Workload.length b in
      if not traced then
        c.words <- (layer, (Gc.minor_words () -. w0) /. float_of_int n) :: c.words;
      c.walls <- (layer, traced, wall, n) :: c.walls;
      Check.check_batch c.tally c.s c.keys ~what:(fst layers.(layer)) b
        (replies p))
    passes

(* One call per op through direct (same-domain) functions. *)
let direct c ~get ~put ~scan layer ~traced (reqs, out) =
  for i = 0 to Array.length reqs - 1 do
    let t0 = if traced then now () else 0. in
    let r =
      match reqs.(i) with
      | Serve.Get k -> Serve.Value (get k)
      | Serve.Put { key; value } -> put ~key ~value; Serve.Done
      | Serve.Scan { lo; hi; limit } -> Serve.Scanned (scan ~lo ~hi ~limit)
      | Serve.Remove _ -> Serve.Done
    in
    out.(i) <- r;
    if traced then push c.sp layer i (items r) t0 (now ())
  done

(* The pass's requests, and room for its replies. *)
let with_out c b =
  (Workload.requests c.s c.keys b, Array.make (Workload.length b) Serve.Done)

let direct_rung c m layer ~get ~put ~scan =
  rung c m ~layer ~prepare:(with_out c) ~exec:(direct c ~get ~put ~scan layer)
    ~replies:snd

(* A single traced pass of extra ops (a probe) through the same calls. *)
let probe c m layer ops ~get ~put ~scan =
  let b = Workload.materialize c.s m ops in
  let p = with_out c b in
  direct c ~get ~put ~scan layer ~traced:true p;
  Check.check_batch c.tally c.s c.keys ~what:(fst layers.(layer)) b (snd p)

let engine_rungs c =
  List.iter
    (fun v ->
      let m = Workload.initial_model c.s in
      let kv = Stack.engine c.s c.keys v in
      let layer, get_probe = engine_layer v in
      let get = Engine.get kv and put = Engine.put kv
      and scan = Engine.scan kv in
      direct_rung c m layer ~get ~put ~scan;
      (* a workload without gets or scans measures them on a side probe *)
      (match c.s.mix with
       | Workload.Scan_insert _ ->
         let gets =
           Array.of_list
             (List.filter_map
                (function Workload.Scan lo -> Some (Workload.Get lo) | _ -> None)
                (Array.to_list c.prefix))
         in
         probe c m get_probe gets ~get ~put ~scan
       | Workload.Point _ when v = Spp_access.Spp ->
         let scans =
           Array.of_list
             (List.filteri (fun i _ -> i < 32)
                (List.filter_map
                   (function Workload.Get id -> Some (Workload.Scan id) | _ -> None)
                   (Array.to_list c.prefix)))
         in
         probe c m l_scan_probe scans ~get ~put ~scan
       | Workload.Point _ -> ());
      (* group-committed batches of batch_cap ops, as a Serve worker runs them *)
      if v = Spp_access.Spp then begin
        let to_op = function
          | Serve.Get k -> Engine.B_get k
          | Serve.Put { key; value } -> Engine.B_put { key; value }
          | Serve.Scan { lo; hi; limit } -> Engine.B_scan { lo; hi; limit }
          | Serve.Remove k -> Engine.B_remove k
        in
        let of_reply = function
          | Engine.R_put -> Serve.Done
          | Engine.R_get v -> Serve.Value v
          | Engine.R_removed b -> Serve.Removed b
          | Engine.R_scan l -> Serve.Scanned l
        in
        let prepare b =
          let reqs = Workload.requests c.s c.keys b in
          let n = Array.length reqs and k = Workload.batch_cap in
          let chunks =
            Array.init ((n + k - 1) / k) (fun j ->
              Array.init (min k (n - (j * k))) (fun i -> to_op reqs.((j * k) + i)))
          in
          (chunks, Array.make (Array.length chunks) [||])
        in
        let exec ~traced (chunks, out) =
          Array.iteri
            (fun j ops ->
              let t0 = if traced then now () else 0. in
              out.(j) <- Engine.run_batch kv ops;
              if traced then
                push c.sp l_batch (j * Workload.batch_cap) (Array.length ops) t0
                  (now ()))
            chunks
        in
        rung c m ~layer:l_batch ~prepare ~exec ~replies:(fun (_, out) ->
          Array.map of_reply (Array.concat (Array.to_list out)))
      end;
      Gc.compact ())
    [ Spp_access.Pmdk; Spp_access.Spp; Spp_access.Safepm ]

let shard_rung c =
  let st = Stack.store c.s c.keys in
  direct_rung c (Workload.initial_model c.s) l_shard ~get:(Shard.get st)
    ~put:(Shard.put st) ~scan:(Shard.scan st)

(* A Serve request in flight: a point ticket, or one scan ticket per
   shard merged on completion as [Serve.scan] does. *)
type pending = One of Serve.ticket | Fan of Serve.ticket array * int

let serve_submit sv = function
  | Serve.Scan { limit; _ } as r ->
    Fan (Array.init (Shard.nshards (Serve.store sv)) (fun i -> Serve.submit_to sv i r),
         limit)
  | r -> One (Serve.submit sv r)

let serve_finish sv = function
  | One t -> Serve.await sv t
  | Fan (ts, limit) ->
    let rs = Array.map (Serve.await sv) ts in
    (match Array.find_opt (function Serve.Failed _ -> true | _ -> false) rs with
     | Some f -> f
     | None ->
       Serve.Scanned
         (Engine.merge_scans ~limit
            (Array.to_list
               (Array.map (function Serve.Scanned l -> l | _ -> []) rs))))

(* Window-[w] pipelining over submit/finish; a span runs from a request's
   submission to its completion ([stamp] reads the completion time). *)
let windowed c layer ~w ~submit ~finish ~stamp ~traced (reqs, out) =
  let q = Queue.create () in
  let sent = Array.make (Array.length reqs) 0. in
  let complete (i, p) =
    let r = finish p in
    out.(i) <- r;
    if traced then push c.sp layer i (items r) sent.(i) (stamp p)
  in
  for i = 0 to Array.length reqs - 1 do
    if Queue.length q >= w then complete (Queue.pop q);
    sent.(i) <- now ();
    Queue.push (i, submit reqs.(i)) q
  done;
  Queue.iter complete q

let serve_rungs c =
  let m = Workload.initial_model c.s in
  let sv = Serve.create ~batch_cap:Workload.batch_cap (Stack.store c.s c.keys) in
  let submit = serve_submit sv and finish = serve_finish sv in
  let stamp _ = now () in
  List.iter
    (fun (layer, w) ->
      rung c m ~layer ~prepare:(with_out c)
        ~exec:(windowed c layer ~w ~submit ~finish ~stamp) ~replies:snd)
    [ (l_serve1, 1); (l_serve32, Workload.window) ];
  Serve.stop sv

(* Encode each request and the reply the model predicts, then decode
   both from a reused byte buffer — the codec work of both ends. *)
let wire_rung c =
  let m = Workload.initial_model c.s in
  let buf = Buffer.create 8192 in
  let rbuf = ref (Bytes.create 65536) in
  let dreq = Wire.decoder () and drep = Wire.decoder () in
  let req_bytes = ref 0 and rep_bytes = ref 0 in
  let prepare b =
    let n = Workload.length b in
    (Workload.requests c.s c.keys b, Array.init n (Workload.reply_of c.s c.keys b),
     Array.make n (Serve.Get ""), Array.make n Serve.Done)
  in
  let feed dec off len =
    if Bytes.length !rbuf < len then rbuf := Bytes.create (2 * len);
    Buffer.blit buf off !rbuf 0 len;
    Wire.feed dec !rbuf ~off:0 ~len
  in
  let exec ~traced (reqs, model_replies, dreqs, dreps) =
    req_bytes := 0;
    rep_bytes := 0;
    for i = 0 to Array.length reqs - 1 do
      let t0 = if traced then now () else 0. in
      Buffer.clear buf;
      Wire.encode_request buf ~corr:i reqs.(i);
      let rq = Buffer.length buf in
      Wire.encode_reply buf ~corr:i model_replies.(i);
      let len = Buffer.length buf in
      let t1 = if traced then now () else 0. in
      feed dreq 0 rq;
      (match Wire.next_request dreq with
       | Wire.Msg (_, r) -> dreqs.(i) <- r
       | Wire.Awaiting | Wire.Corrupt _ -> ());
      feed drep rq (len - rq);
      (match Wire.next_reply drep with
       | Wire.Msg (_, r) -> dreps.(i) <- r
       | Wire.Awaiting | Wire.Corrupt _ ->
         dreps.(i) <- Serve.Failed (Serve.Op_raised "undecodable reply"));
      if traced then begin
        let t2 = now () in
        push c.sp l_enc i 1 t0 t1;
        push c.sp l_dec i 1 t1 t2
      end;
      req_bytes := !req_bytes + rq;
      rep_bytes := !rep_bytes + (len - rq)
    done
  in
  let replies (reqs, _, dreqs, dreps) =
    Array.iteri
      (fun i r ->
        if r <> reqs.(i) then
          Check.fail c.tally (Printf.sprintf "wire op %d: request changed" i))
      dreqs;
    dreps
  in
  rung c m ~layer:l_enc ~prepare ~exec ~replies;
  let n = float_of_int (Array.length c.prefix) in
  (float_of_int !req_bytes /. n, float_of_int !rep_bytes /. n)

let net_rungs c =
  let m = Workload.initial_model c.s in
  let l = E2e.start c.s c.keys ~tag:"ladder" in
  let cl = l.E2e.client in
  let w1 ~traced (reqs, out) =
    for i = 0 to Array.length reqs - 1 do
      let t0 = if traced then now () else 0. in
      let r = Net_client.await cl (Net_client.send cl reqs.(i)) in
      out.(i) <- r;
      if traced then push c.sp l_net1 i (items r) t0 (now ())
    done
  in
  rung c m ~layer:l_net1 ~prepare:(with_out c) ~exec:w1 ~replies:snd;
  rung c m ~layer:l_net32 ~prepare:(with_out c)
    ~exec:
      (windowed c l_net32 ~w:Workload.window ~submit:(Net_client.send cl)
         ~finish:(Net_client.await cl) ~stamp:Net_client.done_at)
    ~replies:snd;
  E2e.stop l

(* {1 Metrics from the spans} *)

let sum_spans sp ~layer ~only =
  let d = ref 0. and k = ref 0 and it = ref 0 in
  for i = 0 to sp.n - 1 do
    if sp.layer.(i) = layer && only sp.op.(i) then begin
      d := !d +. (sp.t1.(i) -. sp.t0.(i));
      incr k;
      it := !it + sp.items.(i)
    end
  done;
  (!d, !k, !it)

let mean_us sp ?(only = fun _ -> true) layer =
  let d, k, _ = sum_spans sp ~layer ~only in
  if k = 0 then nan else d *. 1e6 /. float_of_int k

let per_item_us sp ?(only = fun _ -> true) layer =
  let d, _, it = sum_spans sp ~layer ~only in
  if it = 0 then nan else d *. 1e6 /. float_of_int it

(* Wall time per op over a rung's traced passes. *)
let wall_per_op c layer =
  let w, n =
    List.fold_left
      (fun (w, n) (l, traced, wall, k) ->
        if l = layer && traced then (w +. wall, n + k) else (w, n))
      (0., 0) c.walls
  in
  w *. 1e6 /. float_of_int (max 1 n)

let words c layer =
  let l = List.filter_map (fun (l, w) -> if l = layer then Some w else None) c.words in
  Stats.mean (Array.of_list l)

let write_spans c path =
  let oc = open_out path in
  let base = if c.sp.n > 0 then c.sp.t0.(0) else 0. in
  output_string oc "layer,parent,op,items,start_us,end_us\n";
  for i = 0 to c.sp.n - 1 do
    let name, parent = layers.(c.sp.layer.(i)) in
    Printf.fprintf oc "%s,%s,%d,%d,%.3f,%.3f\n" name
      (if parent < 0 then "" else fst layers.(parent))
      c.sp.op.(i) c.sp.items.(i)
      ((c.sp.t0.(i) -. base) *. 1e6)
      ((c.sp.t1.(i) -. base) *. 1e6)
  done;
  close_out oc

let run (s : Workload.spec) ~seed (tally : Check.tally) =
  let keys = Workload.key_table s in
  let prefix = Workload.generate s ~seed:(seed + 1) s.ladder_ops in
  let c = { s; keys; prefix; tally; sp = spans (); walls = []; words = [] } in
  engine_rungs c;
  shard_rung c;
  Gc.compact ();
  serve_rungs c;
  Gc.compact ();
  let req_b, rep_b = wire_rung c in
  net_rungs c;
  if not (Sys.file_exists E2e.run_dir) then Sys.mkdir E2e.run_dir 0o755;
  write_spans c (Filename.concat E2e.run_dir ("spans-" ^ s.name ^ ".csv"));
  let sp = c.sp in
  let kind f op = f prefix.(op) in
  let is_get = kind (function Workload.Get _ -> true | _ -> false)
  and is_put = kind Workload.is_write
  and is_scan = kind (function Workload.Scan _ -> true | _ -> false) in
  let scans = match s.mix with Workload.Scan_insert _ -> true | Workload.Point _ -> false in
  let get_us v =
    let layer, get_probe = engine_layer v in
    if scans then mean_us sp get_probe else mean_us sp ~only:is_get layer
  in
  let spp = mean_us sp 7 and pmdk = mean_us sp 8 in
  let net_w1 = mean_us sp l_net1 in
  let shard_op = mean_us sp l_shard in
  let serve_w1 = mean_us sp l_serve1 in
  let traced_wall, plain_wall =
    List.fold_left
      (fun (t, u) (_, traced, w, _) -> if traced then (t +. w, u) else (t, u +. w))
      (0., 0.) c.walls
  in
  [
    ("wire.encode_ns", mean_us sp l_enc *. 1e3, "ns");
    ("wire.decode_ns", mean_us sp l_dec *. 1e3, "ns");
    ("wire.req_bytes_per_op", req_b, "B/op");
    ("wire.reply_bytes_per_op", rep_b, "B/op");
    ("net.w1_us", net_w1, "us");
    ("net.w32_us_per_op", wall_per_op c l_net32, "us");
    ("serve.w1_us", serve_w1, "us");
    ("serve.w32_us_per_op", wall_per_op c l_serve32, "us");
    ("serve.handoff_w1_us", serve_w1 -. shard_op, "us");
    ("shard.op_us", shard_op, "us");
    ("engine.get_us", get_us Spp_access.Spp, "us");
    ("engine.put_us", mean_us sp ~only:is_put 7, "us");
    ("engine.scan_us_per_entry",
     (if scans then per_item_us sp ~only:is_scan 7 else per_item_us sp l_scan_probe),
     "us");
    ("engine.batch_us_per_op", per_item_us sp l_batch, "us");
    ("engine.get_us.pmdk", get_us Spp_access.Pmdk, "us");
    ("engine.get_us.safepm", get_us Spp_access.Safepm, "us");
    ("access.spp_over_pmdk", spp /. pmdk, "ratio");
    ("access.spp_share_of_w1", (spp -. pmdk) /. net_w1, "ratio");
    ("gc.minor_words_per_op", words c l_shard, "words/op");
    ("gc.minor_words_per_op.engine", words c 7, "words/op");
    ("gc.minor_words_per_op.wire", words c l_enc, "words/op");
    ("trace.overhead_pct", 100. *. ((traced_wall /. plain_wall) -. 1.), "%");
  ]
