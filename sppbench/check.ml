(* Reply checking against the sequential model, and the restart check.

   A stale read — a get answered with an earlier write of the right key
   — is the known race of [Serve]'s cache fast path: a batch's
   post-commit [Rcache] fill can land after a later put's
   submission-time invalidation, so a pipelined get reads past its own
   connection's queued write. It is counted and its first samples are
   printed, but it does not fail the run: it comes and goes between
   runs. Every other mismatch, and every acknowledged write missing
   after the restart, is a failure. *)

open Spp_shard

type verdict =
  | Match
  | Stale of { want : int; got : int }
  | Bad of string

let pp_reply r = Format.asprintf "%a" Serve.pp_reply r

(* Op [i] of [b] answered [r]. Allocates only on a mismatch. *)
let classify (s : Workload.spec) keys (b : Workload.batch) i (r : Serve.reply) =
  let want = b.w.(i) in
  match b.ops.(i), r with
  | _, Serve.Failed _ -> Bad ("failed reply " ^ pp_reply r)
  | Workload.Put _, Serve.Done -> Match
  | Workload.Get id, Serve.Value (Some v) ->
    let key = keys.(id) in
    if Workload.value_is s ~key ~w:want v then Match
    else begin
      match Workload.parse_value v with
      | Some (k, got) when k = key && Workload.value_is s ~key ~w:got v ->
        if got < want then Stale { want; got }
        else Bad (Printf.sprintf "%s: write %d read, only %d sent" k got want)
      | _ -> Bad (Printf.sprintf "%s: value no write produced" key)
    end
  | Workload.Scan _, Serve.Scanned l ->
    let same (id, w) (k, v) = k = keys.(id) && Workload.value_is s ~key:k ~w v in
    if List.length l = List.length b.ranges.(i)
       && List.for_all2 same b.ranges.(i) l
    then Match
    else Bad ("scan mismatch: got " ^ pp_reply r)
  | _ -> Bad ("unexpected reply " ^ pp_reply r)

(* Counts across a run; the first few notes of each kind are kept. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable stale : int;
  mutable stale_notes : string list;   (** newest first *)
  mutable error_notes : string list;
}

let tally () =
  { attempted = 0; failed = 0; stale = 0; stale_notes = []; error_notes = [] }

let max_notes = 8
let keep l msg = if List.length l < max_notes then msg :: l else l

let fail t msg =
  t.failed <- t.failed + 1;
  t.error_notes <- keep t.error_notes msg

let record t ~what i verdict =
  t.attempted <- t.attempted + 1;
  match verdict with
  | Match -> ()
  | Stale { want; got } ->
    t.stale <- t.stale + 1;
    t.stale_notes <-
      keep t.stale_notes
        (Printf.sprintf "stale %s op %d: expected write %d, got %d" what i want
           got)
  | Bad msg -> fail t (Printf.sprintf "%s op %d: %s" what i msg)

let check t s keys ~what b i r = record t ~what i (classify s keys b i r)

let check_batch t s keys ~what b replies =
  Array.iteri (check t s keys ~what b) replies

(* Reopen every shard from its durable bytes and compare every key with
   the model's final state; also compare per-shard key counts, so a key
   the model never wrote is caught too. A lost or wrong key fails the
   put that wrote it, which was already attempted. Returns the keys
   checked. *)
let restart t (s : Workload.spec) keys st (m : Workload.model) =
  let n = Shard.nshards st in
  let kvs = Array.init n (Stack.reopen st) in
  let want = Array.make n 0 in
  let checked = ref 0 in
  Array.iteri
    (fun id w ->
      if w >= 0 then begin
        let key = keys.(id) in
        let i = Shard.route st key in
        want.(i) <- want.(i) + 1;
        incr checked;
        match kvs.(i) with
        | Error e -> fail t (Printf.sprintf "restart: shard %d: %s" i e)
        | Ok kv ->
          let v = Spp_pmemkv.Engine.get kv key in
          if v <> Some (Workload.value s ~key ~w) then
            fail t
              (Printf.sprintf "restart: %s write %d %s" key w
                 (match v with None -> "missing" | Some _ -> "wrong value"))
      end)
    m.w;
  Array.iteri
    (fun i -> function
      | Error _ -> ()
      | Ok kv ->
        let have = Spp_pmemkv.Engine.count_all kv in
        if have <> want.(i) then
          fail t
            (Printf.sprintf "restart: shard %d holds %d keys, model %d" i have
               want.(i)))
    kvs;
  !checked
