(* Building, preloading and cold-reopening the stack under test, through
   public functions only. *)

open Spp_sim
open Spp_pmdk
open Spp_shard
module Engine = Spp_pmemkv.Engine

let preload_chunk = 64

(* Group-committed puts of every preloaded key, in [preload_chunk]-op
   batches — the path [Serve]'s workers take, without the hand-off. *)
let preload_kv (s : Workload.spec) keys kv ids =
  let n = Array.length ids in
  let rec go i =
    if i < n then begin
      let len = min preload_chunk (n - i) in
      let ops =
        Array.init len (fun j ->
          let key = keys.(ids.(i + j)) in
          Engine.B_put { key; value = Workload.value s ~key ~w:0 })
      in
      ignore (Engine.run_batch kv ops);
      go (i + len)
    end
  in
  go 0

let preload_ids (s : Workload.spec) =
  List.filter (Workload.preloaded s) (List.init (Workload.id_space s) Fun.id)
  |> Array.of_list

(* A 2-shard SPP store of the workload's engine and cache, preloaded
   with write 0 of every key, counters reset. *)
let store (s : Workload.spec) keys =
  let st =
    Shard.create ~pool_size:s.pool_size ~cache_cap:s.cache_cap
      ~engine:(Workload.engine_spec s) ~nshards:Workload.nshards
      Spp_access.Spp
  in
  let ids = preload_ids s in
  for i = 0 to Workload.nshards - 1 do
    let mine =
      Array.of_list
        (List.filter (fun id -> Shard.route st keys.(id) = i) (Array.to_list ids))
    in
    preload_kv s keys (Shard.shard_kv (Shard.shard st i)) mine
  done;
  Shard.reset_stats st;
  st

(* One engine on one pool of the given variant, no cache, preloaded
   with single puts: under SafePM, cmap entries written by a
   group-committed batch fault as poisoned on their next read. *)
let engine (s : Workload.spec) keys variant =
  let access =
    Spp_access.create ~pool_size:(Workload.nshards * s.pool_size)
      ~name:("ladder-" ^ Spp_access.variant_name variant) variant
  in
  let kv = Engine.create (Workload.engine_spec s) access in
  Array.iter
    (fun id ->
      let key = keys.(id) in
      Engine.put kv ~key ~value:(Workload.value s ~key ~w:0))
    (preload_ids s);
  kv

(* Cold restart of shard [i] from its durable bytes alone, the path
   [Replica.promote] takes: [Memdev.of_image] -> [Pool.open_dev] ->
   [Spp_access.attach] -> [Engine.attach] via the pool root. *)
let reopen st i =
  let pool = (Shard.shard_access (Shard.shard st i)).Spp_access.pool in
  let img = Memdev.durable_snapshot (Pool.dev pool) in
  let dev = Memdev.of_image ~name:(Printf.sprintf "restart-%d" i) img in
  let space = Space.create () in
  match Pool.open_dev space ~base:(Pool.base pool) dev with
  | Error e -> Error (Pool.pool_error_to_string e)
  | Ok (pool, _) ->
    let access = Spp_access.attach space pool in
    let root = Pool.root_oid pool in
    if Oid.is_null root then Error "pool has no root object"
    else
      let map_root = Pool.load_oid pool ~off:root.Oid.off in
      Ok (Engine.attach (Shard.engine st) access ~root:map_root)
