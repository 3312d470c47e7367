(* The benchmark's own checks, with negative controls: a wrong reply
   and a dropped durable write must each be caught, and a clean run over
   the socket must pass. *)

open Spp_shard
open Sppbench

(* A workload, shrunk for a test. *)
let shrink name =
  let s = Option.get (Workload.find name) in
  { s with closed_per_s = 1_000; open_rate = 1_000.; warm_ops = 100;
           ladder_ops = 64 }

let small = shrink "read_hot"

let keys = Workload.key_table small

let fail_if cond msg = if cond then failwith msg

let test_value_codec () =
  let key = keys.(7) in
  let v = Workload.value small ~key ~w:12 in
  fail_if (String.length v <> small.value_bytes) "value length";
  fail_if (not (Workload.value_is small ~key ~w:12 v)) "value_is rejects its own value";
  fail_if (Workload.value_is small ~key ~w:13 v) "value_is accepts another write";
  fail_if (Workload.value_is small ~key:keys.(8) ~w:12 v) "value_is accepts another key";
  fail_if (Workload.parse_value v <> Some (key, 12)) "parse_value";
  let torn = Bytes.of_string v in
  Bytes.set torn (Bytes.length torn - 1) 'x';
  fail_if (Workload.value_is small ~key ~w:12 (Bytes.to_string torn)) "torn padding"

(* One get of key 3 after two puts to it: the model expects write 2. *)
let batch () =
  let m = Workload.initial_model small in
  Workload.materialize small m Workload.[| Put 3; Put 3; Get 3 |]

let verdict r = Check.classify small keys (batch ()) 2 r

let test_wrong_reply_caught () =
  let value w = Serve.Value (Some (Workload.value small ~key:keys.(3) ~w)) in
  (match verdict (value 2) with Check.Match -> () | _ -> failwith "clean reply");
  (match verdict (value 1) with
   | Check.Stale { want = 2; got = 1 } -> ()
   | _ -> failwith "earlier write not classified stale");
  let injected =
    [ value 3; Serve.Value (Some (Workload.value small ~key:keys.(4) ~w:2));
      Serve.Value None; Serve.Failed (Serve.Op_raised "boom"); Serve.Done ]
  in
  let t = Check.tally () in
  List.iter (fun r -> Check.record t ~what:"inject" 2 (verdict r)) injected;
  fail_if (t.failed <> List.length injected) "an injected wrong reply passed";
  fail_if (t.stale <> 0) "a wrong reply counted as stale"

(* Drive a stream through Serve, stop, and restart-check it; with
   [drop] one acknowledged put is left out of what the store receives. *)
let restart_failures ~drop =
  let st = Stack.store small keys in
  let sv = Serve.create ~batch_cap:Workload.batch_cap st in
  let m = Workload.initial_model small in
  let ops = Workload.generate small ~seed:5 500 in
  let b = Workload.materialize small m ops in
  let reqs = Workload.requests small keys b in
  let rec last_put i = if Workload.is_write ops.(i) then i else last_put (i - 1) in
  let skip = if drop then last_put (Array.length ops - 1) else -1 in
  let t = Check.tally () in
  Array.iteri
    (fun i r ->
      if i <> skip then
        let reply = Serve.await sv (Serve.submit sv r) in
        if Workload.is_write ops.(i) then Check.check t small keys ~what:"t" b i reply)
    reqs;
  Serve.stop sv;
  ignore (Check.restart t small keys st m);
  t.failed

let test_dropped_write_caught () =
  fail_if (restart_failures ~drop:false <> 0) "clean store failed the restart check";
  fail_if (restart_failures ~drop:true = 0) "a dropped durable write passed"

let test_end_to_end () =
  List.iter
    (fun name ->
      let s = shrink name in
      let t = Check.tally () in
      let r = E2e.run s ~seed:3 ~seconds:1 t in
      fail_if (t.failed <> 0) (String.concat "; " t.error_notes);
      fail_if (r.restart_keys < E2e.rounds * s.keys) "restart check skipped keys";
      fail_if (t.attempted < s.closed_per_s) "closed phase not checked")
    [ "read_hot"; "scan_btree" ]

(* The ladder runs every rung, checks every reply and names every
   per-layer metric once. *)
let test_ladder () =
  List.iter
    (fun name ->
      let t = Check.tally () in
      let ms = Ladder.run (shrink name) ~seed:4 t in
      fail_if (t.failed <> 0) (String.concat "; " t.error_notes);
      let names = List.map (fun (n, _, _) -> n) ms in
      fail_if (List.length (List.sort_uniq compare names) <> List.length names)
        "duplicate metric";
      List.iter
        (fun (n, v, _) -> fail_if (Float.is_nan v) (name ^ ": " ^ n ^ " is nan"))
        ms)
    [ "read_hot"; "scan_btree" ]

let () =
  List.iter
    (fun (name, f) ->
      f ();
      Printf.printf "ok %s\n%!" name)
    [ ("value codec", test_value_codec);
      ("wrong reply caught", test_wrong_reply_caught);
      ("dropped durable write caught", test_dropped_write_caught);
      ("end to end over the socket", test_end_to_end);
      ("ladder", test_ladder) ]
