(* perfbench: one broker process, one generator, open-loop traffic over
   real sockets, checked against an exact in-process replay.

     perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the per-layer ones
   from the traced replay of the same seed. Exit code 1 on an oracle
   failure or a run that could not complete, 2 on bad arguments. *)

module Broker_server = Probsub_server.Broker_server
module Message = Probsub_broker.Message

let setups = 3
let run_root = ".perfbench-run"

(* ------------------------------------------------------------------ *)
(* Statistics *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Nearest-rank percentile; 0 for an empty sample. *)
let pct a p =
  let n = Array.length a in
  if n = 0 then 0.0 else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median l = pct (sorted l) 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int
let mb words = words *. fi (Sys.word_size / 8) /. 1048576.0

(* ------------------------------------------------------------------ *)
(* Output *)

let json_num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\"" | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"

let metrics_json ms =
  json_obj
    (List.map (fun (name, value, unit) -> (name, json_obj [ ("value", json_num value); ("unit", json_str unit) ])) ms)

(* ------------------------------------------------------------------ *)
(* Files *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* ------------------------------------------------------------------ *)
(* Arguments *)

type args = { workload : string; seed : int; seconds : float; trace : bool; smoke : bool }

let usage () =
  prerr_endline
    "usage: perfbench --workload (fanout|churn|mixed) --seed N --seconds S --trace 0|1 [--smoke]";
  exit 2

let parse () =
  let rec go a = function
    | "--workload" :: v :: tl -> go { a with workload = v } tl
    | "--seed" :: v :: tl -> go { a with seed = int_of_string v } tl
    | "--seconds" :: v :: tl -> go { a with seconds = float_of_string v } tl
    | "--trace" :: ("0" | "1" as v) :: tl -> go { a with trace = v = "1" } tl
    | "--smoke" :: tl -> go { a with smoke = true } tl
    | [] -> a
    | _ -> usage ()
  in
  match go { workload = ""; seed = 1; seconds = 10.0; trace = false; smoke = false } (List.tl (Array.to_list Sys.argv)) with
  | a when a.seconds > 0.0 -> a
  | _ -> usage ()
  | exception Failure _ -> usage ()

(* ------------------------------------------------------------------ *)
(* The run *)

let listen path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 8;
  fd

let kind_name = function Plan.Sub -> "sub" | Plan.Unsub -> "unsub" | Plan.Pub -> "pub" | Plan.Ping -> "ping"

let main a =
  let w =
    match Plan.find a.workload with
    | Some w -> if a.smoke then Plan.smoke w else w
    | None -> usage ()
  in
  let seconds = if a.smoke then Float.min a.seconds 1.0 else a.seconds in
  let dir = Printf.sprintf "%s/%d" run_root (Unix.getpid ()) in
  let sock_dir = dir ^ "/s" in
  mkdir_p sock_dir;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let live = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter Gen.kill !live;
      rm_rf dir)
    (fun () ->
      let plan = Plan.make w ~seed:a.seed ~seconds in
      let ops =
        List.fold_left
          (fun n (p, c) -> n + Array.length p + Array.length c + 2)
          (Array.length plan.Plan.preload + Array.length plan.Plan.open_loop + 2)
          plan.Plan.bursts
      in
      let listener =
        if w.Plan.neighbors = [] then None
        else Some (listen (Broker_server.socket_path ~sock_dir Gen.peer_id))
      in
      let config k =
        Broker_server.config
          ~wal_dir:(Some (Printf.sprintf "%s/wal-%d" dir k))
          ~policy:w.Plan.policy ~lease_ttl:Oracle.lease_ttl
          ~refresh_interval:(Oracle.lease_ttl /. 2.0) ~id:0
          ~neighbors:w.Plan.neighbors ~sock_dir ~arity:w.Plan.arity ~seed:a.seed ()
      in
      (* Set-up: fork the broker, connect, preload the table; done
         [setups] times over fresh WAL directories, keeping the last. *)
      let setup k =
        let t0 = Gen.now () in
        let b = Gen.spawn (config k) ~report:(Printf.sprintf "%s/report-%d" dir k) in
        live := b :: !live;
        let s = Gen.connect ~sock_dir ~session:k ~ops in
        Option.iter (Gen.accept_peer s) listener;
        let pre = Gen.run_phase s plan.Plan.preload ~open_loop:false ~budget:60.0 in
        (b, s, pre, Gen.now () -. t0)
      in
      let rec setup_all k times =
        let b, s, pre, dt = setup k in
        if k = setups then (b, s, pre, dt :: times)
        else begin
          Gen.close s;
          Gen.kill b;
          live := [];
          setup_all (k + 1) (dt :: times)
        end
      in
      let broker, s, pre, setup_times = setup_all 1 [] in
      Gen.mark broker;
      let ol = Gen.run_phase s plan.Plan.open_loop ~open_loop:true ~budget:(seconds +. 30.0) in
      let burst ops = Gen.run_phase s ops ~open_loop:false ~budget:30.0 in
      let rounds =
        List.fold_left
          (fun acc (pubs, ctls) ->
            let p = burst pubs in
            let c = burst ctls in
            (p, c) :: acc)
          [] plan.Plan.bursts
        |> List.rev
      in
      let pb = List.map fst rounds and cb = List.map snd rounds in
      if listener <> None then Gen.settle s ~expect_quiet:0.1;
      let report = Gen.stop broker in
      live := [];
      Gen.close s;
      Option.iter Unix.close listener;
      (* ---------------- oracle ---------------- *)
      let measured = ol :: List.concat_map (fun (p, c) -> [ p; c ]) rounds in
      let phases = pre :: measured in
      let payloads =
        Array.concat (List.map (fun ph -> Array.map (fun o -> o.Plan.payload) ph.Gen.ops) phases)
      in
      let kinds = Array.make s.Gen.seq Plan.Ping in
      List.iter
        (fun ph -> Array.iteri (fun j o -> kinds.(ph.Gen.first + j) <- o.Plan.kind) ph.Gen.ops)
        phases;
      let log_path = Printf.sprintf "%s/client.frames" dir in
      Out_channel.with_open_bin log_path (fun oc -> Buffer.output_buffer oc s.Gen.log);
      let traced =
        if a.trace then
          Some
            (Trace.run
               {
                 Trace.w;
                 seed = a.seed;
                 log = In_channel.with_open_bin log_path In_channel.input_all;
                 kinds;
                 measured_from = ol.Gen.first;
                 wal_dir = dir ^ "/wal-traced";
               })
        else None
      in
      let reference =
        match traced with Some t -> t.Trace.reference | None -> Oracle.replay w ~seed:a.seed payloads
      in
      let notes = Gen.notifications s in
      let delivered = Hashtbl.create 4096 in
      Hashtbl.iter (fun pub l -> Hashtbl.replace delivered pub (List.map fst l)) notes;
      let forwards = Array.of_list (List.rev_map Oracle.encode_forward s.Gen.forwards) in
      let sheds = int_of_float (report "sheds") in
      let v = Oracle.check reference ~delivered ~forwards in
      let self_ok = Oracle.self_check reference ~delivered ~forwards ~sheds in
      let correct = Oracle.passes reference v ~sheds && self_ok in
      (* ---------------- latencies ---------------- *)
      let pub_ms = ref [] and ctl_ms = ref [] and late_ms = ref [] in
      let pubs = ref 0 and ctls = ref 0 and ctl_failed = ref 0 and expected_total = ref 0 in
      List.iter
        (fun (ph : Gen.phase) ->
          Array.iteri
            (fun j (o : Plan.op) ->
              let seq = ph.Gen.first + j in
              let due = s.Gen.due_at.(seq) in
              let timed = ph == ol in
              if timed then late_ms := (s.Gen.sent_at.(seq) -. due) *. 1000.0 :: !late_ms;
              match (o.Plan.kind, o.Plan.payload) with
              | Plan.Pub, Message.Publish { id; _ } ->
                  incr pubs;
                  let expected = Option.value (Hashtbl.find_opt reference.Oracle.expected id) ~default:[] in
                  expected_total := !expected_total + List.length expected;
                  let got = Option.value (Hashtbl.find_opt notes id) ~default:[] in
                  let arrival k = List.assoc_opt k got in
                  if timed && expected <> [] && List.for_all (fun k -> arrival k <> None) expected then
                    let last = List.fold_left (fun m k -> Float.max m (Option.value (arrival k) ~default:0.0)) 0.0 expected in
                    pub_ms := (last -. due) *. 1000.0 :: !pub_ms
              | (Plan.Sub | Plan.Unsub), _ ->
                  incr ctls;
                  let ack = s.Gen.ack_at.(seq) in
                  if ack = 0.0 then incr ctl_failed
                  else if timed then ctl_ms := (ack -. due) *. 1000.0 :: !ctl_ms
              | _ -> ())
            ph.Gen.ops)
        measured;
      let attempted = !pubs + !ctls in
      let failed = v.Oracle.pubs_short + !ctl_failed in
      let pub_s = sorted !pub_ms and ctl_s = sorted !ctl_ms in
      let pub_p50 = pct pub_s 0.5 and ctl_p50 = pct ctl_s 0.5 in
      let rate phs =
        median
          (List.map
             (fun (ph : Gen.phase) -> fi (Array.length ph.Gen.ops - 1) /. (ph.Gen.finish -. ph.Gen.start))
             phs)
      in
      let e2e =
        [
          ("setup_s", median setup_times, "s");
          ("pub_p50_ms", pub_p50, "ms");
          ("pub_p90_ms", pct pub_s 0.90, "ms");
          ("sub_p50_ms", ctl_p50, "ms");
          ("sub_p90_ms", pct ctl_s 0.90, "ms");
          ("broker_heap_mb", mb (report "live_words"), "MB");
        ]
      in
      let subs_sent =
        Array.fold_left (fun n p -> match p with Message.Subscribe _ -> n + 1 | _ -> n) 0 payloads
      in
      let subs_forwarded =
        List.length (List.filter (function Message.Subscribe _ -> true | _ -> false) s.Gen.forwards)
      in
      let ops = fi (attempted + List.length measured) in
      let socket_layer =
        [
          ("server.cpu_us_per_op", report "cpu_s" *. 1e6 /. ops, "us");
          ("server.busy_share", ratio (report "cpu_s") (report "wall_s"), "share");
          ("server.frames_out_per_op", report "frames_out" /. ops, "count");
          ("server.sheds", report "sheds", "count");
          ("server.retransmits", report "retransmits", "count");
          ("server.top_heap_mb", mb (report "top_heap_words"), "MB");
          ("socket.pub_p99_ms", pct pub_s 0.99, "ms");
          ("socket.sub_p99_ms", pct ctl_s 0.99, "ms");
          ("socket.pub_max_rate", rate pb, "1/s");
          ("socket.sub_max_rate", rate cb, "1/s");
          ("gen.late_ms_p99", pct (sorted !late_ms) 0.99, "ms");
          ("delivery.missed_share", ratio (fi v.Oracle.missed) (fi !expected_total), "share");
          ("delivery.ctl_failed_share", ratio (fi !ctl_failed) (fi !ctls), "share");
          ( "delivery.false_miss_share",
            ratio (fi reference.Oracle.false_misses) (fi reference.Oracle.true_pairs),
            "share" );
          ( "delivery.suppressed_share",
            (if w.Plan.neighbors = [] then 0.0 else 1.0 -. ratio (fi subs_forwarded) (fi subs_sent)),
            "share" );
        ]
      in
      let metrics =
        match traced with
        | None -> e2e
        | Some t ->
            let untraced = Trace.untraced_ns w ~seed:a.seed payloads ~wal_dir:(dir ^ "/wal-untraced") in
            Trace.write_spans t.Trace.spans (Printf.sprintf "%s/spans-%s-%d.tsv" run_root w.Plan.name a.seed);
            socket_layer @ Layers.metrics t ~untraced_ns:untraced ~pub_p50_ms:pub_p50 ~sub_p50_ms:ctl_p50
      in
      List.iter (fun (n, v, u) -> Printf.eprintf "  %-34s %14.4f %s\n" n v u) metrics;
      Printf.eprintf
        "  oracle: missed %d  duplicate %d  spurious %d  forward mismatches %d  sheds %d  planted faults caught %b\n"
        v.Oracle.missed v.Oracle.duplicate v.Oracle.spurious v.Oracle.forward_mismatch sheds self_ok;
      let count l = string_of_int (Array.length l) in
      print_endline
        (json_obj
           [
             ("perfbench_config",
               json_obj
                 [
                   ("workload", json_str w.Plan.name);
                   ("why", json_str w.Plan.why);
                   ("seed", string_of_int a.seed);
                   ("policy", json_str w.Plan.policy_name);
                   ("arity", string_of_int w.Plan.arity);
                   ("neighbors", string_of_int (List.length w.Plan.neighbors));
                   ("table", string_of_int w.Plan.table);
                   ("pub_rate", json_num w.Plan.pub_rate);
                   ("ctl_rate", json_num w.Plan.ctl_rate);
                   ("pub_burst", string_of_int w.Plan.pub_burst);
                   ("ctl_burst", string_of_int w.Plan.ctl_burst);
                   ("seconds", json_num seconds);
                   ("setups", string_of_int setups);
                   ("pub_samples", count pub_s);
                   ("sub_samples", count ctl_s);
                   ("cores", string_of_int (Domain.recommended_domain_count ()));
                   ("ops_by_kind",
                     json_obj
                       (List.map
                          (fun k -> (kind_name k, string_of_int (Array.fold_left (fun n x -> if x = k then n + 1 else n) 0 kinds)))
                          [ Plan.Sub; Plan.Unsub; Plan.Pub; Plan.Ping ]));
                 ] );
           ]);
      print_endline
        (json_obj
           [
             ("correct", string_of_bool correct);
             ("attempted", string_of_int attempted);
             ("failed", string_of_int failed);
             ("metrics", metrics_json metrics);
           ]);
      correct)

let () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 22; space_overhead = 200 };
  let a = parse () in
  match main a with
  | correct -> if not correct then exit 1
  | exception Gen.Failed msg ->
      Printf.eprintf "perfbench: %s\n" msg;
      exit 1
  | exception Unix.Unix_error (e, f, arg) ->
      Printf.eprintf "perfbench: %s(%s): %s\n" f arg (Unix.error_message e);
      exit 1
