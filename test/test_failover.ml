(* Failover suite: the WAL resume contract the shipper relies on, fence
   journalling and its compaction survival, ship/apply state
   equivalence, the client backoff-reset pin, in-process promotion and
   epoch fencing, and the multi-process failover chaos scenario (fork a
   fleet with a hot standby, SIGKILL the primary mid-refresh-wave,
   audit that the promoted standby misses nothing).

   The chaos seed comes from PROBSUB_CHAOS_SEED when set, so CI can
   sweep a seed matrix over the same binary; locally it defaults to
   42. *)

open Probsub_core
open Probsub_store_log
module Repl = Probsub_server.Repl
module Wire = Probsub_server.Wire
module Conn = Probsub_server.Conn
module Broker_server = Probsub_server.Broker_server
module Loadgen = Probsub_server.Loadgen
module Harness = Probsub_server.Harness
module Audit = Probsub_broker.Audit

let sub lo hi = Subscription.of_bounds [ (lo, hi) ]
let pairwise = Subscription_store.Pairwise_policy

let sleepf s = try Unix.sleepf s with Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* ------------------------------------------------------------------ *)
(* Wal.scan_from: resuming from any valid offset yields exactly the
   fresh-scan suffix — including on WALs that crossed a compaction. *)

(* Drive a durable store through an arbitrary op sequence (adds,
   removes, bindings, epoch notes, fences, compactions) and return the
   final WAL bytes. *)
let build_wal ops =
  let dev, wal_file, _snap = Device.in_memory () in
  let store, log =
    Store_log.fresh ~policy:pairwise ~device:dev ~arity:1 ~seed:11 ()
  in
  let live = ref [] in
  List.iter
    (fun (k, n) ->
      match k mod 6 with
      | 0 ->
          let id, _ = Subscription_store.add store (sub (n mod 40) ((n mod 40) + 5)) in
          live := id :: !live
      | 1 -> (
          match !live with
          | [] -> ()
          | id :: rest ->
              ignore (Subscription_store.remove store id);
              live := rest)
      | 2 ->
          Store_log.log_binding log
            { Codec.b_rid = n; b_key = n; b_okind = 1; b_oarg = 0; b_epoch = 0 }
      | 3 -> Store_log.log_epoch log ~key:(n mod 7) ~epoch:(n + 1)
      | 4 -> Store_log.log_fence log ~epoch:(n + 1)
      | _ -> Store_log.compact log store ~bindings:[])
    ops;
  Sim_file.contents wal_file

let prop_scan_from_resume =
  QCheck.Test.make ~count:100
    ~name:"Wal.scan_from at any entry boundary yields the fresh-scan suffix"
    QCheck.(list (pair (int_bound 5) (int_bound 50)))
    (fun ops ->
      let bytes = build_wal ops in
      let full = Wal.scan bytes in
      if full.Wal.stop <> Wal.Clean then
        QCheck.Test.fail_reportf "undamaged WAL scanned unclean";
      let rec check prev = function
        | [] -> true
        | (e : Wal.entry) :: rest ->
            let s = Wal.scan_from bytes ~pos:e.Wal.e_offset ~last_lsn:prev in
            s.Wal.records = e :: rest
            && s.Wal.stop = Wal.Clean
            && s.Wal.valid_bytes = full.Wal.valid_bytes
            && check e.Wal.e_lsn rest
      in
      let last_lsn =
        match List.rev full.Wal.records with
        | [] -> -1
        | e :: _ -> e.Wal.e_lsn
      in
      let at_end =
        Wal.scan_from bytes ~pos:full.Wal.valid_bytes ~last_lsn
      in
      check (-1) full.Wal.records
      && at_end.Wal.records = []
      && at_end.Wal.stop = Wal.Clean)

(* ------------------------------------------------------------------ *)
(* Fence records: codec roundtrip, recovery, compaction survival. *)

let test_fence_codec () =
  List.iter
    (fun epoch ->
      let r = Codec.Fence { epoch } in
      match Codec.decode (Codec.encode r) with
      | Ok r' -> Alcotest.(check bool) "roundtrip" true (r = r')
      | Error e -> Alcotest.failf "fence decode failed: %s" e)
    [ 0; 1; 7; 1_000_000 ]

let test_fence_recovery_and_compaction () =
  let dev, _, _ = Device.in_memory () in
  let store, log =
    Store_log.fresh ~policy:pairwise ~device:dev ~arity:1 ~seed:3 ()
  in
  Alcotest.(check int) "fresh fence" 0 (Store_log.fence log);
  Store_log.log_fence log ~epoch:3;
  Store_log.log_fence log ~epoch:2 (* monotone: no-op *);
  Alcotest.(check int) "raised fence" 3 (Store_log.fence log);
  (match Store_log.recover ~device:dev () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok r -> Alcotest.(check int) "recovered fence" 3 r.Store_log.r_fence);
  (* The snapshot does not carry the fence; compaction must re-journal
     it so a post-compaction recovery still refuses the old epoch. *)
  ignore (Subscription_store.add store (sub 0 5));
  Store_log.compact log store ~bindings:[];
  match Store_log.recover ~device:dev () with
  | Error e -> Alcotest.failf "recover after compact: %s" e
  | Ok r ->
      Alcotest.(check int) "fence survives compaction" 3 r.Store_log.r_fence

(* ------------------------------------------------------------------ *)
(* Ship/apply: the standby's device recovers to a store equal_state to
   the primary's at every shipped prefix, across compaction rebases and
   resume handshakes. *)

let apply_all apply events =
  List.iter
    (fun e ->
      match Repl.Apply.apply apply e with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "apply: %s" m)
    events

let check_equal name store dev =
  match Store_log.recover ~device:dev () with
  | Error e -> Alcotest.failf "%s: standby recover: %s" name e
  | Ok r ->
      Alcotest.(check bool)
        (name ^ ": standby equal_state to primary")
        true
        (Subscription_store.equal_state store r.Store_log.r_store)

let test_ship_apply_equivalence () =
  let primary_dev, _, _ = Device.in_memory () in
  let ship, wrapped = Repl.Ship.tap primary_dev in
  let store, log =
    Store_log.fresh ~policy:pairwise ~device:wrapped ~arity:1 ~seed:7 ()
  in
  let standby_dev, _, _ = Device.in_memory () in
  let apply = Repl.Apply.create ~device:standby_dev in
  let sync name =
    apply_all apply (Repl.Ship.drain ship);
    check_equal name store standby_dev;
    Alcotest.(check int)
      (name ^ ": positions agree")
      (Repl.Ship.next_lsn ship) (Repl.Apply.next_lsn apply)
  in
  sync "genesis";
  let ids = ref [] in
  for i = 0 to 19 do
    let id, _ = Subscription_store.add store (sub i (i + 4)) in
    ids := id :: !ids;
    if i mod 3 = 0 then sync (Printf.sprintf "after add %d" i)
  done;
  sync "all adds";
  (match !ids with
  | a :: b :: _ ->
      ignore (Subscription_store.remove store a);
      ignore (Subscription_store.remove store b)
  | _ -> Alcotest.fail "no ids");
  sync "after removes";
  (* Compaction becomes a snapshot rebase on the wire. *)
  Store_log.compact log store ~bindings:[];
  sync "after compaction";
  ignore (Subscription_store.add store (sub 100 104));
  sync "post-compaction append";
  (* Replaying an already-applied chunk must be an idempotent no-op:
     stale frames are skipped by LSN. *)
  let before = Repl.Apply.next_lsn apply in
  apply_all apply (Repl.Ship.resume ship ~from_lsn:0);
  Alcotest.(check int) "stale replay is idempotent" before
    (Repl.Apply.next_lsn apply);
  check_equal "after stale replay" store standby_dev;
  (* A fresh standby handshaking from zero gets a stream that lands it
     on the same state. *)
  let fresh_dev, _, _ = Device.in_memory () in
  let fresh_apply = Repl.Apply.create ~device:fresh_dev in
  apply_all fresh_apply
    (Repl.Ship.resume ship ~from_lsn:(Repl.Apply.next_lsn fresh_apply));
  check_equal "fresh standby resume" store fresh_dev;
  (* A current standby gets nothing. *)
  Alcotest.(check int) "current standby resumes empty" 0
    (List.length (Repl.Ship.resume ship ~from_lsn:(Repl.Ship.next_lsn ship)))

(* A burst of appends drains as one chunk: their bytes in order. *)
let test_ship_drain_coalesces () =
  let dev, _, _ = Device.in_memory () in
  let ship, wrapped = Repl.Ship.tap dev in
  let frames = List.init 1_000 (fun i -> Printf.sprintf "frame-%04d;" i) in
  List.iter wrapped.Device.append_wal frames;
  (match Repl.Ship.drain ship with
  | [ Repl.E_frames bytes ] ->
      Alcotest.(check bool) "one chunk, the appends concatenated" true
        (String.equal bytes (String.concat "" frames))
  | events -> Alcotest.failf "expected one chunk, got %d events" (List.length events));
  Alcotest.(check int) "every append counted" 1_000 (Repl.Ship.frames_shipped ship);
  Alcotest.(check int) "drained" 0 (List.length (Repl.Ship.drain ship))

(* ------------------------------------------------------------------ *)
(* In-process servers: no fork, two Broker_server values stepped by
   hand in one thread. *)

let temp_dir () = Filename.temp_dir "probsub-failover" ""

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let pump ?(servers = []) ?(clients = []) ~until ~timeout msg =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if until () then ()
    else if Unix.gettimeofday () >= deadline then
      Alcotest.failf "timed out: %s" msg
    else begin
      List.iter Broker_server.step servers;
      List.iter Loadgen.poll clients;
      go ()
    end
  in
  go ()

(* The client reconnect backoff must restart from the base delay after
   a successful handshake — pinned via the [backoff_attempts] accessor
   so the accumulated-cap regression cannot silently return. *)
let test_backoff_reset_after_welcome () =
  let sock_dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf sock_dir)
    (fun () ->
      let client =
        Loadgen.connect_client ~sock_dir ~broker:0 ~client:1 ~seed:5 ()
      in
      Alcotest.(check int) "no attempts yet" 0 (Loadgen.backoff_attempts client);
      (* Nobody listening: every poll-driven dial fails and burns an
         attempt. *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      while
        Loadgen.backoff_attempts client < 3 && Unix.gettimeofday () < deadline
      do
        Loadgen.poll client;
        sleepf 0.01
      done;
      Alcotest.(check bool)
        "attempts accumulated while down" true
        (Loadgen.backoff_attempts client >= 3);
      (* Bring the broker up; the next successful Welcome must zero the
         counter. *)
      let cfg =
        Broker_server.config ~id:0 ~neighbors:[] ~sock_dir ~arity:1 ~seed:1 ()
      in
      let srv = Broker_server.create cfg in
      Fun.protect
        ~finally:(fun () -> Broker_server.shutdown srv)
        (fun () ->
          pump ~servers:[ srv ] ~clients:[ client ]
            ~until:(fun () -> Loadgen.connected client)
            ~timeout:10.0 "client never welcomed";
          Alcotest.(check int) "backoff reset by Welcome" 0
            (Loadgen.backoff_attempts client));
      Loadgen.close_client client)

(* A primary that hears a higher fence epoch for its own identity on
   any handshake demotes: closes its listening socket and every
   connection, and never acks a write again. *)
let test_demote_on_higher_epoch () =
  let sock_dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf sock_dir)
    (fun () ->
      let cfg =
        Broker_server.config ~id:0 ~neighbors:[] ~sock_dir ~arity:1 ~seed:2 ()
      in
      let srv = Broker_server.create cfg in
      Alcotest.(check bool)
        "starts primary" true
        (Broker_server.role srv = Broker_server.Primary);
      let path = Broker_server.socket_path ~sock_dir 0 in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let c = Conn.create fd in
      ignore
        (Conn.send_msg c ~seq:0
           (Wire.Hello
              {
                role = Wire.Client_role 9;
                session = 1;
                last_seen = 0;
                epoch = 99;
              }));
      ignore (Conn.flush c);
      let deadline = Unix.gettimeofday () +. 5.0 in
      while
        Broker_server.role srv <> Broker_server.Fenced
        && Unix.gettimeofday () < deadline
      do
        Broker_server.step srv
      done;
      Conn.close c;
      Alcotest.(check bool)
        "demoted to fenced" true
        (Broker_server.role srv = Broker_server.Fenced);
      Alcotest.(check int) "adopted the higher epoch" 99
        (Broker_server.epoch srv);
      (* Fenced means no listener: a fresh dial must be refused, so no
         write can ever be acked by the superseded primary. *)
      let fd2 = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (match Unix.connect fd2 (Unix.ADDR_UNIX path) with
      | () -> Alcotest.fail "fenced primary still accepts connections"
      | exception Unix.Unix_error _ -> ());
      (try Unix.close fd2 with Unix.Unix_error _ -> ());
      Broker_server.shutdown srv)

(* Full in-process failover: primary + standby + client, primary dies,
   standby promotes over the replicated WAL, raises the epoch, takes
   the socket, and serves the client's pre-crash subscription. *)
let test_inprocess_promotion () =
  let sock_dir = temp_dir () in
  let wal_root = temp_dir () in
  Fun.protect
    ~finally:(fun () ->
      rm_rf sock_dir;
      rm_rf wal_root)
    (fun () ->
      let p_cfg =
        Broker_server.config ~id:0 ~neighbors:[] ~sock_dir ~arity:1 ~seed:1
          ~wal_dir:(Some (Filename.concat wal_root "primary"))
          ~repl_hb_interval:0.05 ~repl_hb_timeout:0.3 ()
      in
      let s_cfg =
        Broker_server.config ~id:0 ~neighbors:[] ~sock_dir ~arity:1 ~seed:2
          ~wal_dir:(Some (Filename.concat wal_root "standby"))
          ~standby_of:(Some (Broker_server.socket_path ~sock_dir 0))
          ~repl_hb_interval:0.05 ~repl_hb_timeout:0.3 ()
      in
      let p = Broker_server.create p_cfg in
      let s = Broker_server.create s_cfg in
      Alcotest.(check bool)
        "standby role" true
        (Broker_server.role s = Broker_server.Standby);
      let client =
        Loadgen.connect_client ~sock_dir ~broker:0 ~client:1 ~seed:9 ()
      in
      pump ~servers:[ p; s ] ~clients:[ client ]
        ~until:(fun () -> Loadgen.connected client)
        ~timeout:10.0 "client never connected to the primary";
      Loadgen.subscribe client ~key:1 (sub 10 20);
      pump ~servers:[ p; s ] ~clients:[ client ]
        ~until:(fun () -> Loadgen.in_flight client = 0)
        ~timeout:10.0 "subscribe never acked";
      (* A few heartbeat rounds so the shipped WAL reaches the standby
         before the crash. *)
      let settle = Unix.gettimeofday () +. 0.3 in
      pump ~servers:[ p; s ] ~clients:[ client ]
        ~until:(fun () -> Unix.gettimeofday () >= settle)
        ~timeout:5.0 "settle";
      (* The primary dies; only the standby is stepped from here on. *)
      Broker_server.shutdown p;
      pump ~servers:[ s ] ~clients:[ client ]
        ~until:(fun () -> Broker_server.role s = Broker_server.Primary)
        ~timeout:15.0 "standby never promoted";
      Alcotest.(check bool) "epoch raised" true (Broker_server.epoch s >= 1);
      pump ~servers:[ s ] ~clients:[ client ]
        ~until:(fun () -> Loadgen.connected client)
        ~timeout:15.0 "client never reconnected to the new primary";
      Alcotest.(check int) "one failover reconnect" 1
        (Loadgen.failover_reconnects client);
      Alcotest.(check int) "client saw the raised epoch"
        (Broker_server.epoch s) (Loadgen.epoch_seen client);
      (* The pre-crash subscription must have crossed the replication
         stream: a matching publication round-trips through the
         promoted standby. *)
      let pub = Publication.point [| 15 |] in
      let pub_id = 777 in
      let sent = ref (Loadgen.publish client ~id:pub_id pub) in
      pump ~servers:[ s ] ~clients:[ client ]
        ~until:(fun () ->
          if not !sent then sent := Loadgen.publish client ~id:pub_id pub;
          List.exists
            (fun n -> n.Loadgen.n_pub = pub_id)
            (Loadgen.notifications client))
        ~timeout:15.0 "publication never delivered by the promoted standby";
      Loadgen.close_client client;
      Broker_server.shutdown s)

(* ------------------------------------------------------------------ *)
(* The multi-process failover chaos scenario *)

let chaos_seed () =
  match Option.bind (Sys.getenv_opt "PROBSUB_CHAOS_SEED") int_of_string_opt with
  | Some seed -> seed
  | None -> 42

let test_chaos_failover () =
  let seed = chaos_seed () in
  let cc = Harness.config ~seed ~pubs:10 () in
  let r = Harness.run_failover cc in
  let phase name (p : Loadgen.result) =
    let report = p.Loadgen.audit in
    if not (Audit.is_clean report) then
      Alcotest.failf "%s phase (seed %d): %a" name seed Audit.pp report;
    Alcotest.(check bool)
      (Printf.sprintf "%s phase verdicts byte-identical (seed %d)" name seed)
      true p.Loadgen.verdicts_match;
    Alcotest.(check bool)
      (Printf.sprintf "%s phase delivered everything (seed %d)" name seed)
      true
      (p.Loadgen.expected = p.Loadgen.delivered)
  in
  phase "pre-kill" r.Harness.pre;
  phase "post-failover" r.Harness.post;
  Alcotest.(check bool)
    (Printf.sprintf "audit clean across failover (seed %d)" seed)
    true r.Harness.clean;
  match r.Harness.comeback with
  | Harness.Restarted _ -> Alcotest.fail "the standby did not take over"
  | Harness.Promoted { detection_seconds; outage_seconds; failover_reconnects }
    ->
      Alcotest.(check bool)
        (Printf.sprintf "takeover detected promptly (%.3fs, seed %d)"
           detection_seconds seed)
        true
        (detection_seconds < 10.0);
      Alcotest.(check bool)
        (Printf.sprintf "outage bounded (%.3fs, seed %d)" outage_seconds seed)
        true (outage_seconds < 30.0);
      Alcotest.(check bool)
        (Printf.sprintf "clients resumed at the new epoch (%d, seed %d)"
           failover_reconnects seed)
        true
        (failover_reconnects >= 1)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_scan_from_resume;
    Alcotest.test_case "fence codec roundtrip" `Quick test_fence_codec;
    Alcotest.test_case "fence recovery and compaction survival" `Quick
      test_fence_recovery_and_compaction;
    Alcotest.test_case "ship drain coalesces a burst" `Quick
      test_ship_drain_coalesces;
    Alcotest.test_case "ship/apply state equivalence" `Quick
      test_ship_apply_equivalence;
    Alcotest.test_case "backoff resets after welcome" `Quick
      test_backoff_reset_after_welcome;
    Alcotest.test_case "higher epoch demotes and fences" `Quick
      test_demote_on_higher_epoch;
    Alcotest.test_case "in-process promotion serves replicated state" `Quick
      test_inprocess_promotion;
    Alcotest.test_case "kill -9 failover: hot standby misses nothing" `Slow
      test_chaos_failover;
  ]
