(* lib/server end-to-end: wire-codec totality and roundtrips, the
   reconnect backoff policy, and the multi-process kill -9 chaos
   scenario (fork a fleet, SIGKILL a broker mid-refresh-wave, restart
   it from its WAL, audit that the recovered fleet misses nothing).

   The chaos seed comes from PROBSUB_CHAOS_SEED when set, so CI can
   sweep a seed matrix over the same binary; locally it defaults to
   42. *)

open Probsub_core
module Wire = Probsub_server.Wire
module Backoff = Probsub_server.Backoff
module Harness = Probsub_server.Harness
module Loadgen = Probsub_server.Loadgen
module Message = Probsub_broker.Message
module Audit = Probsub_broker.Audit

(* ------------------------------------------------------------------ *)
(* Wire codec *)

let sample_msgs =
  [
    Wire.Hello
      { role = Wire.Peer_role 3; session = 123_456_789; last_seen = 0; epoch = 0 };
    Wire.Hello
      { role = Wire.Client_role 42; session = 1; last_seen = 17; epoch = 2 };
    Wire.Hello
      { role = Wire.Standby_role 7; session = 55; last_seen = 0; epoch = 3 };
    Wire.Welcome { session = 99; last_seen = 5; epoch = 0 };
    Wire.Welcome { session = 100; last_seen = 0; epoch = 4 };
    Wire.Repl_stream (Wire.R_hello { from_lsn = 12 });
    Wire.Repl_stream (Wire.R_frames { bytes = "\x01\x02\x03raw" });
    Wire.Repl_stream
      (Wire.R_snapshot { snap = Some "snapbytes"; wal = "walbytes"; next_lsn = 9 });
    Wire.Repl_stream (Wire.R_snapshot { snap = None; wal = ""; next_lsn = 0 });
    Wire.Repl_stream (Wire.R_heartbeat { epoch = 6; next_lsn = 14 });
    Wire.Repl_stream (Wire.R_ack { applied_lsn = 41 });
    Wire.Payload
      (Message.Subscribe
         {
           key = 7;
           sub = Subscription.of_bounds [ (1, 5); (2, 9) ];
           epoch = 3;
         });
    Wire.Payload (Message.Unsubscribe { key = 9 });
    Wire.Payload
      (Message.Advertise
         { key = 4; adv = Subscription.of_bounds [ (0, 100); (5, 6) ] });
    Wire.Payload (Message.Unadvertise { key = 4 });
    Wire.Payload (Message.Publish { id = 31; pub = Publication.point [| 3; 4 |] });
    Wire.Payload
      (Message.Publish
         { id = 32; pub = Publication.box (Subscription.of_bounds [ (1, 2) ]) });
    Wire.Payload (Message.Ack { seq = 12 });
    Wire.Notify { client = 5; key = 7; pub_id = 31 };
    Wire.Frame_ack { seq = 44 };
    Wire.Bye;
  ]

(* Wire.msg holds abstract Subscription/Publication values; encoding is
   deterministic, so byte-equality of encodings is a faithful equality
   on messages. *)
let test_wire_roundtrip () =
  List.iter
    (fun msg ->
      let bytes = Wire.encode msg in
      match Wire.decode bytes with
      | Error e -> Alcotest.failf "decode failed: %s (%a)" e Wire.pp msg
      | Ok msg' ->
          Alcotest.(check string)
            (Format.asprintf "%a" Wire.pp msg)
            bytes (Wire.encode msg'))
    sample_msgs

let test_wire_rejects_trailing () =
  List.iter
    (fun msg ->
      match Wire.decode (Wire.encode msg ^ "\x00") with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "trailing byte accepted (%a)" Wire.pp msg)
    sample_msgs

let test_wire_rejects_truncation () =
  List.iter
    (fun msg ->
      let bytes = Wire.encode msg in
      for cut = 0 to String.length bytes - 1 do
        match Wire.decode (String.sub bytes 0 cut) with
        | Error _ -> ()
        | Ok _ ->
            (* A proper prefix may still decode iff it is itself a
               complete message of another shape — but our tags pin the
               length, so it must not. *)
            Alcotest.failf "truncation to %d bytes accepted (%a)" cut Wire.pp
              msg
      done)
    sample_msgs

let test_wire_classes () =
  let sheddable m = Wire.class_of m = Wire.Sheddable in
  Alcotest.(check bool)
    "publish is sheddable" true
    (sheddable
       (Wire.Payload (Message.Publish { id = 1; pub = Publication.point [| 0 |] })));
  Alcotest.(check bool)
    "notify is sheddable" true
    (sheddable (Wire.Notify { client = 1; key = 1; pub_id = 1 }));
  Alcotest.(check bool)
    "subscribe is control" false
    (sheddable
       (Wire.Payload
          (Message.Subscribe
             { key = 1; sub = Subscription.of_bounds [ (0, 1) ]; epoch = 0 })));
  Alcotest.(check bool) "hello is control" false (sheddable (Wire.Bye));
  (* Only control-plane payloads ride the acked channel. *)
  Alcotest.(check bool)
    "subscribe is acked" true
    (Wire.acked
       (Wire.Payload
          (Message.Subscribe
             { key = 1; sub = Subscription.of_bounds [ (0, 1) ]; epoch = 0 })));
  Alcotest.(check bool)
    "publish is not acked" false
    (Wire.acked
       (Wire.Payload (Message.Publish { id = 1; pub = Publication.point [| 0 |] })));
  Alcotest.(check bool)
    "welcome is not acked" false
    (Wire.acked (Wire.Welcome { session = 1; last_seen = 0; epoch = 0 }));
  Alcotest.(check bool)
    "repl stream is not acked" false
    (Wire.acked (Wire.Repl_stream (Wire.R_frames { bytes = "x" })))

let prop_decode_total =
  QCheck.Test.make ~count:500 ~name:"Wire.decode is total on arbitrary bytes"
    QCheck.(string_of_size (Gen.int_bound 64))
    (fun s ->
      match Wire.decode s with Ok _ | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Backoff *)

let test_backoff_bounds () =
  let base = 0.05 and cap = 2.0 in
  let b = Backoff.create ~base ~cap ~seed:7 () in
  for attempt = 0 to 12 do
    match Backoff.next_delay b with
    | None -> Alcotest.fail "unbounded budget refused"
    | Some d ->
        let ideal = Float.min cap (base *. (2.0 ** float_of_int attempt)) in
        if d < ideal *. 0.75 || d >= ideal *. 1.25 then
          Alcotest.failf "attempt %d: delay %g outside [%g, %g)" attempt d
            (ideal *. 0.75) (ideal *. 1.25)
  done

let test_backoff_budget_and_reset () =
  let b = Backoff.create ~base:0.01 ~cap:0.1 ~max_attempts:3 ~seed:1 () in
  Alcotest.(check bool) "1st" true (Backoff.next_delay b <> None);
  Alcotest.(check bool) "2nd" true (Backoff.next_delay b <> None);
  Alcotest.(check bool) "3rd" true (Backoff.next_delay b <> None);
  Alcotest.(check bool) "exhausted" true (Backoff.next_delay b = None);
  Alcotest.(check bool) "still exhausted" true (Backoff.next_delay b = None);
  Backoff.reset b;
  Alcotest.(check int) "attempts reset" 0 (Backoff.attempts b);
  match Backoff.next_delay b with
  | None -> Alcotest.fail "budget not restored by reset"
  | Some d ->
      Alcotest.(check bool)
        "restarts from base" true
        (d >= 0.01 *. 0.75 && d < 0.01 *. 1.25)

let test_backoff_deterministic () =
  let seq seed =
    let b = Backoff.create ~seed () in
    List.init 8 (fun _ -> Backoff.next_delay b)
  in
  Alcotest.(check bool) "same seed, same delays" true (seq 33 = seq 33);
  Alcotest.(check bool) "different seeds diverge" true (seq 33 <> seq 34)

(* ------------------------------------------------------------------ *)
(* The kill -9 chaos scenario *)

let chaos_seed () =
  match Option.bind (Sys.getenv_opt "PROBSUB_CHAOS_SEED") int_of_string_opt with
  | Some seed -> seed
  | None -> 42

let test_chaos_kill9_recovery () =
  let seed = chaos_seed () in
  let cc = Harness.config ~seed ~pubs:10 () in
  let r = Harness.run cc in
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
  phase "post-recovery" r.Harness.post;
  Alcotest.(check bool)
    (Printf.sprintf "audit clean across kill -9 recovery (seed %d)" seed)
    true r.Harness.clean;
  let recovery_seconds =
    match r.Harness.comeback with
    | Harness.Restarted { recovery_seconds } -> recovery_seconds
    | Harness.Promoted _ -> Alcotest.fail "the victim was not restarted"
  in
  Alcotest.(check bool)
    (Printf.sprintf "recovered promptly (%.3fs, seed %d)" recovery_seconds seed)
    true
    (recovery_seconds < 30.0)

(* ------------------------------------------------------------------ *)
(* Frame accounting: what [Broker_server.stats] counts, pinned against a
   raw client that counts its own frames. perfbench's
   server.frames_out_per_op reads these counters. *)

module Broker_server = Probsub_server.Broker_server
module Conn = Probsub_server.Conn

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

type raw = {
  conn : Conn.t;
  mutable sent : int;
  mutable got : int;
  mutable notified : int;
}

let raw_client ~sock_dir ~broker =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX (Broker_server.socket_path ~sock_dir broker));
  { conn = Conn.create fd; sent = 0; got = 0; notified = 0 }

let raw_send r ~seq msg =
  ignore (Conn.send_msg r.conn ~seq msg);
  r.sent <- r.sent + 1

let raw_frame r _seq msg =
  r.got <- r.got + 1;
  match msg with Wire.Notify _ -> r.notified <- r.notified + 1 | _ -> ()

let step_all servers r =
  List.iter Broker_server.step servers;
  if not (Conn.pump r.conn ~readable:true ~writable:true raw_frame r) then
    Alcotest.fail "raw client connection lost"

(* Hello, three subscribes and one publication matching all three. *)
let raw_workload servers r =
  raw_send r ~seq:0
    (Wire.Hello
       { role = Wire.Client_role 5; session = 77; last_seen = 0; epoch = 0 });
  List.iter
    (fun key ->
      raw_send r ~seq:key
        (Wire.Payload
           (Message.Subscribe
              { key; sub = Subscription.of_bounds [ (0, 10 * key) ];
                epoch = 0 })))
    [ 1; 2; 3 ];
  raw_send r ~seq:4
    (Wire.Payload
       (Message.Publish { id = 9; pub = Publication.point [| 5 |] }));
  let deadline = Unix.gettimeofday () +. 10.0 in
  while r.notified < 3 do
    if Unix.gettimeofday () > deadline then
      Alcotest.failf "publication not delivered (%d frames decoded)" r.got;
    step_all servers r
  done

let with_servers ~sock_dir ids f =
  let servers =
    List.map
      (fun id ->
        Broker_server.create
          (Broker_server.config ~id
             ~neighbors:(List.filter (fun n -> n <> id) ids)
             ~sock_dir ~arity:1 ~seed:(3 + id) ()))
      ids
  in
  Fun.protect
    ~finally:(fun () -> List.iter Broker_server.shutdown servers)
    (fun () -> f servers)

let test_frame_accounting () =
  let sock_dir = Filename.temp_dir "probsub-frames" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf sock_dir)
    (fun () ->
      with_servers ~sock_dir [ 0 ] (fun servers ->
          let r = raw_client ~sock_dir ~broker:0 in
          raw_workload servers r;
          let s = Broker_server.stats (List.hd servers) in
          Alcotest.(check int) "frames_in = frames the client sent" 5
            s.Broker_server.frames_in;
          Alcotest.(check int) "frames_out = frames the client decoded" 7
            s.Broker_server.frames_out;
          Alcotest.(check int) "client decoded Welcome, 3 acks, 3 notifies" 7
            r.got;
          Alcotest.(check int) "no sheds" 0 s.Broker_server.sheds;
          Conn.close r.conn);
      (* A neighbour in process: once quiet, the frames all three
         endpoints queued equal the frames all three decoded. *)
      with_servers ~sock_dir [ 0; 1 ] (fun servers ->
          let r = raw_client ~sock_dir ~broker:0 in
          raw_workload servers r;
          let total f =
            List.fold_left
              (fun n srv -> n + f (Broker_server.stats srv))
              0 servers
          in
          let sent () =
            total (fun s -> s.Broker_server.frames_out) + r.sent
          in
          let received () =
            total (fun s -> s.Broker_server.frames_in) + r.got
          in
          (* Quiet: the totals agree over three rounds in a row. A step
             blocks up to 250 ms when idle, so the peers' handshake and
             the subscription forwards take a few rounds to settle. *)
          let deadline = Unix.gettimeofday () +. 10.0 in
          let streak = ref 0 in
          while !streak < 3 do
            if Unix.gettimeofday () > deadline then
              Alcotest.failf "never quiet: %d frames sent, %d received"
                (sent ()) (received ());
            step_all servers r;
            if sent () = received () then incr streak else streak := 0
          done;
          let neighbour = Broker_server.stats (List.nth servers 1) in
          Alcotest.(check bool) "the neighbour got the forwards" true
            (neighbour.Broker_server.frames_in > 2);
          Alcotest.(check int) "frames sent = frames received" (sent ())
            (received ());
          Alcotest.(check int) "no sheds" 0
            (total (fun s -> s.Broker_server.sheds));
          Conn.close r.conn))

let suite =
  [
    Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire rejects trailing bytes" `Quick
      test_wire_rejects_trailing;
    Alcotest.test_case "wire rejects truncation" `Quick
      test_wire_rejects_truncation;
    Alcotest.test_case "wire classes and ack channel" `Quick test_wire_classes;
    QCheck_alcotest.to_alcotest prop_decode_total;
    Alcotest.test_case "backoff bounds" `Quick test_backoff_bounds;
    Alcotest.test_case "backoff budget and reset" `Quick
      test_backoff_budget_and_reset;
    Alcotest.test_case "backoff deterministic per seed" `Quick
      test_backoff_deterministic;
    Alcotest.test_case "kill -9 chaos: durable restart misses nothing" `Slow
      test_chaos_kill9_recovery;
    Alcotest.test_case "frame accounting" `Quick test_frame_accounting;
  ]
