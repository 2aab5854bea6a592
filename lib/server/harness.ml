open Probsub_core
module Audit = Probsub_broker.Audit

exception Error of string

let failf fmt =
  (Printf.ksprintf (fun s -> raise (Error s)) fmt
  [@problint.allow exn_flow
    "documented typed-failure contract: every harness entry point reports \
     scenario failure as Harness.Error, and the chaos tests catch it at \
     the top level"])

(* ------------------------------------------------------------------ *)
(* Process fleet *)

type fleet = {
  f_sock_dir : string;
  f_wal_root : string;
  f_configs : Broker_server.config array;
  f_pids : int option array;
  f_spawned : float array;  (* wall time of the last spawn, per broker *)
}

let sleepf s = try Unix.sleepf s with Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Fork without exec: the child becomes a broker process running the
   select loop forever (the parent stops it with a signal), signalling
   readiness over a pipe so the parent never races the bind (a standby
   signals after [create], i.e. once it is dialling its primary). *)
let fork_server cfg =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | exception e ->
      (* EAGAIN under process pressure is exactly when a chaos harness
         forks; without this branch both pipe ends leak per retry. *)
      Unix.close r;
      Unix.close w;
      raise e
  | 0 ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      (try
         Broker_server.run
           ~on_ready:(fun () ->
             (try
                ignore (Unix.write w (Bytes.make 1 'r') 0 1);
                Unix.close w
              with Unix.Unix_error _ -> ()))
           cfg
       with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close w;
      let buf = Bytes.create 1 in
      let n = try Unix.read r buf 0 1 with Unix.Unix_error _ -> 0 in
      Unix.close r;
      if n <> 1 then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (try Unix.waitpid [] pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0));
        failf "broker %d failed to come up" cfg.Broker_server.id
      end;
      pid

let spawn fleet i =
  let pid = fork_server fleet.f_configs.(i) in
  fleet.f_spawned.(i) <- Clock.now ();
  fleet.f_pids.(i) <- Some pid

let kill_pid pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (try Unix.waitpid [] pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0))

let kill9 fleet i =
  match fleet.f_pids.(i) with
  | None -> ()
  | Some pid ->
      kill_pid pid;
      fleet.f_pids.(i) <- None

let stop_fleet fleet = Array.iteri (fun i _ -> kill9 fleet i) fleet.f_pids

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* Line topology 0 - 1 - ... - n-1: publications from one end must
   traverse every interior broker to reach the other, so a probe across
   the line exercises the victim. *)
let make_fleet ~seed ~brokers ~arity ~refresh_interval ~sock_dir ~wal_root =
  let configs =
    Array.init brokers (fun i ->
        let neighbors =
          (if i > 0 then [ i - 1 ] else [])
          @ (if i < brokers - 1 then [ i + 1 ] else [])
        in
        let wal_dir = Filename.concat wal_root (Printf.sprintf "broker-%d" i) in
        (* Peer-reconnect cap 0.5 s, not the server default 2 s: during
           an outage longer than one doubling the accumulated delay
           otherwise dominates recovery_seconds — the fleet would sit
           out a ~2 s backoff after the victim is already back. *)
        Broker_server.config ~id:i ~neighbors ~sock_dir ~arity
          ~seed:(seed + (i * 1009))
          ~wal_dir:(Some wal_dir) ~refresh_interval
          ~lease_ttl:(refresh_interval *. 6.0)
          ~rto:0.2 ~max_retries:8 ~backoff_cap:0.5 ())
  in
  {
    f_sock_dir = sock_dir;
    f_wal_root = wal_root;
    f_configs = configs;
    f_pids = Array.make brokers None;
    f_spawned = Array.make brokers 0.0;
  }

(* ------------------------------------------------------------------ *)
(* Probes *)

let pump_for clients seconds =
  let deadline = Clock.now () +. seconds in
  while Clock.now () < deadline do
    Loadgen.poll_all clients;
    sleepf 0.002
  done

let midpoint sub =
  Publication.point
    (Array.map
       (fun r -> Interval.lo r + ((Interval.hi r - Interval.lo r) / 2))
       (Subscription.ranges sub))

(* Publish [pub] from [publisher] under a fresh id every
   [probe_interval], keeping every earlier probe outstanding, and pump
   until any one has delivered its full expected recipient set (per
   the in-process matcher); returns the wall time from [since] to that
   moment. Publications are sheddable and unretransmitted, so a probe
   lost to an outage never completes — but the next one is already a
   few ms behind it, so the reading resolves to the probe interval,
   not to a per-probe timeout. *)
let probe_interval = 0.005

let probe_until ~w ~clients ~publisher ~pub_base ~pub ~since ~deadline =
  let expected = Loadgen.expected_recipients w pub in
  if expected = [] then failf "probe publication matches no subscription";
  let sent = ref 0 and next_send = ref (Clock.now ()) in
  (* Deliveries per outstanding probe id, [pub_base + i] at [i]. *)
  let round_tripped () =
    let got = Array.make !sent [] in
    List.iter
      (fun c ->
        List.iter
          (fun n ->
            let i = n.Loadgen.n_pub - pub_base in
            if i >= 0 && i < !sent then
              got.(i) <- (Loadgen.home c, Loadgen.client_id c, n.Loadgen.n_key)
                         :: got.(i))
          (Loadgen.notifications c))
      clients;
    Array.exists (fun d -> List.sort_uniq compare d = expected) got
  in
  let rec go () =
    Loadgen.poll_all clients;
    let now = Clock.now () in
    if round_tripped () then now -. since
    else if now >= deadline then
      failf "probe never round-tripped within its deadline"
    else begin
      if now >= !next_send then begin
        if Loadgen.publish publisher ~id:(pub_base + !sent) pub then incr sent;
        next_send := now +. probe_interval
      end;
      sleepf 0.002;
      go ()
    end
  in
  go ()

(* A probe that must cross the whole line: published by a client of
   broker [src], matching (at least) a subscription homed at [dst]. *)
let cross_line_probe w clients ~src ~dst =
  let table = Loadgen.workload_table w in
  let publisher =
    match
      List.find_opt (fun c -> Loadgen.home c = src) clients
    with
    | Some c -> c
    | None -> failf "no client homed at broker %d" src
  in
  let sub =
    match
      List.find_map
        (fun (b, _, subs) ->
          if b = dst then
            match subs with (_, sub) :: _ -> Some sub | [] -> None
          else None)
        table
    with
    | Some sub -> sub
    | None -> failf "no subscription homed at broker %d" dst
  in
  (publisher, midpoint sub)

(* ------------------------------------------------------------------ *)
(* The chaos scenario *)

type config = {
  seed : int;
  brokers : int;
  clients_per_broker : int;
  subs_per_client : int;
  arity : int;
  pubs : int;  (** per measured phase (before and after the kill) *)
  refresh_interval : float;
  per_pub_timeout : float;
}

let config ?(brokers = 3) ?(clients_per_broker = 2) ?(subs_per_client = 4)
    ?(arity = 2) ?(pubs = 30) ?(refresh_interval = 0.5)
    ?(per_pub_timeout = 3.0) ~seed () =
  if brokers < 2 then invalid_arg "Harness.config: need at least 2 brokers";
  if clients_per_broker < 1 || subs_per_client < 1 || pubs < 1 then
    invalid_arg "Harness.config: empty workload";
  if refresh_interval <= 0.0 || per_pub_timeout <= 0.0 then
    invalid_arg "Harness.config: non-positive interval";
  {
    seed;
    brokers;
    clients_per_broker;
    subs_per_client;
    arity;
    pubs;
    refresh_interval;
    per_pub_timeout;
  }

type result = {
  victim : int;
  connections : int;  (** client connections across the fleet *)
  recovery_seconds : float;
      (** restart initiation to the first publication round-tripping
          through the restarted broker *)
  pre : Loadgen.result;  (** closed-loop phase before the kill *)
  post : Loadgen.result;  (** closed-loop phase after recovery *)
  clean : bool;
      (** both phases audit clean with byte-identical verdicts *)
}

let phase_clean (r : Loadgen.result) =
  Audit.is_clean r.Loadgen.audit && r.Loadgen.verdicts_match

(* Wait until the victim's refresh phase sits just past a wave tick,
   so the SIGKILL lands while the wave's Subscribe forwards and acks
   are in flight — the torn-WAL-tail, half-propagated-epoch case the
   recovery path must absorb. *)
let align_mid_wave fleet clients ~victim ~interval =
  let elapsed = Clock.now () -. fleet.f_spawned.(victim) in
  let target = 0.1 *. interval in
  let frac = Float.rem elapsed interval in
  let wait = if frac <= target then target -. frac else interval -. frac +. target in
  pump_for clients wait

let run cc =
  let sock_dir = Filename.temp_dir "probsub-sock" "" in
  let wal_root = Filename.temp_dir "probsub-wal" "" in
  let fleet =
    make_fleet ~seed:cc.seed ~brokers:cc.brokers ~arity:cc.arity
      ~refresh_interval:cc.refresh_interval ~sock_dir ~wal_root
  in
  let clients = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter Loadgen.close_client !clients;
      stop_fleet fleet;
      rm_rf sock_dir;
      rm_rf wal_root)
    (fun () ->
      Array.iteri (fun i _ -> spawn fleet i) fleet.f_configs;
      let rng = Prng.of_int cc.seed in
      clients :=
        List.concat
          (List.init cc.brokers (fun b ->
               List.init cc.clients_per_broker (fun j ->
                   Loadgen.connect_client ~sock_dir ~broker:b
                     ~client:((b * 100) + j + 1)
                     ~seed:((cc.seed * 7919) + (b * 100) + j)
                     ())));
      let clients = !clients in
      if not (Loadgen.wait_connected clients) then
        failf "clients failed to connect";
      let w =
        Loadgen.install ~rng ~arity:cc.arity
          ~subs_per_client:cc.subs_per_client clients
      in
      if not (Loadgen.wait_acked clients) then
        failf "subscriptions were never acked";
      (* Warm up: a probe in each direction across the whole line
         proves the subscription flood reached every broker. *)
      let last = cc.brokers - 1 in
      let deadline = Clock.now () +. 30.0 in
      let p_fwd, pub_fwd = cross_line_probe w clients ~src:0 ~dst:last in
      let (_ : float) =
        probe_until ~w ~clients ~publisher:p_fwd ~pub_base:2_000_000
          ~pub:pub_fwd ~since:(Clock.now ()) ~deadline
      in
      let p_bwd, pub_bwd = cross_line_probe w clients ~src:last ~dst:0 in
      let (_ : float) =
        probe_until ~w ~clients ~publisher:p_bwd ~pub_base:2_100_000
          ~pub:pub_bwd ~since:(Clock.now ()) ~deadline
      in
      (* Phase 1: healthy fleet. *)
      let pre =
        Loadgen.drive ~pub_base:1_000_000 ~rng ~arity:cc.arity ~pubs:cc.pubs
          ~per_pub_timeout:cc.per_pub_timeout w
      in
      (* SIGKILL an interior broker mid-refresh-wave. *)
      let victim = cc.brokers / 2 in
      align_mid_wave fleet clients ~victim ~interval:cc.refresh_interval;
      kill9 fleet victim;
      (* Let the fleet notice: peers and the victim's clients see EOF
         and enter backoff. *)
      pump_for clients cc.refresh_interval;
      (* Restart from the same WAL directory. *)
      let t_restart = Clock.now () in
      spawn fleet victim;
      let recovery_seconds =
        probe_until ~w ~clients ~publisher:p_fwd ~pub_base:2_200_000
          ~pub:pub_fwd ~since:t_restart
          ~deadline:(t_restart +. 60.0)
      in
      (* One refresh wave after recovery re-synchronizes lease epochs
         everywhere; then the audited phase must be spotless. *)
      pump_for clients cc.refresh_interval;
      let post =
        Loadgen.drive ~pub_base:3_000_000 ~rng ~arity:cc.arity ~pubs:cc.pubs
          ~per_pub_timeout:cc.per_pub_timeout w
      in
      {
        victim;
        connections = List.length clients;
        recovery_seconds;
        pre;
        post;
        clean = phase_clean pre && phase_clean post;
      })

let pp_result ppf r =
  Format.fprintf ppf
    "victim=%d connections=%d recovery=%.3fs@ pre: %.1f pubs/s p50=%.2fms \
     p99=%.2fms clean=%b@ post: %.1f pubs/s p50=%.2fms p99=%.2fms clean=%b"
    r.victim r.connections r.recovery_seconds r.pre.Loadgen.pubs_per_sec
    r.pre.Loadgen.p50_ms r.pre.Loadgen.p99_ms (phase_clean r.pre)
    r.post.Loadgen.pubs_per_sec r.post.Loadgen.p50_ms r.post.Loadgen.p99_ms
    (phase_clean r.post)

(* ------------------------------------------------------------------ *)
(* The failover scenario: same fleet, but the victim has a hot standby
   and is never restarted — the standby must take over. *)

(* A standby shadowing [victim]: same broker identity and neighbours
   (it inherits the victim's place in the topology on promotion),
   replicating into its own WAL directory, with tight heartbeats so
   failover detection is sub-second. *)
let standby_config fleet ~victim =
  let cfg = fleet.f_configs.(victim) in
  let wal_dir =
    Filename.concat fleet.f_wal_root (Printf.sprintf "broker-%d-standby" victim)
  in
  Broker_server.config ~id:cfg.Broker_server.id
    ~neighbors:cfg.Broker_server.neighbors ~sock_dir:fleet.f_sock_dir
    ~arity:cfg.Broker_server.arity
    ~seed:(cfg.Broker_server.seed + 500_009)
    ~wal_dir:(Some wal_dir)
    ~refresh_interval:cfg.Broker_server.refresh_interval
    ~lease_ttl:cfg.Broker_server.lease_ttl ~rto:0.2 ~max_retries:8
    ~backoff_cap:0.5
    ~standby_of:
      (Some (Broker_server.socket_path ~sock_dir:fleet.f_sock_dir victim))
    ~repl_hb_interval:0.1 ~repl_hb_timeout:0.5 ()

(* Poll-connect the victim's socket path (5 ms cadence, pumping the
   clients between attempts) until somebody accepts again — the moment
   the promoted standby has bound it. *)
let wait_takeover clients ~path ~since ~deadline =
  let rec go () =
    if Clock.now () >= deadline then
      failf "standby never took over the socket"
    else begin
      Loadgen.poll_all clients;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let up =
        match
          (Unix.connect fd (Unix.ADDR_UNIX path)
           [@problint.allow blocking
             "a Unix-domain connect to a listening (or absent) socket \
              returns immediately; this is the harness's takeover \
              detector, polled at 5 ms"])
        with
        | () -> true
        | exception Unix.Unix_error (_, _, _) -> false
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if up then Clock.now () -. since
      else begin
        sleepf 0.005;
        go ()
      end
    end
  in
  go ()

type failover_result = {
  victim : int;
  connections : int;  (** client connections across the fleet *)
  detection_seconds : float;
      (** SIGKILL to the promoted standby accepting on the victim's
          socket path *)
  outage_seconds : float;
      (** SIGKILL to the first publication round-tripping through the
          promoted standby *)
  failover_reconnects : int;
      (** clients that re-handshook at the raised epoch *)
  pre : Loadgen.result;
  post : Loadgen.result;
  clean : bool;
}

let run_failover cc =
  let sock_dir = Filename.temp_dir "probsub-sock" "" in
  let wal_root = Filename.temp_dir "probsub-wal" "" in
  let fleet =
    make_fleet ~seed:cc.seed ~brokers:cc.brokers ~arity:cc.arity
      ~refresh_interval:cc.refresh_interval ~sock_dir ~wal_root
  in
  let victim = cc.brokers / 2 in
  let standby_pid = ref None in
  let clients = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter Loadgen.close_client !clients;
      (match !standby_pid with Some pid -> kill_pid pid | None -> ());
      stop_fleet fleet;
      rm_rf sock_dir;
      rm_rf wal_root)
    (fun () ->
      Array.iteri (fun i _ -> spawn fleet i) fleet.f_configs;
      standby_pid := Some (fork_server (standby_config fleet ~victim));
      let rng = Prng.of_int cc.seed in
      clients :=
        List.concat
          (List.init cc.brokers (fun b ->
               List.init cc.clients_per_broker (fun j ->
                   Loadgen.connect_client ~sock_dir ~broker:b
                     ~client:((b * 100) + j + 1)
                     ~seed:((cc.seed * 7919) + (b * 100) + j)
                     ())));
      let clients = !clients in
      if not (Loadgen.wait_connected clients) then
        failf "clients failed to connect";
      let w =
        Loadgen.install ~rng ~arity:cc.arity
          ~subs_per_client:cc.subs_per_client clients
      in
      if not (Loadgen.wait_acked clients) then
        failf "subscriptions were never acked";
      let last = cc.brokers - 1 in
      let deadline = Clock.now () +. 30.0 in
      let p_fwd, pub_fwd = cross_line_probe w clients ~src:0 ~dst:last in
      let (_ : float) =
        probe_until ~w ~clients ~publisher:p_fwd ~pub_base:2_000_000
          ~pub:pub_fwd ~since:(Clock.now ()) ~deadline
      in
      let p_bwd, pub_bwd = cross_line_probe w clients ~src:last ~dst:0 in
      let (_ : float) =
        probe_until ~w ~clients ~publisher:p_bwd ~pub_base:2_100_000
          ~pub:pub_bwd ~since:(Clock.now ()) ~deadline
      in
      (* Phase 1: healthy fleet, standby streaming alongside. *)
      let pre =
        Loadgen.drive ~pub_base:1_000_000 ~rng ~arity:cc.arity ~pubs:cc.pubs
          ~per_pub_timeout:cc.per_pub_timeout w
      in
      (* SIGKILL the primary mid-refresh-wave; never restart it. The
         standby's heartbeat watchdog must notice, promote over the
         replicated WAL, raise the fence epoch and take the socket. *)
      align_mid_wave fleet clients ~victim ~interval:cc.refresh_interval;
      kill9 fleet victim;
      let t_kill = Clock.now () in
      let path = Broker_server.socket_path ~sock_dir victim in
      let detection_seconds =
        wait_takeover clients ~path ~since:t_kill ~deadline:(t_kill +. 30.0)
      in
      let outage_seconds =
        probe_until ~w ~clients ~publisher:p_fwd ~pub_base:2_300_000
          ~pub:pub_fwd ~since:t_kill
          ~deadline:(t_kill +. 60.0)
      in
      (* One refresh wave re-synchronizes lease epochs through the new
         primary; then the audited phase must be spotless. *)
      pump_for clients cc.refresh_interval;
      let post =
        Loadgen.drive ~pub_base:3_000_000 ~rng ~arity:cc.arity ~pubs:cc.pubs
          ~per_pub_timeout:cc.per_pub_timeout w
      in
      {
        victim;
        connections = List.length clients;
        detection_seconds;
        outage_seconds;
        failover_reconnects =
          List.fold_left
            (fun n c -> n + Loadgen.failover_reconnects c)
            0 clients;
        pre;
        post;
        clean = phase_clean pre && phase_clean post;
      })

let pp_failover_result ppf r =
  Format.fprintf ppf
    "victim=%d connections=%d detection=%.3fs outage=%.3fs reconnects=%d@ \
     pre: %.1f pubs/s p50=%.2fms p99=%.2fms clean=%b@ post: %.1f pubs/s \
     p50=%.2fms p99=%.2fms clean=%b"
    r.victim r.connections r.detection_seconds r.outage_seconds
    r.failover_reconnects r.pre.Loadgen.pubs_per_sec r.pre.Loadgen.p50_ms
    r.pre.Loadgen.p99_ms (phase_clean r.pre) r.post.Loadgen.pubs_per_sec
    r.post.Loadgen.p50_ms r.post.Loadgen.p99_ms (phase_clean r.post)
