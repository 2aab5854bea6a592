(* probsub — command-line driver for the probabilistic subsumption
   library: run any paper experiment at a chosen scale, print the
   worked examples, or exercise the chain model. *)

open Cmdliner
open Probsub_core
open Probsub_experiments

let seed_arg =
  let doc = "Random seed (experiments are fully deterministic per seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let runs_arg =
  let doc =
    "Runs averaged per parameter point. The paper uses 1000 (Figs. 6-10) \
     and 3000 (Figs. 11-12); the default keeps the full sweep fast."
  in
  Arg.(value & opt int 40 & info [ "runs" ] ~docv:"N" ~doc)

let scale_of runs = { Exp_common.runs }

(* A command that parsed fine but failed at runtime raises this; the
   driver at the bottom maps it to exit code 1, distinct from usage
   errors (2) and internal errors (3). *)
exception Runtime_error of string

let runtime_errorf fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

(* ------------------------------------------------------------------ *)
(* fig command *)

let known_figures =
  [ "fig6"; "fig7"; "fig8"; "fig9"; "fig10"; "fig11"; "fig12"; "fig13";
    "fig14"; "prop5"; "ablation"; "matching"; "traffic"; "merging"; "scaling"; "all" ]

let run_figures ids seed runs =
  let scale = scale_of runs in
  let want id = List.mem "all" ids || List.mem id ids in
  if want "fig6" || want "fig7" then begin
    let f6, f7 = Fig_covering.run ~scale ~seed () in
    if want "fig6" then Exp_common.print_stdout f6;
    if want "fig7" then Exp_common.print_stdout f7
  end;
  if want "fig8" || want "fig9" || want "fig10" then begin
    let f8, f9, f10 = Fig_noncover.run ~scale ~seed () in
    if want "fig8" then Exp_common.print_stdout f8;
    if want "fig9" then Exp_common.print_stdout f9;
    if want "fig10" then Exp_common.print_stdout f10
  end;
  if want "fig11" || want "fig12" then begin
    let f11, f12 = Fig_extreme.run ~scale ~seed () in
    if want "fig11" then Exp_common.print_stdout f11;
    if want "fig12" then Exp_common.print_stdout f12
  end;
  if want "fig13" || want "fig14" then begin
    let n = if runs >= 1000 then 5000 else 2000 in
    let f13, f14 = Fig_comparison.run ~n ~seed () in
    if want "fig13" then Exp_common.print_stdout f13;
    if want "fig14" then Exp_common.print_stdout f14
  end;
  if want "prop5" then begin
    let _, fig = Exp_chain.run ~scale ~seed () in
    Exp_common.print_stdout fig
  end;
  if want "ablation" then Exp_ablation.print (Exp_ablation.run ~scale ~seed ());
  if want "matching" then Exp_matching.print (Exp_matching.run ~seed ());
  if want "traffic" then Exp_traffic.print (Exp_traffic.run ~seed ());
  if want "merging" then Exp_merging.print (Exp_merging.run ~seed ());
  if want "scaling" then
    Exp_scaling.print (Exp_scaling.run ~scale ~seed ())

let fig_cmd =
  let ids =
    let doc =
      Printf.sprintf "Experiments to run: %s."
        (String.concat ", " known_figures)
    in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let run ids seed runs =
    match List.find_opt (fun id -> not (List.mem id known_figures)) ids with
    | Some bad -> `Error (false, Printf.sprintf "unknown experiment %S" bad)
    | None ->
        run_figures ids seed runs;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "fig" ~doc:"Regenerate the paper's tables and figures")
    Term.(ret (const run $ ids $ seed_arg $ runs_arg))

(* ------------------------------------------------------------------ *)
(* demo command: the paper's worked examples *)

let demo_cover () =
  let sub = Subscription.of_bounds in
  let s = sub [ (830, 870); (1003, 1006) ] in
  let s1 = sub [ (820, 850); (1001, 1007) ] in
  let s2 = sub [ (840, 880); (1002, 1009) ] in
  Format.printf "Table 3 example: s = %a@." Subscription.pp s;
  Format.printf "  s1 = %a@.  s2 = %a@." Subscription.pp s1 Subscription.pp s2;
  Format.printf "  s1 covers s: %b; s2 covers s: %b@."
    (Subscription.covers_sub s1 s)
    (Subscription.covers_sub s2 s);
  let report = Engine.check ~rng:(Prng.of_int 1) s [| s1; s2 |] in
  (match report.Engine.verdict with
  | Engine.Covered_probably ->
      Format.printf
        "  engine: probabilistic YES after %d iterations (d = %d, error <= %g)@."
        report.Engine.iterations report.Engine.d_used
        (Option.value ~default:Float.nan report.Engine.achieved_delta)
  | Engine.Covered_pairwise i -> Format.printf "  engine: covered by s%d@." (i + 1)
  | Engine.Not_covered _ -> Format.printf "  engine: not covered@.");
  Format.printf "  exact oracle: covered = %b@." (Exact.covered s [| s1; s2 |])

let demo_table () =
  let sub = Subscription.of_bounds in
  let s = sub [ (830, 870); (1003, 1006) ] in
  let s1 = sub [ (820, 850); (1001, 1007) ] in
  let s2 = sub [ (840, 880); (1002, 1009) ] in
  let s3 = sub [ (810, 890); (1004, 1005) ] in
  let t = Conflict_table.build ~s [| s1; s2; s3 |] in
  Format.printf "Conflict table (Tables 5 and 8):@.%a@." Conflict_table.pp t;
  let result = Mcs.run t in
  Format.printf "MCS keeps rows: %s (removed: %s)@."
    (String.concat ", "
       (List.map (fun i -> Printf.sprintf "s%d" (i + 1)) result.Mcs.kept))
    (String.concat ", "
       (List.map (fun i -> Printf.sprintf "s%d" (i + 1)) result.Mcs.removed))

let demo_noncover () =
  let sub = Subscription.of_bounds in
  let s = sub [ (830, 890); (1003, 1006) ] in
  let s1 = sub [ (820, 850); (1002, 1009) ] in
  let s2 = sub [ (840, 870); (1001, 1007) ] in
  Format.printf "Table 6 example (non-cover):@.";
  let report = Engine.check ~rng:(Prng.of_int 1) s [| s1; s2 |] in
  (match report.Engine.verdict with
  | Engine.Not_covered (Engine.Polyhedron w) ->
      Format.printf "  polyhedron witness: %a@." Subscription.pp
        w.Witness.region
  | Engine.Not_covered (Engine.Point p) ->
      Format.printf "  point witness: (%d, %d)@." p.(0) p.(1)
  | Engine.Not_covered Engine.Empty_set ->
      Format.printf "  no candidates at all@."
  | Engine.Covered_pairwise _ | Engine.Covered_probably ->
      Format.printf "  unexpectedly covered?!@.")

let demo_cmd =
  let what =
    let doc = "Which demo: cover, table, or noncover." in
    Arg.(value & pos 0 (enum [ ("cover", `Cover); ("table", `Table); ("noncover", `Noncover) ]) `Cover
         & info [] ~docv:"DEMO" ~doc)
  in
  let run = function
    | `Cover -> demo_cover ()
    | `Table -> demo_table ()
    | `Noncover -> demo_noncover ()
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Print the paper's worked examples (Tables 3-8)")
    Term.(const run $ what)

(* ------------------------------------------------------------------ *)
(* chain command *)

let chain_cmd =
  let brokers =
    Arg.(value & opt int 10 & info [ "brokers" ] ~docv:"N" ~doc:"Chain length.")
  in
  let rho =
    Arg.(value & opt float 0.1
         & info [ "rho" ] ~docv:"P" ~doc:"Per-broker publication probability.")
  in
  let run brokers rho seed runs =
    let rows, fig =
      Exp_chain.run ~scale:(scale_of runs) ~n_brokers:brokers ~rho ~seed ()
    in
    Exp_common.print_stdout fig;
    List.iter
      (fun r ->
        Printf.printf
          "delta=%-8g analytic=%.4f measured=%.4f mean-reach=%.2f/%d\n"
          r.Exp_chain.delta r.Exp_chain.analytic r.Exp_chain.measured
          r.Exp_chain.mean_reach brokers)
      rows
  in
  Cmd.v
    (Cmd.info "chain" ~doc:"Proposition 5 chain-propagation experiment")
    Term.(const run $ brokers $ rho $ seed_arg $ runs_arg)

(* ------------------------------------------------------------------ *)
(* check / match commands: typed schemas + the sublang text format *)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_schema path =
  match Sublang.parse_schema (read_file path) with
  | Ok codec -> Ok codec
  | Error e -> Error (Printf.sprintf "schema %s: %s" path e)

let load_set codec path =
  let lines =
    String.split_on_char '\n' (read_file path)
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let rec parse acc n = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | line :: rest -> (
        match Sublang.parse_subscription codec line with
        | Ok sub -> parse (sub :: acc) (n + 1) rest
        | Error e -> Error (Printf.sprintf "%s, line %d: %s" path n e))
  in
  parse [] 1 lines

let schema_arg =
  let doc = "Schema file (lines of 'name : int[lo,hi] | enum(..) | flag | minutes')." in
  Arg.(required & opt (some file) None & info [ "schema" ] ~docv:"FILE" ~doc)

let set_arg =
  let doc = "File with one subscription per line (sublang syntax)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SET" ~doc)

let delta_arg =
  Arg.(value & opt float 1e-6
       & info [ "delta" ] ~docv:"P" ~doc:"Acceptable error probability.")

let check_cmd =
  let sub_arg =
    let doc = "The subscription to test, e.g. 'size in [17,19] & brand = X'." in
    Arg.(required & opt (some string) None & info [ "sub" ] ~docv:"EXPR" ~doc)
  in
  let probes_arg =
    let doc =
      "Also try the deterministic witness-guided probes before the random \
       search (sound extension)."
    in
    Arg.(value & flag & info [ "probes" ] ~doc)
  in
  let run schema sub_text set_path delta probes seed =
    let ( let* ) = Result.bind in
    match
      let* codec = load_schema schema in
      let* sub =
        Result.map_error
          (Printf.sprintf "--sub: %s")
          (Sublang.parse_subscription codec sub_text)
      in
      let* set = load_set codec set_path in
      Ok (codec, sub, set)
    with
    | Error e -> runtime_errorf "%s" e
    | Ok (codec, sub, set) ->
        let config = Engine.config ~delta ~use_probes:probes () in
        let report = Engine.check ~config ~rng:(Prng.of_int seed) sub set in
        Format.printf "subscription: %a@." (Domain_codec.pp_subscription codec) sub;
        Format.printf "against %d existing subscription(s), delta = %g@."
          (Array.length set) delta;
        (match report.Engine.verdict with
        | Engine.Covered_pairwise i ->
            Format.printf
              "VERDICT: covered (deterministic) by line %d: %a@." (i + 1)
              (Domain_codec.pp_subscription codec)
              set.(i)
        | Engine.Covered_probably ->
            Format.printf
              "VERDICT: covered by the union (probabilistic; %d trials, error \
               <= %g)@."
              report.Engine.iterations
              (Option.value ~default:Float.nan report.Engine.achieved_delta)
        | Engine.Not_covered (Engine.Point p) ->
            Format.printf "VERDICT: not covered; witness publication:@.  %a@."
              Publication.pp (Publication.point p)
        | Engine.Not_covered (Engine.Polyhedron w) ->
            Format.printf "VERDICT: not covered; witness region:@.  %a@."
              (Domain_codec.pp_subscription codec)
              w.Witness.region
        | Engine.Not_covered Engine.Empty_set ->
            Format.printf
              "VERDICT: not covered (no candidate could contribute)@.");
        Format.printf
          "pipeline: k %d -> %d after MCS; theoretical log10(d) = %s@."
          report.Engine.k_initial report.Engine.k_reduced
          (match report.Engine.log10_d with
          | Some l -> Printf.sprintf "%.2f" l
          | None -> "n/a");
        `Ok ()
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Check whether a subscription is covered by a set (group subsumption)")
    Term.(
      ret
        (const run $ schema_arg $ sub_arg $ set_arg $ delta_arg $ probes_arg
        $ seed_arg))

let match_cmd =
  let pub_arg =
    let doc = "The publication, e.g. 'bid = 1036, size = 19, brand = X, ...'." in
    Arg.(required & opt (some string) None & info [ "pub" ] ~docv:"EXPR" ~doc)
  in
  let run schema pub_text set_path =
    let ( let* ) = Result.bind in
    match
      let* codec = load_schema schema in
      let* pub =
        Result.map_error
          (Printf.sprintf "--pub: %s")
          (Sublang.parse_publication codec pub_text)
      in
      let* set = load_set codec set_path in
      Ok (codec, pub, set)
    with
    | Error e -> runtime_errorf "%s" e
    | Ok (codec, pub, set) ->
        let matcher = Counting_matcher.create ~arity:(Domain_codec.arity codec) () in
        Array.iteri (fun i sub -> Counting_matcher.add matcher ~id:(i + 1) sub) set;
        let hits = Counting_matcher.match_publication matcher pub in
        Format.printf "publication matches %d of %d subscription(s)@."
          (List.length hits) (Array.length set);
        List.iter
          (fun line ->
            Format.printf "  line %d: %a@." line
              (Domain_codec.pp_subscription codec)
              set.(line - 1))
          hits;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "match"
       ~doc:"Match a publication against a subscription file (counting matcher)")
    Term.(ret (const run $ schema_arg $ pub_arg $ set_arg))

(* ------------------------------------------------------------------ *)
(* trace commands *)

let topology_conv =
  let parse s =
    let make name n =
      match name with
      | "chain" -> Ok (Probsub_broker.Topology.chain n)
      | "ring" -> Ok (Probsub_broker.Topology.ring n)
      | "star" -> Ok (Probsub_broker.Topology.star n)
      | "mesh" -> Ok (Probsub_broker.Topology.full_mesh n)
      | "grid" ->
          let side = max 2 (int_of_float (sqrt (float_of_int n))) in
          Ok (Probsub_broker.Topology.grid ~width:side ~height:side)
      | _ -> Error (`Msg (Printf.sprintf "unknown topology %S" name))
    in
    match String.split_on_char ':' s with
    | [ name ] -> make name 8
    | [ name; n ] -> (
        match int_of_string_opt n with
        | Some n when n > 1 -> make name n
        | _ -> Error (`Msg "topology size must be an integer > 1"))
    | _ -> Error (`Msg "expected NAME or NAME:SIZE")
  in
  Arg.conv
    (parse, fun ppf t -> Format.fprintf ppf "topology(%d)" (Probsub_broker.Topology.size t))

let policy_conv =
  Arg.enum
    [
      ("flooding", Subscription_store.No_coverage);
      ("pairwise", Subscription_store.Pairwise_policy);
      ("group", Subscription_store.Group_policy (Engine.config ~delta:1e-6 ()));
    ]

let trace_generate_cmd =
  let out =
    Arg.(required & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output trace file.")
  in
  let duration =
    Arg.(value & opt float 100.0
         & info [ "duration" ] ~docv:"SECONDS" ~doc:"Simulated duration.")
  in
  let brokers =
    Arg.(value & opt int 8 & info [ "brokers" ] ~docv:"N" ~doc:"Broker count.")
  in
  let m =
    Arg.(value & opt int 5 & info [ "attributes" ] ~docv:"M" ~doc:"Attributes.")
  in
  let run out duration brokers m seed =
    let params =
      { Probsub_broker.Trace.default_params with duration; brokers; m }
    in
    let trace = Probsub_broker.Trace.generate ~params (Prng.of_int seed) in
    Probsub_broker.Trace.save trace ~path:out;
    let subs, unsubs, pubs = Probsub_broker.Trace.stats trace in
    Printf.printf "wrote %s: %d subscribes, %d unsubscribes, %d publishes\n"
      out subs unsubs pubs
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a workload trace file")
    Term.(const run $ out $ duration $ brokers $ m $ seed_arg)

let crash_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ b; start; stop ] -> (
        match
          (int_of_string_opt b, float_of_string_opt start, float_of_string_opt stop)
        with
        | Some b, Some start, Some stop when b >= 0 && start >= 0.0 && stop > start
          ->
            Ok (b, start, stop)
        | _ -> Error (`Msg "expected BROKER:START:STOP with 0 <= start < stop"))
    | _ -> Error (`Msg "expected BROKER:START:STOP")
  in
  Arg.conv
    ( parse,
      fun ppf (b, start, stop) -> Format.fprintf ppf "%d:%g:%g" b start stop )

let trace_replay_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace file.")
  in
  let topo =
    Arg.(value & opt topology_conv (Probsub_broker.Topology.chain 8)
         & info [ "topology" ] ~docv:"NAME[:SIZE]"
             ~doc:"chain, ring, star, mesh or grid, e.g. ring:12.")
  in
  let policy =
    Arg.(value & opt policy_conv Subscription_store.Pairwise_policy
         & info [ "policy" ] ~docv:"POLICY" ~doc:"flooding, pairwise or group.")
  in
  let drop =
    Arg.(value & opt float 0.0
         & info [ "drop" ] ~docv:"P" ~doc:"Per-hop loss probability.")
  in
  let duplicate =
    Arg.(value & opt float 0.0
         & info [ "duplicate" ] ~docv:"P"
             ~doc:"Per-hop duplication probability.")
  in
  let jitter =
    Arg.(value & opt float 0.0
         & info [ "jitter" ] ~docv:"SECONDS"
             ~doc:"Extra per-hop latency, uniform over [0, JITTER].")
  in
  let fault_until =
    Arg.(value & opt float infinity
         & info [ "fault-until" ] ~docv:"TIME"
             ~doc:"Stop injecting link faults at this simulated time.")
  in
  let crashes =
    Arg.(value & opt_all crash_conv []
         & info [ "crash" ] ~docv:"BROKER:START:STOP"
             ~doc:"Crash a broker over a time window; repeatable. The \
                   broker loses all soft state and recovers it from \
                   lease refreshes (requires $(b,--lease)).")
  in
  let lease =
    Arg.(value & opt (some float) None
         & info [ "lease" ] ~docv:"TTL"
             ~doc:"Enable lease-based recovery: subscriptions lease for \
                   TTL seconds, refreshed every TTL/3, with an acked, \
                   retransmitted control channel.")
  in
  let wal =
    Arg.(value & opt (some string) None
         & info [ "wal" ] ~docv:"DIR"
             ~doc:"Make every broker's routing table durable: per-broker \
                   write-ahead logs under $(docv)/broker-N. Brokers \
                   crashed by $(b,--crash) recover their routing state \
                   from the WAL on restart instead of starting empty.")
  in
  let run file topo policy drop duplicate jitter fault_until crashes lease wal
      seed =
    match Probsub_broker.Trace.load ~path:file with
    | Error e -> runtime_errorf "%s: %s" file e
    | Ok trace ->
        let arity =
          match
            List.find_map
              (function
                | Probsub_broker.Trace.Subscribe { sub; _ } ->
                    Some (Subscription.arity sub)
                | Probsub_broker.Trace.Publish { pub; _ } ->
                    Some (Publication.arity pub)
                | Probsub_broker.Trace.Unsubscribe _ -> None)
              trace
          with
          | Some a -> a
          | None -> 1
        in
        match
          let fault_plan =
            if drop = 0.0 && duplicate = 0.0 && jitter = 0.0 && crashes = []
            then Probsub_broker.Fault_plan.zero
            else
              Probsub_broker.Fault_plan.create ~drop ~duplicate ~jitter
                ~crashes ~active_until:fault_until ~seed ()
          in
          let recovery =
            Option.map
              (fun ttl ->
                {
                  Probsub_broker.Network.default_recovery with
                  lease_ttl = ttl;
                  refresh_interval = ttl /. 3.0;
                })
              lease
          in
          let devices =
            Option.map
              (fun dir ->
                if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
                Array.init (Probsub_broker.Topology.size topo) (fun i ->
                    Probsub_store_log.Device.fs
                      ~dir:(Filename.concat dir (Printf.sprintf "broker-%d" i))))
              wal
          in
          Probsub_broker.Network.create ~policy ~fault_plan ?recovery ?devices
            ~topology:topo ~arity ~seed ()
        with
        | exception Invalid_argument msg -> `Error (false, msg)
        | net ->
            Probsub_broker.Trace.replay net trace;
            let m = Probsub_broker.Network.metrics net in
            Format.printf "%a@." Probsub_broker.Metrics.pp m;
            `Ok ()
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay a trace file against a simulated network, optionally \
          injecting link faults and broker crashes")
    Term.(
      ret
        (const run $ file $ topo $ policy $ drop $ duplicate $ jitter
       $ fault_until $ crashes $ lease $ wal $ seed_arg))

let trace_cmd =
  Cmd.group
    (Cmd.info "trace" ~doc:"Generate and replay workload traces")
    [ trace_generate_cmd; trace_replay_cmd ]

let store_dir_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"DIR"
           ~doc:"Directory holding a broker's wal.log / snapshot.bin.")

let store_fsck_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit a machine-readable report for CI.")
  in
  let run dir json =
    if not (Sys.file_exists dir) then
      runtime_errorf "%s: no such directory" dir;
    let device = Probsub_store_log.Device.fs ~dir in
    let report = Probsub_store_log.Fsck.run device in
    if json then print_endline (Probsub_store_log.Fsck.to_json report)
    else Format.printf "%a" Probsub_store_log.Fsck.pp report;
    if not report.Probsub_store_log.Fsck.clean then
      runtime_errorf "%s: corruption detected (see report above)" dir
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Walk a write-ahead log and snapshot, report a per-record \
          CRC/length verdict and the recoverable prefix; exit non-zero \
          when anything is damaged")
    Term.(const run $ store_dir_arg $ json)

let store_compact_cmd =
  let run dir =
    if not (Sys.file_exists dir) then
      runtime_errorf "%s: no such directory" dir;
    let device = Probsub_store_log.Device.fs ~dir in
    match Probsub_store_log.Store_log.recover ~device () with
    | Error msg -> runtime_errorf "%s: %s" dir msg
    | Ok r ->
        let open Probsub_store_log in
        let before = Store_log.wal_size r.Store_log.r_log in
        Store_log.compact r.Store_log.r_log r.Store_log.r_store
          ~bindings:r.Store_log.r_bindings;
        Printf.printf "compacted %s: wal %d -> %d bytes, %d live entries%s\n"
          dir before
          (Store_log.wal_size r.Store_log.r_log)
          (Subscription_store.size r.Store_log.r_store)
          (if r.Store_log.r_repaired then " (repaired a damaged tail)"
           else "")
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:
         "Recover a store from its write-ahead log (repairing a damaged \
          tail if needed), write a snapshot and truncate the log")
    Term.(const run $ store_dir_arg)

let store_cmd =
  Cmd.group
    (Cmd.info "store"
       ~doc:"Inspect and maintain durable subscription-store logs")
    [ store_fsck_cmd; store_compact_cmd ]

(* ------------------------------------------------------------------ *)
(* serve / loadgen / chaos: the real broker fleet over Unix sockets *)

let sock_dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "sock-dir" ] ~docv:"DIR"
        ~doc:
          "Directory of the fleet's Unix-domain sockets \
           ($(i,broker-N.sock)); brokers create their own socket here, \
           clients dial into it.")

let serve_cmd =
  let id =
    Arg.(
      required
      & opt (some int) None
      & info [ "id" ] ~docv:"N" ~doc:"This broker's id.")
  in
  let neighbors =
    Arg.(
      value
      & opt (list int) []
      & info [ "neighbors" ] ~docv:"IDS"
          ~doc:"Comma-separated neighbour broker ids to dial.")
  in
  let wal =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal" ] ~docv:"DIR"
          ~doc:
            "Journal the routing table under $(docv); an existing \
             directory is recovered, not wiped, so a kill -9'd broker \
             restarted on the same $(docv) resumes with its state.")
  in
  let arity =
    Arg.(value & opt int 2 & info [ "arity" ] ~docv:"M" ~doc:"Attributes.")
  in
  let refresh =
    Arg.(
      value
      & opt float 10.0
      & info [ "refresh" ] ~docv:"SECONDS" ~doc:"Lease refresh interval.")
  in
  let lease =
    Arg.(
      value
      & opt float 30.0
      & info [ "lease" ] ~docv:"SECONDS" ~doc:"Subscription lease TTL.")
  in
  let standby_of =
    Arg.(
      value
      & opt (some string) None
      & info [ "standby-of" ] ~docv:"SOCKET"
          ~doc:
            "Run as a hot standby of the primary listening on $(docv) \
             (same broker id): stream its WAL into this process's \
             $(b,--wal) directory and take over — raising the fence \
             epoch and binding the primary's socket path — when its \
             heartbeats stop. Requires $(b,--wal).")
  in
  let hb_interval =
    Arg.(
      value
      & opt float 0.5
      & info [ "repl-hb-interval" ] ~docv:"SECONDS"
          ~doc:"Primary-to-standby replication heartbeat period.")
  in
  let hb_timeout =
    Arg.(
      value
      & opt float 2.0
      & info [ "repl-hb-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Heartbeat silence after which a standby declares its \
             primary dead and promotes itself.")
  in
  let run id neighbors sock_dir wal arity refresh lease standby_of hb_interval
      hb_timeout seed =
    match
      Probsub_server.Broker_server.config ~id ~neighbors ~sock_dir ~arity ~seed
        ~wal_dir:wal ~refresh_interval:refresh ~lease_ttl:lease
        ~standby_of ~repl_hb_interval:hb_interval ~repl_hb_timeout:hb_timeout
        ()
    with
    | exception Invalid_argument msg -> `Error (false, msg)
    | cfg ->
        (try Probsub_server.Broker_server.run cfg
         with Unix.Unix_error (e, fn, arg) ->
           runtime_errorf "serve: %s %s: %s" fn arg (Unix.error_message e));
        `Ok ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run one broker process: a select loop serving the broker \
          protocol on a Unix-domain socket, with retry/backoff links to \
          its neighbours, optional WAL durability, and optional \
          hot-standby replication")
    Term.(
      ret
        (const run $ id $ neighbors $ sock_dir_arg $ wal $ arity $ refresh
       $ lease $ standby_of $ hb_interval $ hb_timeout $ seed_arg))

let now_wall = Unix.gettimeofday

let pump_clients clients seconds =
  let t0 = now_wall () in
  while now_wall () -. t0 < seconds do
    Probsub_server.Loadgen.poll_all clients;
    try Unix.sleepf 0.002 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let loadgen_json (r : Probsub_server.Loadgen.result) =
  let open Probsub_server.Loadgen in
  Printf.sprintf
    "{\n\
    \  \"connections\": %d,\n\
    \  \"subscriptions\": %d,\n\
    \  \"pubs\": %d,\n\
    \  \"expected\": %d,\n\
    \  \"delivered\": %d,\n\
    \  \"pubs_per_sec\": %.1f,\n\
    \  \"p50_ms\": %.3f,\n\
    \  \"p99_ms\": %.3f,\n\
    \  \"verdicts_match\": %b,\n\
    \  \"audit_clean\": %b\n\
     }"
    r.clients r.subscriptions r.pubs r.expected r.delivered r.pubs_per_sec
    r.p50_ms r.p99_ms r.verdicts_match
    (Probsub_broker.Audit.is_clean r.audit)

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let print_loadgen_result (r : Probsub_server.Loadgen.result) =
  let open Probsub_server.Loadgen in
  Printf.printf
    "clients=%d subscriptions=%d pubs=%d expected=%d delivered=%d\n\
     %.1f pubs/s, match latency p50=%.3fms p99=%.3fms\n\
     verdicts byte-identical to in-process engine: %b\n"
    r.clients r.subscriptions r.pubs r.expected r.delivered r.pubs_per_sec
    r.p50_ms r.p99_ms r.verdicts_match

let loadgen_cmd =
  let brokers =
    Arg.(
      value
      & opt int 3
      & info [ "brokers" ] ~docv:"N"
          ~doc:"Fleet size; clients attach to brokers 0..N-1.")
  in
  let clients_per =
    Arg.(
      value
      & opt int 2
      & info [ "clients-per-broker" ] ~docv:"K" ~doc:"Clients per broker.")
  in
  let subs =
    Arg.(
      value
      & opt int 4
      & info [ "subs-per-client" ] ~docv:"J"
          ~doc:"Random box subscriptions installed per client.")
  in
  let pubs =
    Arg.(
      value
      & opt int 50
      & info [ "pubs" ] ~docv:"P" ~doc:"Publications in the closed loop.")
  in
  let arity =
    Arg.(value & opt int 2 & info [ "arity" ] ~docv:"M" ~doc:"Attributes.")
  in
  let warmup =
    Arg.(
      value
      & opt float 1.0
      & info [ "warmup" ] ~docv:"SECONDS"
          ~doc:
            "Pump this long after installing subscriptions so refresh \
             waves flood them to every broker before measuring.")
  in
  let timeout =
    Arg.(
      value
      & opt float 3.0
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-publication deadline.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the result as JSON.")
  in
  let run sock_dir brokers clients_per subs pubs arity warmup timeout json seed
      =
    if brokers < 1 || clients_per < 1 || subs < 1 || pubs < 1 then
      `Error (false, "loadgen: empty workload")
    else begin
      let module L = Probsub_server.Loadgen in
      let rng = Prng.of_int seed in
      let clients =
        L.connect_clients ~sock_dir ~brokers ~per_broker:clients_per ~seed
      in
      Fun.protect
        ~finally:(fun () -> List.iter L.close_client clients)
        (fun () ->
          if not (L.wait_connected clients) then
            runtime_errorf "loadgen: fleet at %s never accepted every client"
              sock_dir;
          let w = L.install ~rng ~arity ~subs_per_client:subs clients in
          if not (L.wait_acked clients) then
            runtime_errorf "loadgen: subscriptions were never acked";
          pump_clients clients warmup;
          let r = L.drive ~rng ~arity ~pubs ~per_pub_timeout:timeout w in
          print_loadgen_result r;
          let reconnects =
            List.fold_left (fun n c -> n + L.failover_reconnects c) 0 clients
          in
          let top_epoch =
            List.fold_left (fun e c -> max e (L.epoch_seen c)) 0 clients
          in
          if reconnects > 0 || top_epoch > 0 then
            Printf.printf "failover reconnects=%d at epoch %d\n" reconnects
              top_epoch;
          Option.iter (fun path -> write_file path (loadgen_json r)) json;
          if not (Probsub_broker.Audit.is_clean r.L.audit && r.L.verdicts_match)
          then
            runtime_errorf
              "loadgen: delivery audit failed (expected=%d delivered=%d \
               verdicts_match=%b)"
              r.L.expected r.L.delivered r.L.verdicts_match);
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive an already-running broker fleet with real clients: \
          install a workload, run an audited closed publication loop, \
          report throughput and match-latency percentiles; exits \
          non-zero unless delivery verdicts are byte-identical to the \
          in-process engine")
    Term.(
      ret
        (const run $ sock_dir_arg $ brokers $ clients_per $ subs $ pubs $ arity
       $ warmup $ timeout $ json $ seed_arg))

let chaos_cmd =
  let pubs =
    Arg.(
      value
      & opt int 30
      & info [ "pubs" ] ~docv:"P" ~doc:"Publications per audited phase.")
  in
  let brokers =
    Arg.(
      value & opt int 3 & info [ "brokers" ] ~docv:"N" ~doc:"Fleet size.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write the result as JSON: the keys of \
             $(i,BENCH_serve.json) ($(i,BENCH_failover.json) with \
             $(b,--failover)) less the bench's own $(i,bench) and \
             $(i,fast) and the failover bench's phase A fields.")
  in
  let failover =
    Arg.(
      value & flag
      & info [ "failover" ]
          ~doc:
            "Instead of restarting the killed broker from its WAL, give \
             it a hot standby and never restart it: the standby must \
             detect the death, promote over the replicated WAL, raise \
             the fence epoch and take over the socket.")
  in
  let run pubs brokers failover json seed =
    let module H = Probsub_server.Harness in
    match H.config ~seed ~pubs ~brokers () with
    | exception Invalid_argument msg -> `Error (false, msg)
    | cc ->
        let r =
          try if failover then H.run_failover cc else H.run cc
          with H.Error msg -> runtime_errorf "chaos: %s" msg
        in
        Format.printf "@[<v>%a@]@." H.pp_result r;
        Option.iter
          (fun path -> write_file path ("{\n" ^ H.json_fields cc r ^ "\n}\n"))
          json;
        if not r.H.clean then
          runtime_errorf "chaos: audit failed after %s (seed %d)"
            (if failover then "failover" else "kill -9 recovery")
            seed;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Spawn a real broker fleet, kill -9 an interior broker \
          mid-refresh-wave, and audit that the fleet misses nothing — \
          restarting the victim from its WAL, or with $(b,--failover) \
          promoting its hot standby instead")
    Term.(ret (const run $ pubs $ brokers $ failover $ json $ seed_arg))

let main =
  Cmd.group
    (Cmd.info "probsub" ~version:Version.version
       ~doc:
         "Probabilistic subsumption checking for content-based \
          publish/subscribe (Ouksel et al., Middleware 2006)")
    [
      fig_cmd; demo_cmd; chain_cmd; check_cmd; match_cmd; trace_cmd; store_cmd;
      serve_cmd; loadgen_cmd; chaos_cmd;
    ]

(* Exit-code contract (documented in DESIGN.md, relied on by CI):
   0 success; 1 runtime failure inside a well-formed invocation
   (commands raise Runtime_error — I/O failures, corruption, audit
   failures); 2 usage error (anything cmdliner rejects, including our
   `Error ret terms — cmdliner 1.3 reports argv parse errors as `Term,
   so both eval_error cases are usage here); 3 unexpected exception. *)
let () =
  let code =
    try
      match Cmd.eval_value ~catch:false main with
      | Ok (`Ok ()) | Ok `Help | Ok `Version -> 0
      | Error (`Parse | `Term) -> 2
      | Error `Exn -> 3
    with
    | Runtime_error msg ->
        Format.eprintf "probsub: %s@." msg;
        1
    | e ->
        Format.eprintf "probsub: internal error: %s@." (Printexc.to_string e);
        3
  in
  exit code
