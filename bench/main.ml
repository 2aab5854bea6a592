(* The benchmark harness: regenerates every table/figure of the
   paper's evaluation (Section 6) at bench scale, then times the core
   operations with Bechamel.

   Scale: figures average over Exp_common.default_scale runs per point
   (the paper uses 1000-3000); pass runs=N on the command line or use
   `probsub fig <id> --runs N` for paper-scale sweeps. The shapes are
   stable from a few dozen runs. *)

open Probsub_core
open Probsub_workload
open Probsub_experiments

let seed = 42

let regenerate_figures ~runs () =
  let scale = { Exp_common.runs } in
  print_endline "=================================================";
  print_endline " Paper figure regeneration (Ouksel et al., 2006)";
  print_endline "=================================================";
  Printf.printf "(averaging %d runs per point; paper uses 1000-3000)\n\n" runs;
  let f6, f7 = Fig_covering.run ~scale ~seed () in
  Exp_common.print_stdout f6;
  Exp_common.print_stdout f7;
  let f8, f9, f10 = Fig_noncover.run ~scale ~seed () in
  Exp_common.print_stdout f8;
  Exp_common.print_stdout f9;
  Exp_common.print_stdout f10;
  let f11, f12 = Fig_extreme.run ~scale ~seed () in
  Exp_common.print_stdout f11;
  Exp_common.print_stdout f12;
  let n = if runs >= 1000 then 5000 else 2000 in
  let f13, f14 = Fig_comparison.run ~n ~seed () in
  Exp_common.print_stdout f13;
  Exp_common.print_stdout f14;
  let rows, prop5 = Exp_chain.run ~scale ~seed () in
  Exp_common.print_stdout prop5;
  List.iter
    (fun r ->
      Printf.printf "  delta=%-8g analytic=%.4f measured=%.4f reach=%.2f\n"
        r.Exp_chain.delta r.Exp_chain.analytic r.Exp_chain.measured
        r.Exp_chain.mean_reach)
    rows;
  print_newline ();
  Exp_ablation.print (Exp_ablation.run ~scale ~seed ());
  print_newline ();
  Exp_matching.print (Exp_matching.run ~seed ());
  print_newline ();
  Exp_traffic.print (Exp_traffic.run ~seed ());
  print_newline ();
  Exp_merging.print (Exp_merging.run ~seed ());
  print_newline ();
  Exp_scaling.print (Exp_scaling.run ~scale ~seed ());
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Flat-kernel benchmark: boxed vs packed RSPC inner loop on a fixed
   k=1000, m=8 full-scan workload (disjoint set, every trial walks all
   rows). Emits BENCH_rspc.json and asserts the packed trial performs
   zero minor-heap allocation. The timings alternate the two arms over
   [kernel_rounds] rounds of [kernel_d / kernel_rounds] trials each,
   the arm that runs first swapping every round, so a noisy stretch of
   the machine lands on both; each round's ratio pairs timings taken
   side by side, and the speedup is their median. *)

let kernel_k = 1000
let kernel_m = 8
let kernel_d = 200_000
let kernel_rounds = 7

let time_ns_per_op f n =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    f ()
  done;
  let t1 = Unix.gettimeofday () in
  (t1 -. t0) *. 1e9 /. float_of_int n

let time_s f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let alloc_words_per_op f n =
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  let after = Gc.minor_words () in
  (after -. before) /. float_of_int n

type kernel_result = {
  op : string;
  ns_per_op : float;
  alloc_words_per_op : float;
}

let emit_json path ~speedup results =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"bench\": \"rspc_kernels\",\n";
  Printf.fprintf oc "  \"k\": %d,\n  \"m\": %d,\n  \"d\": %d,\n" kernel_k
    kernel_m kernel_d;
  Printf.fprintf oc "  \"rounds\": %d,\n  \"speedup_median\": %.3f,\n"
    kernel_rounds speedup;
  Printf.fprintf oc "  \"ops\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    { \"op\": %S, \"ns_per_op\": %.2f, \"alloc_words_per_op\": %.4f \
         }%s\n"
        r.op r.ns_per_op r.alloc_words_per_op
        (if i = List.length results - 1 then "" else ","))
    results;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let run_kernels () =
  print_endline "=================================================";
  print_endline " Flat-kernel bench (boxed vs packed trial loop)";
  print_endline "=================================================";
  let rng = Prng.of_int seed in
  let s = Subscription.of_bounds (List.init kernel_m (fun _ -> (0, 9999))) in
  (* Near-cover rows: every row contains the drawn point on the first
     m-1 attributes and misses on the last, so a trial reads all
     k x m bound pairs — the regime where RSPC actually spends its
     budget (rows that reject on attribute 0 are pruned away long
     before the trial loop). *)
  let subs =
    Array.init kernel_k (fun i ->
        Subscription.of_bounds
          (List.init kernel_m (fun j ->
               if j = kernel_m - 1 then (20_000 + i, 30_000 + i)
               else (0, 9999))))
  in
  let packed = Flat.pack ~m:kernel_m subs in
  let sbox = Flat.box_of_sub s in
  let p = Array.make kernel_m 0 in
  let boxed_trial () =
    let q = Rspc.random_point ~rng s in
    assert (Rspc.escapes q subs)
  in
  let flat_trial () =
    Flat.random_point_into ~rng sbox p;
    assert (Flat.escapes packed p)
  in
  (* Warm up all paths so one-time setup does not pollute Gc counts. *)
  for _ = 1 to 1000 do
    boxed_trial ();
    flat_trial ()
  done;
  let boxed_alloc = alloc_words_per_op boxed_trial kernel_d in
  let flat_alloc = alloc_words_per_op flat_trial kernel_d in
  let per_round = kernel_d / kernel_rounds in
  let rounds =
    Array.init kernel_rounds (fun i ->
        if i mod 2 = 0 then
          let b = time_ns_per_op boxed_trial per_round in
          (b, time_ns_per_op flat_trial per_round)
        else
          let f = time_ns_per_op flat_trial per_round in
          (time_ns_per_op boxed_trial per_round, f))
  in
  let median xs =
    let a = Array.copy xs in
    Array.sort Float.compare a;
    a.(Array.length a / 2)
  in
  let boxed_ns = median (Array.map fst rounds) in
  let flat_ns = median (Array.map snd rounds) in
  let speedup = median (Array.map (fun (b, f) -> b /. f) rounds) in
  let results =
    [
      {
        op = "escape_trial_boxed";
        ns_per_op = boxed_ns;
        alloc_words_per_op = boxed_alloc;
      };
      {
        op = "escape_trial_flat";
        ns_per_op = flat_ns;
        alloc_words_per_op = flat_alloc;
      };
    ]
  in
  Printf.printf "k=%d m=%d trials=%d\n" kernel_k kernel_m kernel_d;
  List.iter
    (fun r ->
      Printf.printf "%-24s %10.1f ns/trial  %8.4f words/trial\n" r.op
        r.ns_per_op r.alloc_words_per_op)
    results;
  Printf.printf "speedup (boxed/flat, median of %d rounds): %.2fx\n"
    kernel_rounds speedup;
  emit_json "BENCH_rspc.json" ~speedup results;
  print_endline "wrote BENCH_rspc.json";
  (* Acceptance gates: the packed trial must be allocation-free (any
     real allocation is >= 1 word per trial; the slack only absorbs the
     Gc probe's own boxed floats) and, in the median round, at least 2x
     the boxed path. *)
  if flat_alloc >= 0.01 then begin
    Printf.eprintf
      "FAIL: flat trial allocates %.4f words/trial (expected 0)\n" flat_alloc;
    exit 1
  end;
  if speedup < 2.0 then begin
    Printf.eprintf "FAIL: flat speedup %.2fx < 2x over boxed path\n" speedup;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Recovery bench: WAL append overhead per store mutation (in-memory
   device and real files), replay throughput of Store_log.recover, and
   snapshot+compact latency. Emits BENCH_recovery.json. Same verdict
   contract as the engine bench: the recovered store must be
   equal_state to the live one that wrote the log — at every stage,
   including after compaction and on re-recovery (the fixpoint) — or
   the bench hard-fails. *)

let recovery_arity = 4
let recovery_store_seed = 11

(* Deterministic mixed mutation script: adds with leases, interleaved
   removes, renews and expiry sweeps. [subs] is pre-drawn so every
   store sees identical inputs; the live-id bookkeeping evolves
   identically too because the stores are deterministic. *)
let recovery_script ~n =
  let rng = Prng.of_int 99 in
  Array.init n (fun _ ->
      Subscription.of_bounds
        (List.init recovery_arity (fun _ ->
             let lo = Prng.int rng 1024 in
             (lo, lo + 1 + Prng.int rng 256))))

let recovery_apply subs store =
  let live = ref [] in
  (* newest first *)
  Array.iteri
    (fun i sub ->
      let now = float_of_int i in
      if i mod 7 = 3 && !live <> [] then begin
        let id = List.hd !live in
        live := List.tl !live;
        ignore (Subscription_store.remove store id)
      end
      else if i mod 11 = 5 && !live <> [] then
        Subscription_store.renew store (List.hd !live)
          ~expires_at:(now +. 80.0)
      else if i mod 29 = 17 then begin
        let expired, _ = Subscription_store.expire store ~now in
        live := List.filter (fun id -> not (List.mem id expired)) !live
      end
      else begin
        let id, _ =
          Subscription_store.add_with_expiry store sub
            ~expires_at:(now +. 40.0)
        in
        live := id :: !live
      end)
    subs

let run_recovery ~fast () =
  let module Sl = Probsub_store_log in
  print_endline "=================================================";
  print_endline " Recovery bench (WAL append / replay / compact)";
  print_endline "=================================================";
  let n = if fast then 500 else 5000 in
  let policy = Subscription_store.Pairwise_policy in
  let mk_plain () =
    Subscription_store.create ~policy ~arity:recovery_arity
      ~seed:recovery_store_seed ()
  in
  let subs = recovery_script ~n in
  (* Plain store: the no-journal baseline. *)
  let plain = mk_plain () in
  let (), plain_t = time_s (fun () -> recovery_apply subs plain) in
  (* Journaled store over the in-memory device. *)
  let sim_device, _, _ = Sl.Device.in_memory () in
  let sim_store, sim_log =
    Sl.Store_log.fresh ~policy ~device:sim_device ~arity:recovery_arity
      ~seed:recovery_store_seed ()
  in
  let (), sim_t = time_s (fun () -> recovery_apply subs sim_store) in
  (* Journaled store over real files, fsync-free but flushed per op. *)
  let fs_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "probsub_bench_recovery_%d" (Unix.getpid ()))
  in
  let fs_device = Sl.Device.fs ~dir:fs_dir in
  let fs_store, _ =
    Sl.Store_log.fresh ~policy ~device:fs_device ~arity:recovery_arity
      ~seed:recovery_store_seed ()
  in
  let (), fs_t = time_s (fun () -> recovery_apply subs fs_store) in
  let wal_bytes = Sl.Store_log.wal_size sim_log in
  let wal_records =
    List.length (Sl.Wal.scan (sim_device.Sl.Device.read_wal ())).Sl.Wal.records
  in
  let fail msg =
    Printf.eprintf "FAIL: %s\n" msg;
    exit 1
  in
  if not (Subscription_store.equal_state plain sim_store) then
    fail "journaled store diverged from the plain baseline";
  (* Replay throughput. *)
  let recover () =
    match Sl.Store_log.recover ~device:sim_device () with
    | Ok r -> r
    | Error msg -> fail ("recovery failed: " ^ msg)
  in
  let r1, replay_t = time_s recover in
  if not (Subscription_store.equal_state sim_store r1.Sl.Store_log.r_store)
  then fail "recovered store mismatches the live store";
  if r1.Sl.Store_log.r_repaired then fail "clean log reported as repaired";
  (* Snapshot + compaction latency, then the post-compact and fixpoint
     recoveries must land on the same state. *)
  let (), compact_t =
    time_s (fun () ->
        Sl.Store_log.compact r1.Sl.Store_log.r_log r1.Sl.Store_log.r_store
          ~bindings:[])
  in
  let r2, _ = time_s recover in
  if not (Subscription_store.equal_state sim_store r2.Sl.Store_log.r_store)
  then fail "post-compaction recovery mismatches the live store";
  let r3, _ = time_s recover in
  if not
       (Subscription_store.equal_state r2.Sl.Store_log.r_store
          r3.Sl.Store_log.r_store)
  then fail "re-recovery is not a fixpoint";
  (* Best-effort cleanup of the fs device's directory. *)
  (try
     Array.iter
       (fun f -> Sys.remove (Filename.concat fs_dir f))
       (Sys.readdir fs_dir);
     Sys.rmdir fs_dir
   with Sys_error _ -> ());
  let per_op t = t *. 1e9 /. float_of_int n in
  let replay_ops_per_sec = float_of_int wal_records /. replay_t in
  Printf.printf "ops=%d wal=%d bytes (%d records)\n" n wal_bytes wal_records;
  Printf.printf "%-22s %10.1f ns/op\n" "plain (no journal)" (per_op plain_t);
  Printf.printf "%-22s %10.1f ns/op  (overhead x%.2f)\n" "journaled (memory)"
    (per_op sim_t) (sim_t /. plain_t);
  Printf.printf "%-22s %10.1f ns/op  (overhead x%.2f)\n" "journaled (files)"
    (per_op fs_t) (fs_t /. plain_t);
  Printf.printf "replay: %.0f records/s   snapshot+compact: %.3f ms\n"
    replay_ops_per_sec (compact_t *. 1e3);
  let oc = open_out "BENCH_recovery.json" in
  Printf.fprintf oc "{\n  \"bench\": \"recovery\",\n";
  Printf.fprintf oc "  \"fast\": %b,\n  \"ops\": %d,\n" fast n;
  Printf.fprintf oc "  \"wal_bytes\": %d,\n  \"wal_records\": %d,\n" wal_bytes
    wal_records;
  Printf.fprintf oc "  \"plain_ns_per_op\": %.1f,\n" (per_op plain_t);
  Printf.fprintf oc "  \"journal_mem_ns_per_op\": %.1f,\n" (per_op sim_t);
  Printf.fprintf oc "  \"journal_fs_ns_per_op\": %.1f,\n" (per_op fs_t);
  Printf.fprintf oc "  \"append_overhead_mem\": %.3f,\n" (sim_t /. plain_t);
  Printf.fprintf oc "  \"append_overhead_fs\": %.3f,\n" (fs_t /. plain_t);
  Printf.fprintf oc "  \"replay_records_per_sec\": %.1f,\n" replay_ops_per_sec;
  Printf.fprintf oc "  \"compact_ms\": %.3f,\n" (compact_t *. 1e3);
  Printf.fprintf oc "  \"verdicts_match\": true\n}\n";
  close_out oc;
  print_endline "wrote BENCH_recovery.json"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one test per table/figure ingredient. *)

let micro_tests () =
  let open Bechamel in
  let rng = Prng.of_int seed in
  (* Fixed instances so each run times the same work. *)
  let table3_s = Subscription.of_bounds [ (830, 870); (1003, 1006) ] in
  let table3_set =
    [|
      Subscription.of_bounds [ (820, 850); (1001, 1007) ];
      Subscription.of_bounds [ (840, 880); (1002, 1009) ];
    |]
  in
  let covering = Scenario.redundant_covering rng ~m:10 ~k:100 in
  let noncover = Scenario.non_cover rng ~m:10 ~k:100 in
  let extreme = Scenario.extreme_non_cover rng ~m:5 ~k:50 ~gap_fraction:0.01 in
  let covering_table =
    Conflict_table.build ~s:covering.Scenario.s covering.Scenario.set
  in
  let covered_box = Subscription.of_bounds [ (10, 20); (10, 20) ] in
  let covered_set =
    [|
      Subscription.of_bounds [ (0, 15); (0, 99) ];
      Subscription.of_bounds [ (14, 99); (0, 99) ];
    |]
  in
  let engine_cfg = Engine.config ~delta:1e-6 ~max_iterations:2000 () in
  let stream = Scenario.comparison_stream rng ~m:10 ~n:200 in
  let store =
    Subscription_store.create
      ~policy:(Subscription_store.Group_policy engine_cfg) ~arity:10
      ~seed:7 ()
  in
  List.iter (fun s -> ignore (Subscription_store.add store s)) stream;
  let pub =
    Scenario.random_matching_publication rng (List.hd stream)
  in
  let stage f = Staged.stage f in
  [
    Test.make ~name:"table5: conflict table build (k=2, m=2)"
      (stage (fun () ->
           ignore (Conflict_table.build ~s:table3_s table3_set)));
    Test.make ~name:"fig6: conflict table build (k=100, m=10)"
      (stage (fun () ->
           ignore
             (Conflict_table.build ~s:covering.Scenario.s
                covering.Scenario.set)));
    Test.make ~name:"fig6: MCS reduction (k=100, m=10)"
      (stage (fun () -> ignore (Mcs.run covering_table)));
    Test.make ~name:"fig7: Algorithm 2 rho/d (k=100, m=10)"
      (stage (fun () ->
           ignore (Rho.log10_d (Rho.estimate covering_table) ~delta:1e-10)));
    Test.make ~name:"fig10: engine check, non-cover (k=100, m=10)"
      (stage (fun () ->
           ignore
             (Engine.check ~config:engine_cfg ~rng noncover.Scenario.s
                noncover.Scenario.set)));
    Test.make ~name:"fig11: engine check, extreme 1% gap (k=50, m=5)"
      (stage (fun () ->
           ignore
             (Engine.check ~config:engine_cfg ~rng extreme.Scenario.s
                extreme.Scenario.set)));
    Test.make ~name:"fig11: single RSPC trial batch (d=100)"
      (stage (fun () ->
           ignore
             (Rspc.run ~rng ~d:100 ~s:extreme.Scenario.s
                extreme.Scenario.set)));
    Test.make ~name:"ext: RSPC 50k trials, sequential (covered input)"
      (stage (fun () ->
           ignore
             (Rspc.run ~rng ~d:50_000 ~s:covered_box
                covered_set)));
    Test.make ~name:"fig13: pairwise coverage scan (k=100, m=10)"
      (stage (fun () ->
           ignore (Pairwise.find_coverer covering.Scenario.s covering.Scenario.set)));
    Test.make ~name:"fig13/14: group-store add+remove (|active|~60)"
      (stage (fun () ->
           let id, _ =
             Subscription_store.add store (List.hd stream)
           in
           ignore (Subscription_store.remove store id)));
    Test.make ~name:"alg5: match publication (200 subs)"
      (stage (fun () -> ignore (Subscription_store.match_publication store pub)));
  ]

let run_micro () =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let tests = micro_tests () in
  print_endline "=================================================";
  print_endline " Micro-benchmarks (Bechamel, ns per run)";
  print_endline "=================================================";
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg [ instance ]
          (Test.make_grouped ~name:"g" ~fmt:"%s %s" [ test ])
      in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false
          ~predictors:[| Measure.run |]
      in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] -> Printf.printf "%-55s %12.1f ns/run\n" name ns
          | Some _ | None -> Printf.printf "%-55s (no estimate)\n" name)
        analyzed)
    tests


(* ------------------------------------------------------------------ *)
(* Sharded fabric bench: an n-shard store against the one-shard (flat)
   store on identical workloads, then n-shard growth to very large
   sizes (100k stored subscriptions by default, 1M with --full, small
   with `fast` for CI). Emits BENCH_shard.json. Three phases:

   1. Equivalence + flat comparison at a size the one-shard store can
      handle: both stores absorb the same seed set and classify the
      same arrival stream under the same store seed; ids, placements,
      coverer lists, final active/covered sets, match sets and
      publication reports must all agree (hard failure otherwise), and
      the n-shard add throughput is recorded against the one-shard
      store's.
   2. Scale: grow an n-shard store to the target size, one add at a
      time.
   3. Matching at scale: publication fan-out throughput and the
      per-publication covered-scan and index cost, spot-checked
      against the exhaustive scan.

   Divergent verdicts, or an n-shard store no faster than the
   one-shard one, fail the run. *)

type shard_params = {
  label : string;
  sm : int; (* arity *)
  sk0 : int; (* equivalence-phase seed size (flat-feasible) *)
  s_arrivals : int; (* equivalence-phase timed arrivals *)
  target : int; (* scale-phase stored subscriptions *)
  sshards : int; (* shard count at scale *)
  s_pubs : int; (* publications timed at scale *)
}

let shard_params = function
  | `Fast ->
      { label = "fast"; sm = 4; sk0 = 1200; s_arrivals = 300; target = 20_000;
        sshards = 64; s_pubs = 200 }
  | `Default ->
      { label = "default"; sm = 4; sk0 = 8000; s_arrivals = 2000;
        target = 100_000; sshards = 128; s_pubs = 1000 }
  | `Full ->
      { label = "full"; sm = 4; sk0 = 20_000; s_arrivals = 4000;
        target = 1_000_000; sshards = 256; s_pubs = 1000 }

let shard_domain0 = Interval.make ~lo:0 ~hi:999_999

(* Index-hashed workload, no RNG: subscription [i] is narrow on
   attribute 0 (width 50 at a scrambled position — the stripe router's
   bread and butter) and moderate elsewhere. Every 10th is a shrunk
   copy of the 9th-previous one, guaranteed covered on arrival, so the
   coverage machinery runs at every scale; every 97th is unconstrained
   on attribute 0 and routes to the fallback shard. *)
let shard_sub ~m i =
  if i mod 10 = 9 then begin
    let b = i - 9 in
    let pos = b * 2654435761 land 0xFFFFFFF mod 999_000 in
    Subscription.of_bounds
      (List.init m (fun j ->
           if j = 0 then (pos + 10, pos + 39)
           else begin
             let v = ((b * 31) + (j * 977)) mod 99_000 in
             (v + 100, v + 899)
           end))
  end
  else
    Subscription.of_bounds
      (List.init m (fun j ->
           if j = 0 then
             if i mod 97 = 13 then (0, 999_999)
             else begin
               let pos = i * 2654435761 land 0xFFFFFFF mod 999_000 in
               (pos, pos + 49)
             end
           else begin
             let v = ((i * 31) + (j * 977)) mod 99_000 in
             (v, v + 999)
           end))

let shard_pub ~m i =
  let pos = i * 40503 land 0xFFFFF mod 999_999 in
  Publication.point
    (Array.init m (fun j ->
         if j = 0 then pos else (pos + (j * 977)) mod 99_000))

(* One match against a box spanning the whole space: it consults every
   shard, so it builds every shard's counting index, and it probes no
   per-attribute index (a full range is never indexed). *)
let warm_indexes store ~m =
  ignore
    (Subscription_store.match_publication store
       (Publication.box (Subscription.make (Array.make m Interval.full))))

let run_shard ~mode () =
  let p = shard_params mode in
  print_endline "=================================================";
  print_endline " Sharded fabric bench (n shards vs one shard)";
  print_endline "=================================================";
  let cores = Domain.recommended_domain_count () in
  Printf.printf "mode=%s m=%d k0=%d target=%d shards=%d (machine cores: %d)\n"
    p.label p.sm p.sk0 p.target p.sshards cores;
  let cfg = Engine.config ~delta:1e-6 ~max_iterations:2000 () in
  let policy = Subscription_store.Group_policy cfg in
  let store_seed = 7 in
  let all_ok = ref true in
  let note ok msg =
    if not ok then begin
      all_ok := false;
      Printf.eprintf "FAIL: %s\n" msg
    end
  in
  (* --- Phase 1: equivalence + flat comparison --------------------- *)
  let seed_subs = Array.init p.sk0 (fun i -> shard_sub ~m:p.sm i) in
  let arrivals =
    Array.init p.s_arrivals (fun i -> shard_sub ~m:p.sm (p.sk0 + i))
  in
  let flat =
    Subscription_store.create ~policy ~arity:p.sm ~seed:store_seed ()
  in
  Array.iter (fun s -> ignore (Subscription_store.add flat s)) seed_subs;
  let flat_res, flat_t =
    time_s (fun () -> Array.map (Subscription_store.add flat) arrivals)
  in
  let sharded () =
    Subscription_store.create ~policy ~shards:p.sshards ~domain0:shard_domain0
      ~arity:p.sm ~seed:store_seed ()
  in
  let t = sharded () in
  Array.iter (fun s -> ignore (Subscription_store.add t s)) seed_subs;
  let res, shard_t =
    time_s (fun () -> Array.map (Subscription_store.add t) arrivals)
  in
  note (res = flat_res) "sharded placements diverge from flat";
  note
    (Subscription_store.active flat = Subscription_store.active t
    && Subscription_store.covered flat = Subscription_store.covered t)
    "sharded final state diverges from flat";
  note
    (Subscription_store.splits_consumed flat
    = Subscription_store.splits_consumed t)
    "sharded split stream diverges from flat";
  (* Publication agreement: match sets exactly; reports up to row
     indexing (rows index each store's candidate array; full fidelity
     is property-tested). *)
  for i = 0 to 19 do
    let pub = shard_pub ~m:p.sm (i * 131) in
    note
      (Subscription_store.match_publication flat pub
      = Subscription_store.match_publication t pub)
      (Printf.sprintf "match sets diverge on publication %d" i);
    let ra =
      Subscription_store.check_publication flat ~rng:(Prng.of_int (900 + i)) pub
    in
    let rb =
      Subscription_store.check_publication t ~rng:(Prng.of_int (900 + i)) pub
    in
    note
      (Engine.is_covered ra.Engine.verdict = Engine.is_covered rb.Engine.verdict
      && ra.Engine.k_pruned = rb.Engine.k_pruned
      && ra.Engine.k_reduced = rb.Engine.k_reduced
      && ra.Engine.d_used = rb.Engine.d_used
      && ra.Engine.iterations = rb.Engine.iterations)
      (Printf.sprintf "check reports diverge on publication %d" i)
  done;
  let thru n t = float_of_int n /. t in
  Printf.printf "equivalence phase: k0=%d arrivals=%d\n" p.sk0 p.s_arrivals;
  Printf.printf "%-18s %8.3f s  %10.1f adds/s\n" "flat (shards=1)" flat_t
    (thru p.s_arrivals flat_t);
  Printf.printf "%-18s %8.3f s  %10.1f adds/s  (x%.2f vs flat)\n"
    (Printf.sprintf "shards=%d" p.sshards)
    shard_t
    (thru p.s_arrivals shard_t)
    (flat_t /. shard_t);
  let beats_flat = shard_t < flat_t in
  note beats_flat "sharded add throughput does not beat flat";
  (* --- Phase 2: scale --------------------------------------------- *)
  let t = sharded () in
  let _, scale_t =
    time_s (fun () ->
        for i = 0 to p.target - 1 do
          ignore (Subscription_store.add t (shard_sub ~m:p.sm i))
        done)
  in
  Printf.printf "scale phase: %d stored subscriptions\n" p.target;
  Printf.printf "%-18s %8.3f s  %10.1f adds/s  (%d active)\n" "grow" scale_t
    (thru p.target scale_t)
    (Subscription_store.active_count t);
  (* --- Phase 3: matching at scale ---------------------------------- *)
  (* The first match builds the consulted shards' counting indexes; a
     box over the whole space consults every shard, so one untimed
     match builds them all and the timed pass below only queries. *)
  let (), index_build_t = time_s (fun () -> warm_indexes t ~m:p.sm) in
  Printf.printf "index build at first match: %.3f s\n" index_build_t;
  let st0 = Subscription_store.stats t in
  let hits = ref 0 in
  let _, match_t =
    time_s (fun () ->
        for i = 0 to p.s_pubs - 1 do
          hits :=
            !hits
            + List.length
                (Subscription_store.match_publication t (shard_pub ~m:p.sm i))
        done)
  in
  let st1 = Subscription_store.stats t in
  let per_pub c = float_of_int c /. float_of_int p.s_pubs in
  (* One-by-one Publication.matches tests (covered descent only; the
     active path is indexed) vs counting-index hits processed. *)
  let avg_scans =
    per_pub
      (st1.Subscription_store.covered_scans
      - st0.Subscription_store.covered_scans)
  in
  let avg_index_hits =
    per_pub
      (st1.Subscription_store.index_hits - st0.Subscription_store.index_hits)
  in
  for i = 0 to 4 do
    let pub = shard_pub ~m:p.sm (i * 211) in
    note
      (Subscription_store.match_publication t pub
      = Subscription_store.match_publication_exhaustive t pub)
      (Printf.sprintf "match spot-check %d diverges from exhaustive scan" i)
  done;
  Printf.printf
    "matching: %d pubs, %.1f pubs/s, %.1f scans/pub + %.1f index hits/pub \
     (of %d active), %d hits\n"
    p.s_pubs
    (thru p.s_pubs match_t)
    avg_scans avg_index_hits
    (Subscription_store.active_count t)
    !hits;
  (* --- Emit -------------------------------------------------------- *)
  let oc = open_out "BENCH_shard.json" in
  Printf.fprintf oc "{\n  \"bench\": \"shard_fabric\",\n";
  Printf.fprintf oc "  \"mode\": %S,\n  \"cores\": %d,\n" p.label cores;
  Printf.fprintf oc
    "  \"m\": %d,\n  \"shards\": %d,\n  \"stored\": %d,\n" p.sm p.sshards
    p.target;
  Printf.fprintf oc
    "  \"equivalence\": {\n    \"k0\": %d,\n    \"arrivals\": %d,\n\
    \    \"flat_seconds\": %.4f,\n    \"flat_adds_per_sec\": %.1f,\n"
    p.sk0 p.s_arrivals flat_t (thru p.s_arrivals flat_t);
  Printf.fprintf oc
    "    \"sharded_seconds\": %.4f,\n    \"sharded_adds_per_sec\": %.1f,\n\
    \    \"speedup_vs_flat\": %.3f\n  },\n"
    shard_t
    (thru p.s_arrivals shard_t)
    (flat_t /. shard_t);
  Printf.fprintf oc "  \"sharded_beats_flat\": %b,\n" beats_flat;
  Printf.fprintf oc
    "  \"scale\": { \"stored\": %d, \"seconds\": %.4f, \"adds_per_sec\": %.1f, \
     \"active\": %d },\n"
    p.target scale_t (thru p.target scale_t) (Subscription_store.active_count t);
  Printf.fprintf oc
    "  \"matching\": { \"publications\": %d, \"index_build_s\": %.4f, \
     \"pubs_per_sec\": %.1f, \"avg_scans_per_pub\": %.1f, \
     \"avg_index_hits_per_pub\": %.1f, \"active\": %d, \"hits\": %d },\n"
    p.s_pubs index_build_t
    (thru p.s_pubs match_t)
    avg_scans avg_index_hits
    (Subscription_store.active_count t)
    !hits;
  Printf.fprintf oc "  \"verdicts_match\": %b\n}\n" !all_ok;
  close_out oc;
  print_endline "wrote BENCH_shard.json";
  if not !all_ok then begin
    Printf.eprintf "FAIL: sharded fabric diverged from the reference\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Match bench: the counting-index data plane against the exhaustive
   Publication.matches oracle over the same stored set. Emits
   BENCH_match.json. Two stores absorb the target subscription count —
   one shard (flat) and n shards (attribute-0 stripe routing composed
   with per-shard counting indexes) — and both match an identical
   publication stream (9/10 points, 1/10 small boxes). A store builds
   its counting indexes at its first match, so one untimed match that
   consults every shard builds them before the timed pass; its time is
   reported as index_build_s beside the store's build_s.
   Every indexed hit list must be identical to the oracle's, or the
   bench hard-fails. The headline number is the reduction in
   one-by-one Publication.matches scans per publication: the oracle
   tests every stored subscription, the indexed path tests only the
   covered-descent candidates (zero under No_coverage), and the
   conservative "work" ratio also charges the index one unit per
   counting hit. The acceptance gate requires >= 5x. *)

type match_params = {
  mlabel : string;
  mm : int; (* arity *)
  mn : int; (* stored subscriptions *)
  m_pubs : int; (* timed publications *)
  m_shards : int; (* shard count for the fabric store *)
}

let match_params = function
  | `Fast ->
      { mlabel = "fast"; mm = 4; mn = 20_000; m_pubs = 200; m_shards = 64 }
  | `Default ->
      { mlabel = "default"; mm = 4; mn = 100_000; m_pubs = 1000;
        m_shards = 128 }
  | `Full ->
      { mlabel = "full"; mm = 4; mn = 1_000_000; m_pubs = 1000;
        m_shards = 256 }

(* Same index-hashed stream as the shard bench, with every 10th
   publication widened into a small box (the imprecise-source case:
   containment queries instead of stabbing queries). *)
let match_pub ~m i =
  if i mod 10 = 7 then
    let pos = i * 40503 land 0xFFFFF mod 999_000 in
    Publication.box
      (Subscription.of_bounds
         (List.init m (fun j ->
              if j = 0 then (pos, pos + 3)
              else begin
                let v = (pos + (j * 977)) mod 99_000 in
                (v, v + 3)
              end)))
  else shard_pub ~m i

let run_match ~mode () =
  let p = match_params mode in
  print_endline "=================================================";
  print_endline " Match bench (counting index vs exhaustive oracle)";
  print_endline "=================================================";
  Printf.printf "mode=%s m=%d stored=%d pubs=%d shards=%d\n" p.mlabel p.mm
    p.mn p.m_pubs p.m_shards;
  let all_ok = ref true in
  let note ok msg =
    if not ok then begin
      all_ok := false;
      Printf.eprintf "FAIL: %s\n" msg
    end
  in
  (* The data plane is policy-independent; No_coverage keeps every
     subscription active, so the counting index faces the full stored
     set — the worst case the covering control plane would otherwise
     soften (and the regime where the old linear scan was paying
     [mn] Publication.matches tests per publication). *)
  let policy = Subscription_store.No_coverage in
  let flat = Subscription_store.create ~policy ~arity:p.mm ~seed:11 () in
  let (), flat_build_t =
    time_s (fun () ->
        for i = 0 to p.mn - 1 do
          ignore (Subscription_store.add flat (shard_sub ~m:p.mm i))
        done)
  in
  let shard =
    Subscription_store.create ~policy ~shards:p.m_shards ~domain0:shard_domain0
      ~arity:p.mm ~seed:11 ()
  in
  let (), shard_build_t =
    time_s (fun () ->
        for i = 0 to p.mn - 1 do
          ignore (Subscription_store.add shard (shard_sub ~m:p.mm i))
        done)
  in
  let (), flat_index_t = time_s (fun () -> warm_indexes flat ~m:p.mm) in
  let (), shard_index_t = time_s (fun () -> warm_indexes shard ~m:p.mm) in
  Printf.printf
    "build: flat %.2fs + %.2fs index, sharded %.2fs + %.2fs index (at the \
     first match, untimed below)\n"
    flat_build_t flat_index_t shard_build_t shard_index_t;
  let pubs = Array.init p.m_pubs (fun i -> match_pub ~m:p.mm i) in
  (* Oracle pass: timed, hit lists retained for the equality gate. *)
  let oracle = Array.make p.m_pubs [] in
  let (), oracle_t =
    time_s (fun () ->
        Array.iteri
          (fun i pub ->
            oracle.(i) <- Subscription_store.match_publication_exhaustive flat pub)
          pubs)
  in
  let per_pub c = float_of_int c /. float_of_int p.m_pubs in
  let oracle_scans = float_of_int p.mn in
  (* Indexed passes; stats deltas attribute the work. *)
  let indexed store_name match_pub_fn stats_fn =
    let st0 = stats_fn () in
    let hits = Array.make p.m_pubs [] in
    let (), dt =
      time_s (fun () ->
          Array.iteri (fun i pub -> hits.(i) <- match_pub_fn pub) pubs)
    in
    let st1 = stats_fn () in
    Array.iteri
      (fun i h ->
        note (h = oracle.(i))
          (Printf.sprintf "%s hit list %d diverges from the oracle"
             store_name i))
      hits;
    let scans =
      per_pub
        (st1.Subscription_store.covered_scans
        - st0.Subscription_store.covered_scans)
    in
    let idx_hits =
      per_pub
        (st1.Subscription_store.index_hits - st0.Subscription_store.index_hits)
    in
    (dt, scans, idx_hits)
  in
  let flat_t, flat_scans, flat_idx =
    indexed "flat"
      (Subscription_store.match_publication flat)
      (fun () -> Subscription_store.stats flat)
  in
  let shard_t, shard_scans, shard_idx =
    indexed "sharded"
      (Subscription_store.match_publication shard)
      (fun () -> Subscription_store.stats shard)
  in
  let thru t = float_of_int p.m_pubs /. t in
  let reduction scans = oracle_scans /. Float.max scans 1.0 in
  let work_reduction scans idx = oracle_scans /. Float.max (scans +. idx) 1.0 in
  let flat_work_red = work_reduction flat_scans flat_idx in
  let shard_work_red = work_reduction shard_scans shard_idx in
  Printf.printf "%-10s %10s %14s %14s %10s\n" "store" "pubs/s" "scans/pub"
    "idx hits/pub" "work red.";
  Printf.printf "%-10s %10.1f %14.1f %14s %10s\n" "oracle" (thru oracle_t)
    oracle_scans "-" "1.0x";
  Printf.printf "%-10s %10.1f %14.1f %14.1f %9.1fx\n" "flat" (thru flat_t)
    flat_scans flat_idx flat_work_red;
  Printf.printf "%-10s %10.1f %14.1f %14.1f %9.1fx\n" "sharded" (thru shard_t)
    shard_scans shard_idx shard_work_red;
  (* The acceptance gate is on Publication.matches scans; gate on the
     conservative work ratio, which implies it. *)
  note (flat_work_red >= 5.0)
    "flat indexed matching does not reduce per-pub work by >= 5x";
  note (shard_work_red >= 5.0)
    "sharded indexed matching does not reduce per-pub work by >= 5x";
  let oc = open_out "BENCH_match.json" in
  Printf.fprintf oc "{\n  \"bench\": \"match\",\n  \"mode\": %S,\n" p.mlabel;
  Printf.fprintf oc
    "  \"m\": %d,\n  \"stored\": %d,\n  \"publications\": %d,\n\
    \  \"shards\": %d,\n"
    p.mm p.mn p.m_pubs p.m_shards;
  Printf.fprintf oc
    "  \"oracle\": { \"pubs_per_sec\": %.1f, \"avg_scans_per_pub\": %.1f },\n"
    (thru oracle_t) oracle_scans;
  let emit_store name ~build ~index dt scans idx =
    Printf.fprintf oc
      "  %S: { \"build_s\": %.4f, \"index_build_s\": %.4f, \
       \"pubs_per_sec\": %.1f, \"avg_scans_per_pub\": %.1f, \
       \"avg_index_hits_per_pub\": %.1f, \"scan_reduction_x\": %.1f, \
       \"work_reduction_x\": %.1f },\n"
      name build index (thru dt) scans idx (reduction scans)
      (work_reduction scans idx)
  in
  emit_store "flat" ~build:flat_build_t ~index:flat_index_t flat_t flat_scans
    flat_idx;
  emit_store "sharded" ~build:shard_build_t ~index:shard_index_t shard_t
    shard_scans shard_idx;
  Printf.fprintf oc "  \"hit_lists_identical\": %b\n}\n" !all_ok;
  close_out oc;
  print_endline "wrote BENCH_match.json";
  if not !all_ok then begin
    Printf.eprintf "FAIL: indexed matching diverged from the oracle\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Serve bench: the real multi-process broker fleet under the kill -9
   chaos scenario (lib/server/harness.ml). Closed-loop throughput and
   match-latency percentiles before the kill and after WAL recovery,
   plus the recovery time itself. Emits BENCH_serve.json. The verdict
   contract matches the other benches: loadgen's delivered verdicts
   must be byte-identical to the in-process matching engine, before
   and after the kill, or the bench hard-fails. *)

let run_serve ~fast () =
  let module H = Probsub_server.Harness in
  let module L = Probsub_server.Loadgen in
  print_endline "=================================================";
  print_endline " Serve bench (real sockets, kill -9 recovery)";
  print_endline "=================================================";
  let cc =
    if fast then H.config ~seed ~pubs:20 ()
    else
      H.config ~seed ~brokers:4 ~clients_per_broker:3 ~subs_per_client:6
        ~pubs:100 ()
  in
  Printf.printf "brokers=%d clients=%d subs/client=%d pubs/phase=%d\n"
    cc.H.brokers
    (cc.H.brokers * cc.H.clients_per_broker)
    cc.H.subs_per_client cc.H.pubs;
  let r = H.run cc in
  Format.printf "@[<v>%a@]@." H.pp_result r;
  let post = r.H.post in
  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc "{\n  \"bench\": \"serve\",\n  \"fast\": %b,\n" fast;
  Printf.fprintf oc "  \"brokers\": %d,\n  \"connections\": %d,\n" cc.H.brokers
    r.H.connections;
  Printf.fprintf oc "  \"pubs_per_phase\": %d,\n" cc.H.pubs;
  Printf.fprintf oc
    "  \"pre\": { \"pubs_per_sec\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f \
     },\n"
    r.H.pre.L.pubs_per_sec r.H.pre.L.p50_ms r.H.pre.L.p99_ms;
  Printf.fprintf oc
    "  \"pubs_per_sec\": %.1f,\n  \"p50_ms\": %.3f,\n  \"p99_ms\": %.3f,\n"
    post.L.pubs_per_sec post.L.p50_ms post.L.p99_ms;
  Printf.fprintf oc "  \"recovery_seconds\": %.3f,\n" r.H.recovery_seconds;
  Printf.fprintf oc "  \"verdicts_match\": %b\n}\n" r.H.clean;
  close_out oc;
  print_endline "wrote BENCH_serve.json";
  if not r.H.clean then begin
    Printf.eprintf "FAIL: chaos audit failed after kill -9 recovery\n";
    exit 1
  end;
  (* Regression gate: with the peer backoff cap at 0.5 s the fleet
     re-links as soon as the victim is back; recovery dominated by an
     accumulated backoff delay is a bug, not load. *)
  if r.H.recovery_seconds > 1.0 then begin
    Printf.eprintf "FAIL: recovery took %.3fs (budget 1.0s)\n"
      r.H.recovery_seconds;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Failover bench. Phase A exercises the replication plane in-process:
   a primary store journalling through a Ship tap, every drained event
   applied to a standby device, and after every mutation batch the
   standby device is recovered and must be equal_state to the live
   primary — the shipped-LSN-prefix correctness bar, checked at real
   compaction boundaries. Phase B is the multi-process scenario: a hot
   standby, SIGKILL the primary mid-refresh-wave, measure detection
   and outage. Emits BENCH_failover.json; hard-fails on any equal_state
   mismatch or unclean audit. *)

let run_failover ~fast () =
  let module H = Probsub_server.Harness in
  let module L = Probsub_server.Loadgen in
  let module Repl = Probsub_server.Repl in
  let module Device = Probsub_store_log.Device in
  let module Store_log = Probsub_store_log.Store_log in
  print_endline "=================================================";
  print_endline " Failover bench (WAL shipping, epoch-fenced takeover)";
  print_endline "=================================================";
  (* Phase A: shipped-prefix state equivalence. *)
  let muts = if fast then 400 else 4000 in
  let primary_dev, _, _ = Device.in_memory () in
  let ship, wrapped = Repl.Ship.tap primary_dev in
  let store, log =
    Store_log.fresh ~policy:Subscription_store.Pairwise_policy ~device:wrapped
      ~arity:2 ~seed ()
  in
  let standby_dev, _, _ = Device.in_memory () in
  let apply = Repl.Apply.create ~device:standby_dev in
  let rng = Prng.of_int (seed + 17) in
  let live = ref [] in
  let checks = ref 0 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to muts do
    (match Prng.int_in rng ~lo:0 ~hi:10 with
    | r when r < 7 || !live = [] ->
        let lo = Prng.int_in rng ~lo:0 ~hi:80 in
        let sub =
          Subscription.of_bounds
            [ (lo, lo + 10); (Prng.int_in rng ~lo:0 ~hi:80, 95) ]
        in
        let id, _ = Subscription_store.add store sub in
        live := id :: !live
    | _ -> (
        match !live with
        | id :: rest ->
            ignore (Subscription_store.remove store id);
            live := rest
        | [] -> ()));
    if i mod 37 = 0 then Store_log.compact log store ~bindings:[];
    if i mod 25 = 0 || i = muts then begin
      List.iter
        (fun e ->
          match Repl.Apply.apply apply e with
          | Ok _ -> ()
          | Error m ->
              Printf.eprintf "FAIL: replication apply at mutation %d: %s\n" i m;
              exit 1)
        (Repl.Ship.drain ship);
      incr checks;
      match Store_log.recover ~device:standby_dev () with
      | Error m ->
          Printf.eprintf "FAIL: standby recovery at mutation %d: %s\n" i m;
          exit 1
      | Ok r ->
          if
            not (Subscription_store.equal_state store r.Store_log.r_store)
          then begin
            Printf.eprintf
              "FAIL: standby diverged from primary at mutation %d (lsn %d)\n"
              i (Repl.Apply.next_lsn apply);
            exit 1
          end
    end
  done;
  let ship_dt = Unix.gettimeofday () -. t0 in
  let frames = Repl.Ship.frames_shipped ship in
  Printf.printf
    "phase A: %d mutations, %d frames shipped, %d equal_state checks, %.2fs\n"
    muts frames !checks ship_dt;
  (* Phase B: the multi-process failover scenario. *)
  let cc =
    if fast then H.config ~seed ~pubs:20 ()
    else
      H.config ~seed ~brokers:4 ~clients_per_broker:3 ~subs_per_client:6
        ~pubs:100 ()
  in
  Printf.printf "brokers=%d clients=%d subs/client=%d pubs/phase=%d\n"
    cc.H.brokers
    (cc.H.brokers * cc.H.clients_per_broker)
    cc.H.subs_per_client cc.H.pubs;
  let r = H.run_failover cc in
  Format.printf "@[<v>%a@]@." H.pp_failover_result r;
  let post = r.H.post in
  let oc = open_out "BENCH_failover.json" in
  Printf.fprintf oc "{\n  \"bench\": \"failover\",\n  \"fast\": %b,\n" fast;
  Printf.fprintf oc
    "  \"ship_mutations\": %d,\n  \"frames_shipped\": %d,\n\
    \  \"equal_state_checks\": %d,\n"
    muts frames !checks;
  Printf.fprintf oc "  \"brokers\": %d,\n  \"connections\": %d,\n" cc.H.brokers
    r.H.connections;
  Printf.fprintf oc "  \"pubs_per_phase\": %d,\n" cc.H.pubs;
  Printf.fprintf oc
    "  \"pre\": { \"pubs_per_sec\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f \
     },\n"
    r.H.pre.L.pubs_per_sec r.H.pre.L.p50_ms r.H.pre.L.p99_ms;
  Printf.fprintf oc
    "  \"pubs_per_sec\": %.1f,\n  \"p50_ms\": %.3f,\n  \"p99_ms\": %.3f,\n"
    post.L.pubs_per_sec post.L.p50_ms post.L.p99_ms;
  Printf.fprintf oc
    "  \"detection_seconds\": %.3f,\n  \"outage_seconds\": %.3f,\n"
    r.H.detection_seconds r.H.outage_seconds;
  Printf.fprintf oc "  \"failover_reconnects\": %d,\n" r.H.failover_reconnects;
  Printf.fprintf oc "  \"verdicts_match\": %b\n}\n" r.H.clean;
  close_out oc;
  print_endline "wrote BENCH_failover.json";
  if not r.H.clean then begin
    Printf.eprintf "FAIL: chaos audit failed after failover\n";
    exit 1
  end

let () =
  (* `main.exe kernels` runs only the fast flat-kernel bench;
     `main.exe recovery [fast]` runs only the WAL/recovery bench;
     `main.exe shard [fast|--full]` runs only the sharded-fabric
     bench; `main.exe match [fast|--full]` runs only the counting-index
     matching bench; `main.exe failover [fast]` runs only the
     replication/failover bench; a numeric argument sets the
     figure-regeneration run count. *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "kernels" then run_kernels ()
  else if Array.length Sys.argv > 1 && Sys.argv.(1) = "recovery" then
    run_recovery ~fast:(Array.length Sys.argv > 2 && Sys.argv.(2) = "fast") ()
  else if Array.length Sys.argv > 1 && Sys.argv.(1) = "serve" then
    run_serve ~fast:(Array.length Sys.argv > 2 && Sys.argv.(2) = "fast") ()
  else if Array.length Sys.argv > 1 && Sys.argv.(1) = "failover" then
    run_failover ~fast:(Array.length Sys.argv > 2 && Sys.argv.(2) = "fast") ()
  else if Array.length Sys.argv > 1 && Sys.argv.(1) = "shard" then begin
    let mode =
      if Array.length Sys.argv > 2 && Sys.argv.(2) = "fast" then `Fast
      else if Array.length Sys.argv > 2 && Sys.argv.(2) = "--full" then `Full
      else `Default
    in
    run_shard ~mode ()
  end
  else if Array.length Sys.argv > 1 && Sys.argv.(1) = "match" then begin
    let mode =
      if Array.length Sys.argv > 2 && Sys.argv.(2) = "fast" then `Fast
      else if Array.length Sys.argv > 2 && Sys.argv.(2) = "--full" then `Full
      else `Default
    in
    run_match ~mode ()
  end
  else begin
    let runs =
      if Array.length Sys.argv > 1 then
        match int_of_string_opt Sys.argv.(1) with
        | Some r when r > 0 -> r
        | Some _ | None -> Exp_common.default_scale.Exp_common.runs
      else Exp_common.default_scale.Exp_common.runs
    in
    regenerate_figures ~runs ();
    run_micro ();
    run_kernels ()
  end
