(* Per-layer metrics from a traced replay. Self times exclude child
   spans (node.handle minus its wal.append children). *)

module Store = Probsub_core.Subscription_store

let sorted_f l =
  let a = Array.of_list (List.map float_of_int l) in
  Array.sort compare a;
  a

let pct a p =
  let n = Array.length a in
  if n = 0 then 0.0 else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let metrics (t : Trace.result) ~untraced_ns ~pub_p50_ms ~sub_p50_ms =
  let acc = t.Trace.acc in
  let select kinds f =
    List.filter_map (fun ((k, _, _, _, _) as r) -> if List.mem k kinds then Some (f r) else None) acc.Trace.reqs
  in
  let q kinds f p = pct (sorted_f (select kinds f)) p in
  let self (_, _, _, s, _) = s and decode (_, d, _, _, _) = d in
  let total (_, _, h, _, _) = h and frame (_, _, _, _, f) = f in
  let us x = x /. 1000.0 in
  let ctl = [ Plan.Sub; Plan.Unsub ] in
  (* Stage medians of one request class over its socket median. *)
  let stage_sum kinds socket_ms =
    let s = q kinds decode 0.5 +. q kinds total 0.5 +. q kinds frame 0.5 in
    if socket_ms > 0.0 then s /. (socket_ms *. 1e6) else 0.0
  in
  let ns l p = pct (sorted_f l) p in
  [
    ("wire.frame_ns.notify", ns acc.Trace.notify_ns 0.5, "ns");
    ("wire.decode_ns.payload", q [ Plan.Pub; Plan.Sub; Plan.Unsub ] decode 0.5, "ns");
    ("wire.bytes_per_pub", per acc.Trace.bytes_pub acc.Trace.pubs, "B");
    ("node.handle_pub_us.p50", us (q [ Plan.Pub ] self 0.5), "us");
    ("node.handle_pub_us.p99", us (q [ Plan.Pub ] self 0.99), "us");
    ("node.handle_sub_us.p50", us (q [ Plan.Sub ] self 0.5), "us");
    ("node.handle_sub_us.p99", us (q [ Plan.Sub ] self 0.99), "us");
    ("node.handle_unsub_us.p50", us (q [ Plan.Unsub ] self 0.5), "us");
    ("node.handle_unsub_us.p99", us (q [ Plan.Unsub ] self 0.99), "us");
    ("node.match_scans_per_pub", per acc.Trace.scans acc.Trace.pubs, "count");
    ("node.index_hits_per_pub", per acc.Trace.hits acc.Trace.pubs, "count");
    ("node.forwards_per_ctl", per acc.Trace.forwards acc.Trace.ctls, "count");
    ("wal.append_us", us (ns acc.Trace.append_ns 0.5), "us");
    ("wal.appends_per_ctl", per acc.Trace.appends acc.Trace.ctls, "count");
    ("wal.bytes_per_ctl", per acc.Trace.append_bytes acc.Trace.ctls, "B");
    ("store.add_us", us (ns acc.Trace.add_ns 0.5), "us");
    ("store.match_us", us (ns acc.Trace.match_ns 0.5), "us");
    ("store.covered_scans_per_pub", per acc.Trace.covered_scans acc.Trace.pubs, "count");
    ("store.active_count", float_of_int (Store.active_count t.Trace.store), "count");
    ("store.covered_count", float_of_int (Store.covered_count t.Trace.store), "count");
    ("engine.check_us.p50", us (ns acc.Trace.check_ns 0.5), "us");
    ("engine.check_us.p99", us (ns acc.Trace.check_ns 0.99), "us");
    ("engine.rspc_iterations_per_check", per acc.Trace.iterations acc.Trace.checks, "count");
    ("engine.k_pruned_mean", per acc.Trace.k_pruned acc.Trace.checks, "count");
    ("engine.k_reduced_mean", per acc.Trace.k_reduced acc.Trace.checks, "count");
    ("engine.fast_decision_share", per acc.Trace.fast acc.Trace.checks, "share");
    ("pipeline.stage_sum_share.pub", stage_sum [ Plan.Pub ] pub_p50_ms, "share");
    ("pipeline.stage_sum_share.sub", stage_sum ctl sub_p50_ms, "share");
    ("trace.overhead_share", per (t.Trace.traced_ns - untraced_ns) untraced_ns, "share");
  ]
