type config = {
  delta : float;
  use_fast_decisions : bool;
  use_mcs : bool;
  use_probes : bool;
  use_pruning : bool;
  max_iterations : int;
}

let default_config =
  {
    delta = 1e-6;
    use_fast_decisions = true;
    use_mcs = true;
    use_probes = false;
    use_pruning = true;
    max_iterations = 100_000;
  }

let config ?(delta = default_config.delta)
    ?(use_fast_decisions = default_config.use_fast_decisions)
    ?(use_mcs = default_config.use_mcs)
    ?(use_probes = default_config.use_probes)
    ?(use_pruning = default_config.use_pruning)
    ?(max_iterations = default_config.max_iterations) () =
  if not (delta > 0.0 && delta < 1.0) then
    invalid_arg "Engine.config: delta must lie in (0, 1)";
  if max_iterations < 1 then
    invalid_arg "Engine.config: max_iterations must be >= 1";
  { delta; use_fast_decisions; use_mcs; use_probes; use_pruning;
    max_iterations }

type reason =
  | Empty_set
  | Polyhedron of Witness.polyhedron
  | Point of int array

type verdict =
  | Covered_pairwise of int
  | Covered_probably
  | Not_covered of reason

type report = {
  verdict : verdict;
  k_initial : int;
  k_pruned : int;
  k_reduced : int;
  mcs : Mcs.result option;
  rho : Rho.estimate option;
  log10_d : float option;
  d_used : int;
  iterations : int;
  achieved_delta : float option;
}

let is_covered = function
  | Covered_pairwise _ | Covered_probably -> true
  | Not_covered _ -> false

let base_report ~verdict ~k_initial ~k_pruned ~k_reduced =
  {
    verdict;
    k_initial;
    k_pruned;
    k_reduced;
    mcs = None;
    rho = None;
    log10_d = None;
    d_used = 0;
    iterations = 0;
    achieved_delta = None;
  }

(* Remap MCS row indices (relative to the pruned candidate array) back
   to positions in the caller's original array so that store-level
   consumers can translate rows to ids regardless of pruning. *)
let remap_mcs keep result =
  {
    result with
    Mcs.kept = List.map (fun i -> keep.(i)) result.Mcs.kept;
    removed = List.map (fun i -> keep.(i)) result.Mcs.removed;
  }

let check ?(config = default_config) ?packed ~rng s subs =
  let k_initial = Array.length subs in
  if k_initial = 0 then
    base_report ~verdict:(Not_covered Empty_set) ~k_initial ~k_pruned:0
      ~k_reduced:0
  else begin
    let m = Subscription.arity s in
    let packed =
      match packed with
      | Some p ->
          if Flat.k p <> k_initial || Flat.m p <> m then
            invalid_arg "Engine.check: packed set does not match subs";
          p
      | None -> Flat.pack ~m subs
    in
    (* Candidate pruning runs FIRST: a subscription that does not
       intersect s contains no point of s, so it can neither contribute
       to a cover nor invalidate a witness — dropping it shrinks k for
       the conflict table, the fast decisions, MCS, rho and every RSPC
       trial without changing the answer. Pruning before the fast
       decisions makes the whole report a function of (s, the ordered
       intersecting subset, rng) alone: a caller that pre-confines the
       candidate set to the subscriptions intersecting s (the sharded
       store) gets a bit-identical report to one that passes the full
       set. Corollary 1 is insensitive to the reorder (an all-undefined
       row is a coverer, hence intersects s, hence survives the prune
       in the same relative position); Corollary 3 only gains coverage
       (removing rows preserves the Hall-style condition). *)
    let sbox = Flat.box_of_sub s in
    (* [None] means "pruning off": the identity mapping, kept symbolic
       so the unpruned path allocates no index array and skips the
       gather bookkeeping entirely. *)
    let keep =
      if config.use_pruning then Some (Flat.intersecting_rows packed sbox)
      else None
    in
    let k_pruned =
      match keep with Some rows -> Array.length rows | None -> k_initial
    in
    if k_pruned = 0 then
      base_report ~verdict:(Not_covered Empty_set) ~k_initial ~k_pruned
        ~k_reduced:0
    else begin
      let pruned_packed, pruned_subs =
        match keep with
        | Some rows when Array.length rows < k_initial ->
            (Flat.gather packed rows, Array.map (fun i -> subs.(i)) rows)
        | Some _ | None -> (packed, subs)
      in
      let pruned_table =
        Conflict_table.build_flat ~s ~subs:pruned_subs pruned_packed
      in
      (* Fast-decision rows index the pruned candidate array; report
         them relative to the caller's original array so store-level
         consumers can translate rows to ids regardless of pruning. *)
      let remap_row row =
        match keep with Some rows -> rows.(row) | None -> row
      in
      let fast =
        if config.use_fast_decisions then Fast_decision.decide pruned_table
        else Fast_decision.Unknown
      in
      match fast with
      | Fast_decision.Covered_pairwise row ->
          base_report
            ~verdict:(Covered_pairwise (remap_row row))
            ~k_initial ~k_pruned ~k_reduced:k_pruned
      | Fast_decision.Not_covered_witness w ->
          base_report ~verdict:(Not_covered (Polyhedron w)) ~k_initial
            ~k_pruned ~k_reduced:k_pruned
      | Fast_decision.Unknown ->
          let mcs_result, reduced_packed, reduced_subs, reduced_table =
            if config.use_mcs then begin
              let result = Mcs.run pruned_table in
              if List.length result.Mcs.kept = k_pruned then
                (Some result, pruned_packed, pruned_subs, pruned_table)
              else begin
                let rows = Array.of_list result.Mcs.kept in
                let rp = Flat.gather pruned_packed rows in
                let rs = Array.map (fun i -> pruned_subs.(i)) rows in
                (Some result, rp, rs, Conflict_table.build_flat ~s ~subs:rs rp)
              end
            end
            else (None, pruned_packed, pruned_subs, pruned_table)
          in
          let mcs_report =
            match keep with
            | Some rows -> Option.map (remap_mcs rows) mcs_result
            | None -> mcs_result
          in
          let k_reduced = Array.length reduced_subs in
          if k_reduced = 0 then
            {
              (base_report ~verdict:(Not_covered Empty_set) ~k_initial
                 ~k_pruned ~k_reduced)
              with mcs = mcs_report;
            }
          else begin
            match
              if config.use_probes then Probes.try_probes reduced_table
              else None
            with
            | Some p ->
                {
                  (base_report ~verdict:(Not_covered (Point p)) ~k_initial
                     ~k_pruned ~k_reduced)
                  with mcs = mcs_report;
                }
            | None ->
                let rho_estimate = Rho.estimate reduced_table in
                let log10_d = Rho.log10_d rho_estimate ~delta:config.delta in
                let d_used =
                  Rho.d_capped rho_estimate ~delta:config.delta
                    ~cap:config.max_iterations
                in
                let run = Rspc.run_packed ~rng ~d:d_used ~sbox reduced_packed in
                let verdict =
                  match run.Rspc.outcome with
                  | Rspc.Not_covered p -> Not_covered (Point p)
                  | Rspc.Probably_covered -> Covered_probably
                in
                let achieved_delta =
                  let r = Rho.rho rho_estimate in
                  if r >= 1.0 then 0.0
                  else exp (float_of_int d_used *. log1p (-.r))
                in
                {
                  verdict;
                  k_initial;
                  k_pruned;
                  k_reduced;
                  mcs = mcs_report;
                  rho = Some rho_estimate;
                  log10_d = Some log10_d;
                  d_used;
                  iterations = run.Rspc.iterations;
                  achieved_delta = Some achieved_delta;
                }
          end
        end
  end

let check_publication ?config ?packed ~rng pub subs =
  check ?config ?packed ~rng (Publication.to_sub pub) subs

let theoretical_log10_d ?(use_mcs = true) ~delta s subs =
  if Array.length subs = 0 then neg_infinity
  else begin
    let table = Conflict_table.build ~s subs in
    let table =
      if not use_mcs then Some table
      else begin
        let result = Mcs.run table in
        let reduced = Mcs.reduced_subs table result in
        if Array.length reduced = 0 then None
        else Some (Conflict_table.build ~s reduced)
      end
    in
    match table with
    | None -> neg_infinity
    | Some table -> Rho.log10_d (Rho.estimate table) ~delta
  end
