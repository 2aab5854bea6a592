open Probsub_core
open Probsub_workload

type row = {
  policy : string;
  active_size : int;
  covered_size : int;
  scans_per_pub : float;
  matched : int;
  missed : int;
}

let run ?(subs = 1500) ?(pubs = 500) ?(m = 10) ~seed () =
  let rng = Prng.of_int seed in
  let stream = Scenario.comparison_stream rng ~m ~n:subs in
  (* Half the publications land inside a random subscription (the
     covered-set path gets exercised); half land in the sparse upper
     part of the domain where subscriptions are rare (the Algorithm 5
     fast path: on an active-set miss the covered set is skipped). *)
  let stream_arr = Array.of_list stream in
  let sparse = Schema.uniform ~arity:m ~lo:Scenario.domain_width ~hi:(2 * Scenario.domain_width) in
  let publications =
    List.init pubs (fun i ->
        if i mod 2 = 0 then Schema.random_point rng sparse
        else
          let s = stream_arr.(Prng.int rng (Array.length stream_arr)) in
          Array.init m (fun j -> Prng.in_interval rng (Subscription.range s j)))
    |> List.map Publication.point
  in
  let policies =
    [
      ("flooding", Subscription_store.No_coverage);
      ("pair-wise", Subscription_store.Pairwise_policy);
      ( "group",
        Subscription_store.Group_policy
          (Engine.config ~delta:1e-6 ~max_iterations:1500 ()) );
    ]
  in
  List.map
    (fun (name, policy) ->
      let store =
        Subscription_store.create ~policy ~arity:m ~seed:(seed + 7) ()
      in
      List.iter (fun s -> ignore (Subscription_store.add store s)) stream;
      (* "Touched" = counting-index hits processed (the indexed active
         path's unit of work) plus one-by-one tests of covered
         subscriptions during Algorithm 5 descent. *)
      let scans_before =
        let st = Subscription_store.stats store in
        st.Subscription_store.covered_scans
        + st.Subscription_store.index_hits
      in
      let matched = ref 0 and missed = ref 0 in
      List.iter
        (fun p ->
          let hits = Subscription_store.match_publication store p in
          let truth = Subscription_store.match_publication_exhaustive store p in
          matched := !matched + List.length hits;
          missed := !missed + (List.length truth - List.length hits))
        publications;
      let scans_after =
        let st = Subscription_store.stats store in
        st.Subscription_store.covered_scans
        + st.Subscription_store.index_hits
      in
      {
        policy = name;
        active_size = Subscription_store.active_count store;
        covered_size = Subscription_store.covered_count store;
        scans_per_pub =
          float_of_int (scans_after - scans_before) /. float_of_int pubs;
        matched = !matched;
        missed = !missed;
      })
    policies

let print rows =
  Printf.printf "== matching: Algorithm 5 under the three policies ==\n";
  Printf.printf "%-10s %8s %8s %14s %9s %7s\n" "policy" "active" "covered"
    "scans/pub" "matched" "missed";
  List.iter
    (fun r ->
      Printf.printf "%-10s %8d %8d %14.1f %9d %7d\n" r.policy r.active_size
        r.covered_size r.scans_per_pub r.matched r.missed)
    rows
