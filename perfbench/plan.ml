(* Workload definitions and seeded input generation. Everything the
   broker will ever receive is generated here, before any process is
   forked, so one seed fixes the whole payload stream. *)

open Probsub_core
module Scenario = Probsub_workload.Scenario
module Message = Probsub_broker.Message

type kind = Sub | Unsub | Pub | Ping

type op = { kind : kind; payload : Message.payload; due : float }
(* [due]: offset in seconds from the phase start (open-loop phases);
   0 in burst phases, which offer every op at once. *)

type subs =
  | Uniform_boxes
  | Topics of int
      (* §6.4 comparison-stream subscriptions over arity - 1 attributes,
         plus a last attribute naming one of this many topics *)

type workload = {
  name : string;
  why : string;
  policy : Subscription_store.policy;
  policy_name : string;
  arity : int;
  neighbors : int list;  (* [1] when the generator plays broker 1 *)
  subs : subs;
  table : int;  (* subscriptions preloaded in set-up *)
  pub_rate : float;  (* open-loop publications per second *)
  ctl_rate : float;  (* open-loop subscribe/unsubscribe per second *)
  pub_burst : int;  (* publications offered at once for pub_max_rate *)
  ctl_burst : int;  (* control ops offered at once for sub_max_rate *)
}

(* Engine settings of the group-coverage workloads: δ and the RSPC
   trial cap are part of the benchmark definition, not of the broker's
   defaults, so a change to Engine.default_config cannot silently
   change what churn and mixed measure. *)
let delta = 1e-4
let max_iterations = 5_000
let group = Subscription_store.Group_policy (Engine.config ~delta ~max_iterations ())

let workloads =
  [
    {
      name = "fanout";
      why =
        "large selective table under pairwise covering: publications \
         dominate, so matching and Notify framing carry the load";
      policy = Subscription_store.Pairwise_policy;
      policy_name = "pairwise";
      arity = 4;
      neighbors = [];
      subs = Uniform_boxes;
      table = 4_000;
      pub_rate = 1000.0;
      ctl_rate = 60.0;
      pub_burst = 20_000;
      ctl_burst = 4_000;
    };
    {
      name = "churn";
      why =
        "skewed subscribe/unsubscribe stream under group covering with a \
         neighbour: admission (conflict table, MCS, RSPC), promotion and \
         WAL appends carry the load";
      policy = group;
      policy_name = Printf.sprintf "group(delta=%g,max_iterations=%d)" delta max_iterations;
      arity = 11;
      neighbors = [ 1 ];
      subs = Topics 20;
      table = 200;
      pub_rate = 100.0;
      ctl_rate = 300.0;
      pub_burst = 150_000;
      ctl_burst = 25_000;
    };
    {
      name = "mixed";
      why =
        "churn set-up with publications at a higher rate than the churn: \
         matching pays for covering, so a trade between the two shows";
      policy = group;
      policy_name = Printf.sprintf "group(delta=%g,max_iterations=%d)" delta max_iterations;
      arity = 11;
      neighbors = [ 1 ];
      subs = Topics 20;
      table = 200;
      pub_rate = 800.0;
      ctl_rate = 100.0;
      pub_burst = 150_000;
      ctl_burst = 25_000;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) workloads

(* Shrink a workload for the smoke mode: same shape, a few hundred ops. *)
let smoke w =
  {
    w with
    table = min w.table 300;
    pub_burst = min w.pub_burst 200;
    ctl_burst = min w.ctl_burst 100;
  }

(* Saturation bursts are offered in this many rounds, each a chunk of
   publications then a chunk of control ops; a rate is the median over
   its rounds, so a stall of the machine moves one round rather than
   the figure. *)
let rounds = 7

type plan = {
  preload : op array;  (* replayed in every set-up *)
  open_loop : op array;  (* Poisson arrivals over the run's seconds *)
  bursts : (op array * op array) list;  (* per round: publications, control *)
}

(* Key 0 is never subscribed: unsubscribing it is a no-op the broker
   still acks, which makes it an in-order barrier on the client
   connection. Every phase ends with one. *)
let ping = { kind = Ping; payload = Message.Unsubscribe { key = 0 }; due = 0.0 }

let domain_hi = Scenario.domain_width - 1

(* The live table, with O(1) random pick and swap-remove. *)
type table = {
  mutable keys : int array;
  mutable vals : Subscription.t array;
  mutable n : int;
}

let table_add t key sub =
  if t.n = Array.length t.keys then begin
    let cap = max 16 (2 * t.n) in
    let keys = Array.make cap 0 and vals = Array.make cap sub in
    Array.blit t.keys 0 keys 0 t.n;
    Array.blit t.vals 0 vals 0 t.n;
    t.keys <- keys;
    t.vals <- vals
  end;
  t.keys.(t.n) <- key;
  t.vals.(t.n) <- sub;
  t.n <- t.n + 1

let table_remove t i =
  let key = t.keys.(i) in
  t.n <- t.n - 1;
  t.keys.(i) <- t.keys.(t.n);
  t.vals.(i) <- t.vals.(t.n);
  key

let uniform_box rng ~arity =
  Subscription.make
    (Array.init arity (fun _ ->
         let w = Prng.int_in rng ~lo:80 ~hi:240 in
         let lo = Prng.int_in rng ~lo:0 ~hi:(domain_hi - w) in
         Interval.make ~lo ~hi:(lo + w)))

let new_sub w rng =
  match w.subs with
  | Uniform_boxes -> uniform_box rng ~arity:w.arity
  | Topics topics -> (
      match Scenario.comparison_stream rng ~m:(w.arity - 1) ~n:1 with
      | [ s ] ->
          let topic = Interval.point (Prng.int rng topics) in
          Subscription.make (Array.append (Subscription.ranges s) [| topic |])
      | _ -> invalid_arg "Plan.new_sub: comparison_stream returned no subscription")

(* A publication inside a live subscription, so it has at least one true
   recipient: 90% points, 10% boxes three values wide per attribute.
   Values stay inside the attribute domain even where the subscription
   is unconstrained. *)
let publication rng sub =
  let point =
    Array.init (Subscription.arity sub) (fun j ->
        let r = Subscription.range sub j in
        let lo = max 0 (Interval.lo r) and hi = min domain_hi (Interval.hi r) in
        if lo <= hi then Prng.int_in rng ~lo ~hi else Prng.in_interval rng r)
  in
  if Prng.int rng 10 = 0 then
    Publication.box
      (Subscription.make
         (Array.mapi
            (fun j v ->
              Interval.make ~lo:v ~hi:(min (v + 2) (Interval.hi (Subscription.range sub j))))
            point))
  else Publication.point point

type gen = { w : workload; rng : Prng.t; live : table; mutable next_key : int; mutable next_pub : int }

let subscribe g ~due =
  let key = g.next_key in
  g.next_key <- key + 1;
  let sub = new_sub g.w g.rng in
  table_add g.live key sub;
  { kind = Sub; payload = Message.Subscribe { key; sub; epoch = 0 }; due }

(* Mean-reverting churn: unsubscribe with probability n / (n + table),
   so the live set hovers around its preloaded size. *)
let control g ~due =
  let n = g.live.n in
  if n > 0 && Prng.int g.rng (n + g.w.table) < n then
    let key = table_remove g.live (Prng.int g.rng n) in
    { kind = Unsub; payload = Message.Unsubscribe { key }; due }
  else subscribe g ~due

let publish g ~due =
  if g.live.n = 0 then subscribe g ~due
  else begin
    let id = g.next_pub in
    g.next_pub <- id + 1;
    let sub = g.live.vals.(Prng.int g.rng g.live.n) in
    { kind = Pub; payload = Message.Publish { id; pub = publication g.rng sub }; due }
  end

let exponential rng ~rate = -.log (1.0 -. Prng.float rng) /. rate

let make w ~seed ~seconds =
  let g =
    {
      w;
      rng = Prng.of_int (seed * 1_000_003 + 17);
      live = { keys = [||]; vals = [||]; n = 0 };
      next_key = 1;
      next_pub = 1;
    }
  in
  let preload = Array.init w.table (fun _ -> subscribe g ~due:0.0) in
  let rate = w.pub_rate +. w.ctl_rate in
  let rec arrivals t acc =
    let t = t +. exponential g.rng ~rate in
    if t >= seconds then List.rev acc
    else
      let op =
        if Prng.float g.rng *. rate < w.pub_rate then publish g ~due:t
        else control g ~due:t
      in
      arrivals t (op :: acc)
  in
  let open_loop = Array.of_list (arrivals 0.0 []) in
  let rec bursts r acc =
    if r = rounds then List.rev acc
    else
      let pubs = Array.init (w.pub_burst / rounds) (fun _ -> publish g ~due:0.0) in
      let ctls = Array.init (w.ctl_burst / rounds) (fun _ -> control g ~due:0.0) in
      bursts (r + 1) ((pubs, ctls) :: acc)
  in
  { preload; open_loop; bursts = bursts 0 [] }
