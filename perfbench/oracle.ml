(* The exact replay oracle. The broker's only input is the generator's
   client frames, in order on one connection, so its output is a
   function of that stream: an in-process Broker_node with the same id,
   neighbours, policy, arity, seed and lease, fed the same payloads,
   must produce the same Notify set per publication and the same
   Forward sequence. A shadow store without coverage gives the true
   matches, whose gap to the replay is the δ-bounded false-miss
   count. *)

open Probsub_core
module Broker_node = Probsub_broker.Broker_node
module Message = Probsub_broker.Message
module Wire = Probsub_server.Wire

let lease_ttl = 1e6

type reference = {
  expected : (int, int list) Hashtbl.t;  (* pub id -> keys, ascending *)
  forwards : string array;  (* encoded payloads, in order *)
  true_pairs : int;  (* (subscription, publication) matches *)
  false_misses : int;  (* true matches the replay did not notify *)
  phantom : int;  (* replay notifications that are not true matches *)
}

let encode_forward p = Wire.encode (Wire.Payload p)

(* [feed payload] returns the node's actions for one client payload. *)
type replayer = { node : Broker_node.t; feed : Message.payload -> Broker_node.action list }

let node (w : Plan.workload) ~seed ?device () =
  Broker_node.create ?device ~lease_ttl ~id:0 ~neighbors:w.Plan.neighbors
    ~policy:w.Plan.policy ~arity:w.Plan.arity ~seed ()

let replayer w ~seed =
  let node = node w ~seed () in
  { node; feed = Broker_node.handle node ~now:0.0 ~origin:(Message.Client Gen.client_id) }

(* Tracks the reference while payloads go through [handle]; the caller
   decides how each payload is delivered to the node (plain, or under
   the tracer's spans). *)
type recorder = {
  b_expected : (int, int list) Hashtbl.t;
  b_forwards : string list ref;
  truth : Subscription_store.t;
  key_of_id : (int, int) Hashtbl.t;
  id_of_key : (int, int) Hashtbl.t;
  mutable b_true : int;
  mutable b_false : int;
  mutable b_phantom : int;
}

let recorder (w : Plan.workload) =
  {
    b_expected = Hashtbl.create 4096;
    b_forwards = ref [];
    truth = Subscription_store.create ~policy:Subscription_store.No_coverage ~arity:w.Plan.arity ~seed:0 ();
    key_of_id = Hashtbl.create 4096;
    id_of_key = Hashtbl.create 4096;
    b_true = 0;
    b_false = 0;
    b_phantom = 0;
  }

let observe b payload actions =
  let notified = ref [] in
  List.iter
    (function
      | Broker_node.Notify { key; _ } -> notified := key :: !notified
      | Broker_node.Forward { payload; _ } -> b.b_forwards := encode_forward payload :: !(b.b_forwards))
    actions;
  match payload with
  | Message.Subscribe { key; sub; _ } ->
      let id, _ = Subscription_store.add b.truth sub in
      Hashtbl.replace b.key_of_id id key;
      Hashtbl.replace b.id_of_key key id
  | Message.Unsubscribe { key } -> (
      match Hashtbl.find_opt b.id_of_key key with
      | Some id ->
          ignore (Subscription_store.remove b.truth id);
          Hashtbl.remove b.id_of_key key;
          Hashtbl.remove b.key_of_id id
      | None -> ())
  | Message.Publish { id; pub } ->
      let got = List.sort_uniq compare !notified in
      Hashtbl.replace b.b_expected id got;
      let truth =
        List.filter_map (fun i -> Hashtbl.find_opt b.key_of_id i) (Subscription_store.match_publication b.truth pub)
        |> List.sort_uniq compare
      in
      let mem x l = List.exists (Int.equal x) l in
      b.b_true <- b.b_true + List.length truth;
      b.b_false <- b.b_false + List.length (List.filter (fun k -> not (mem k got)) truth);
      b.b_phantom <- b.b_phantom + List.length (List.filter (fun k -> not (mem k truth)) got)
  | Message.Advertise _ | Message.Unadvertise _ | Message.Ack _ -> ()

let finish b =
  {
    expected = b.b_expected;
    forwards = Array.of_list (List.rev !(b.b_forwards));
    true_pairs = b.b_true;
    false_misses = b.b_false;
    phantom = b.b_phantom;
  }

let replay w ~seed payloads =
  let r = replayer w ~seed in
  let b = recorder w in
  Array.iter (fun p -> observe b p (r.feed p)) payloads;
  finish b

type verdict = {
  missed : int;  (* expected notifications that never arrived *)
  duplicate : int;
  spurious : int;  (* notifications the replay did not produce *)
  forward_mismatch : int;  (* positions where the forward sequences differ *)
  pubs_short : int;  (* publications with at least one missed notification *)
}

(* [delivered]: pub id -> keys as they arrived (any order, repeats kept). *)
let check reference ~(delivered : (int, int list) Hashtbl.t) ~forwards =
  let missed = ref 0 and duplicate = ref 0 and spurious = ref 0 and pubs_short = ref 0 in
  Hashtbl.iter
    (fun pub keys ->
      let expected = Option.value (Hashtbl.find_opt reference.expected pub) ~default:[] in
      let rec walk = function
        | a :: (b :: _ as tl) ->
            if a = b then incr duplicate;
            walk tl
        | [ _ ] | [] -> ()
      in
      let keys = List.sort compare keys in
      walk keys;
      List.iter (fun k -> if not (List.mem k expected) then incr spurious) (List.sort_uniq compare keys))
    delivered;
  Hashtbl.iter
    (fun pub expected ->
      let got = Option.value (Hashtbl.find_opt delivered pub) ~default:[] in
      let lost = List.length (List.filter (fun k -> not (List.mem k got)) expected) in
      missed := !missed + lost;
      if lost > 0 then incr pubs_short)
    reference.expected;
  let n = Array.length reference.forwards and m = Array.length forwards in
  let mismatch = ref (abs (n - m)) in
  for i = 0 to min n m - 1 do
    if not (String.equal reference.forwards.(i) forwards.(i)) then incr mismatch
  done;
  {
    missed = !missed;
    duplicate = !duplicate;
    spurious = !spurious;
    forward_mismatch = !mismatch;
    pubs_short = !pubs_short;
  }

(* A run is correct when nothing arrived that should not have, forwards
   match exactly, every loss is accounted for by a broker shed, and the
   replay never notifies a non-matching subscription. *)
let passes reference v ~sheds =
  v.duplicate = 0 && v.spurious = 0 && v.forward_mismatch = 0 && v.missed <= sheds
  && reference.phantom = 0

(* Planted faults: drop one delivered notification, duplicate another,
   add one for a key that never subscribed. The checker must see each
   one and fail the doctored log. *)
let self_check reference ~delivered ~forwards ~sheds =
  let real = check reference ~delivered ~forwards in
  let with_keys =
    Hashtbl.fold (fun pub keys acc -> if keys = [] then acc else pub :: acc) delivered []
    |> List.sort compare
  in
  match with_keys with
  | a :: b :: _ ->
      let doctored = Hashtbl.copy delivered in
      let keys p = Option.value (Hashtbl.find_opt doctored p) ~default:[] in
      (* [a] loses its first key and gains key 0, which never subscribed;
         [b] sees its first key twice. *)
      (match keys a with _ :: rest -> Hashtbl.replace doctored a (0 :: rest) | [] -> ());
      (match keys b with k :: rest -> Hashtbl.replace doctored b (k :: k :: rest) | [] -> ());
      let v = check reference ~delivered:doctored ~forwards in
      v.missed = real.missed + 1
      && v.duplicate = real.duplicate + 1
      && v.spurious = real.spurious + 1
      && not (passes reference v ~sheds)
  | _ -> false
