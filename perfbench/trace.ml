(* The traced pass: replays the exact client byte stream a socket run
   sent, from the benchmark's own file, through the public functions of
   each layer, recording a span around every call:

   1. Codec.Decoder and Wire.decode       wire.decode
   2. Broker_node.handle                  node.handle, with wal.append
      children from a timing wrapper around a Device.fs device
   3. Wire.frame of the resulting actions wire.frame.{ack,notify,forward}
   4. a standalone Subscription_store     store.{add,remove,match}
      and Engine.check on active_arrays   engine.check

   Spans (name, start, end, parent, request id = client sequence
   number) stay in memory and are written when the pass ends. *)

open Probsub_core
module Codec = Probsub_store_log.Codec
module Device = Probsub_store_log.Device
module Broker_node = Probsub_broker.Broker_node
module Message = Probsub_broker.Message
module Wire = Probsub_server.Wire

let names =
  [|
    "wire.decode"; "node.handle"; "wal.append"; "wire.frame.ack"; "wire.frame.notify";
    "wire.frame.forward"; "store.add"; "store.remove"; "store.match"; "engine.check";
  |]

let decode = 0 and handle = 1 and wal = 2 and f_ack = 3 and f_notify = 4 and f_forward = 5
let s_add = 6 and s_remove = 7 and s_match = 8 and engine = 9

type spans = {
  mutable n : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable req : int array;
  mutable child_ns : int array;  (* time covered by direct children *)
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let open_span sp name ~parent ~req =
  if sp.n = Array.length sp.name then begin
    let grow a = Array.append a (Array.make (max 1024 sp.n) 0) in
    sp.name <- grow sp.name;
    sp.start <- grow sp.start;
    sp.stop <- grow sp.stop;
    sp.parent <- grow sp.parent;
    sp.req <- grow sp.req;
    sp.child_ns <- grow sp.child_ns
  end;
  let id = sp.n in
  sp.n <- id + 1;
  sp.name.(id) <- name;
  sp.parent.(id) <- parent;
  sp.req.(id) <- req;
  sp.child_ns.(id) <- 0;
  sp.start.(id) <- now_ns ();
  id

let close_span sp id =
  let t = now_ns () in
  sp.stop.(id) <- t;
  let p = sp.parent.(id) in
  if p >= 0 then sp.child_ns.(p) <- sp.child_ns.(p) + (t - sp.start.(id))

let dur sp id = sp.stop.(id) - sp.start.(id)

let write_spans sp path =
  let oc = open_out path in
  output_string oc "id\tname\tstart_ns\tend_ns\tparent\treq\n";
  for i = 0 to sp.n - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i names.(sp.name.(i)) sp.start.(i) sp.stop.(i)
      sp.parent.(i) sp.req.(i)
  done;
  close_out oc

type input = {
  w : Plan.workload;
  seed : int;
  log : string;  (* client frames as sent *)
  kinds : Plan.kind array;  (* by client seq *)
  measured_from : int;  (* first client seq of the measured phases *)
  wal_dir : string;
}

(* Per-request measurements of the measured phases, for aggregation. *)
type acc = {
  mutable reqs : (Plan.kind * int * int * int * int) list;
      (* kind, decode ns, handle ns (total), handle self ns, frame ns *)
  mutable notify_ns : int list;
  mutable pubs : int;
  mutable ctls : int;
  mutable bytes_pub : int;
  mutable scans : int;
  mutable hits : int;
  mutable forwards : int;
  mutable appends : int;
  mutable append_bytes : int;
  mutable append_ns : int list;
  mutable add_ns : int list;
  mutable match_ns : int list;
  mutable covered_scans : int;
  mutable check_ns : int list;
  mutable checks : int;
  mutable iterations : int;
  mutable k_pruned : int;
  mutable k_reduced : int;
  mutable fast : int;
}

type result = {
  acc : acc;
  store : Subscription_store.t;
  traced_ns : int;  (* Σ node.handle spans, tracing on *)
  reference : Oracle.reference;
  spans : spans;
}

let run (i : input) =
  let sp =
    { n = 0; name = [||]; start = [||]; stop = [||]; parent = [||]; req = [||]; child_ns = [||] }
  in
  let acc =
    {
      reqs = []; notify_ns = []; pubs = 0; ctls = 0; bytes_pub = 0; scans = 0; hits = 0;
      forwards = 0; appends = 0; append_bytes = 0; append_ns = []; add_ns = []; match_ns = [];
      covered_scans = 0; check_ns = []; checks = 0; iterations = 0; k_pruned = 0;
      k_reduced = 0; fast = 0;
    }
  in
  let cur_parent = ref (-1) and cur_req = ref 0 in
  let measured () = !cur_req >= i.measured_from in
  let raw = Device.fs ~dir:i.wal_dir in
  let device =
    {
      raw with
      Device.append_wal =
        (fun bytes ->
          let id = open_span sp wal ~parent:!cur_parent ~req:!cur_req in
          raw.Device.append_wal bytes;
          close_span sp id;
          if measured () then begin
            acc.appends <- acc.appends + 1;
            acc.append_bytes <- acc.append_bytes + String.length bytes;
            acc.append_ns <- dur sp id :: acc.append_ns
          end);
    }
  in
  let node = Oracle.node i.w ~seed:i.seed ~device () in
  let b = Oracle.recorder i.w in
  let store = Subscription_store.create ~policy:i.w.Plan.policy ~arity:i.w.Plan.arity ~seed:i.seed () in
  let store_ids = Hashtbl.create 4096 in
  let engine_rng = Prng.of_int i.seed in
  let engine_config =
    match i.w.Plan.policy with
    | Subscription_store.Group_policy c -> Some c
    | Subscription_store.No_coverage | Subscription_store.Pairwise_policy -> None
  in
  let dec = Codec.Decoder.create () in
  let pos = ref 0 in
  let traced_ns = ref 0 in
  let out_seq = ref 1 in
  let frame_span name ~req msg =
    let id = open_span sp name ~parent:(-1) ~req in
    let bytes = Wire.frame ~seq:!out_seq msg in
    close_span sp id;
    incr out_seq;
    (id, String.length bytes)
  in
  let origin = Message.Client Gen.client_id in
  (* Stages 1-3, request by request, as the server runs them. *)
  let handled = ref [] in
  let rec loop () =
    let before = Codec.Decoder.buffered dec in
    let id = open_span sp decode ~parent:(-1) ~req:0 in
    match Codec.Decoder.next dec with
    | Codec.Decoder.D_need_more ->
        sp.n <- sp.n - 1;
        if !pos < String.length i.log then begin
          let len = min 65536 (String.length i.log - !pos) in
          Codec.Decoder.feed_string dec (String.sub i.log !pos len);
          pos := !pos + len;
          loop ()
        end
    | Codec.Decoder.D_corrupt reason -> Gen.fail "traced replay: corrupt log: %s" reason
    | Codec.Decoder.D_frame { lsn = seq; payload = body } -> (
        match Wire.decode body with
        | Error reason -> Gen.fail "traced replay: undecodable frame %d: %s" seq reason
        | Ok (Wire.Payload p) ->
            close_span sp id;
            sp.req.(id) <- seq;
            let frame_bytes = before - Codec.Decoder.buffered dec in
            handled := (seq, p, serve ~seq ~decode_id:id ~frame_bytes p) :: !handled;
            loop ()
        | Ok _ -> Gen.fail "traced replay: frame %d is not a payload" seq)
  and serve ~seq ~decode_id ~frame_bytes p =
    let kind = if seq < Array.length i.kinds then i.kinds.(seq) else Plan.Ping in
    cur_req := seq;
    let m = measured () && kind <> Plan.Ping in
    let scans0, hits0 = Broker_node.match_counters node in
    let h = open_span sp handle ~parent:(-1) ~req:seq in
    cur_parent := h;
    let actions = Broker_node.handle node ~now:0.0 ~origin p in
    close_span sp h;
    cur_parent := -1;
    traced_ns := !traced_ns + dur sp h;
    let scans1, hits1 = Broker_node.match_counters node in
    let frame_ns = ref 0 and notify_bytes = ref 0 in
    if Message.is_control p then begin
      let id, _ = frame_span f_ack ~req:seq (Wire.Frame_ack { seq }) in
      frame_ns := !frame_ns + dur sp id
    end;
    List.iter
      (function
        | Broker_node.Notify { client; key; pub_id } ->
            let id, len = frame_span f_notify ~req:seq (Wire.Notify { client; key; pub_id }) in
            frame_ns := !frame_ns + dur sp id;
            notify_bytes := !notify_bytes + len;
            if m then acc.notify_ns <- dur sp id :: acc.notify_ns
        | Broker_node.Forward { payload; _ } ->
            let id, _ = frame_span f_forward ~req:seq (Wire.Payload payload) in
            frame_ns := !frame_ns + dur sp id;
            if m then acc.forwards <- acc.forwards + 1)
      actions;
    if m then begin
      acc.reqs <-
        (kind, dur sp decode_id, dur sp h, dur sp h - sp.child_ns.(h), !frame_ns) :: acc.reqs;
      match kind with
      | Plan.Pub ->
          acc.pubs <- acc.pubs + 1;
          acc.bytes_pub <- acc.bytes_pub + frame_bytes + !notify_bytes;
          acc.scans <- acc.scans + (scans1 - scans0);
          acc.hits <- acc.hits + (hits1 - hits0)
      | Plan.Sub | Plan.Unsub -> acc.ctls <- acc.ctls + 1
      | Plan.Ping -> ()
    end;
    actions
  in
  loop ();
  let handled = List.rev !handled in
  List.iter (fun (_, p, actions) -> Oracle.observe b p actions) handled;
  (* Stage 4, as its own pass so it cannot disturb the caches of the
     node spans above: the standalone store and engine. *)
  List.iter
    (fun (seq, p, _) ->
      let m = seq >= i.measured_from && seq < Array.length i.kinds && i.kinds.(seq) <> Plan.Ping in
      match p with
      | Message.Subscribe { key; sub; _ } ->
          (match engine_config with
          | Some config ->
              let _, subs = Subscription_store.active_arrays store in
              let packed = Subscription_store.active_packed store in
              let rng = Prng.split engine_rng in
              let id = open_span sp engine ~parent:(-1) ~req:seq in
              let r = Engine.check ~config ~packed ~rng sub subs in
              close_span sp id;
              if m then begin
                acc.check_ns <- dur sp id :: acc.check_ns;
                acc.checks <- acc.checks + 1;
                acc.iterations <- acc.iterations + r.Engine.iterations;
                acc.k_pruned <- acc.k_pruned + r.Engine.k_pruned;
                acc.k_reduced <- acc.k_reduced + r.Engine.k_reduced;
                if r.Engine.iterations = 0 then acc.fast <- acc.fast + 1
              end
          | None -> ());
          let id = open_span sp s_add ~parent:(-1) ~req:seq in
          let sid, _ = Subscription_store.add store sub in
          close_span sp id;
          Hashtbl.replace store_ids key sid;
          if m then acc.add_ns <- dur sp id :: acc.add_ns
      | Message.Unsubscribe { key } -> (
          match Hashtbl.find_opt store_ids key with
          | Some sid ->
              let id = open_span sp s_remove ~parent:(-1) ~req:seq in
              ignore (Subscription_store.remove store sid);
              close_span sp id;
              Hashtbl.remove store_ids key
          | None -> ())
      | Message.Publish { pub; _ } ->
          let c0 = (Subscription_store.stats store).Subscription_store.covered_scans in
          let id = open_span sp s_match ~parent:(-1) ~req:seq in
          ignore (Subscription_store.match_publication store pub);
          close_span sp id;
          if m then begin
            acc.match_ns <- dur sp id :: acc.match_ns;
            acc.covered_scans <-
              acc.covered_scans + (Subscription_store.stats store).Subscription_store.covered_scans - c0
          end
      | Message.Advertise _ | Message.Unadvertise _ | Message.Ack _ -> ())
    handled;
  { acc; store; traced_ns = !traced_ns; reference = Oracle.finish b; spans = sp }

(* The same handle loop with tracing off, over an untimed device: the
   base of the tracing overhead. *)
let untraced_ns w ~seed payloads ~wal_dir =
  let node = Oracle.node w ~seed ~device:(Device.fs ~dir:wal_dir) () in
  let origin = Message.Client Gen.client_id in
  let t0 = now_ns () in
  Array.iter (fun p -> ignore (Broker_node.handle node ~now:0.0 ~origin p)) payloads;
  now_ns () - t0
