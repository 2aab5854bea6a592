module Store = Probsub_core.Subscription_store
module IntMap = Map.Make (Int)

type t = {
  dev : Device.t;
  wal : Wal.t;
  meta : Codec.meta;
  mutable fence : int;
}

let attach_journal t store =
  Store.set_journal store (Some (fun op -> Wal.append t.wal (Codec.Op op)))

let fresh ?policy ~device ~arity ~seed () =
  let store = Store.create ?policy ~arity ~seed () in
  let meta =
    { Codec.m_arity = arity; m_seed = seed; m_policy = Store.policy store }
  in
  device.Device.clear_snapshot ();
  device.Device.reset_wal "";
  let wal = Wal.attach ~device ~next_lsn:0 in
  Wal.append wal (Codec.Genesis meta);
  let t = { dev = device; wal; meta; fence = 0 } in
  attach_journal t store;
  (store, t)

type recovered = {
  r_log : t;
  r_store : Store.t;
  r_bindings : Codec.binding list;
  r_epochs : (int * int) list;
  r_fence : int;
  r_repaired : bool;
}

(* A snapshot blob is one self-contained frame. Anything else — torn,
   bit-flipped, trailing garbage — is treated as no snapshot at all;
   the WAL (which still holds its genesis record unless a compaction
   completed, in which case the snapshot write had already landed
   atomically) is then the sole source of truth. *)
let read_snapshot (device : Device.t) =
  match device.Device.read_snapshot () with
  | None -> None
  | Some bytes -> (
      match Codec.read_frame bytes ~pos:0 with
      | Codec.Frame { payload; next; _ } when next = String.length bytes -> (
          match Codec.decode payload with
          | Ok (Codec.Snapshot { meta; last_lsn; image; bindings }) ->
              Some (meta, last_lsn, image, bindings)
          | Ok _ | Error _ -> None)
      | _ -> None)

let recover ~device () =
  let wal_bytes = device.Device.read_wal () in
  let scanned = Wal.scan wal_bytes in
  let repaired = scanned.Wal.stop <> Wal.Clean in
  if repaired then
    device.Device.reset_wal (String.sub wal_bytes 0 scanned.Wal.valid_bytes);
  let base =
    match read_snapshot device with
    | Some (meta, last_lsn, image, bindings) ->
        Ok (meta, last_lsn, image, bindings, scanned.Wal.records)
    | None -> (
        match scanned.Wal.records with
        | { Wal.e_record = Codec.Genesis meta; _ } :: rest ->
            Ok (meta, -1, Store.empty_image, [], rest)
        | [] -> Error "no recoverable state: empty log and no snapshot"
        | _ :: _ ->
            Error "no recoverable state: log does not begin with genesis")
  in
  match base with
  | Error _ as e -> e
  | Ok (meta, snap_lsn, image, snap_bindings, records) -> (
      let live =
        List.filter (fun e -> e.Wal.e_lsn > snap_lsn) records
      in
      let bindings =
        ref
          (List.fold_left
             (fun m b -> IntMap.add b.Codec.b_rid b m)
             IntMap.empty snap_bindings)
      in
      let epochs =
        ref
          (List.fold_left
             (fun m b -> IntMap.add b.Codec.b_key b.Codec.b_epoch m)
             IntMap.empty snap_bindings)
      in
      let unbind rid =
        match IntMap.find_opt rid !bindings with
        | None -> ()
        | Some b ->
            bindings := IntMap.remove rid !bindings;
            epochs := IntMap.remove b.Codec.b_key !epochs
      in
      let foreign = ref None in
      let fence = ref 0 in
      let ops = ref [] in
      List.iter
        (fun (e : Wal.entry) ->
          match e.Wal.e_record with
          | Codec.Fence { epoch } -> fence := max !fence epoch
          | Codec.Op op ->
              ops := op :: !ops;
              (match op with
              | Store.Op_remove { id; _ } -> unbind id
              | Store.Op_expire { expired; _ } -> List.iter unbind expired
              | Store.Op_add _ | Store.Op_renew _ -> ())
          | Codec.Bind b ->
              bindings := IntMap.add b.Codec.b_rid b !bindings;
              epochs := IntMap.add b.Codec.b_key b.Codec.b_epoch !epochs
          | Codec.Epoch_note { key; epoch } ->
              epochs := IntMap.add key epoch !epochs;
              (* Fold the bump into the owning binding too, so a later
                 [compact ~bindings:r_bindings] cannot resurrect the
                 pre-refresh epoch from a stale [b_epoch]. *)
              bindings :=
                IntMap.map
                  (fun b ->
                    if b.Codec.b_key = key then { b with Codec.b_epoch = epoch }
                    else b)
                  !bindings
          | Codec.Genesis _ ->
              foreign := Some "unexpected genesis record mid-log"
          | Codec.Snapshot _ ->
              foreign := Some "unexpected snapshot record in the wal")
        live;
      match !foreign with
      | Some reason -> Error reason
      | None -> (
          let ops = List.rev !ops in
          match
            Store.recover ~policy:meta.Codec.m_policy
              ~arity:meta.Codec.m_arity ~seed:meta.Codec.m_seed ~image ops
          with
          | exception Invalid_argument msg ->
              Error ("log is not a journal of one store: " ^ msg)
          | store ->
              let last_wal_lsn =
                List.fold_left
                  (fun acc (e : Wal.entry) -> max acc e.Wal.e_lsn)
                  (-1) records
              in
              let next_lsn = max snap_lsn last_wal_lsn + 1 in
              let wal = Wal.attach ~device ~next_lsn in
              let t = { dev = device; wal; meta; fence = !fence } in
              attach_journal t store;
              Ok
                {
                  r_log = t;
                  r_store = store;
                  r_bindings = List.map snd (IntMap.bindings !bindings);
                  r_epochs = IntMap.bindings !epochs;
                  r_fence = !fence;
                  r_repaired = repaired;
                }))

let log_binding t b = Wal.append t.wal (Codec.Bind b)
let log_epoch t ~key ~epoch = Wal.append t.wal (Codec.Epoch_note { key; epoch })

let log_fence t ~epoch =
  if epoch > t.fence then begin
    t.fence <- epoch;
    Wal.append t.wal (Codec.Fence { epoch })
  end

let fence t = t.fence

let compact t store ~bindings =
  let last_lsn = Wal.next_lsn t.wal - 1 in
  let image = Store.image store in
  let payload =
    Codec.encode (Codec.Snapshot { meta = t.meta; last_lsn; image; bindings })
  in
  t.dev.Device.write_snapshot (Codec.frame ~lsn:last_lsn payload);
  t.dev.Device.reset_wal "";
  (* The snapshot record does not carry the fence; re-journal it so a
     recovery after compaction still sees the highest epoch. *)
  if t.fence > 0 then Wal.append t.wal (Codec.Fence { epoch = t.fence })

let wal_size t = String.length (t.dev.Device.read_wal ())
let next_lsn t = Wal.next_lsn t.wal
let device t = t.dev
