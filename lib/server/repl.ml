(* Hot-standby replication: WAL frame shipping on the primary side,
   idempotent application on the standby side. Both halves speak the
   same [event] language; the transport (wire messages, retries) lives
   in {!Broker_server}. *)

module Device = Probsub_store_log.Device
module Wal = Probsub_store_log.Wal
module Codec = Probsub_store_log.Codec

type event =
  | E_frames of string
  | E_snapshot of { snap : string option; wal : string; next_lsn : int }

(* The LSN the next append would receive, reconstructed purely from
   device bytes — the same arithmetic [Store_log.recover] uses, so the
   ship and apply sides always agree on stream position. *)
let device_next_lsn (dev : Device.t) =
  let snap_lsn =
    match dev.Device.read_snapshot () with
    | None -> -1
    | Some bytes -> (
        match Codec.read_frame bytes ~pos:0 with
        | Codec.Frame { lsn; _ } -> lsn
        | _ -> -1)
  in
  let scanned = Wal.scan (dev.Device.read_wal ()) in
  let wal_last =
    List.fold_left
      (fun acc (e : Wal.entry) -> max acc e.Wal.e_lsn)
      (-1) scanned.Wal.records
  in
  max snap_lsn wal_last + 1

module Ship = struct
  type t = {
    inner : Device.t;
    mutable pending : event list;  (* newest first *)
    mutable s_next : int;
    mutable shipped : int;
  }

  (* A rebase makes every earlier pending event redundant: the standby
     will install the full device image anyway. *)
  let push_rebase t =
    t.s_next <- device_next_lsn t.inner;
    t.pending <-
      [
        E_snapshot
          {
            snap = t.inner.Device.read_snapshot ();
            wal = t.inner.Device.read_wal ();
            next_lsn = t.s_next;
          };
      ]

  let tap inner =
    let t =
      { inner; pending = []; s_next = device_next_lsn inner; shipped = 0 }
    in
    let wrapped =
      {
        Device.read_wal = inner.Device.read_wal;
        append_wal =
          (fun bytes ->
            inner.Device.append_wal bytes;
            t.s_next <- t.s_next + 1;
            t.pending <- E_frames bytes :: t.pending);
        reset_wal =
          (fun bytes ->
            inner.Device.reset_wal bytes;
            push_rebase t);
        read_snapshot = inner.Device.read_snapshot;
        write_snapshot =
          (fun bytes ->
            inner.Device.write_snapshot bytes;
            push_rebase t);
        clear_snapshot =
          (fun () ->
            inner.Device.clear_snapshot ();
            push_rebase t);
      }
    in
    (t, wrapped)

  let drain t =
    (* Adjacent single-frame appends collapse into one chunk so a burst
       of writes ships as one message; each run is concatenated once.
       [pending] is newest first, so prepending while walking it leaves
       every run, and the result, oldest first. *)
    let chunk run acc =
      match run with [] -> acc | _ -> E_frames (String.concat "" run) :: acc
    in
    let rec walk run acc = function
      | E_frames bytes :: older ->
          t.shipped <- t.shipped + 1;
          walk (bytes :: run) acc older
      | (E_snapshot _ as e) :: older -> walk [] (e :: chunk run acc) older
      | [] -> chunk run acc
    in
    let events = walk [] [] t.pending in
    t.pending <- [];
    events

  let resume t ~from_lsn =
    let wal = t.inner.Device.read_wal () in
    let scanned = Wal.scan wal in
    let w0 =
      match scanned.Wal.records with
      | e :: _ -> e.Wal.e_lsn
      | [] -> t.s_next
    in
    if from_lsn >= w0 && from_lsn <= t.s_next then
      if from_lsn = t.s_next then []
      else begin
        match
          List.find_opt
            (fun (e : Wal.entry) -> e.Wal.e_lsn = from_lsn)
            scanned.Wal.records
        with
        | Some e ->
            let suffix =
              String.sub wal e.Wal.e_offset (String.length wal - e.Wal.e_offset)
            in
            t.shipped <- t.shipped + (t.s_next - from_lsn);
            [ E_frames suffix ]
        | None ->
            (* LSN inside the range but absent from the WAL can only
               mean a non-contiguous log; fall back to a full rebase. *)
            [
              E_snapshot
                {
                  snap = t.inner.Device.read_snapshot ();
                  wal;
                  next_lsn = t.s_next;
                };
            ]
      end
    else
      [
        E_snapshot
          {
            snap = t.inner.Device.read_snapshot ();
            wal;
            next_lsn = t.s_next;
          };
      ]

  let next_lsn t = t.s_next
  let frames_shipped t = t.shipped
end

module Apply = struct
  type t = {
    dev : Device.t;
    mutable a_next : int;
    mutable applied : int;
  }

  let create ~device =
    (* A standby that itself crashed may hold a torn tail; cut back to
       the longest valid prefix exactly like recovery would, so the
       resume point we report is one the primary can actually serve. *)
    let bytes = device.Device.read_wal () in
    let scanned = Wal.scan bytes in
    if scanned.Wal.stop <> Wal.Clean then
      device.Device.reset_wal
        (String.sub bytes 0 scanned.Wal.valid_bytes);
    { dev = device; a_next = device_next_lsn device; applied = 0 }

  let apply t event =
    match event with
    | E_frames chunk -> (
        let scanned = Wal.scan_from chunk ~pos:0 ~last_lsn:(-1) in
        match scanned.Wal.stop with
        | Wal.Truncated _ | Wal.Corrupt _ ->
            Error "damaged replication chunk"
        | Wal.Clean -> (
            let kept =
              List.filter
                (fun (e : Wal.entry) -> e.Wal.e_lsn >= t.a_next)
                scanned.Wal.records
            in
            match kept with
            | [] -> Ok t.a_next (* entirely stale: idempotent no-op *)
            | first :: _ ->
                if first.Wal.e_lsn <> t.a_next then
                  Error
                    (Printf.sprintf "lsn gap: chunk starts at %d, expected %d"
                       first.Wal.e_lsn t.a_next)
                else begin
                  let off = first.Wal.e_offset in
                  t.dev.Device.append_wal
                    (String.sub chunk off (String.length chunk - off));
                  let last =
                    List.fold_left
                      (fun acc (e : Wal.entry) -> max acc e.Wal.e_lsn)
                      t.a_next kept
                  in
                  t.a_next <- last + 1;
                  t.applied <- t.applied + List.length kept;
                  Ok t.a_next
                end))
    | E_snapshot { snap; wal; next_lsn } ->
        let scanned = Wal.scan wal in
        if scanned.Wal.stop <> Wal.Clean then
          Error "damaged replication snapshot wal"
        else begin
          (match snap with
          | Some s -> t.dev.Device.write_snapshot s
          | None -> t.dev.Device.clear_snapshot ());
          t.dev.Device.reset_wal wal;
          let computed = device_next_lsn t.dev in
          if computed <> next_lsn then
            Error
              (Printf.sprintf
                 "snapshot rebase inconsistent: primary says next %d, bytes \
                  say %d"
                 next_lsn computed)
          else begin
            t.a_next <- next_lsn;
            Ok t.a_next
          end
        end

  let next_lsn t = t.a_next
  let frames_applied t = t.applied
end
