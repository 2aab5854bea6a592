open Probsub_core

type meta = {
  m_arity : int;
  m_seed : int;
  m_policy : Subscription_store.policy;
}

type binding = {
  b_rid : Subscription_store.id;
  b_key : int;
  b_okind : int;
  b_oarg : int;
  b_epoch : int;
}

type record =
  | Genesis of meta
  | Op of Subscription_store.op
  | Bind of binding
  | Epoch_note of { key : int; epoch : int }
  | Snapshot of {
      meta : meta;
      last_lsn : int;
      image : Subscription_store.image;
      bindings : binding list;
    }
  | Fence of { epoch : int }

let max_frame = 1 lsl 26 (* 64 MiB: far above any real record *)

(* ---------------- writer ---------------- *)

(* Unsigned LEB128. Negative ints go through zigzag first. *)
let w_uv b v =
  if v < 0 then invalid_arg "Codec: negative value in unsigned field";
  let v = ref v in
  let continue = ref true in
  while !continue do
    let byte = !v land 0x7F in
    v := !v lsr 7;
    if !v = 0 then begin
      Buffer.add_char b (Char.chr byte);
      continue := false
    end
    else Buffer.add_char b (Char.chr (byte lor 0x80))
  done

let zigzag v = (v lsl 1) lxor (v asr 62)
let unzigzag v = (v lsr 1) lxor (-(v land 1))
let w_sv b v = w_uv b (zigzag v)

let w_f64 b f =
  let bits = Int64.bits_of_float f in
  for i = 0 to 7 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xFF))
  done

let w_sub b sub =
  let ranges = Subscription.ranges sub in
  w_uv b (Array.length ranges);
  Array.iter
    (fun r ->
      w_sv b (Interval.lo r);
      w_sv b (Interval.hi r))
    ranges

let w_placement b (p : Subscription_store.placement) =
  match p with
  | Subscription_store.Active -> w_uv b 0
  | Subscription_store.Covered by ->
      w_uv b 1;
      w_uv b (List.length by);
      List.iter (w_uv b) by

let w_reclassified b rs =
  w_uv b (List.length rs);
  List.iter
    (fun (id, pl) ->
      w_uv b id;
      w_placement b pl)
    rs

let w_policy b (p : Subscription_store.policy) =
  match p with
  | Subscription_store.No_coverage -> w_uv b 0
  | Subscription_store.Pairwise_policy -> w_uv b 1
  | Subscription_store.Group_policy c ->
      w_uv b 2;
      w_f64 b c.Engine.delta;
      let flag bit cond = if cond then 1 lsl bit else 0 in
      w_uv b
        (flag 0 c.Engine.use_fast_decisions
        lor flag 1 c.Engine.use_mcs
        lor flag 2 c.Engine.use_probes
        lor flag 3 c.Engine.use_pruning);
      w_uv b c.Engine.max_iterations

let w_meta b m =
  w_uv b m.m_arity;
  w_sv b m.m_seed;
  w_policy b m.m_policy

let w_op b (op : Subscription_store.op) =
  match op with
  | Subscription_store.Op_add { id; sub; placement; expires_at } ->
      w_uv b 0;
      w_uv b id;
      w_f64 b expires_at;
      w_placement b placement;
      w_sub b sub
  | Subscription_store.Op_remove { id; reclassified } ->
      w_uv b 1;
      w_uv b id;
      w_reclassified b reclassified
  | Subscription_store.Op_renew { id; expires_at } ->
      w_uv b 2;
      w_uv b id;
      w_f64 b expires_at
  | Subscription_store.Op_expire { now; expired; reclassified } ->
      w_uv b 3;
      w_f64 b now;
      w_uv b (List.length expired);
      List.iter (w_uv b) expired;
      w_reclassified b reclassified

let w_binding b bd =
  w_uv b bd.b_rid;
  w_uv b bd.b_key;
  w_uv b bd.b_okind;
  w_sv b bd.b_oarg;
  w_uv b bd.b_epoch

let w_image b (img : Subscription_store.image) =
  w_uv b img.Subscription_store.i_next_id;
  w_uv b img.Subscription_store.i_splits;
  w_uv b (List.length img.Subscription_store.i_entries);
  List.iter
    (fun (id, sub, placement, expires_at) ->
      w_uv b id;
      w_f64 b expires_at;
      w_placement b placement;
      w_sub b sub)
    img.Subscription_store.i_entries

let encode record =
  let b = Buffer.create 64 in
  (match record with
  | Genesis m ->
      w_uv b 1;
      w_meta b m
  | Op op ->
      w_uv b 2;
      w_op b op
  | Bind bd ->
      w_uv b 3;
      w_binding b bd
  | Epoch_note { key; epoch } ->
      w_uv b 4;
      w_uv b key;
      w_uv b epoch
  | Snapshot { meta; last_lsn; image; bindings } ->
      w_uv b 5;
      w_meta b meta;
      w_uv b last_lsn;
      w_image b image;
      w_uv b (List.length bindings);
      List.iter (w_binding b) bindings
  | Fence { epoch } ->
      w_uv b 6;
      w_uv b epoch);
  Buffer.contents b

(* ---------------- reader ---------------- *)

(* Internal-only exception: every public entry point catches it and
   returns a result, so decoding is total at the API boundary. *)
exception Bad of string

let r_uv s pos =
  let n = String.length s in
  let v = ref 0 and shift = ref 0 and p = ref pos in
  let continue = ref true in
  while !continue do
    if !p >= n then raise (Bad "varint: truncated");
    if !shift > 62 then raise (Bad "varint: overflow");
    let byte = Char.code s.[!p] in
    incr p;
    v := !v lor ((byte land 0x7F) lsl !shift);
    shift := !shift + 7;
    if byte land 0x80 = 0 then continue := false
  done;
  (!v, !p)

(* [r_uv] over [b.[pos .. stop - 1]], in place: the socket decoder
   reads a frame's lsn without copying the frame out first. *)
let r_uv_bytes b pos stop =
  let v = ref 0 and shift = ref 0 and p = ref pos in
  let continue = ref true in
  while !continue do
    if !p >= stop then raise (Bad "varint: truncated");
    if !shift > 62 then raise (Bad "varint: overflow");
    let byte = Char.code (Bytes.get b !p) in
    incr p;
    v := !v lor ((byte land 0x7F) lsl !shift);
    shift := !shift + 7;
    if byte land 0x80 = 0 then continue := false
  done;
  (!v, !p)

let r_sv s pos =
  let v, p = r_uv s pos in
  (unzigzag v, p)

let r_f64 s pos =
  if pos + 8 > String.length s then raise (Bad "float: truncated");
  let bits = ref 0L in
  for i = 7 downto 0 do
    bits :=
      Int64.logor
        (Int64.shift_left !bits 8)
        (Int64.of_int (Char.code s.[pos + i]))
  done;
  (Int64.float_of_bits !bits, pos + 8)

(* Bounded list length: a CRC-valid record never carries an absurd
   count, but decoding stays total even against crafted input. *)
let r_len what s pos =
  let v, p = r_uv s pos in
  if v > max_frame then raise (Bad (what ^ ": absurd length"));
  (v, p)

let r_sub s pos =
  let m, p = r_len "subscription arity" s pos in
  if m < 1 then raise (Bad "subscription: arity < 1");
  let ranges = Array.make m Interval.full in
  let p = ref p in
  for i = 0 to m - 1 do
    let lo, p1 = r_sv s !p in
    let hi, p2 = r_sv s p1 in
    (match Interval.make_opt ~lo ~hi with
    | Some r -> ranges.(i) <- r
    | None -> raise (Bad "subscription: empty interval"));
    p := p2
  done;
  (Subscription.make ranges, !p)

let r_placement s pos : Subscription_store.placement * int =
  let tag, p = r_uv s pos in
  match tag with
  | 0 -> (Subscription_store.Active, p)
  | 1 ->
      let n, p = r_len "coverer list" s p in
      let ids = ref [] and p = ref p in
      for _ = 1 to n do
        let id, p' = r_uv s !p in
        ids := id :: !ids;
        p := p'
      done;
      (Subscription_store.Covered (List.rev !ids), !p)
  | _ -> raise (Bad "placement: unknown tag")

let r_reclassified s pos =
  let n, p = r_len "reclassified list" s pos in
  let items = ref [] and p = ref p in
  for _ = 1 to n do
    let id, p1 = r_uv s !p in
    let pl, p2 = r_placement s p1 in
    items := (id, pl) :: !items;
    p := p2
  done;
  (List.rev !items, !p)

let r_policy s pos : Subscription_store.policy * int =
  let tag, p = r_uv s pos in
  match tag with
  | 0 -> (Subscription_store.No_coverage, p)
  | 1 -> (Subscription_store.Pairwise_policy, p)
  | 2 ->
      let delta, p = r_f64 s p in
      let flags, p = r_uv s p in
      let max_iterations, p = r_uv s p in
      if not (delta > 0.0 && delta < 1.0 && max_iterations >= 1) then
        raise (Bad "policy: invalid engine config");
      let bit i = flags land (1 lsl i) <> 0 in
      ( Subscription_store.Group_policy
          (Engine.config ~delta ~use_fast_decisions:(bit 0) ~use_mcs:(bit 1)
             ~use_probes:(bit 2) ~use_pruning:(bit 3) ~max_iterations ()),
        p )
  | _ -> raise (Bad "policy: unknown tag")

let r_meta s pos =
  let m_arity, p = r_uv s pos in
  if m_arity < 1 || m_arity > max_frame then raise (Bad "meta: bad arity");
  let m_seed, p = r_sv s p in
  let m_policy, p = r_policy s p in
  ({ m_arity; m_seed; m_policy }, p)

let r_op s pos : Subscription_store.op * int =
  let tag, p = r_uv s pos in
  match tag with
  | 0 ->
      let id, p = r_uv s p in
      let expires_at, p = r_f64 s p in
      let placement, p = r_placement s p in
      let sub, p = r_sub s p in
      (Subscription_store.Op_add { id; sub; placement; expires_at }, p)
  | 1 ->
      let id, p = r_uv s p in
      let reclassified, p = r_reclassified s p in
      (Subscription_store.Op_remove { id; reclassified }, p)
  | 2 ->
      let id, p = r_uv s p in
      let expires_at, p = r_f64 s p in
      (Subscription_store.Op_renew { id; expires_at }, p)
  | 3 ->
      let now, p = r_f64 s p in
      let n, p = r_len "expired list" s p in
      let expired = ref [] and pr = ref p in
      for _ = 1 to n do
        let id, p' = r_uv s !pr in
        expired := id :: !expired;
        pr := p'
      done;
      let reclassified, p = r_reclassified s !pr in
      ( Subscription_store.Op_expire
          { now; expired = List.rev !expired; reclassified },
        p )
  | _ -> raise (Bad "op: unknown tag")

let r_binding s pos =
  let b_rid, p = r_uv s pos in
  let b_key, p = r_uv s p in
  let b_okind, p = r_uv s p in
  let b_oarg, p = r_sv s p in
  let b_epoch, p = r_uv s p in
  ({ b_rid; b_key; b_okind; b_oarg; b_epoch }, p)

let r_image s pos : Subscription_store.image * int =
  let i_next_id, p = r_uv s pos in
  let i_splits, p = r_uv s p in
  let n, p = r_len "image entries" s p in
  let entries = ref [] and p = ref p in
  for _ = 1 to n do
    let id, p1 = r_uv s !p in
    let expires_at, p2 = r_f64 s p1 in
    let placement, p3 = r_placement s p2 in
    let sub, p4 = r_sub s p3 in
    entries := (id, sub, placement, expires_at) :: !entries;
    p := p4
  done;
  ( {
      Subscription_store.i_next_id;
      i_splits;
      i_entries = List.rev !entries;
    },
    !p )

let decode_exn s =
  let tag, p = r_uv s 0 in
  let record, p =
    match tag with
    | 1 ->
        let m, p = r_meta s p in
        (Genesis m, p)
    | 2 ->
        let op, p = r_op s p in
        (Op op, p)
    | 3 ->
        let bd, p = r_binding s p in
        (Bind bd, p)
    | 4 ->
        let key, p = r_uv s p in
        let epoch, p = r_uv s p in
        (Epoch_note { key; epoch }, p)
    | 5 ->
        let meta, p = r_meta s p in
        let last_lsn, p = r_uv s p in
        let image, p = r_image s p in
        let n, p = r_len "bindings" s p in
        let bindings = ref [] and pr = ref p in
        for _ = 1 to n do
          let bd, p' = r_binding s !pr in
          bindings := bd :: !bindings;
          pr := p'
        done;
        (Snapshot { meta; last_lsn; image; bindings = List.rev !bindings }, !pr)
    | 6 ->
        let epoch, p = r_uv s p in
        (Fence { epoch }, p)
    | _ -> raise (Bad "record: unknown tag")
  in
  if p <> String.length s then raise (Bad "record: trailing bytes");
  record

let decode s =
  match decode_exn s with
  | record -> Ok record
  | exception Bad reason -> Error reason
  | exception Invalid_argument reason ->
      (* Subscription.make / Engine.config validation on decoded
         values: still a corrupt record, not a crash. *)
      Error reason

(* ---------------- framing ---------------- *)

let put_u32 b v =
  for i = 0 to 3 do
    Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let get_u32 s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

let frame ~lsn payload =
  if lsn < 0 then invalid_arg "Codec.frame: negative lsn";
  let pb = Buffer.create (String.length payload + 10) in
  w_uv pb lsn;
  Buffer.add_string pb payload;
  let full = Buffer.contents pb in
  if String.length full > max_frame then
    invalid_arg "Codec.frame: payload exceeds max_frame";
  let b = Buffer.create (String.length full + 8) in
  put_u32 b (String.length full);
  put_u32 b (Crc32.string_crc full ~pos:0 ~len:(String.length full));
  Buffer.add_string b full;
  Buffer.contents b

type frame_result =
  | Frame of { lsn : int; payload : string; next : int }
  | Frame_truncated
  | Frame_bad_length
  | Frame_bad_crc
  | Frame_undecodable of string

(* ---------------- primitive re-exports ---------------- *)

(* The wire protocol (lib/server) speaks the same primitive encodings
   as the durable records, so the codec exposes them behind a total
   API instead of having the transport grow a parallel implementation
   that could drift. *)
module Prim = struct
  let write_uv = w_uv
  let write_sv = w_sv
  let write_f64 = w_f64
  let write_subscription = w_sub

  let total f s ~pos =
    match f s pos with
    | v -> Ok v
    | exception Bad reason -> Error reason
    | exception Invalid_argument reason -> Error reason

  let read_uv s ~pos = total r_uv s ~pos
  let read_sv s ~pos = total r_sv s ~pos
  let read_f64 s ~pos = total r_f64 s ~pos
  let read_subscription s ~pos = total r_sub s ~pos
end

(* ---------------- incremental decoder ---------------- *)

(* Streaming counterpart of [read_frame]: a socket read loop reads
   straight into the decoder's free tail and pops whole frames, with
   the partial tail retained across calls — no whole-message buffering
   on the caller's side, and torn frames simply wait for the missing
   bytes. The flat [bytes] window is compacted in place: [pos] walks
   forward as frames are consumed and the live suffix is blitted back
   to the front when the frame at its head would not fit after it.
   The window grows only when one frame needs more than it holds, and
   drops back to [initial] bytes once drained. *)
module Decoder = struct
  type item =
    | D_frame of { lsn : int; payload : string }
    | D_need_more
    | D_corrupt of string

  type t = {
    mutable buf : bytes;
    mutable pos : int;  (* start of unconsumed bytes *)
    mutable len : int;  (* unconsumed byte count *)
    mutable dead : string option;  (* sticky corruption verdict *)
  }

  let initial = 4096
  let create () = { buf = Bytes.create initial; pos = 0; len = 0; dead = None }
  let buffered t = t.len

  let compact t =
    if t.pos > 0 then begin
      Bytes.blit t.buf t.pos t.buf 0 t.len;
      t.pos <- 0
    end

  (* Make the window hold [need] live bytes from [pos] on: compact
     first, grow (doubling) only if [need] exceeds the whole window. *)
  let reserve t need =
    if t.pos + need > Bytes.length t.buf then begin
      compact t;
      if need > Bytes.length t.buf then begin
        let cap = ref (Bytes.length t.buf * 2) in
        while !cap < need do
          cap := !cap * 2
        done;
        let fresh = Bytes.create !cap in
        Bytes.blit t.buf 0 fresh 0 t.len;
        t.buf <- fresh
      end
    end

  let feed_string t s =
    let n = String.length s in
    reserve t (t.len + n);
    Bytes.blit_string s 0 t.buf (t.pos + t.len) n;
    t.len <- t.len + n

  let get_u32b b pos =
    Char.code (Bytes.get b pos)
    lor (Char.code (Bytes.get b (pos + 1)) lsl 8)
    lor (Char.code (Bytes.get b (pos + 2)) lsl 16)
    lor (Char.code (Bytes.get b (pos + 3)) lsl 24)

  (* Room for at least one more byte, and for the whole head frame
     once its header is in, so a large frame does not arrive through a
     run of short reads — but at most double the window per read: a
     header alone never makes the decoder allocate far more than the
     bytes that actually arrived. *)
  let head_need t =
    let need = t.len + 1 in
    if t.len < 8 then need
    else
      let flen = get_u32b t.buf t.pos in
      max need (min (8 + flen) (2 * Bytes.length t.buf))

  let read_into t ~read =
    reserve t (head_need t);
    let off = t.pos + t.len in
    let room = Bytes.length t.buf - off in
    let n = read t.buf off room in
    if n < 0 || n > room then invalid_arg "Codec.Decoder.read_into: bad count";
    t.len <- t.len + n;
    n

  let next t =
    match t.dead with
    | Some reason -> D_corrupt reason
    | None ->
        if t.len < 8 then D_need_more
        else begin
          let flen = get_u32b t.buf t.pos in
          if flen > max_frame then begin
            t.dead <- Some "frame length exceeds max_frame";
            D_corrupt "frame length exceeds max_frame"
          end
          else if t.len < 8 + flen then D_need_more
          else begin
            let crc = get_u32b t.buf (t.pos + 4) in
            let start = t.pos + 8 in
            let stop = start + flen in
            if Crc32.bytes_crc t.buf ~pos:start ~len:flen <> crc then begin
              t.dead <- Some "frame checksum mismatch";
              D_corrupt "frame checksum mismatch"
            end
            else
              match r_uv_bytes t.buf start stop with
              | lsn, p ->
                  (* The one copy: the payload, before the window is
                     reused. *)
                  let payload = Bytes.sub_string t.buf p (stop - p) in
                  t.pos <- t.pos + 8 + flen;
                  t.len <- t.len - (8 + flen);
                  if t.len = 0 then begin
                    t.pos <- 0;
                    if Bytes.length t.buf > initial then
                      t.buf <- Bytes.create initial
                  end;
                  D_frame { lsn; payload }
              | exception Bad reason ->
                  t.dead <- Some reason;
                  D_corrupt reason
          end
        end
end

let read_frame s ~pos =
  let n = String.length s in
  if pos < 0 || pos > n then Frame_truncated
  else if n - pos < 8 then Frame_truncated
  else begin
    let len = get_u32 s pos in
    if len > max_frame then Frame_bad_length
    else if pos + 8 + len > n then Frame_truncated
    else begin
      let crc = get_u32 s (pos + 4) in
      if Crc32.string_crc s ~pos:(pos + 8) ~len <> crc then Frame_bad_crc
      else begin
        let full = String.sub s (pos + 8) len in
        match r_uv full 0 with
        | lsn, p ->
            Frame
              {
                lsn;
                payload = String.sub full p (String.length full - p);
                next = pos + 8 + len;
              }
        | exception Bad reason -> Frame_undecodable reason
      end
    end
  end
