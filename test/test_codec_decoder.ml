(* Incremental Codec.Decoder: the streaming decoder must agree with
   the batch read_frame walk on every split of the same bytes — frames
   pop as soon as their last byte arrives, a torn tail waits as
   D_need_more, and any damaged frame is a sticky D_corrupt. Also
   covers the Prim primitive re-exports the wire protocol builds on. *)

open Probsub_core
open Probsub_store_log

let sub lo hi = Subscription.of_bounds [ (lo, hi) ]

(* Reference: batch-walk a byte string with read_frame, noting whether
   the walk ended at the end of the bytes, on a torn tail, or on a
   damaged frame. *)
type walk_end = Walk_clean | Walk_torn | Walk_damaged

let batch_walk s =
  let rec go pos acc =
    match Codec.read_frame s ~pos with
    | Codec.Frame { lsn; payload; next } -> go next ((lsn, payload) :: acc)
    | Codec.Frame_truncated ->
        (List.rev acc, if pos = String.length s then Walk_clean else Walk_torn)
    | Codec.Frame_bad_length | Codec.Frame_bad_crc | Codec.Frame_undecodable _
      ->
        (List.rev acc, Walk_damaged)
  in
  go 0 []

let batch_frames s = fst (batch_walk s)

(* Drain every complete frame currently buffered. *)
let drain dec =
  let rec go acc =
    match Codec.Decoder.next dec with
    | Codec.Decoder.D_frame { lsn; payload } -> go ((lsn, payload) :: acc)
    | Codec.Decoder.D_need_more | Codec.Decoder.D_corrupt _ -> List.rev acc
  in
  go []

let sample_records =
  [
    Codec.Op
      (Subscription_store.Op_add
         {
           id = 0;
           sub = sub (-5) 1_000;
           placement = Subscription_store.Active;
           expires_at = infinity;
         });
    Codec.Epoch_note { key = 3; epoch = 9 };
    Codec.Bind
      { Codec.b_rid = 1; b_key = 7; b_okind = 2; b_oarg = 4; b_epoch = 2 };
    Codec.Op (Subscription_store.Op_renew { id = 3; expires_at = 42.5 });
  ]

let stream_of records =
  String.concat ""
    (List.mapi (fun i r -> Codec.frame ~lsn:(i + 1) (Codec.encode r)) records)

let test_whole_stream () =
  let s = stream_of sample_records in
  let dec = Codec.Decoder.create () in
  Codec.Decoder.feed_string dec s;
  let got = drain dec in
  Alcotest.(check int) "all frames" (List.length sample_records)
    (List.length got);
  Alcotest.(check bool) "agrees with read_frame" true (got = batch_frames s);
  Alcotest.(check int) "fully drained" 0 (Codec.Decoder.buffered dec);
  List.iteri
    (fun i (lsn, payload) ->
      Alcotest.(check int) "lsn preserved" (i + 1) lsn;
      match Codec.decode payload with
      | Ok r -> Alcotest.(check bool) "payload decodes" true
                  (r = List.nth sample_records i)
      | Error e -> Alcotest.failf "payload %d undecodable: %s" i e)
    got

let test_byte_at_a_time () =
  let s = stream_of sample_records in
  let dec = Codec.Decoder.create () in
  let got = ref [] in
  String.iter
    (fun c ->
      Codec.Decoder.feed_string dec (String.make 1 c);
      got := !got @ drain dec)
    s;
  Alcotest.(check bool) "byte-at-a-time agrees" true (!got = batch_frames s)

let test_torn_tail_waits () =
  let s = stream_of sample_records in
  (* Cut inside the last frame: everything before it pops, then the
     decoder waits — a torn frame is not corruption on a live stream. *)
  let cut = String.length s - 3 in
  let dec = Codec.Decoder.create () in
  Codec.Decoder.feed_string dec (String.sub s 0 cut);
  let early = drain dec in
  Alcotest.(check int) "last frame withheld"
    (List.length sample_records - 1)
    (List.length early);
  (match Codec.Decoder.next dec with
  | Codec.Decoder.D_need_more -> ()
  | _ -> Alcotest.fail "torn tail must be D_need_more");
  Codec.Decoder.feed_string dec (String.sub s cut (String.length s - cut));
  Alcotest.(check int) "tail completes" 1 (List.length (drain dec))

let test_corrupt_is_sticky () =
  let s = stream_of sample_records in
  let b = Bytes.of_string s in
  (* Flip a bit inside the second frame's body (past its 8-byte
     header): frame 1 still decodes, frame 2 fails its checksum. *)
  let f1 = String.length (Codec.frame ~lsn:1 (Codec.encode (List.hd sample_records))) in
  Bytes.set b (f1 + 10) (Char.chr (Char.code (Bytes.get b (f1 + 10)) lxor 0x40));
  let dec = Codec.Decoder.create () in
  Codec.Decoder.feed_string dec (Bytes.to_string b);
  Alcotest.(check int) "clean prefix decoded" 1 (List.length (drain dec));
  (match Codec.Decoder.next dec with
  | Codec.Decoder.D_corrupt _ -> ()
  | _ -> Alcotest.fail "damaged frame must be D_corrupt");
  Codec.Decoder.feed_string dec (stream_of sample_records);
  (match Codec.Decoder.next dec with
  | Codec.Decoder.D_corrupt _ -> ()
  | _ -> Alcotest.fail "corruption must be sticky")

let test_bad_length_is_corrupt () =
  let dec = Codec.Decoder.create () in
  let b = Buffer.create 8 in
  let huge = Codec.max_frame + 1 in
  for i = 0 to 3 do
    Buffer.add_char b (Char.chr ((huge lsr (8 * i)) land 0xFF))
  done;
  Buffer.add_string b "\x00\x00\x00\x00";
  Codec.Decoder.feed_string dec (Buffer.contents b);
  match Codec.Decoder.next dec with
  | Codec.Decoder.D_corrupt _ -> ()
  | _ -> Alcotest.fail "absurd length must be D_corrupt"

(* qcheck: random record streams split at random points — the decoder
   must yield exactly the batch walk no matter how the bytes arrive. *)

let gen_record =
  QCheck.Gen.(
    oneof
      [
        map
          (fun (lo, w) ->
            Codec.Op
              (Subscription_store.Op_add
                 {
                   id = abs lo mod 1000;
                   sub = sub lo (lo + abs w);
                   placement = Subscription_store.Active;
                   expires_at = infinity;
                 }))
          (pair (int_range (-500) 500) (int_range 0 100));
        map
          (fun (k, e) -> Codec.Epoch_note { key = k; epoch = e })
          (pair (int_range 0 200) (int_range 0 50));
        map
          (fun id ->
            Codec.Op (Subscription_store.Op_remove { id; reclassified = [] }))
          (int_range 0 100);
      ])

let gen_stream_and_cuts =
  QCheck.Gen.(
    let* records = list_size (int_range 1 12) gen_record in
    let s = stream_of records in
    let n = String.length s in
    let* cuts = list_size (int_range 0 8) (int_range 0 n) in
    return (s, List.sort_uniq compare cuts))

let arb_stream_and_cuts =
  QCheck.make
    ~print:(fun (s, cuts) ->
      Printf.sprintf "stream of %d bytes, cuts at [%s]" (String.length s)
        (String.concat ";" (List.map string_of_int cuts)))
    gen_stream_and_cuts

let prop_split_invariant =
  QCheck.Test.make ~name:"decoder invariant under split points" ~count:300
    arb_stream_and_cuts (fun (s, cuts) ->
      let dec = Codec.Decoder.create () in
      let got = ref [] in
      let bounds = (0 :: cuts) @ [ String.length s ] in
      let rec feed_pieces = function
        | a :: (b :: _ as rest) ->
            if b > a then
              Codec.Decoder.feed_string dec (String.sub s a (b - a));
            got := !got @ drain dec;
            feed_pieces rest
        | [ _ ] | [] -> ()
      in
      feed_pieces bounds;
      !got = batch_frames s && Codec.Decoder.buffered dec = 0)

let prop_truncation_never_corrupt =
  QCheck.Test.make ~name:"any clean prefix is need-more, never corrupt"
    ~count:300
    QCheck.(
      make
        Gen.(
          let* records = list_size (int_range 1 6) gen_record in
          let s = stream_of records in
          let* cut = int_range 0 (String.length s) in
          return (s, cut)))
    (fun (s, cut) ->
      let dec = Codec.Decoder.create () in
      Codec.Decoder.feed_string dec (String.sub s 0 cut);
      let _ = drain dec in
      match Codec.Decoder.next dec with
      | Codec.Decoder.D_need_more -> true
      | Codec.Decoder.D_frame _ | Codec.Decoder.D_corrupt _ -> false)

(* Prim primitives: totality and roundtrips. *)

let test_prim_roundtrips () =
  let buf = Buffer.create 64 in
  List.iter
    (fun v ->
      Buffer.clear buf;
      Codec.Prim.write_uv buf v;
      match Codec.Prim.read_uv (Buffer.contents buf) ~pos:0 with
      | Ok (v', p) ->
          Alcotest.(check int) "uv value" v v';
          Alcotest.(check int) "uv consumed all" (Buffer.length buf) p
      | Error e -> Alcotest.failf "uv %d: %s" v e)
    [ 0; 1; 127; 128; 300; 1 lsl 30; max_int ];
  List.iter
    (fun v ->
      Buffer.clear buf;
      Codec.Prim.write_sv buf v;
      match Codec.Prim.read_sv (Buffer.contents buf) ~pos:0 with
      | Ok (v', _) -> Alcotest.(check int) "sv value" v v'
      | Error e -> Alcotest.failf "sv %d: %s" v e)
    [ 0; -1; 1; -64; 64; min_int / 2; max_int / 2 ];
  List.iter
    (fun f ->
      Buffer.clear buf;
      Codec.Prim.write_f64 buf f;
      match Codec.Prim.read_f64 (Buffer.contents buf) ~pos:0 with
      | Ok (f', _) ->
          Alcotest.(check bool) "f64 bits" true
            (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float f'))
      | Error e -> Alcotest.failf "f64 %g: %s" f e)
    [ 0.0; -1.5; infinity; Float.pi ];
  let s = Subscription.of_bounds [ (-3, 9); (0, 0) ] in
  Buffer.clear buf;
  Codec.Prim.write_subscription buf s;
  (match Codec.Prim.read_subscription (Buffer.contents buf) ~pos:0 with
  | Ok (s', _) ->
      Alcotest.(check bool) "subscription roundtrip" true
        (Subscription.equal s s')
  | Error e -> Alcotest.failf "subscription: %s" e);
  (match Codec.Prim.read_uv "" ~pos:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty uv must error");
  match Codec.Prim.read_subscription "\x02\x04" ~pos:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated subscription must error"

(* qcheck: the socket path. A simulated socket hands the stream to
   [read_into] in random read sizes, from 1 byte to past the 4 KiB
   initial window, and frames run up to three times that window. The
   frames must agree with the batch walk, a drained decoder holds no
   bytes, and when a flipped byte damages a frame the decoder stops
   exactly where the batch walk does — with a sticky [D_corrupt] if the
   walk found damage rather than a torn tail. *)

let gen_read_stream =
  QCheck.Gen.(
    let* payloads =
      list_size (int_range 1 10)
        (string_size ~gen:char
           (frequency [ (3, int_range 0 64); (1, int_range 0 12_288) ]))
    in
    let s =
      String.concat ""
        (List.mapi (fun i p -> Codec.frame ~lsn:(i + 1) p) payloads)
    in
    let* reads = list_size (int_range 1 32) (int_range 1 5_000) in
    let* flip = opt (int_range 0 (String.length s - 1)) in
    return (s, reads, flip))

let arb_read_stream =
  QCheck.make
    ~print:(fun (s, reads, flip) ->
      Printf.sprintf "stream of %d bytes, reads [%s], flip %s"
        (String.length s)
        (String.concat ";" (List.map string_of_int reads))
        (match flip with Some i -> string_of_int i | None -> "none"))
    gen_read_stream

let prop_read_into =
  QCheck.Test.make ~name:"read_into agrees with read_frame" ~count:300
    arb_read_stream (fun (s, reads, flip) ->
      let s =
        match flip with
        | None -> s
        | Some i ->
            let b = Bytes.of_string s in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
            Bytes.to_string b
      in
      let dec = Codec.Decoder.create () in
      let cursor = ref 0 and sizes = ref reads in
      let read buf off len =
        let want =
          match !sizes with
          | w :: rest ->
              sizes := rest @ [ w ];
              w
          | [] -> len
        in
        let n = min (min want len) (String.length s - !cursor) in
        Bytes.blit_string s !cursor buf off n;
        cursor := !cursor + n;
        n
      in
      let got = ref [] in
      while !cursor < String.length s do
        ignore (Codec.Decoder.read_into dec ~read);
        got := !got @ drain dec
      done;
      let frames, ending = batch_walk s in
      let sticky () =
        (match Codec.Decoder.next dec with
        | Codec.Decoder.D_corrupt _ -> true
        | Codec.Decoder.D_frame _ | Codec.Decoder.D_need_more -> false)
        &&
        (Codec.Decoder.feed_string dec (stream_of sample_records);
         match Codec.Decoder.next dec with
         | Codec.Decoder.D_corrupt _ -> true
         | Codec.Decoder.D_frame _ | Codec.Decoder.D_need_more -> false)
      in
      !got = frames
      &&
      match ending with
      | Walk_clean -> Codec.Decoder.buffered dec = 0
      | Walk_torn -> Codec.Decoder.next dec = Codec.Decoder.D_need_more
      | Walk_damaged -> sticky ())

(* A connection on a socketpair takes a 1 MiB burst of small frames
   and of frames far larger than its 4 KiB window, decodes every
   message, and once drained holds well under 16 KiB. *)
let test_conn_burst_shrinks () =
  let module Conn = Probsub_server.Conn in
  let module Wire = Probsub_server.Wire in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rx = Conn.create a and tx = Conn.create ~max_queue_bytes:(1 lsl 30) b in
  let big = String.make 20_000 'x' in
  let sent = ref 0 and bytes = ref 0 and seq = ref 0 in
  while !bytes < 1 lsl 20 do
    let msg =
      if !seq mod 16 = 0 then Wire.Repl_stream (Wire.R_frames { bytes = big })
      else Wire.Frame_ack { seq = !seq }
    in
    bytes := !bytes + String.length (Wire.frame ~seq:!seq msg);
    ignore (Conn.send_msg tx ~seq:!seq msg);
    incr seq;
    incr sent
  done;
  let received = ref 0 and rounds = ref 0 and in_order = ref true in
  while !received < !sent && !rounds < 1_000_000 do
    incr rounds;
    (match Conn.flush tx with
    | `Ok -> ()
    | `Closed -> Alcotest.fail "sender closed");
    (match Conn.recv rx with
    | `Data _ | `Blocked -> ()
    | `Eof -> Alcotest.fail "receiver saw EOF");
    let rec drain () =
      match Conn.next rx with
      | `Msg (s, _) ->
          if s <> !received then in_order := false;
          incr received;
          drain ()
      | `Pending -> ()
      | `Corrupt reason -> Alcotest.failf "corrupt: %s" reason
    in
    drain ()
  done;
  Alcotest.(check int) "every message" !sent !received;
  Alcotest.(check bool) "in order" true !in_order;
  let held = Obj.reachable_words (Obj.repr rx) * (Sys.word_size / 8) in
  Conn.close rx;
  Conn.close tx;
  Alcotest.(check bool)
    (Printf.sprintf "drained connection holds %d bytes (< 16 KiB)" held)
    true (held < 16 * 1024)

let suite =
  [
    Alcotest.test_case "whole stream" `Quick test_whole_stream;
    Alcotest.test_case "byte at a time" `Quick test_byte_at_a_time;
    Alcotest.test_case "torn tail waits" `Quick test_torn_tail_waits;
    Alcotest.test_case "corruption is sticky" `Quick test_corrupt_is_sticky;
    Alcotest.test_case "absurd length is corrupt" `Quick
      test_bad_length_is_corrupt;
    Alcotest.test_case "prim roundtrips" `Quick test_prim_roundtrips;
    QCheck_alcotest.to_alcotest prop_split_invariant;
    QCheck_alcotest.to_alcotest prop_truncation_never_corrupt;
    QCheck_alcotest.to_alcotest prop_read_into;
    Alcotest.test_case "conn drains a burst back to 4 KiB" `Quick
      test_conn_burst_shrinks;
  ]
