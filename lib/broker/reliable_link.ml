type config = { rto : float; max_retries : int }

let default_config = { rto = 4.0; max_retries = 6 }

let check_config c =
  if not (c.rto > 0.0) then
    invalid_arg "Reliable_link: rto must be positive";
  if c.max_retries < 0 then
    invalid_arg "Reliable_link: max_retries must be non-negative"

type ('item, 'timer) entry = {
  item : 'item;
  mutable retries : int;
  mutable rto : float;
  mutable timer : 'timer;
}

type ('item, 'timer) sender = {
  config : config;
  pending : (int, ('item, 'timer) entry) Hashtbl.t;
}

let sender config =
  check_config config;
  { config; pending = Hashtbl.create 64 }

let config s = s.config
let in_flight s = Hashtbl.length s.pending
let tracked s ~seq = Hashtbl.mem s.pending seq

let track s ~seq ~item ~timer =
  if Hashtbl.mem s.pending seq then
    invalid_arg "Reliable_link.track: sequence number already in flight";
  Hashtbl.replace s.pending seq
    { item; retries = 0; rto = s.config.rto; timer }

let ack s ~seq =
  match Hashtbl.find_opt s.pending seq with
  | None -> None (* late duplicate ack *)
  | Some e ->
      Hashtbl.remove s.pending seq;
      Some e.timer

type 'item timeout_decision =
  | Not_tracked
  | Give_up
  | Retransmit of { item : 'item; rto : float }

let on_timeout s ~seq =
  match Hashtbl.find_opt s.pending seq with
  | None -> Not_tracked
  | Some e ->
      if e.retries >= s.config.max_retries then begin
        (* Retry budget exhausted: give up; lease refresh (or expiry)
           repairs whatever this message would have installed (or
           removed). *)
        Hashtbl.remove s.pending seq;
        Give_up
      end
      else begin
        e.retries <- e.retries + 1;
        e.rto <- e.rto *. 2.0;
        Retransmit { item = e.item; rto = e.rto }
      end

let set_timer s ~seq timer =
  match Hashtbl.find_opt s.pending seq with
  | None -> invalid_arg "Reliable_link.set_timer: unknown sequence number"
  | Some e -> e.timer <- timer

let drop_where s pred =
  let victims =
    (Hashtbl.fold
       (fun seq e acc -> if pred e.item then (seq, e.timer) :: acc else acc)
       s.pending []
    [@problint.allow
      determinism "order-insensitive: the result is sorted on the next line"])
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter (fun (seq, _) -> Hashtbl.remove s.pending seq) victims;
  victims

let unacked s =
  (Hashtbl.fold (fun seq e acc -> (seq, e.item) :: acc) s.pending []
  [@problint.allow
    determinism "order-insensitive: the result is sorted on the next line"])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

type receiver = { window : Dedup_window.t }

let receiver ?(capacity = 1024) () =
  { window = Dedup_window.create ~capacity }

let admit r ~seq =
  if Dedup_window.admit r.window seq then `Fresh else `Duplicate

let reset_receiver r = Dedup_window.clear r.window
