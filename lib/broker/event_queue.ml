type 'a cell = { time : float; seq : int; payload : 'a }

type handle = int

type 'a t = {
  mutable heap : 'a cell array;
  mutable len : int;
  mutable next_seq : int;
  (* Cancellation is lazy: a cancelled cell stays in the heap (keyed by
     its unique [seq]) until it reaches the top, where it is discarded,
     or until cancelled cells outnumber live ones and [compact] sweeps
     them all out. [cancelable] holds the seqs of live cancelable cells,
     [cancelled] the seqs waiting to be skimmed off. *)
  cancelable : (int, unit) Hashtbl.t;
  cancelled : (int, unit) Hashtbl.t;
}

let create () =
  {
    heap = [||];
    len = 0;
    next_seq = 0;
    cancelable = Hashtbl.create 16;
    cancelled = Hashtbl.create 16;
  }

let cell_before a b =
  a.time < b.time || (Float.equal a.time b.time && a.seq < b.seq)

let grow q =
  let cap = Array.length q.heap in
  if q.len >= cap then begin
    let dummy = q.heap.(0) in
    let fresh = Array.make (max 16 (2 * cap)) dummy in
    Array.blit q.heap 0 fresh 0 q.len;
    q.heap <- fresh
  end

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if cell_before q.heap.(i) q.heap.(parent) then begin
      let tmp = q.heap.(i) in
      q.heap.(i) <- q.heap.(parent);
      q.heap.(parent) <- tmp;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < q.len && cell_before q.heap.(l) q.heap.(!smallest) then smallest := l;
  if r < q.len && cell_before q.heap.(r) q.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = q.heap.(i) in
    q.heap.(i) <- q.heap.(!smallest);
    q.heap.(!smallest) <- tmp;
    sift_down q !smallest
  end

let push_cell q ~time payload =
  if Float.is_nan time || time < 0.0 then
    invalid_arg "Event_queue.push: bad time";
  let cell = { time; seq = q.next_seq; payload } in
  q.next_seq <- q.next_seq + 1;
  if q.len = 0 && Array.length q.heap = 0 then q.heap <- Array.make 16 cell;
  grow q;
  q.heap.(q.len) <- cell;
  q.len <- q.len + 1;
  sift_up q (q.len - 1);
  cell.seq

let push q ~time payload = ignore (push_cell q ~time payload)

let push_cancelable q ~time payload =
  let seq = push_cell q ~time payload in
  Hashtbl.replace q.cancelable seq ();
  seq

(* Drop every cancelled cell and re-heapify the survivors. Pop order
   cannot change: (time, seq) is a strict total order, so any valid
   heap over the same live cells pops them identically. The freed
   slots are overwritten so the dropped payloads become unreachable.
   It runs only once cancelled cells outnumber live ones, so each
   cancelled cell is swept at most once and the cost amortizes to O(1)
   per cancel. *)
let compact q =
  let old_len = q.len in
  let n = ref 0 in
  for i = 0 to old_len - 1 do
    let c = q.heap.(i) in
    if not (Hashtbl.mem q.cancelled c.seq) then begin
      q.heap.(!n) <- c;
      incr n
    end
  done;
  q.len <- !n;
  Hashtbl.reset q.cancelled;
  if q.len = 0 then q.heap <- [||]
  else begin
    Array.fill q.heap q.len (old_len - q.len) q.heap.(0);
    for i = (q.len / 2) - 1 downto 0 do
      sift_down q i
    done
  end

let cancel q h =
  if Hashtbl.mem q.cancelable h then begin
    Hashtbl.remove q.cancelable h;
    Hashtbl.replace q.cancelled h ();
    if Hashtbl.length q.cancelled > q.len - Hashtbl.length q.cancelled then
      compact q;
    true
  end
  else false

let pop_top q =
  let top = q.heap.(0) in
  q.len <- q.len - 1;
  if q.len > 0 then begin
    q.heap.(0) <- q.heap.(q.len);
    sift_down q 0
  end;
  top

(* Discard cancelled cells sitting at the top of the heap. *)
let rec skim q =
  if q.len > 0 && Hashtbl.mem q.cancelled q.heap.(0).seq then begin
    let top = pop_top q in
    Hashtbl.remove q.cancelled top.seq;
    skim q
  end

let pop q =
  skim q;
  if q.len = 0 then None
  else begin
    let top = pop_top q in
    Hashtbl.remove q.cancelable top.seq;
    Some (top.time, top.payload)
  end

let peek_time q =
  skim q;
  if q.len = 0 then None else Some q.heap.(0).time

let size q = q.len - Hashtbl.length q.cancelled
let is_empty q = size q = 0

let drain q ~f =
  let rec loop () =
    match pop q with
    | None -> ()
    | Some (time, payload) ->
        f ~time payload;
        loop ()
  in
  loop ()
