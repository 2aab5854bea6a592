(* Incremental counting index. Mutations maintain per-attribute
   {!Interval_index} structures keyed by *slot*: a dense integer
   the matcher assigns on add and recycles on remove, so every
   per-publication data structure is a flat int array indexed by slot.
   Match-time state (hit counters, hit buffer) is preallocated and
   reset logically via generation stamps — a publication never
   allocates scratch, in the spirit of the hot-alloc lint rule even
   though this module is not inside a [@@@problint.hot] scope. *)

type entry = { slot : int; sub : Subscription.t }

type t = {
  arity : int;
  entries : (int, entry) Hashtbl.t; (* id -> slot + sub; control plane *)
  (* Slot planes, parallel over [0, nslots). [gen] holds the stamp of
     the current occupant, 0 when the slot is free; stamps are drawn
     from a monotone counter and never reused, so index entries left
     behind by a departed occupant can never alias a new one. *)
  mutable id_of_slot : int array;
  mutable wanted : int array; (* constrained-attribute count *)
  mutable gen : int array;
  mutable nslots : int;
  mutable free : int array; (* free-slot stack *)
  mutable nfree : int;
  mutable next_stamp : int;
  (* One dynamic index per attribute, holding the constrained ranges
     of the current occupants (full ranges are not indexed). *)
  mutable indexes : Interval_index.t array;
  (* Fully-unconstrained subscriptions match every publication and
     live outside the indexes: a dense slot array with a per-slot
     reverse position for O(1) swap-removal. *)
  mutable universal : int array;
  mutable nuniversal : int;
  mutable upos : int array;
  (* Per-publication counters, reset in O(1) by bumping [pub_gen]:
     counts.(slot) is only meaningful when count_gen.(slot) = pub_gen. *)
  mutable counts : int array;
  mutable count_gen : int array;
  mutable pub_gen : int;
  mutable hitbuf : int array;
  mutable nhits : int;
  mutable inspections : int;
  (* Preallocated match-path closure (assigned once at create): a hit
     from any attribute index bumps the slot's counter and records the
     slot when it reaches its target. *)
  mutable on_hit : int -> unit;
}

let create ~arity () =
  if arity < 1 then invalid_arg "Counting_matcher.create: arity < 1";
  let t =
    {
      arity;
      entries = Hashtbl.create 64;
      id_of_slot = Array.make 16 0;
      wanted = Array.make 16 0;
      gen = Array.make 16 0;
      nslots = 0;
      free = Array.make 16 0;
      nfree = 0;
      next_stamp = 1;
      indexes = [||];
      universal = Array.make 4 0;
      nuniversal = 0;
      upos = Array.make 16 (-1);
      counts = Array.make 16 0;
      count_gen = Array.make 16 0;
      pub_gen = 0;
      hitbuf = Array.make 16 0;
      nhits = 0;
      inspections = 0;
      on_hit = ignore;
    }
  in
  let live ~key ~stamp = key < t.nslots && t.gen.(key) = stamp in
  t.indexes <- Array.init arity (fun _ -> Interval_index.create ~live ());
  t.on_hit <-
    (fun slot ->
      t.inspections <- t.inspections + 1;
      let c =
        if t.count_gen.(slot) = t.pub_gen then t.counts.(slot) + 1 else 1
      in
      t.count_gen.(slot) <- t.pub_gen;
      t.counts.(slot) <- c;
      if c = t.wanted.(slot) then begin
        if t.nhits = Array.length t.hitbuf then begin
          let bigger = Array.make (2 * t.nhits) 0 in
          Array.blit t.hitbuf 0 bigger 0 t.nhits;
          t.hitbuf <- bigger
        end;
        t.hitbuf.(t.nhits) <- slot;
        t.nhits <- t.nhits + 1
      end);
  t

let arity t = t.arity
let size t = Hashtbl.length t.entries
let mem t ~id = Hashtbl.mem t.entries id
let inspections t = t.inspections

let grow_slots t =
  let cap = Array.length t.gen in
  if t.nslots = cap then begin
    let bigger = 2 * cap in
    let grow ~init a =
      let b = Array.make bigger init in
      Array.blit a 0 b 0 cap;
      b
    in
    t.id_of_slot <- grow ~init:0 t.id_of_slot;
    t.wanted <- grow ~init:0 t.wanted;
    t.gen <- grow ~init:0 t.gen;
    t.upos <- grow ~init:(-1) t.upos;
    t.counts <- grow ~init:0 t.counts;
    t.count_gen <- grow ~init:0 t.count_gen
  end

let alloc_slot t =
  if t.nfree > 0 then begin
    t.nfree <- t.nfree - 1;
    t.free.(t.nfree)
  end
  else begin
    grow_slots t;
    let slot = t.nslots in
    t.nslots <- t.nslots + 1;
    slot
  end

(* [put] files one constrained range in its attribute's index:
   {!Interval_index.add} on the incremental path, the compaction-free
   [append] while {!build} bulk-loads. *)
let insert t ~id sub ~put =
  if Subscription.arity sub <> t.arity then
    invalid_arg "Counting_matcher.add: arity mismatch";
  if Hashtbl.mem t.entries id then
    invalid_arg "Counting_matcher.add: duplicate id";
  let slot = alloc_slot t in
  let stamp = t.next_stamp in
  t.next_stamp <- stamp + 1;
  Hashtbl.replace t.entries id { slot; sub };
  t.id_of_slot.(slot) <- id;
  t.gen.(slot) <- stamp;
  (* A stale counter from the slot's previous occupant must not leak
     into the new one's first publication. *)
  t.count_gen.(slot) <- 0;
  let constrained = Subscription.constrained sub in
  t.wanted.(slot) <- List.length constrained;
  if constrained = [] then begin
    if t.nuniversal = Array.length t.universal then begin
      let bigger = Array.make (2 * t.nuniversal) 0 in
      Array.blit t.universal 0 bigger 0 t.nuniversal;
      t.universal <- bigger
    end;
    t.universal.(t.nuniversal) <- slot;
    t.upos.(slot) <- t.nuniversal;
    t.nuniversal <- t.nuniversal + 1
  end
  else
    List.iter
      (fun attr ->
        put t.indexes.(attr) ~key:slot ~stamp (Subscription.range sub attr))
      constrained

let add t ~id sub = insert t ~id sub ~put:Interval_index.add

let remove t ~id =
  match Hashtbl.find_opt t.entries id with
  | None -> raise Not_found
  | Some { slot; sub } ->
      Hashtbl.remove t.entries id;
      t.gen.(slot) <- 0;
      (match Subscription.constrained sub with
      | [] ->
          (* Swap-remove from the universal array. *)
          let pos = t.upos.(slot) in
          let last = t.nuniversal - 1 in
          let moved = t.universal.(last) in
          t.universal.(pos) <- moved;
          t.upos.(moved) <- pos;
          t.upos.(slot) <- -1;
          t.nuniversal <- last
      | constrained ->
          List.iter
            (fun attr -> Interval_index.note_dead t.indexes.(attr))
            constrained);
      if t.nfree = Array.length t.free then begin
        let bigger = Array.make (2 * t.nfree) 0 in
        Array.blit t.free 0 bigger 0 t.nfree;
        t.free <- bigger
      end;
      t.free.(t.nfree) <- slot;
      t.nfree <- t.nfree + 1

(* One pass: every constrained range lands in its attribute's pending
   buffer, then each index compacts once, where n {!add}s would compact
   geometrically on the way. *)
let build ~arity ids subs ~len =
  if len < 0 || len > Array.length ids || len > Array.length subs then
    invalid_arg "Counting_matcher.build: len";
  let t = create ~arity () in
  for i = 0 to len - 1 do
    insert t ~id:ids.(i) subs.(i) ~put:Interval_index.append
  done;
  Array.iter Interval_index.compact t.indexes;
  t

(* Start a publication: bump the counter generation (O(1) logical
   reset of every counter) and empty the hit buffer. *)
let begin_pub t =
  t.pub_gen <- t.pub_gen + 1;
  t.nhits <- 0

let push_universal t =
  for i = 0 to t.nuniversal - 1 do
    if t.nhits = Array.length t.hitbuf then begin
      let bigger = Array.make (2 * t.nhits) 0 in
      Array.blit t.hitbuf 0 bigger 0 t.nhits;
      t.hitbuf <- bigger
    end;
    t.hitbuf.(t.nhits) <- t.universal.(i);
    t.nhits <- t.nhits + 1
  done

let run_point t p =
  if Array.length p <> t.arity then
    invalid_arg "Counting_matcher.match_point: arity mismatch";
  begin_pub t;
  for attr = 0 to t.arity - 1 do
    Interval_index.iter_stab t.indexes.(attr) p.(attr) ~f:t.on_hit
  done;
  push_universal t

(* Box publications need containment, not stabbing: subscription [s]
   matches box [b] iff every range of [s] contains the corresponding
   range of [b]. Unconstrained (full) attributes of [s] contain
   anything, so [s] matches iff all [wanted s] of its indexed ranges
   contain the box's — the same counting scheme with the containment
   query. A full box range can only be contained by a full stored
   range, which is never indexed: skip the probe, no slot can score
   there. *)
let run_box t b =
  if Subscription.arity b <> t.arity then
    invalid_arg "Counting_matcher.match_publication: arity mismatch";
  begin_pub t;
  for attr = 0 to t.arity - 1 do
    let q = Subscription.range b attr in
    if not (Interval.is_full q) then
      Interval_index.iter_containing t.indexes.(attr) q ~f:t.on_hit
  done;
  push_universal t

let run_publication t pub =
  match pub with
  | Publication.Point values -> run_point t values
  | Publication.Box b -> run_box t b

let iter_matches t pub ~f =
  run_publication t pub;
  for i = 0 to t.nhits - 1 do
    f t.id_of_slot.(t.hitbuf.(i))
  done

let collect_hits t =
  let acc = ref [] in
  for i = 0 to t.nhits - 1 do
    acc := t.id_of_slot.(t.hitbuf.(i)) :: !acc
  done;
  List.sort Int.compare !acc

let match_point t p =
  run_point t p;
  collect_hits t

let match_publication t pub =
  run_publication t pub;
  collect_hits t
