(* Classic centered interval tree. Each node stores the intervals
   crossing its center twice: sorted by lo ascending (scanned for
   queries left of the center) and by hi descending (for queries right
   of it). Intervals entirely left/right of the center go to the
   subtrees. Query cost O(log n + answers). *)

type node = {
  center : int;
  by_lo : (int * Interval.t) array; (* crossing, sorted by lo asc *)
  by_hi : (int * Interval.t) array; (* crossing, sorted by hi desc *)
  left : node option;
  right : node option;
}

type t = { root : node option; size : int }

let empty = { root = None; size = 0 }
let size t = t.size

let rec build_node entries =
  match entries with
  | [] -> None
  | _ ->
      (* Median of the interval midpoints keeps the tree balanced for
         the workloads we care about. *)
      let mids =
        List.map
          (fun (_, r) -> (Interval.lo r + Interval.hi r) / 2)
          entries
        |> List.sort Int.compare |> Array.of_list
      in
      let center = mids.(Array.length mids / 2) in
      let crossing, left_of, right_of =
        List.fold_left
          (fun (c, l, r) ((_, range) as e) ->
            if Interval.hi range < center then (c, e :: l, r)
            else if Interval.lo range > center then (c, l, e :: r)
            else (e :: c, l, r))
          ([], [], []) entries
      in
      let by_lo = Array.of_list crossing in
      Array.sort (fun (_, a) (_, b) -> Int.compare (Interval.lo a) (Interval.lo b)) by_lo;
      let by_hi = Array.of_list crossing in
      Array.sort (fun (_, a) (_, b) -> Int.compare (Interval.hi b) (Interval.hi a)) by_hi;
      Some
        {
          center;
          by_lo;
          by_hi;
          left = build_node left_of;
          right = build_node right_of;
        }

let build entries = { root = build_node entries; size = List.length entries }

let iter_stab t v ~f =
  let rec visit = function
    | None -> ()
    | Some node ->
        if v < node.center then begin
          (* Crossing intervals sorted by lo: report while lo <= v. *)
          let arr = node.by_lo in
          let n = Array.length arr in
          let i = ref 0 in
          while
            !i < n
            &&
            let id, range = arr.(!i) in
            if Interval.lo range <= v then begin
              f id;
              true
            end
            else false
          do
            incr i
          done;
          visit node.left
        end
        else if v > node.center then begin
          let arr = node.by_hi in
          let n = Array.length arr in
          let i = ref 0 in
          while
            !i < n
            &&
            let id, range = arr.(!i) in
            if Interval.hi range >= v then begin
              f id;
              true
            end
            else false
          do
            incr i
          done;
          visit node.right
        end
        else
          (* v = center: every crossing interval contains it. *)
          Array.iter (fun (id, _) -> f id) node.by_lo
  in
  visit t.root

let stab t v =
  let acc = ref [] in
  iter_stab t v ~f:(fun id -> acc := id :: !acc);
  !acc

let count_stab t v =
  let n = ref 0 in
  iter_stab t v ~f:(fun _ -> incr n);
  !n

(* Range generalisation of the stabbing walk. A stored [a, b] overlaps
   the query [qlo, qhi] iff a <= qhi && qlo <= b. At a node whose
   center lies inside the query, every crossing interval overlaps (it
   contains the center) and both subtrees may hold answers. A query
   entirely left of the center only needs the crossing intervals with
   a <= qhi (their b >= center > qhi guarantees the other bound) and
   the left subtree — intervals to the right all start past the
   center, hence past the query. Symmetrically on the right. *)
let iter_overlapping t q ~f =
  let qlo = Interval.lo q and qhi = Interval.hi q in
  let rec visit = function
    | None -> ()
    | Some node ->
        if qhi < node.center then begin
          let arr = node.by_lo in
          let n = Array.length arr in
          let i = ref 0 in
          while
            !i < n
            &&
            let id, range = arr.(!i) in
            if Interval.lo range <= qhi then begin
              f id;
              true
            end
            else false
          do
            incr i
          done;
          visit node.left
        end
        else if qlo > node.center then begin
          let arr = node.by_hi in
          let n = Array.length arr in
          let i = ref 0 in
          while
            !i < n
            &&
            let id, range = arr.(!i) in
            if Interval.hi range >= qlo then begin
              f id;
              true
            end
            else false
          do
            incr i
          done;
          visit node.right
        end
        else begin
          Array.iter (fun (id, _) -> f id) node.by_lo;
          visit node.left;
          visit node.right
        end
  in
  visit t.root

let overlapping t q =
  let acc = ref [] in
  iter_overlapping t q ~f:(fun id -> acc := id :: !acc);
  !acc

(* ------------------------------------------------------------------- *)

module Dyn = struct
  (* Incremental index: a compacted static tree over *positions* into
     parallel payload arrays, plus a small linear pending buffer for
     fresh appends and a liveness oracle that filters entries whose
     (key, stamp) pair the owner has since retired. Mutations never
     touch the tree; amortized compaction folds the pending buffer in
     and drops dead entries once either grows past its threshold —
     queries stay a pure tree walk plus a short array scan, with no
     rebuild work on the match path. *)

  type dyn = {
    live : key:int -> stamp:int -> bool;
    (* Compacted entries: tree payload = index into these arrays. *)
    mutable tree : t;
    mutable tkey : int array;
    mutable tstamp : int array;
    mutable tlo : int array;
    mutable thi : int array;
    mutable tn : int;
    (* Appends since the last compaction, scanned linearly. *)
    mutable pkey : int array;
    mutable pstamp : int array;
    mutable plo : int array;
    mutable phi : int array;
    mutable pn : int;
    (* Retirements noted since the last compaction. *)
    mutable dead : int;
  }

  type t = dyn

  let create ~live () =
    {
      live;
      tree = empty;
      tkey = [||];
      tstamp = [||];
      tlo = [||];
      thi = [||];
      tn = 0;
      pkey = Array.make 8 0;
      pstamp = Array.make 8 0;
      plo = Array.make 8 0;
      phi = Array.make 8 0;
      pn = 0;
      dead = 0;
    }

  let size t = t.tn + t.pn - t.dead

  let compact t =
    let entries = ref [] in
    let keys = ref [] and stamps = ref [] in
    let n = ref 0 in
    let keep key stamp lo hi =
      if t.live ~key ~stamp then begin
        let pos = !n in
        incr n;
        keys := key :: !keys;
        stamps := stamp :: !stamps;
        entries := (pos, Interval.make ~lo ~hi) :: !entries
      end
    in
    for i = 0 to t.tn - 1 do
      keep t.tkey.(i) t.tstamp.(i) t.tlo.(i) t.thi.(i)
    done;
    for i = 0 to t.pn - 1 do
      keep t.pkey.(i) t.pstamp.(i) t.plo.(i) t.phi.(i)
    done;
    let n = !n in
    let tkey = Array.make (max n 1) 0
    and tstamp = Array.make (max n 1) 0
    and tlo = Array.make (max n 1) 0
    and thi = Array.make (max n 1) 0 in
    (* [keys]/[stamps] are accumulated newest-first; positions count up
       from the oldest, so position [pos] sits at list index
       [n - 1 - pos]. *)
    List.iteri (fun i k -> tkey.(n - 1 - i) <- k) !keys;
    List.iteri (fun i s -> tstamp.(n - 1 - i) <- s) !stamps;
    List.iter
      (fun (pos, iv) ->
        tlo.(pos) <- Interval.lo iv;
        thi.(pos) <- Interval.hi iv)
      !entries;
    t.tree <- build !entries;
    t.tkey <- tkey;
    t.tstamp <- tstamp;
    t.tlo <- tlo;
    t.thi <- thi;
    t.tn <- n;
    t.pn <- 0;
    t.dead <- 0

  (* Pending stays a small constant fraction of the compacted set, so
     the linear scan never dominates the tree walk; compactions are
     O(n log n) but amortize against the Ω(n/8) appends (or n/2
     retirements) that triggered them. *)
  let maybe_compact t =
    if t.pn > 64 + (t.tn / 8) || t.dead > (t.tn + t.pn) / 2 then compact t

  let append t ~key ~stamp iv =
    if t.pn = Array.length t.pkey then begin
      let cap = 2 * t.pn in
      let grow a = let b = Array.make cap 0 in Array.blit a 0 b 0 t.pn; b in
      t.pkey <- grow t.pkey;
      t.pstamp <- grow t.pstamp;
      t.plo <- grow t.plo;
      t.phi <- grow t.phi
    end;
    t.pkey.(t.pn) <- key;
    t.pstamp.(t.pn) <- stamp;
    t.plo.(t.pn) <- Interval.lo iv;
    t.phi.(t.pn) <- Interval.hi iv;
    t.pn <- t.pn + 1

  let add t ~key ~stamp iv =
    append t ~key ~stamp iv;
    maybe_compact t

  let note_dead t =
    t.dead <- t.dead + 1;
    maybe_compact t

  let static_stab = iter_stab

  let iter_stab t v ~f =
    static_stab t.tree v ~f:(fun pos ->
        if t.live ~key:t.tkey.(pos) ~stamp:t.tstamp.(pos) then f t.tkey.(pos));
    for i = 0 to t.pn - 1 do
      if
        t.plo.(i) <= v
        && v <= t.phi.(i)
        && t.live ~key:t.pkey.(i) ~stamp:t.pstamp.(i)
      then f t.pkey.(i)
    done

  let iter_containing t q ~f =
    let qlo = Interval.lo q and qhi = Interval.hi q in
    (* A stored [a, b] contains [qlo, qhi] iff a <= qlo && b >= qhi:
       stab the tree at qlo and filter on the hi bound. *)
    static_stab t.tree qlo ~f:(fun pos ->
        if
          t.thi.(pos) >= qhi
          && t.live ~key:t.tkey.(pos) ~stamp:t.tstamp.(pos)
        then f t.tkey.(pos));
    for i = 0 to t.pn - 1 do
      if
        t.plo.(i) <= qlo
        && t.phi.(i) >= qhi
        && t.live ~key:t.pkey.(i) ~stamp:t.pstamp.(i)
      then f t.pkey.(i)
    done
end
