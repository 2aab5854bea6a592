(* Entries live in four parallel arrays (key, stamp, lo, hi): positions
   [0, n) are compacted and indexed by the tree, positions [n, n + pn)
   are appends since the last compaction, scanned linearly.

   The tree is implicit. Compaction sorts the positions by midpoint;
   the node over slice [a, b) of that order takes the median midpoint
   as its center and is stored at index m = (a + b) / 2. The slice
   splits stably into left | crossing | right: the intervals wholly
   below the center, those containing it, those wholly above. Both
   sides stay midpoint-sorted and hold at most half the slice (a left
   interval's midpoint is below the median's, a right one's above),
   and the median interval itself crosses, so m lies in the crossing
   range [cstart.(m), cend.(m)): no two nodes share an index, and the
   children cover [a, cstart.(m)) and [cend.(m), b). The same range
   of [by_lo] and [by_hi] holds the crossing positions sorted by lo
   ascending and by hi descending. *)

type t = {
  live : key:int -> stamp:int -> bool;
  mutable key : int array;
  mutable stamp : int array;
  mutable lo : int array;
  mutable hi : int array;
  mutable n : int;
  mutable pn : int;
  (* Retirements noted since the last compaction. *)
  mutable dead : int;
  mutable center : int array;
  mutable cstart : int array;
  mutable cend : int array;
  mutable by_lo : int array;
  mutable by_hi : int array;
}

let create ~live () =
  {
    live;
    key = Array.make 8 0;
    stamp = Array.make 8 0;
    lo = Array.make 8 0;
    hi = Array.make 8 0;
    n = 0;
    pn = 0;
    dead = 0;
    center = [||];
    cstart = [||];
    cend = [||];
    by_lo = [||];
    by_hi = [||];
  }

let size t = t.n + t.pn - t.dead

(* Exact for every lo <= hi: hi - lo, read as unsigned, cannot wrap. *)
let midpoint lo hi = lo + ((hi - lo) lsr 1)

(* O(n log n): three sorts, then O(n) per tree level. *)
let build t =
  let n = t.n and lo = t.lo and hi = t.hi in
  let mid = Array.init n (fun p -> midpoint lo.(p) hi.(p)) in
  let sorted cmp =
    let a = Array.init n Fun.id in
    Array.stable_sort cmp a;
    a
  in
  let order = sorted (fun p q -> Int.compare mid.(p) mid.(q)) in
  let right = Array.make n 0 and node_of = Array.make n 0 in
  let center = Array.make n 0
  and cstart = Array.make n 0
  and cend = Array.make n 0 in
  let rec split a b =
    if a < b then begin
      let m = (a + b) / 2 in
      let c = mid.(order.(m)) in
      (* Left positions move down in place (the write index never
         passes the read index); right ones wait in [right]. *)
      let l = ref a and r = ref 0 in
      for i = a to b - 1 do
        let p = order.(i) in
        if hi.(p) < c then begin
          order.(!l) <- p;
          incr l
        end
        else if lo.(p) > c then begin
          right.(!r) <- p;
          incr r
        end
        else node_of.(p) <- m
      done;
      let e = b - !r in
      for j = 0 to !r - 1 do
        order.(e + j) <- right.(j)
      done;
      center.(m) <- c;
      cstart.(m) <- !l;
      cend.(m) <- e;
      split a !l;
      split e b
    end
  in
  split 0 n;
  (* A globally sorted order, dealt out to each position's node, leaves
     every crossing range sorted. *)
  let deal sorted =
    let next = Array.copy cstart and out = Array.make n 0 in
    Array.iter
      (fun p ->
        let m = node_of.(p) in
        out.(next.(m)) <- p;
        next.(m) <- next.(m) + 1)
      sorted;
    out
  in
  t.center <- center;
  t.cstart <- cstart;
  t.cend <- cend;
  t.by_lo <- deal (sorted (fun p q -> Int.compare lo.(p) lo.(q)));
  t.by_hi <- deal (sorted (fun p q -> Int.compare hi.(q) hi.(p)))

let compact t =
  let n = ref 0 in
  for i = 0 to t.n + t.pn - 1 do
    if t.live ~key:t.key.(i) ~stamp:t.stamp.(i) then begin
      let j = !n in
      t.key.(j) <- t.key.(i);
      t.stamp.(j) <- t.stamp.(i);
      t.lo.(j) <- t.lo.(i);
      t.hi.(j) <- t.hi.(i);
      n := j + 1
    end
  done;
  t.n <- !n;
  t.pn <- 0;
  t.dead <- 0;
  build t

(* Pending stays a small constant fraction of the compacted set, so
   the linear scan never dominates the tree walk; compactions are
   O(n log n) but amortize against the Ω(n/8) appends (or n/2
   retirements) that triggered them. *)
let maybe_compact t =
  if t.pn > 64 + (t.n / 8) || t.dead > (t.n + t.pn) / 2 then compact t

let append t ~key ~stamp iv =
  let i = t.n + t.pn in
  if i = Array.length t.key then begin
    let grow a =
      let b = Array.make (2 * i) 0 in
      Flat.blit_ints a 0 b 0 i;
      b
    in
    t.key <- grow t.key;
    t.stamp <- grow t.stamp;
    t.lo <- grow t.lo;
    t.hi <- grow t.hi
  end;
  t.key.(i) <- key;
  t.stamp.(i) <- stamp;
  t.lo.(i) <- Interval.lo iv;
  t.hi.(i) <- Interval.hi iv;
  t.pn <- t.pn + 1

let add t ~key ~stamp iv =
  append t ~key ~stamp iv;
  maybe_compact t

let note_dead t =
  t.dead <- t.dead + 1;
  maybe_compact t

let report t p f =
  if t.live ~key:t.key.(p) ~stamp:t.stamp.(p) then f t.key.(p)

(* Every live [lo, hi] with lo <= qlo and qhi <= hi. At a node with
   center c:
   - qlo > c: every crossing interval starts at or below c, so those
     reaching qhi qualify, a prefix of by_hi; left intervals end below
     c, and only the right subtree can hold more.
   - otherwise the crossing intervals starting at or below qlo, a
     prefix of by_lo, qualify if they reach qhi (all do when qhi < c).
     Right intervals start past c >= qlo; left ones end below c, so
     they can qualify only when qhi < c, and the walk goes left.
   A stab at v is the query for [v, v]. *)
let iter_range t qlo qhi f =
  let a = ref 0 and b = ref t.n in
  while !a < !b do
    let m = (!a + !b) / 2 in
    let c = t.center.(m) and stop = t.cend.(m) in
    let i = ref t.cstart.(m) in
    if qlo > c then begin
      while !i < stop && t.hi.(t.by_hi.(!i)) >= qhi do
        report t t.by_hi.(!i) f;
        incr i
      done;
      a := stop
    end
    else begin
      while !i < stop && t.lo.(t.by_lo.(!i)) <= qlo do
        let p = t.by_lo.(!i) in
        if t.hi.(p) >= qhi then report t p f;
        incr i
      done;
      if qhi < c then b := t.cstart.(m) else b := !a
    end
  done;
  for p = t.n to t.n + t.pn - 1 do
    if t.lo.(p) <= qlo && qhi <= t.hi.(p) then report t p f
  done

let iter_stab t v ~f = iter_range t v v f
let iter_containing t q ~f = iter_range t (Interval.lo q) (Interval.hi q) f
