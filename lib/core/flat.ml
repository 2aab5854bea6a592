[@@@problint.hot]
(* Hot-path module: the RSPC trial loop lives here. problint permits
   [Array.unsafe_*] (every index is proved in range by the arity checks
   at entry) and enforces allocation-free for/while bodies. *)

(* Structure-of-arrays subscription kernels.

   A packed set stores all bounds of k subscriptions in ONE int array:
   the lo plane occupies [0, k*m) and the hi plane [hi, hi + k*m), both
   in row-major order (bounds.(i*m + j) is subscription i's lower bound
   on attribute j). A fresh pack puts the hi plane right after the lo
   plane (hi = k*m); a view of a growable {!rows} buffer puts it at the
   buffer's capacity, so the view shares the buffer instead of copying
   it. The escape test of an RSPC trial then reads consecutive machine
   ints instead of chasing array -> Subscription.t -> Interval.t
   pointers, and a trial loop that fills a preallocated point buffer
   allocates nothing. *)

type t = { k : int; m : int; hi : int; bounds : int array }

type box = { bm : int; blo : int array; bhi : int array }

let k t = t.k
let m t = t.m
let box_arity b = b.bm

let pack ~m subs =
  if m < 1 then invalid_arg "Flat.pack: arity < 1";
  let k = Array.length subs in
  let km = k * m in
  let bounds = Array.make (2 * km) 0 in
  for i = 0 to k - 1 do
    let si = subs.(i) in
    if Subscription.arity si <> m then invalid_arg "Flat.pack: arity mismatch";
    let base = i * m in
    for j = 0 to m - 1 do
      let r = Subscription.range si j in
      bounds.(base + j) <- Interval.lo r;
      bounds.(km + base + j) <- Interval.hi r
    done
  done;
  { k; m; hi = km; bounds }

let box_of_sub s =
  let m = Subscription.arity s in
  let blo = Array.make m 0 and bhi = Array.make m 0 in
  for j = 0 to m - 1 do
    let r = Subscription.range s j in
    blo.(j) <- Interval.lo r;
    bhi.(j) <- Interval.hi r
  done;
  { bm = m; blo; bhi }

let lo t ~row ~attr =
  if row < 0 || row >= t.k then invalid_arg "Flat.lo: row";
  if attr < 0 || attr >= t.m then invalid_arg "Flat.lo: attr";
  t.bounds.((row * t.m) + attr)

let hi t ~row ~attr =
  if row < 0 || row >= t.k then invalid_arg "Flat.hi: row";
  if attr < 0 || attr >= t.m then invalid_arg "Flat.hi: attr";
  t.bounds.(t.hi + (row * t.m) + attr)

let row_sub t row =
  if row < 0 || row >= t.k then invalid_arg "Flat.row_sub: row";
  let base = row * t.m in
  Subscription.make
    (Array.init t.m (fun j ->
         Interval.make ~lo:t.bounds.(base + j) ~hi:t.bounds.(t.hi + base + j)))

let gather t rows =
  let k' = Array.length rows in
  let m = t.m in
  let km' = k' * m in
  let bounds = Array.make (2 * km') 0 in
  for i = 0 to k' - 1 do
    let row = rows.(i) in
    if row < 0 || row >= t.k then invalid_arg "Flat.gather: row";
    Array.blit t.bounds (row * m) bounds (i * m) m;
    Array.blit t.bounds (t.hi + (row * m)) bounds (km' + (i * m)) m
  done;
  { k = k'; m; hi = km'; bounds }

let equal a b =
  a.k = b.k && a.m = b.m
  &&
  let same = ref true in
  for i = 0 to (a.k * a.m) - 1 do
    if
      a.bounds.(i) <> b.bounds.(i)
      || a.bounds.(a.hi + i) <> b.bounds.(b.hi + i)
    then same := false
  done;
  !same

(* ------------------------------------------------------------------ *)
(* Growable packs: rows inserted and deleted in place *)

(* [Array.blit] cannot know an array holds immediates, so into a
   major-heap destination it stores element by element through
   [caml_modify]; a loop over a typed [int array] stores plainly. The
   copy direction follows the overlap, like [Array.blit]. *)
let blit_ints (src : int array) src_pos (dst : int array) dst_pos len =
  if
    len < 0 || src_pos < 0 || dst_pos < 0
    || src_pos > Array.length src - len
    || dst_pos > Array.length dst - len
  then invalid_arg "Flat.blit_ints";
  if src_pos < dst_pos then
    for i = len - 1 downto 0 do
      Array.unsafe_set dst (dst_pos + i) (Array.unsafe_get src (src_pos + i))
    done
  else
    for i = 0 to len - 1 do
      Array.unsafe_set dst (dst_pos + i) (Array.unsafe_get src (src_pos + i))
    done

(* The two planes of up to [cap] rows: lo at [0, n*m), hi at
   [cap*m, cap*m + n*m). Inserting or deleting a row shifts the rows
   after it in both planes; growing doubles [cap] and moves the hi
   plane to the new offset. *)
type rows = { rm : int; mutable n : int; mutable cap : int; mutable buf : int array }

let rows_create ~m =
  if m < 1 then invalid_arg "Flat.rows_create: arity < 1";
  { rm = m; n = 0; cap = 0; buf = [||] }

let grow r =
  let m = r.rm in
  let cap = max 8 (2 * r.cap) in
  let buf = Array.make (2 * cap * m) 0 in
  Array.blit r.buf 0 buf 0 (r.n * m);
  Array.blit r.buf (r.cap * m) buf (cap * m) (r.n * m);
  r.buf <- buf;
  r.cap <- cap

let rows_insert r ~at s =
  if at < 0 || at > r.n then invalid_arg "Flat.rows_insert: row";
  if Subscription.arity s <> r.rm then
    invalid_arg "Flat.rows_insert: arity mismatch";
  if r.n = r.cap then grow r;
  let m = r.rm in
  let hi = r.cap * m and base = at * m in
  let tail = (r.n - at) * m in
  blit_ints r.buf base r.buf (base + m) tail;
  blit_ints r.buf (hi + base) r.buf (hi + base + m) tail;
  for j = 0 to m - 1 do
    let iv = Subscription.range s j in
    r.buf.(base + j) <- Interval.lo iv;
    r.buf.(hi + base + j) <- Interval.hi iv
  done;
  r.n <- r.n + 1

let rows_delete r ~at =
  if at < 0 || at >= r.n then invalid_arg "Flat.rows_delete: row";
  let m = r.rm in
  let hi = r.cap * m and base = at * m in
  let tail = (r.n - at - 1) * m in
  blit_ints r.buf (base + m) r.buf base tail;
  blit_ints r.buf (hi + base + m) r.buf (hi + base) tail;
  r.n <- r.n - 1

let view r = { k = r.n; m = r.rm; hi = r.cap * r.rm; bounds = r.buf }

(* ------------------------------------------------------------------ *)
(* Allocation-free trial kernels *)

let random_point_into ~rng box p =
  if Array.length p <> box.bm then
    invalid_arg "Flat.random_point_into: arity mismatch";
  for j = 0 to box.bm - 1 do
    Array.unsafe_set p j
      (Prng.int_in rng ~lo:(Array.unsafe_get box.blo j)
         ~hi:(Array.unsafe_get box.bhi j))
  done

(* The [int array] annotations matter: without them the function
   let-generalizes to ['a array] and every [<=] compiles to a
   [caml_lessequal] call — an order of magnitude slower than the
   unboxed integer compare. *)
let[@inline] covers_row_unsafe (bounds : int array) ~hi ~base ~m
    (p : int array) =
  let j = ref 0 in
  let inside = ref true in
  while !inside && !j < m do
    let v = Array.unsafe_get p !j in
    inside :=
      Array.unsafe_get bounds (base + !j) <= v
      && v <= Array.unsafe_get bounds (hi + base + !j);
    incr j
  done;
  !inside

let covers_row t ~row p =
  if row < 0 || row >= t.k then invalid_arg "Flat.covers_row: row";
  if Array.length p <> t.m then invalid_arg "Flat.covers_row: arity mismatch";
  covers_row_unsafe t.bounds ~hi:t.hi ~base:(row * t.m) ~m:t.m p

let escapes t p =
  if Array.length p <> t.m then invalid_arg "Flat.escapes: arity mismatch";
  let bounds = t.bounds and m = t.m and hi = t.hi in
  let i = ref 0 in
  let escaped = ref true in
  while !escaped && !i < t.k do
    if covers_row_unsafe bounds ~hi ~base:(!i * m) ~m p then escaped := false;
    incr i
  done;
  !escaped

(* ------------------------------------------------------------------ *)
(* Candidate pruning: rows intersecting a query box *)

(* One O(k·m) early-exit pass over the planes — the same order of work
   as building the conflict table the pruned rows feed (Def. 2), and
   cheaper than any per-query index build at every table size the
   stores hold. *)
let intersecting_rows t box =
  if box.bm <> t.m then invalid_arg "Flat.intersecting_rows: arity mismatch";
  let bounds = t.bounds and m = t.m and hi = t.hi in
  let keep = Array.make t.k 0 in
  let n = ref 0 in
  for row = 0 to t.k - 1 do
    let base = row * m in
    let j = ref 0 in
    let meets = ref true in
    while !meets && !j < m do
      (* [lo_i, hi_i] meets [blo_j, bhi_j] iff lo_i <= bhi_j && blo_j <= hi_i *)
      meets :=
        Array.unsafe_get bounds (base + !j) <= Array.unsafe_get box.bhi !j
        && Array.unsafe_get box.blo !j <= Array.unsafe_get bounds (hi + base + !j);
      incr j
    done;
    if !meets then begin
      keep.(!n) <- row;
      incr n
    end
  done;
  Array.sub keep 0 !n
