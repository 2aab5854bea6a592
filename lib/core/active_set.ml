(* Parallel row-aligned planes over the used prefix [0, n): ids
   strictly ascending, their boxed subscriptions, and the same rows
   packed in [rows]. The id and subscription arrays double like the
   packed buffer; slots past [n] hold [filler], so a departed
   subscription is never kept reachable. The counting index exists
   only once something has matched against the set: the first match
   builds it from the rows, and every later change maintains it. *)
type t = {
  arity : int;
  mutable ids : int array;
  mutable subs : Subscription.t array;
  mutable n : int;
  filler : Subscription.t;
  rows : Flat.rows;
  mutable matcher : Counting_matcher.t option;
}

let create ~arity =
  if arity < 1 then invalid_arg "Active_set.create: arity < 1";
  let filler = Subscription.make (Array.make arity Interval.full) in
  {
    arity;
    ids = [||];
    subs = [||];
    n = 0;
    filler;
    rows = Flat.rows_create ~m:arity;
    matcher = None;
  }

let length t = t.n

(* First row whose id is >= [id]. *)
let lower_bound t id =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.ids.(mid) < id then lo := mid + 1 else hi := mid
  done;
  !lo

let add t id s =
  if Subscription.arity s <> t.arity then
    invalid_arg "Active_set.add: arity mismatch";
  let row = if t.n = 0 || t.ids.(t.n - 1) < id then t.n else lower_bound t id in
  if row < t.n && t.ids.(row) = id then invalid_arg "Active_set.add: duplicate id";
  if t.n = Array.length t.ids then begin
    let cap = max 8 (2 * t.n) in
    let ids = Array.make cap 0 and subs = Array.make cap t.filler in
    Array.blit t.ids 0 ids 0 t.n;
    Array.blit t.subs 0 subs 0 t.n;
    t.ids <- ids;
    t.subs <- subs
  end;
  Flat.blit_ints t.ids row t.ids (row + 1) (t.n - row);
  Array.blit t.subs row t.subs (row + 1) (t.n - row);
  t.ids.(row) <- id;
  t.subs.(row) <- s;
  t.n <- t.n + 1;
  Flat.rows_insert t.rows ~at:row s;
  match t.matcher with
  | Some m -> Counting_matcher.add m ~id s
  | None -> ()

let remove t id =
  let row = lower_bound t id in
  if row >= t.n || t.ids.(row) <> id then raise Not_found;
  Flat.blit_ints t.ids (row + 1) t.ids row (t.n - row - 1);
  Array.blit t.subs (row + 1) t.subs row (t.n - row - 1);
  t.n <- t.n - 1;
  t.subs.(t.n) <- t.filler;
  Flat.rows_delete t.rows ~at:row;
  match t.matcher with
  | Some m -> Counting_matcher.remove m ~id
  | None -> ()

let id t row =
  if row < 0 || row >= t.n then invalid_arg "Active_set.id: row";
  t.ids.(row)

let sub t row =
  if row < 0 || row >= t.n then invalid_arg "Active_set.sub: row";
  t.subs.(row)

let to_list t = List.init t.n (fun row -> (t.ids.(row), t.subs.(row)))
let arrays t = (Array.sub t.ids 0 t.n, Array.sub t.subs 0 t.n)
let packed t = Flat.view t.rows

let matcher t =
  match t.matcher with
  | Some m -> m
  | None ->
      let m = Counting_matcher.build ~arity:t.arity t.ids t.subs ~len:t.n in
      t.matcher <- Some m;
      m

let iter_matches t p ~f = Counting_matcher.iter_matches (matcher t) p ~f

let index_hits t =
  match t.matcher with Some m -> Counting_matcher.inspections m | None -> 0

let consistent t ~find =
  let indexed id =
    match t.matcher with
    | Some m -> Counting_matcher.mem m ~id
    | None -> true
  in
  let ok =
    ref
      (match t.matcher with
      | Some m -> Counting_matcher.size m = t.n
      | None -> true)
  in
  for row = 0 to t.n - 1 do
    let id = t.ids.(row) in
    if row > 0 && t.ids.(row - 1) >= id then ok := false;
    if not (indexed id) then ok := false;
    match find id with
    | Some s ->
        if
          not
            ((s == t.subs.(row))
            [@problint.allow
              unsafe
                "identity check is the invariant: the active set must alias \
                 the entry's subscription, not merely equal it"])
        then ok := false
    | None -> ok := false
  done;
  !ok && Flat.equal (packed t) (Flat.pack ~m:t.arity (Array.sub t.subs 0 t.n))
