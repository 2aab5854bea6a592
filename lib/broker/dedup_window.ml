(* A ring of the remembered ids in arrival order, indexed by an
   open-addressing table of ring positions. [slots] holds ring
   position + 1 (0 marks an empty slot) and is at least twice the
   capacity, so probes stay short and always meet an empty slot; a
   departing id's slot is closed up by backward-shift deletion, so
   there are no tombstones. Every operation is a loop over [int array]s
   and allocates nothing. *)
type t = {
  capacity : int;
  ring : int array; (* ids in arrival order, oldest at [pos] once full *)
  slots : int array;
  mask : int; (* Array.length slots - 1; the length is a power of two *)
  mutable pos : int;
  mutable count : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Dedup_window.create: capacity < 1";
  let size = ref 2 in
  while !size < 2 * capacity do
    size := 2 * !size
  done;
  {
    capacity;
    ring = Array.make capacity 0;
    slots = Array.make !size 0;
    mask = !size - 1;
    pos = 0;
    count = 0;
  }

let capacity t = t.capacity
let size t = t.count

(* Home slot: a multiplicative mix, so runs of consecutive ids (link
   sequence numbers, publication counters) spread over the table. *)
let home t id =
  let h = id * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land t.mask

(* The slot holding [id], or -1. *)
let find t id =
  let i = ref (home t id) and found = ref (-1) in
  while !found < 0 && t.slots.(!i) <> 0 do
    if t.ring.(t.slots.(!i) - 1) = id then found := !i
    else i := (!i + 1) land t.mask
  done;
  !found

let mem t id = find t id >= 0

(* Empty slot [hole] and pull back every later entry of its probe run
   whose home does not lie cyclically in (hole, j], so each remaining
   entry stays reachable from its home without a tombstone. *)
let delete_slot t hole =
  let hole = ref hole and j = ref ((hole + 1) land t.mask) in
  t.slots.(!hole) <- 0;
  while t.slots.(!j) <> 0 do
    let h = home t t.ring.(t.slots.(!j) - 1) in
    let stays =
      if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j
    in
    if not stays then begin
      t.slots.(!hole) <- t.slots.(!j);
      t.slots.(!j) <- 0;
      hole := !j
    end;
    j := (!j + 1) land t.mask
  done

let admit t id =
  if mem t id then false
  else begin
    if t.count = t.capacity then begin
      delete_slot t (find t t.ring.(t.pos));
      t.count <- t.count - 1
    end;
    t.ring.(t.pos) <- id;
    let i = ref (home t id) in
    while t.slots.(!i) <> 0 do
      i := (!i + 1) land t.mask
    done;
    t.slots.(!i) <- t.pos + 1;
    t.pos <- (if t.pos + 1 = t.capacity then 0 else t.pos + 1);
    t.count <- t.count + 1;
    true
  end

let add t id = ignore (admit t id)

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) 0;
  t.pos <- 0;
  t.count <- 0
