(* Standard reflected CRC-32. The byte table is computed once at
   module initialisation; lookups keep the per-byte cost to one shift,
   one xor and one load. All arithmetic is in the native int (the
   checksum fits 32 bits), masked on exit. *)

let table =
  let poly = 0xEDB88320 in
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 = 1 then c := poly lxor (!c lsr 1) else c := !c lsr 1
      done;
      !c)

(* [string_crc] and [bytes_crc] are the same loop over the two
   buffer types, so neither caller converts one into the other. *)
let string_crc s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.string_crc: slice out of range";
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc := table.((!crc lxor Char.code s.[i]) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF land 0xFFFFFFFF

let bytes_crc b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.bytes_crc: slice out of range";
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc :=
      table.((!crc lxor Char.code (Bytes.get b i)) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF land 0xFFFFFFFF
