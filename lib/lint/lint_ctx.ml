(* Per-file analysis context. The driver classifies files by path; the
   fixture tests construct contexts directly so each rule can be
   exercised on snippets that live outside the scanned tree. *)

type t = {
  file : string;  (** display path, as given to the driver *)
  core_or_broker : bool;
      (** under [lib/core], [lib/broker], [lib/store_log] or
          [lib/server]: determinism-critical code *)
  in_lib : bool;  (** under [lib/]: library code, partiality applies *)
  hot : bool;  (** file carries a floating [\[@@@problint.hot\]] attribute *)
}

let make ?(core_or_broker = false) ?(in_lib = false) ?(hot = false) ~file () =
  { file; core_or_broker; in_lib; hot }

(* Path classification for the driver: a file is determinism-critical
   when it lives under lib/core, lib/broker or lib/store_log (replaying
   a WAL must be bit-identical to the run that wrote it, so the durable
   layer is in scope — audited per-use [@problint.allow] annotations,
   never a path exemption), and library code when it lives under lib/.
   Sharding (lib/core/subscription_store.ml) sits squarely inside the
   core scope on purpose: its one-shard/n-shard equivalence contract is
   a determinism claim, so Hashtbl-order and partiality findings there
   are never waved through by path. lib/server is in scope too, even
   though a socket server is clock-driven by nature: confining the wall
   clock to the single audited read in clock.ml is exactly the property
   the rule enforces there. Paths are the relative ones handed to the
   driver (e.g. "lib/core/flat.ml"). *)
let contains_seg path seg =
  let path = "/" ^ String.concat "/" (String.split_on_char '\\' path) ^ "/" in
  let seg = "/" ^ seg ^ "/" in
  let n = String.length path and m = String.length seg in
  let rec at i = i + m <= n && (String.sub path i m = seg || at (i + 1)) in
  at 0

let classify ~file =
  {
    file;
    core_or_broker =
      contains_seg file "lib/core"
      || contains_seg file "lib/broker"
      || contains_seg file "lib/store_log"
      || contains_seg file "lib/server";
    in_lib = contains_seg file "lib";
    hot = false (* filled in from the parsed AST by the driver *);
  }
