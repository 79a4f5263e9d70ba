(* Independent input seeds derived from the benchmark's one seed argument. *)
let derive seed tag = Hashtbl.hash (seed, tag) land 0x3fffffff
