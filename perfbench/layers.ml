(* Per-layer accounting from trace spans: each span name is a layer (the
   benchmark's own spans carry the public module name, e.g. "Engine.step";
   the library's carry its lowercase stage name, e.g. "engine.ipf"). A
   span's self time is its duration minus the durations of its direct
   children; the root span's self time is the unattributed remainder. *)

module Trace = Ic_obs.Trace

type acc = {
  durs : Samples.t;  (** span durations, microseconds *)
  mutable self_us : float;
  mutable total_us : float;
}

type t = (string, acc) Hashtbl.t

let create () : t = Hashtbl.create 32

let acc t name =
  match Hashtbl.find_opt t name with
  | Some a -> a
  | None ->
      let a = { durs = Samples.create (); self_us = 0.; total_us = 0. } in
      Hashtbl.add t name a;
      a

(* Record a derived sample (e.g. a per-kind split of one span name) that
   does not enter the self-time table. *)
let sample t name us = Samples.add (acc t name).durs us

let absorb t (spans : Trace.span list) =
  let children = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.span) ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt children s.parent) in
      Hashtbl.replace children s.parent (prev +. s.dur_ns))
    spans;
  List.iter
    (fun (s : Trace.span) ->
      let a = acc t s.name in
      let dur = s.dur_ns /. 1e3 in
      let kids = Option.value ~default:0. (Hashtbl.find_opt children s.id) in
      Samples.add a.durs dur;
      a.total_us <- a.total_us +. dur;
      a.self_us <- a.self_us +. Float.max 0. (dur -. (kids /. 1e3)))
    spans

let count t name =
  match Hashtbl.find_opt t name with Some a -> Samples.length a.durs | None -> 0

let p50 t name =
  match Hashtbl.find_opt t name with
  | Some a when Samples.length a.durs > 0 ->
      Stats.percentile (Stats.sorted (Samples.to_array a.durs)) 50.
  | _ -> 0.

let mean t name =
  match Hashtbl.find_opt t name with
  | Some a -> Stats.mean (Samples.to_array a.durs)
  | None -> 0.

let total t name =
  match Hashtbl.find_opt t name with Some a -> a.total_us | None -> 0.

let self t name =
  match Hashtbl.find_opt t name with Some a -> a.self_us | None -> 0.

let share num den = if den > 0. then num /. den else 0.

let total_samples t name =
  match Hashtbl.find_opt t name with Some a -> Samples.sum a.durs | None -> 0.

(* Rows of (layer, count, self time in us, p50 in us), as shares of
   [total] microseconds spent in [root] operations. *)
let print_rows ~title ~root ~total rows =
  Printf.printf "layer table: %s (self time as a share of %s)\n" title root;
  Printf.printf "  %-32s %9s %12s %8s %11s\n" "layer" "count" "self_ms" "share" "p50_us";
  List.iter
    (fun (name, n, self_us, p50) ->
      Printf.printf "  %-32s %9d %12.3f %8.4f %11.2f\n" name n (self_us /. 1e3)
        (share self_us total) p50)
    rows

(* One row per span name, heaviest self time first; the root's own self
   time is the unattributed remainder. *)
let print_table t ~root =
  Hashtbl.fold (fun name a acc -> (name, a) :: acc) t []
  |> List.filter (fun (_, a) -> a.total_us > 0.)
  |> List.sort (fun (_, a) (_, b) -> Float.compare b.self_us a.self_us)
  |> List.map (fun (name, a) ->
         ( (if name = root then name ^ " (unattributed)" else name),
           Samples.length a.durs, a.self_us, p50 t name ))
  |> print_rows ~title:(root ^ " spans") ~root ~total:(total t root)
