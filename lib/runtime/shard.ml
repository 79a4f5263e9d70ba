module Tm = Ic_traffic.Tm
module Trace = Ic_obs.Trace

type spec = { name : string; config : Engine.config; feed : Feed.t }

(* All mutable per-shard state lives in this record. During a parallel
   round exactly one domain owns a given shard (Pool.map with chunk:1 over
   shard indices), which is also what keeps the engine's telemetry sink
   single-writer. *)
type shard = {
  name : string;
  feed : Feed.t;
  engine : Engine.t;
  mutable rev_estimates : Tm.t list;
  mutable rev_levels : Degrade.level list;
  mutable clamped : int;
  mutable consumed : int;
  mutable exhausted : bool;
}

type t = { pool : Ic_parallel.Pool.t; tracer : Trace.t; shards : shard array }

(* Shard names key the line-oriented fleet checkpoint, so any character
   that could split or pad a header line is rejected — including newlines,
   which would desynchronize the embedded line counts. *)
let has_space s =
  String.exists (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\r') s

let validate_names (specs : spec list) =
  if specs = [] then invalid_arg "Shard.create: empty shard list";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (s : spec) ->
      if s.name = "" || has_space s.name then
        invalid_arg "Shard.create: shard names must be non-empty, no spaces";
      if Hashtbl.mem seen s.name then
        invalid_arg ("Shard.create: duplicate shard name " ^ s.name);
      Hashtbl.add seen s.name ())
    specs

let of_engine (spec : spec) engine =
  {
    name = spec.name;
    feed = spec.feed;
    engine;
    rev_estimates = [];
    rev_levels = [];
    clamped = 0;
    consumed = 0;
    exhausted = false;
  }

let create ?(tracer = Trace.noop) ~pool specs =
  validate_names specs;
  let shards =
    List.map
      (fun (s : spec) -> of_engine s (Engine.create ~tracer s.config))
      specs
  in
  { pool; tracer; shards = Array.of_list shards }

let names t = Array.to_list (Array.map (fun s -> s.name) t.shards)

let engines t = Array.to_list (Array.map (fun s -> (s.name, s.engine)) t.shards)

(* Advance one shard by up to [budget] bins. Sequential within the shard;
   called from at most one domain at a time. *)
let advance shard budget =
  let taken = ref 0 in
  while !taken < budget && not shard.exhausted do
    match Feed.next shard.feed with
    | None -> shard.exhausted <- true
    | Some (loads, missing) ->
        let out = Engine.step shard.engine ~loads ~missing in
        shard.rev_estimates <- out.Engine.estimate :: shard.rev_estimates;
        shard.rev_levels <- out.Engine.level :: shard.rev_levels;
        shard.clamped <- shard.clamped + out.Engine.clamped;
        shard.consumed <- shard.consumed + 1;
        incr taken
  done

let results t =
  List.map
    (fun shard ->
      ( shard.name,
        {
          Replay.estimates = Array.of_list (List.rev shard.rev_estimates);
          levels = Array.of_list (List.rev shard.rev_levels);
          clamped = shard.clamped;
        } ))
    (Array.to_list t.shards)

let run ?max_bins ?(round_bins = 32) t =
  if round_bins < 1 then invalid_arg "Shard.run: round_bins must be >= 1";
  let budget shard =
    let cap =
      match max_bins with
      | None -> round_bins
      | Some m -> min round_bins (m - shard.consumed)
    in
    if shard.exhausted then 0 else max 0 cap
  in
  let live () = Array.exists (fun s -> budget s > 0) t.shards in
  let round = ref 0 in
  while live () do
    (* One multiplexing round: every shard with budget advances
       concurrently, one pool task per shard. *)
    Trace.with_span t.tracer "shard.round"
      ~attrs:[ ("round", string_of_int !round) ]
      (fun () ->
        ignore
          (Ic_parallel.Pool.map t.pool ~chunk:1 ~n:(Array.length t.shards)
             (fun ~slot:_ i ->
               let shard = t.shards.(i) in
               Trace.with_span t.tracer "shard.advance"
                 ~attrs:[ ("shard", shard.name) ]
                 (fun () -> advance shard (budget shard)))));
    incr round
  done;
  results t

let sinks t =
  Array.to_list
    (Array.map (fun s -> (s.name, Engine.telemetry s.engine)) t.shards)

let merged_counters t = Telemetry.merged (sinks t)

let merged_dump t = Telemetry.merged_dump (sinks t)

(* --- fleet checkpoint ---------------------------------------------------

   One atomic file for the whole fleet:

     ic-runtime-shards v1
     shards <n>
     shard <name> <lines>
     <lines lines of the embedded ic-runtime-checkpoint v1 text>
     ... (n times, in spec order)
     end

   Embedding by line count keeps the engine codec opaque here: whatever
   Checkpoint.encode produces is carried verbatim and handed back to
   Checkpoint.decode on restore. *)

let fleet_magic = "ic-runtime-shards v1"

let count_lines text =
  (* encode output is newline-terminated; its line count is the number of
     '\n' characters. *)
  String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 text

let save ~path t =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf fleet_magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "shards %d\n" (Array.length t.shards));
  Array.iter
    (fun shard ->
      let text = Checkpoint.encode (Engine.snapshot shard.engine) in
      Buffer.add_string buf
        (Printf.sprintf "shard %s %d\n" shard.name (count_lines text));
      Buffer.add_string buf text)
    t.shards;
  Buffer.add_string buf "end\n";
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (match output_string oc (Buffer.contents buf) with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      raise e);
  Sys.rename tmp path

let load ?(tracer = Trace.noop) ~path ~pool specs =
  match validate_names specs with
  | exception Invalid_argument msg -> Error ("shards: " ^ msg)
  | () ->
      if not (Sys.file_exists path) then
        Error (Printf.sprintf "shards: no such file %s" path)
      else begin
        let ic = open_in_bin path in
        let len = in_channel_length ic in
        let text = really_input_string ic len in
        close_in ic;
        let lines = Array.of_list (String.split_on_char '\n' text) in
        let pos = ref 0 in
        let error = ref None in
        let fail msg = error := Some ("shards: " ^ msg) in
        let next () =
          if !pos >= Array.length lines then begin
            fail "truncated checkpoint";
            ""
          end
          else begin
            let l = lines.(!pos) in
            incr pos;
            l
          end
        in
        let snapshots = Hashtbl.create 8 in
        if next () <> fleet_magic then fail "not an ic-runtime-shards file";
        (if !error = None then
           match String.split_on_char ' ' (next ()) with
           | [ "shards"; n ] -> begin
               match int_of_string_opt n with
               | Some n when n >= 0 ->
                   let k = ref 0 in
                   while !error = None && !k < n do
                     (match String.split_on_char ' ' (next ()) with
                     | [ "shard"; name; count ] -> begin
                         match int_of_string_opt count with
                         | Some count
                           when count >= 0
                                && !pos + count <= Array.length lines ->
                             let body =
                               String.concat "\n"
                                 (Array.to_list
                                    (Array.sub lines !pos count))
                               ^ "\n"
                             in
                             pos := !pos + count;
                             if Hashtbl.mem snapshots name then
                               fail ("duplicate shard " ^ name)
                             else begin
                               match Checkpoint.decode body with
                               | Ok snap -> Hashtbl.add snapshots name snap
                               | Error e -> fail (name ^ ": " ^ e)
                             end
                         | _ -> fail "bad shard record"
                       end
                     | _ -> fail "bad shard record");
                     incr k
                   done;
                   if !error = None && next () <> "end" then
                     fail "missing end marker"
               | _ -> fail "bad shards record"
             end
           | _ -> fail "bad shards record");
        match !error with
        | Some e -> Error e
        | None ->
            if Hashtbl.length snapshots <> List.length specs then
              Error "shards: checkpoint shard set does not match specs"
            else begin
              let restore_one (spec : spec) =
                match Hashtbl.find_opt snapshots spec.name with
                | None ->
                    Error
                      ("shards: no snapshot for shard " ^ spec.name)
                | Some snap -> begin
                    match Engine.restore ~tracer spec.config snap with
                    | engine ->
                        let shard = of_engine spec engine in
                        (* The engine already consumed [bins_seen] bins of
                           an identical feed before the kill; fast-forward
                           this fresh feed past them. *)
                        Feed.skip spec.feed (Engine.bins_seen engine);
                        shard.consumed <- Engine.bins_seen engine;
                        shard.exhausted <-
                          Feed.position spec.feed >= Feed.length spec.feed;
                        Ok shard
                    | exception Invalid_argument msg ->
                        Error ("shards: " ^ spec.name ^ ": " ^ msg)
                  end
              in
              let rec build acc = function
                | [] -> Ok (List.rev acc)
                | spec :: rest -> begin
                    match restore_one spec with
                    | Ok shard -> build (shard :: acc) rest
                    | Error _ as e -> e
                  end
              in
              match build [] specs with
              | Error e -> Error e
              | Ok shards ->
                  Ok { pool; tracer; shards = Array.of_list shards }
            end
      end
