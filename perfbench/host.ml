(* Where a result was measured, and process-level resource readings. *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

(* The checkout's commit, read from .git without running git (a checkout
   without .git reports "unknown"). *)
let commit () =
  let trim = Option.map String.trim in
  match trim (read_file ".git/HEAD") with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match trim (read_file (".git/" ^ r)) with
      | Some sha -> sha
      | None -> (
          let packed = Option.value ~default:"" (read_file ".git/packed-refs") in
          let hit =
            List.find_map
              (fun line ->
                match String.split_on_char ' ' line with
                | [ sha; name ] when name = r -> Some sha
                | _ -> None)
              (String.split_on_char '\n' packed)
          in
          match hit with Some sha -> sha | None -> "unknown"))
  | Some sha -> sha

(* Online CPUs of the host; the benchmark itself may be pinned to fewer,
   which [Domain.recommended_domain_count] reports. *)
let nproc () =
  match read_file "/proc/cpuinfo" with
  | Some info ->
      List.length
        (List.filter (String.starts_with ~prefix:"processor") (String.split_on_char '\n' info))
  | None -> Domain.recommended_domain_count ()

let describe ~workload ~seed ~seconds ~trace =
  Printf.sprintf
    "{\"workload\": %S, \"seed\": %d, \"seconds\": %d, \"trace\": %d, \
     \"nproc\": %d, \"usable_cpus\": %d, \"ocaml\": %S, \"commit\": %S}"
    workload seed seconds
    (if trace then 1 else 0)
    (nproc ()) (Domain.recommended_domain_count ())
    Sys.ocaml_version (commit ())

(* Peak resident set (VmHWM) of a process, MiB; [pid] "self" for this one. *)
let rss_peak_mb pid =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> failwith "no /proc status: cannot read the peak resident set"
  | Some status ->
      let line =
        List.find
          (String.starts_with ~prefix:"VmHWM:")
          (String.split_on_char '\n' status)
      in
      Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.)

(* User + system CPU seconds of another process, from /proc/<pid>/stat
   (fields 14 and 15, in USER_HZ = 100 ticks per second). *)
let cpu_seconds pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> failwith "no /proc stat: cannot read the server's CPU time"
  | Some stat ->
      let after = String.rindex stat ')' + 2 in
      let fields =
        String.split_on_char ' ' (String.sub stat after (String.length stat - after))
      in
      (* fields.(0) is field 3 (state); utime and stime are fields 14, 15. *)
      let utime = float_of_string (List.nth fields 11)
      and stime = float_of_string (List.nth fields 12) in
      (utime +. stime) /. 100.

let self_cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
