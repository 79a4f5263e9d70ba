(* The repository's end-to-end benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe spread RESULT_FILE... [-- RESULT_FILE...]

   A run prints the host it ran on, its correctness checks, one "metric"
   line per metric (name, value, unit, sample count) and, last, the result
   object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones below; with --trace 1 the per-layer
   ones, after a per-layer table. Run it through perfbench/run.sh, which
   builds this program and ic-lab from the checkout first.

   "spread" reads saved outputs of runs and prints, per end-to-end metric,
   the median and the quartile spread across them against the metric's
   bound; after "--", a second set is judged against the first's medians. *)

let workloads = [ "stream-geant-ic"; "stream-totem-plugin-faulty"; "serve-geant-mixed" ]

(* name, unit, better, bound: kept equal to BENCHMARK.json. *)
let end_to_end =
  [
    ("setup_s", "s", `Lower, 0.25);
    ("latency_p50_us", "us", `Lower, 0.25);
    ("latency_p90_us", "us", `Lower, 0.25);
    ("throughput_per_s", "1/s", `Higher, 0.25);
    ("cpu_us_per_op", "us", `Lower, 0.25);
    ("rel_l2_mean", "ratio", `Lower, 0.05);
    ("rss_peak_mb", "MiB", `Lower, 0.1);
    ("ok_frac", "frac", `Higher, 0.001);
  ]

(* name, unit: kept equal to BENCHMARK.json. A layer a workload does not
   exercise reads 0. *)
let per_layer =
  [
    ("feed.next_us.p50", "us");
    ("source.publish_us.mean", "us");
    ("engine.step_us.p50", "us");
    ("engine.alloc_words_per_bin", "words");
    ("engine.refit_bin_ms.p50", "ms");
    ("engine.refit_share", "share");
    ("refit.count", "count");
    ("engine.ingest_us.p50", "us");
    ("engine.prior_us.p50", "us");
    ("engine.estimate_us.p50", "us");
    ("engine.ipf_us.p50", "us");
    ("engine.unattributed_share", "share");
    ("tomogravity.factorize_us.p50", "us");
    ("tomogravity.solve_us.p50", "us");
    ("tomogravity.clamp_us.p50", "us");
    ("fastpath.hit_ratio", "share");
    ("ipf.iterations_per_bin", "count");
    ("estimate.clamped_per_bin", "count");
    ("degrade.transitions", "count");
    ("polls.imputed", "count");
    ("wire.decode_us.mean", "us");
    ("wire.encode_us.latest_tm.mean", "us");
    ("wire.encode_us.whatif.mean", "us");
    ("wire.response_bytes.mean", "bytes");
    ("handler.handle_us.ping.mean", "us");
    ("handler.handle_us.latest_tm.mean", "us");
    ("handler.handle_us.od_flow.mean", "us");
    ("handler.handle_us.topology.mean", "us");
    ("handler.handle_us.whatif.mean", "us");
    ("transport_us.p50", "us");
    ("loadgen.lateness_us.p50", "us");
    ("loadgen.lateness_us.p90", "us");
    ("op.unattributed_share", "share");
    ("trace.overhead_share", "share");
  ]

let run ~workload ~seed ~seconds ~trace =
  Printf.printf "host   %s\n%!" (Host.describe ~workload ~seed ~seconds ~trace);
  let report = Report.create () in
  let stream spec =
    if trace then Stream.run_traced report spec ~seed ~seconds
    else (Stream.run_untraced report spec ~seed ~seconds; [])
  in
  let layers =
    match workload with
    | "stream-geant-ic" -> stream Stream.geant_ic
    | "stream-totem-plugin-faulty" -> stream Stream.totem_plugin_faulty
    | "serve-geant-mixed" ->
        if trace then Serve.run_traced report ~seed ~seconds
        else (Serve.run_untraced report ~seed ~seconds; [])
    | other -> failwith ("unknown workload " ^ other)
  in
  if trace then
    List.iter
      (fun (name, unit_) ->
        let v = Option.value ~default:0. (List.assoc_opt name layers) in
        Report.metric report ~name ~unit_ ~n:1 v)
      per_layer;
  Report.finish report

(* --- spread ------------------------------------------------------------- *)

(* The metrics of the result object on the last such line of a run's
   output. *)
let read_result path =
  let lines = In_channel.with_open_bin path In_channel.input_lines in
  let line =
    List.fold_left
      (fun acc l -> if String.starts_with ~prefix:"{\"correct\"" l then Some l else acc)
      None lines
  in
  match line with
  | None -> failwith (path ^ ": no result line")
  | Some l ->
      let ib =
        Scanf.sscanf l "{\"correct\": %_B, \"attempted\": %_d, \"failed\": %_d, \"metrics\": {%[^\n]"
          Scanf.Scanning.from_string
      in
      let rec go acc =
        match Scanf.bscanf ib " %S: {\"value\": %f, \"unit\": %S}%s@," (fun n v _ _ -> (n, v)) with
        | m -> go (m :: acc)
        | exception (Scanf.Scan_failure _ | End_of_file) -> List.rev acc
      in
      go []

let spread files =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | f :: rest -> split (f :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let base, head = split [] files in
  let base_r = List.map read_result base and head_r = List.map read_result head in
  let values rs name = Array.of_list (List.filter_map (List.assoc_opt name) rs) in
  Printf.printf "%-18s %4s %14s %9s %7s %s\n" "metric" "n" "median" "spread" "bound"
    (if head = [] then "verdict" else "second median: worse by");
  let bad = ref false in
  List.iter
    (fun (name, _, better, bound) ->
      let a = values base_r name in
      if Array.length a >= 2 then begin
        let med = Stats.median a and sp = Stats.quartile_spread a in
        let verdict =
          if head = [] then
            if name = "setup_s" then "(not bounded)"
            else if sp <= bound /. 3. then "steady"
            else if sp <= bound then "within bound"
            else (bad := true; "WIDER THAN BOUND")
          else begin
            let b = Stats.median (values head_r name) in
            let worse = match better with `Lower -> (b -. med) /. med | `Higher -> (med -. b) /. med in
            if worse > bound then bad := true;
            Printf.sprintf "%+.4f (%s)" worse (if worse > bound then "REGRESSION" else "ok")
          end
        in
        Printf.printf "%-18s %4d %14.6g %9.4f %7.3f %s\n" name (Array.length a) med sp bound
          verdict
      end)
    end_to_end;
  if !bad then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "spread" :: files -> spread files
  | _ ->
      let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
      Arg.parse
        [
          ("--workload", Arg.Set_string workload, String.concat "|" workloads);
          ("--seed", Arg.Set_int seed, "input seed");
          ("--seconds", Arg.Set_int seconds, "measured seconds");
          ("--trace", Arg.Set_int trace, "0: end-to-end metrics; 1: per-layer metrics");
        ]
        (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
        "main.exe --workload NAME --seed N --seconds S --trace 0|1";
      if not (List.mem !workload workloads) then begin
        prerr_endline ("--workload must be one of " ^ String.concat ", " workloads);
        exit 2
      end;
      run ~workload:!workload ~seed:!seed ~seconds:(max 1 !seconds) ~trace:(!trace = 1)
