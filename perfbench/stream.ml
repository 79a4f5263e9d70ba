(* The two closed-loop stream workloads: every bin runs Feed.next ->
   Engine.step -> Source.publish as fast as the engine accepts bins. *)

module Engine = Ic_runtime.Engine
module Feed = Ic_runtime.Feed
module Telemetry = Ic_runtime.Telemetry
module Degrade = Ic_runtime.Degrade
module Source = Ic_serve.Source
module Trace = Ic_obs.Trace
module Tm = Ic_traffic.Tm
module Series = Ic_traffic.Series
module Dataset = Ic_datasets.Dataset

type spec = {
  dataset : [ `Geant | `Totem ];
  calibrate : bool;
      (** fit stable-fP on week 0 and replay week 1 from that calibration;
          otherwise replay week 0 from a cold engine *)
  drop_rate : float;
  corrupt_rate : float;
  estimator : string;
}

let geant_ic =
  { dataset = `Geant; calibrate = true; drop_rate = 0.; corrupt_rate = 0.; estimator = "ic" }

let totem_plugin_faulty =
  {
    dataset = `Totem;
    calibrate = false;
    drop_rate = 0.02;
    corrupt_rate = 0.01;
    estimator = "tomogravity";
  }

type world = {
  routing : Ic_topology.Routing.t;
  series : Series.t;  (** the replayed week: the feed's ground truth *)
  config : Engine.config;
  feed_seed : int;
  bins_per_day : int;
}

(* The dataset is fixed (its generator's default seed); the benchmark's
   seed drives the feed's noise, drops and corruption. *)
let setup spec ~seed =
  let feed_seed = Seeds.derive seed "feed" in
  let ds =
    match spec.dataset with
    | `Geant -> Ic_datasets.Geant.generate ~weeks:2 ()
    | `Totem -> Ic_datasets.Totem.generate ~weeks:1 ()
  in
  let routing = Ic_topology.Routing.build ds.Dataset.graph in
  let series, initial_params =
    if spec.calibrate then begin
      let fitted = Ic_core.Fit.fit_stable_fp (Dataset.week ds 0) in
      let p = fitted.Ic_core.Fit.params in
      (Dataset.week ds 1, Some (p.Ic_core.Params.f, Array.copy p.preference))
    end
    else (Dataset.week ds 0, None)
  in
  let binning = series.Series.binning in
  let config =
    {
      (Engine.default_config routing binning) with
      Engine.initial_params;
      estimator = spec.estimator;
    }
  in
  {
    routing;
    series;
    config;
    feed_seed;
    bins_per_day = Ic_timeseries.Timebin.bins_per_day binning;
  }

(* Bit pattern digest of one estimate. *)
let digest (tm : Tm.t) =
  Array.fold_left
    (fun h x ->
      let b = Int64.bits_of_float x in
      let h = (h lxor Int64.to_int b) * 0x100000001b3 in
      (h lxor Int64.to_int (Int64.shift_right_logical b 32)) * 0x100000001b3)
    0x4bf29ce484222325 (Tm.unsafe_data tm)

let valid (tm : Tm.t) =
  Array.for_all (fun x -> Float.is_finite x && x >= 0.) (Tm.unsafe_data tm)

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type pass = {
  tracer : Trace.t;
  count_alloc : bool;
  lat_us : Samples.t;  (** feed poll to published estimate, per bin *)
  yard_us : Samples.t;  (** one yardstick timed after each bin *)
  mutable hashes : int list;  (** per-bin estimate digests, newest first *)
  mutable bins : int;
  mutable failed : int;  (** bins whose estimate is not finite and >= 0 *)
  mutable epochs : int;  (** complete replays of the week *)
  rel_l2 : Samples.t;  (** per bin of the first replay *)
  mutable cpu_s : float;  (** process CPU over the whole run of passes *)
  mutable alloc_words : float;  (** words allocated inside Engine.step *)
  counters : (string, int) Hashtbl.t;  (** engine + feed counters, summed *)
  layers : Layers.t;
}

(* With an enabled [tracer] every bin runs under a "bin" root span and the
   spans are folded into [layers] after the bin's clock has stopped. *)
let pass ?(tracer = Trace.noop) ?(count_alloc = false) () =
  {
    tracer;
    count_alloc;
    lat_us = Samples.create ();
    yard_us = Samples.create ();
    hashes = [];
    bins = 0;
    failed = 0;
    epochs = 0;
    rel_l2 = Samples.create ();
    cpu_s = 0.;
    alloc_words = 0.;
    counters = Hashtbl.create 32;
    layers = Layers.create ();
  }

(* One pass's engine, feed and publishing slot for one replay of the week. *)
type lane = {
  p : pass;
  telemetry : Telemetry.t;
  engine : Engine.t;
  feed : Feed.t;
  source : Source.t;
}

let open_lane world spec p =
  let telemetry = Telemetry.create () in
  {
    p;
    telemetry;
    engine = Engine.create ~telemetry ~tracer:p.tracer world.config;
    feed =
      Feed.create ~noise_sigma:0.01 ~drop_rate:spec.drop_rate
        ~corrupt_rate:spec.corrupt_rate ~telemetry world.routing world.series
        ~seed:world.feed_seed;
    source = Source.create world.routing;
  }

let close_lane ~complete l =
  if complete then l.p.epochs <- l.p.epochs + 1;
  List.iter
    (fun (name, v) ->
      Hashtbl.replace l.p.counters name
        (v + Option.value ~default:0 (Hashtbl.find_opt l.p.counters name)))
    (Telemetry.counters l.telemetry)

let alloc_probe = let a = alloc_words () in alloc_words () -. a

let step_lane world l k =
  let p = l.p and tracer = l.p.tracer in
  let refits = Telemetry.count l.telemetry "refit.count" in
  let t0 = Unix.gettimeofday () in
  let out =
    Trace.with_span tracer "bin" (fun () ->
        let loads, missing =
          Trace.with_span tracer "Feed.next" (fun () -> Option.get (Feed.next l.feed))
        in
        let a = if p.count_alloc then alloc_words () else 0. in
        let out =
          Trace.with_span tracer "Engine.step" (fun () ->
              Engine.step l.engine ~loads ~missing)
        in
        if p.count_alloc then
          p.alloc_words <- p.alloc_words +. (alloc_words () -. a -. alloc_probe);
        Trace.with_span tracer "Source.publish" (fun () ->
            Source.publish l.source ~bin:k ~level:(Degrade.rank out.Engine.level)
              out.Engine.estimate);
        out)
  in
  let t1 = Unix.gettimeofday () in
  Samples.add p.lat_us ((t1 -. t0) *. 1e6);
  let est = out.Engine.estimate in
  if not (valid est) then p.failed <- p.failed + 1;
  p.hashes <- digest est :: p.hashes;
  if p.epochs = 0 then
    Samples.add p.rel_l2 (Ic_traffic.Error.rel_l2_temporal (Series.tm world.series k) est);
  if Trace.enabled tracer then begin
    let spans = Trace.spans tracer in
    Trace.clear tracer;
    Layers.absorb p.layers spans;
    let refit_bin = Telemetry.count l.telemetry "refit.count" > refits in
    List.iter
      (fun (s : Trace.span) ->
        if s.name = "Engine.step" then
          Layers.sample p.layers
            (if refit_bin then "Engine.step/refit" else "Engine.step/fast")
            (s.dur_ns /. 1e3))
      spans
  end;
  p.bins <- p.bins + 1

(* Stream whole days through fresh engines, one complete replay of the
   week after another, until [stop] holds for the first pass at a day
   boundary. Several passes run in lockstep: each bin steps every pass's
   own engine over its own copy of the feed, alternating which goes first,
   so a slow drift of the host hits all of them alike. After each bin one
   yardstick is timed, to read the host's speed at that bin. *)
let run_passes world spec passes ~stop =
  let epoch_len = Series.length world.series in
  let cpu0 = Host.self_cpu_seconds () in
  let go = ref true in
  while !go do
    let lanes = List.map (open_lane world spec) passes in
    let k = ref 0 in
    while !go && !k < epoch_len do
      if !k mod world.bins_per_day = 0 && stop (List.hd passes) then go := false
      else begin
        List.iter
          (fun l -> step_lane world l !k)
          (if !k land 1 = 0 then lanes else List.rev lanes);
        let y = Yardstick.time_us () in
        List.iter (fun p -> Samples.add p.yard_us y) passes;
        incr k
      end
    done;
    List.iter (close_lane ~complete:(!k = epoch_len)) lanes
  done;
  let cpu = Host.self_cpu_seconds () -. cpu0 in
  List.iter (fun p -> p.cpu_s <- cpu) passes

let run_pass ?tracer world spec ~stop =
  let p = pass ?tracer () in
  run_passes world spec [ p ] ~stop;
  p

let counter p name = Option.value ~default:0 (Hashtbl.find_opt p.counters name)

let hashes p = Array.of_list (List.rev p.hashes)

(* Every bin of [b] matches the same bin of [a] (compared over their
   common prefix, which is all of the shorter pass). *)
let same_estimates a b =
  let ha = hashes a and hb = hashes b in
  let n = min (Array.length ha) (Array.length hb) in
  n > 0
  &&
  let ok = ref true in
  for i = 0 to n - 1 do
    if ha.(i) <> hb.(i) then ok := false
  done;
  !ok

(* Every complete replay of the week repeats the first one bit for bit. *)
let replays_repeat world p =
  let h = hashes p in
  let len = Series.length world.series in
  let ok = ref true in
  Array.iteri (fun i x -> if i >= len && x <> h.(i mod len) then ok := false) h;
  !ok

let elapsed_since t0 = Unix.gettimeofday () -. t0

(* Set up as often as Report.another_setup asks, keeping only the last
   world (so that rss_peak_mb sees one) and every calibration. *)
let timed_setups spec ~seed =
  let rec go last durations params spent =
    if Report.another_setup ~done_:(List.length durations) ~spent then begin
      let t0 = Unix.gettimeofday () in
      let w = setup spec ~seed in
      let d = elapsed_since t0 in
      go (Some w) (d :: durations) (w.config.Engine.initial_params :: params) (spent +. d)
    end
    else (Option.get last, Array.of_list durations, params)
  in
  let world, durations, params = go None [] [] 0. in
  (world, durations, List.for_all (( = ) world.config.Engine.initial_params) params)

let run_untraced report spec ~seed ~seconds =
  let world, setups, same_calibration = timed_setups spec ~seed in
  Report.check report same_calibration "set-up is deterministic (%d calibrations identical)"
    (Array.length setups);
  let t0 = Unix.gettimeofday () in
  (* Peak RSS is read once the first replay of the week is done: set-up
     and one week are the same work on every run, while the bins after it
     (and the benchmark's own per-bin records) grow with the host's speed,
     which moved the whole run's peak by 2-5 MiB on Totem. *)
  let rss = ref None in
  let p =
    run_pass world spec ~stop:(fun p ->
        if p.epochs >= 1 && !rss = None then rss := Some (Host.rss_peak_mb "self");
        p.epochs >= 1 && elapsed_since t0 >= float_of_int seconds)
  in
  (* Tracing must not change numerics: replay the first two days traced
     and compare every estimate's bits with the untraced pass. *)
  let check_bins = 2 * world.bins_per_day in
  let traced =
    run_pass ~tracer:(Trace.create ~capacity:256 ()) world spec ~stop:(fun q ->
        q.bins >= check_bins)
  in
  report.Report.attempted <- p.bins + traced.bins;
  report.Report.failed <- p.failed + traced.failed;
  Report.check report (p.failed + traced.failed = 0)
    "every estimate finite and non-negative (%d bins)" (p.bins + traced.bins);
  Report.check report (same_estimates p traced)
    "traced replay of %d bins bit-identical to the untraced pass" traced.bins;
  Report.check report (replays_repeat world p)
    "%d replays of the week bit-identical to each other" p.epochs;
  let lat = Stats.sorted (Samples.to_array p.lat_us) in
  let n = Array.length lat in
  (* Timings are reported in yardstick terms (see Yardstick): on a shared
     VM raw bin times of the same code moved by up to 2x between runs, as
     the host's speed did. Latencies: each bin scaled by the yardsticks
     timed around it, then the p50 and p90 of each day of bins (each day on
     Géant holds one refit), averaged over the days; the percentile inside
     a day resists a stall. Throughput, CPU and set-up: scaled by the mean
     yardstick of the run, since a refit bin or a set-up outlasts the
     yardsticks next to it. Over three sets of ten runs on Géant, set-ups
     scaled so had medians within 0.03 of each other; scaled by yardsticks
     timed just before and after each set-up, within 0.17. *)
  let yard = Samples.to_array p.yard_us in
  let scaled = Yardstick.scale (Samples.to_array p.lat_us) ~yard in
  let over_days times q =
    let d = world.bins_per_day in
    Stats.mean
      (Array.init (n / d) (fun day -> Stats.percentile (Stats.sorted (Array.sub times (day * d) d)) q))
  in
  let speed = Yardstick.nominal_us /. Stats.mean yard in
  let engine_s = Samples.sum p.lat_us /. 1e6 in
  (* This process's CPU over the pass, less the yardsticks' time. *)
  let cpu_s = p.cpu_s -. (Samples.sum p.yard_us /. 1e6) in
  Report.latency ~label:"bin" lat;
  Report.info "bins %d over %d complete replays of %d bins; digest %x" p.bins
    p.epochs (Series.length world.series)
    (List.fold_left (fun h x -> (h * 31) + x) 0 p.hashes land 0xffffffffffff);
  Report.info "refits %d, fastpath hit/update/refactorize %d/%d/%d"
    (counter p "refit.count") (counter p "fastpath.hit") (counter p "fastpath.update")
    (counter p "fastpath.refactorize");
  Report.info "bins per prior rung: %s"
    (String.concat ", "
       (Hashtbl.fold
          (fun name v acc ->
            if String.starts_with ~prefix:"bins.at." name then
              Printf.sprintf "%s %d" (String.sub name 8 (String.length name - 8)) v :: acc
            else acc)
          p.counters []
       |> List.sort compare));
  Report.info
    "as the host ran: yardstick mean %.2f us; set-up %.4f s; per day p50 %.2f us, p90 %.2f us; %.1f bins/s; CPU %.2f us per bin"
    (Stats.mean yard) (Stats.median setups)
    (over_days (Samples.to_array p.lat_us) 50.) (over_days (Samples.to_array p.lat_us) 90.)
    (float_of_int n /. engine_s) (cpu_s *. 1e6 /. float_of_int n);
  let m = Report.metric report in
  m ~name:"setup_s" ~unit_:"s" ~n:(Array.length setups) (Stats.median setups *. speed);
  m ~name:"latency_p50_us" ~unit_:"us" ~n (over_days scaled 50.);
  m ~name:"latency_p90_us" ~unit_:"us" ~n (over_days scaled 90.);
  m ~name:"throughput_per_s" ~unit_:"1/s" ~n (float_of_int n /. (engine_s *. speed));
  m ~name:"cpu_us_per_op" ~unit_:"us" ~n (cpu_s *. 1e6 *. speed /. float_of_int n);
  m ~name:"rel_l2_mean" ~unit_:"ratio" ~n:(Samples.length p.rel_l2)
    (Stats.mean (Samples.to_array p.rel_l2));
  m ~name:"rss_peak_mb" ~unit_:"MiB" ~n:1 (Option.get !rss);
  m ~name:"ok_frac" ~unit_:"frac" ~n:report.Report.attempted
    (1. -. (float_of_int report.Report.failed /. float_of_int (max 1 report.Report.attempted)))

let run_traced report spec ~seed ~seconds =
  let world = setup spec ~seed in
  let t0 = Unix.gettimeofday () in
  let plain = pass ~count_alloc:true () in
  let traced = pass ~tracer:(Trace.create ~capacity:4096 ()) () in
  run_passes world spec [ plain; traced ] ~stop:(fun _ ->
      elapsed_since t0 >= float_of_int seconds);
  report.Report.attempted <- plain.bins + traced.bins;
  report.Report.failed <- plain.failed + traced.failed;
  Report.check report (plain.failed + traced.failed = 0)
    "every estimate finite and non-negative (%d bins)" (plain.bins + traced.bins);
  Report.check report
    (same_estimates plain traced && plain.bins = traced.bins)
    "traced pass of %d bins bit-identical to the untraced pass" traced.bins;
  let l = traced.layers in
  Layers.print_table l ~root:"bin";
  let bins = float_of_int traced.bins in
  let per_bin name = float_of_int (counter traced name) /. bins in
  let fp_total =
    counter traced "fastpath.hit" + counter traced "fastpath.update"
    + counter traced "fastpath.refactorize"
  in
  let step_total = Layers.total l "engine.step" in
  [
    ("feed.next_us.p50", Layers.p50 l "Feed.next");
    ("source.publish_us.mean", Layers.mean l "Source.publish");
    ("engine.step_us.p50", Layers.p50 l "Engine.step/fast");
    ("engine.alloc_words_per_bin", plain.alloc_words /. float_of_int plain.bins);
    ("engine.refit_bin_ms.p50", Layers.p50 l "Engine.step/refit" /. 1e3);
    ("engine.refit_share", Layers.share (Layers.total l "engine.refit") (Layers.total l "Engine.step"));
    ("refit.count", float_of_int (counter traced "refit.count"));
    ("engine.ingest_us.p50", Layers.p50 l "engine.ingest");
    ("engine.prior_us.p50", Layers.p50 l "engine.prior");
    ("engine.estimate_us.p50", Layers.p50 l "engine.estimate");
    ("engine.ipf_us.p50", Layers.p50 l "engine.ipf");
    ("engine.unattributed_share", Layers.share (Layers.self l "engine.step") step_total);
    ("tomogravity.factorize_us.p50", Layers.p50 l "tomogravity.factorize");
    ("tomogravity.solve_us.p50", Layers.p50 l "tomogravity.solve");
    ("tomogravity.clamp_us.p50", Layers.p50 l "tomogravity.clamp");
    ( "fastpath.hit_ratio",
      Layers.share (float_of_int (counter traced "fastpath.hit")) (float_of_int fp_total) );
    ("ipf.iterations_per_bin", per_bin "ipf.iterations");
    ("estimate.clamped_per_bin", per_bin "estimate.clamped_entries");
    ("degrade.transitions", float_of_int (counter traced "degrade.down" + counter traced "degrade.up"));
    ("polls.imputed", float_of_int (counter traced "polls.imputed"));
    ("op.unattributed_share", Layers.share (Layers.self l "bin") (Layers.total l "bin"));
    ( "trace.overhead_share",
      (Samples.sum traced.lat_us /. Samples.sum plain.lat_us) -. 1. );
  ]
