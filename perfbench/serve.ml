(* The served-query workload: "ic-lab serve --workers 1" runs as a child
   process over a Unix socket, fronting a published Géant estimate, and
   this process drives one connection — first open loop at a fixed Poisson
   rate, then closed loop as fast as the server answers. *)

module Wire = Ic_serve.Wire
module Handler = Ic_serve.Handler
module Server = Ic_serve.Server
module Source = Ic_serve.Source
module Loadgen = Ic_serve.Loadgen
module Openloop = Ic_runtime.Feed.Openloop
module Engine = Ic_runtime.Engine
module Trace = Ic_obs.Trace
module Tm = Ic_traffic.Tm
module Rng = Ic_prng.Rng

let ic_lab = "_build/default/bin/ic_lab.exe"

let run_dir = ".perfbench-run"

let replay_bins = 288

let rate = 1000.

let open_share = 0.25

(* --- the server child ------------------------------------------------- *)

type child = { pid : int; out : Unix.file_descr; buf : Buffer.t; sock : string }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* Read the child's standard output until [needle] shows up, EOF, or the
   timeout; true when the needle was seen. *)
let read_until c ~needle ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let chunk = Bytes.create 4096 in
  let rec go () =
    if needle <> "" && contains (Buffer.contents c.buf) needle then true
    else
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then false
      else
        match Unix.select [ c.out ] [] [] left with
        | [], _, _ -> false
        | _ ->
            let k = Unix.read c.out chunk 0 (Bytes.length chunk) in
            if k = 0 then needle = "" else (Buffer.add_subbytes c.buf chunk 0 k; go ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let stop_child c =
  (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
  if not (read_until c ~needle:"" ~timeout:30.) then
    (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] c.pid in
  Unix.close c.out;
  (try Unix.unlink c.sock with Unix.Unix_error _ -> ());
  status

let spawn ~seed ~tag =
  if not (Sys.file_exists ic_lab) then failwith (ic_lab ^ " is not built");
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let sock = Printf.sprintf "%s/s%d-%d.sock" run_dir (Unix.getpid ()) tag in
  let args =
    [|
      ic_lab; "serve"; "--dataset"; "geant"; "--weeks"; "1"; "--seed";
      string_of_int seed; "--bins"; string_of_int replay_bins; "--socket"; sock;
      "--workers"; "1"; "--checkpoint"; ""; "--read-timeout"; "60";
    |]
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process ic_lab args Unix.stdin w Unix.stderr in
  Unix.close w;
  { pid; out = r; buf = Buffer.create 1024; sock }

(* --- the connection --------------------------------------------------- *)

type conn = { fd : Unix.file_descr; reader : Wire.reader }

let connect sock =
  let fd = Server.connect (Server.Unix_path sock) in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.;
  { fd; reader = Wire.reader fd }

let exchange conn frame =
  match Wire.write_all conn.fd frame with
  | exception Unix.Unix_error _ -> `Closed
  | () -> Wire.read_response conn.reader

(* Start the server and wait until it answers a ping; the seconds this
   takes are the serve workload's set-up time. *)
let start_server ~seed ~tag =
  let t0 = Unix.gettimeofday () in
  let c = spawn ~seed ~tag in
  if not (read_until c ~needle:"serving on" ~timeout:120.) then begin
    ignore (stop_child c);
    failwith "ic-lab serve did not start"
  end;
  let conn = connect c.sock in
  (match exchange conn (Wire.encode_request (Wire.Ping 1L)) with
  | `Response (Wire.Pong 1L) -> ()
  | _ -> failwith "ic-lab serve did not answer the first ping");
  (c, conn, Unix.gettimeofday () -. t0)

(* --- requests and their expected answers ------------------------------ *)

(* The Loadgen recipe on the benchmark's own seed: Poisson arrival times
   and flow sizes from the schedule's substreams, the query kind (weighted
   by [Loadgen.default_mix]), OD pair and ping token from its consumer
   stream; what-if scales are the drawn flow size over the mean, capped at
   100. *)
let requests ~seed ~count ~n =
  let events = Openloop.arrivals ~rate ~count ~seed () in
  let rng = Openloop.consumer_stream seed in
  let mix = Loadgen.default_mix in
  let total = List.fold_left (fun a (_, w) -> a +. w) 0. mix in
  let mean = Openloop.mean_size Openloop.dctcp in
  let pick () =
    let u = Rng.float rng *. total in
    let rec go acc = function
      | [ (kind, _) ] -> kind
      | (kind, w) :: rest -> if u < acc +. w then kind else go (acc +. w) rest
      | [] -> assert false
    in
    go 0. mix
  in
  Array.map
    (fun (ev : Openloop.event) ->
      let req =
        match pick () with
        | "ping" -> Wire.Ping (Rng.bits64 rng)
        | "latest_tm" -> Wire.Latest_tm { tenant = "" }
        | "topology" -> Wire.Topology { tenant = "" }
        | "od_flow" ->
            let src = Rng.int rng n in
            let dst = Rng.int rng n in
            Wire.Od_flow { tenant = ""; src; dst }
        | _ -> Wire.Whatif { tenant = ""; scale = Float.min 100. (ev.size /. mean) }
      in
      (ev.time, req))
    events

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_floats a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri (fun i x -> if not (same_float x b.(i)) then ok := false) a;
      !ok)

let same_response (a : Wire.response) (b : Wire.response) =
  match (a, b) with
  | Pong x, Pong y -> Int64.equal x y
  | Tm a, Tm b -> a.bin = b.bin && a.level = b.level && a.n = b.n && same_floats a.values b.values
  | Flow a, Flow b -> a.bin = b.bin && a.level = b.level && same_float a.value b.value
  | Topology_info a, Topology_info b -> a.nodes = b.nodes && a.links = b.links
  | Whatif_load a, Whatif_load b ->
      a.bin = b.bin && same_float a.scale b.scale && same_floats a.loads b.loads
  | _ -> false

type reference = {
  published : Source.published;  (** what the server must be fronting *)
  handler : Handler.t;  (** an in-process handler over the same estimate *)
  rel_l2 : float array;  (** per replayed bin, against the dataset *)
}

(* Recompute in-process what the child publishes: the same dataset, feed
   and engine configuration, replayed over the same bins. *)
let reference ~seed =
  let ds = Ic_datasets.Geant.generate ~weeks:1 ~seed () in
  let series = ds.Ic_datasets.Dataset.series in
  let routing = Ic_topology.Routing.build ds.Ic_datasets.Dataset.graph in
  let config = Engine.default_config routing series.Ic_traffic.Series.binning in
  let engine = Engine.create config in
  let feed = Ic_runtime.Feed.create routing series ~seed in
  let source = Source.create routing in
  let r =
    Ic_runtime.Replay.run ~max_bins:replay_bins
      ~on_bin:(fun ~bin out ->
        Source.publish source ~bin
          ~level:(Ic_runtime.Degrade.rank out.Engine.level)
          out.Engine.estimate)
      engine feed
  in
  let rel_l2 =
    Array.mapi
      (fun k est -> Ic_traffic.Error.rel_l2_temporal (Ic_traffic.Series.tm series k) est)
      r.Ic_runtime.Replay.estimates
  in
  { published = Option.get (Source.latest source); handler = Handler.create [ ("geant", source) ]; rel_l2 }

(* latest_tm must equal the published TM bit for bit and od_flow its
   entry; the other kinds must match the in-process handler's answer. *)
let expected ref_ req =
  let p = ref_.published in
  match req with
  | Wire.Latest_tm _ ->
      Wire.Tm { bin = p.bin; level = p.level; n = Tm.size p.tm; values = Array.copy (Tm.unsafe_data p.tm) }
  | Wire.Od_flow { src; dst; _ } ->
      Wire.Flow { bin = p.bin; level = p.level; value = Tm.get p.tm src dst }
  | _ -> Handler.handle ref_.handler req

(* --- the passes -------------------------------------------------------- *)

type tally = {
  mutable sent : int;
  mutable shed : int;
  mutable errors : int;
  mutable transport : int;
  mutable mismatched : int;
}

let failures t = t.shed + t.errors + t.transport + t.mismatched

let judge t want = function
  | `Response (Wire.Shed _) -> t.shed <- t.shed + 1
  | `Response (Wire.Error _) | `Json _ | `Malformed _ -> t.errors <- t.errors + 1
  | `Closed | `Timed_out -> t.transport <- t.transport + 1
  | `Response got -> if not (same_response want got) then t.mismatched <- t.mismatched + 1

(* Sleep until shortly before [due], then spin: a sleep alone overshoots
   by tens of microseconds typically and by milliseconds at its tail. *)
let rec wait_until due =
  let ahead = due -. Unix.gettimeofday () in
  if ahead > 5e-4 then begin
    Unix.sleepf (ahead -. 3e-4);
    wait_until due
  end
  else while Unix.gettimeofday () < due do () done

type prepared = { frame : string; req : Wire.request; want : Wire.response }

let prepare ref_ reqs =
  Array.map
    (fun (due, req) -> (due, { frame = Wire.encode_request req; req; want = expected ref_ req }))
    reqs

(* Open loop: every request is timed from when it was due, so a stall
   also charges the requests queued behind it; lateness is how far behind
   schedule the generator sent. *)
let open_pass conn tally (schedule : (float * prepared) array) =
  let lat = Samples.create () and late = Samples.create () in
  let start = Unix.gettimeofday () +. 0.01 in
  Array.iter
    (fun (at, q) ->
      let due = start +. at in
      wait_until due;
      let sent = Unix.gettimeofday () in
      let got = exchange conn q.frame in
      let done_ = Unix.gettimeofday () in
      tally.sent <- tally.sent + 1;
      judge tally q.want got;
      Samples.add lat ((done_ -. due) *. 1e6);
      Samples.add late ((sent -. due) *. 1e6))
    schedule;
  (lat, late)

(* Closed loop over a fixed pool of requests, cycled until [seconds]
   pass. Round trips are summarized per quarter second and each summary
   averaged over the windows: the percentile inside a window resists a
   stall, and the average keeps a host that switches between speed modes
   from flipping the result. A window's percentile is taken per query kind
   and weighted by the kind's share of [Loadgen.default_mix]: the median of
   the whole mix sits exactly on the step between its cheap half (ping,
   od_flow, topology: 50%) and its expensive half, so it jumps between the
   two with the sampling noise of the request stream.
   [mirror] sees each answered request after its round trip, which an
   enabled [tracer] records as a "Server.roundtrip" span. *)
type closed = { rtt : Samples.t; qps : float; p50 : float; p90 : float; windows : int }

let closed_pass ?(tracer = Trace.noop) ?(mirror = fun _ _ _ -> ()) conn tally
    (pool : prepared array) ~seconds =
  let rtt = Samples.create () in
  let rates = Samples.create () and p50s = Samples.create () and p90s = Samples.create () in
  let by_kind () = List.map (fun (kind, w) -> (kind, w, Samples.create ())) Loadgen.default_mix in
  let mixed kinds p =
    let num, den =
      List.fold_left
        (fun (num, den) (_, w, s) ->
          if Samples.length s = 0 then (num, den)
          else (num +. (w *. Stats.percentile (Stats.sorted (Samples.to_array s)) p), den +. w))
        (0., 0.) kinds
    in
    num /. den
  in
  let t0 = Unix.gettimeofday () in
  let window = ref t0 and in_window = ref 0 and kinds = ref (by_kind ()) in
  let i = ref 0 in
  while Unix.gettimeofday () -. t0 < seconds do
    let q = pool.(!i mod Array.length pool) in
    let a = Unix.gettimeofday () in
    let got = Trace.with_span tracer "Server.roundtrip" (fun () -> exchange conn q.frame) in
    let b = Unix.gettimeofday () in
    tally.sent <- tally.sent + 1;
    judge tally q.want got;
    Samples.add rtt ((b -. a) *. 1e6);
    let kind = Wire.request_kind q.req in
    List.iter (fun (k, _, s) -> if k = kind then Samples.add s ((b -. a) *. 1e6)) !kinds;
    incr in_window;
    mirror !i q got;
    incr i;
    if b -. !window >= 0.25 then begin
      Samples.add rates (float_of_int !in_window /. (b -. !window));
      Samples.add p50s (mixed !kinds 50.);
      Samples.add p90s (mixed !kinds 90.);
      window := b;
      in_window := 0;
      kinds := by_kind ()
    end
  done;
  let avg s = Stats.mean (Samples.to_array s) in
  { rtt; qps = avg rates; p50 = avg p50s; p90 = avg p90s; windows = Samples.length rates }

let schedule_for ~seed ~n ~seconds ref_ =
  let count = int_of_float (rate *. seconds) in
  prepare ref_ (requests ~seed:(Seeds.derive seed "open") ~count ~n)

let pool_for ~seed ~n ref_ =
  Array.map snd (prepare ref_ (requests ~seed:(Seeds.derive seed "closed") ~count:4096 ~n))

let finish_tally report tally =
  report.Report.attempted <- report.Report.attempted + tally.sent;
  report.Report.failed <- report.Report.failed + failures tally;
  Report.check report (failures tally = 0)
    "%d queries: %d shed, %d errors, %d transport failures, %d answers differing from the published estimate"
    tally.sent tally.shed tally.errors tally.transport tally.mismatched

let with_server ~seed ~tag f =
  let c, conn, setup_s = start_server ~seed ~tag in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close conn.fd with Unix.Unix_error _ -> ());
      ignore (stop_child c);
      try Unix.rmdir run_dir with Unix.Unix_error _ -> ())
    (fun () -> f c conn setup_s)

(* The server replays the Géant dataset under its default seed, which
   ic-lab also uses as the feed seed; the benchmark's seed drives the
   query streams. *)
let dataset_seed = Ic_datasets.Geant.default_seed

let run_untraced report ~seed ~seconds =
  (* Start the server as often as Report.another_setup asks; measure on
     the last one. *)
  let rec starts acc spent =
    if Report.another_setup ~done_:(List.length acc + 1) ~spent then begin
      let s = with_server ~seed:dataset_seed ~tag:(List.length acc) (fun _ _ s -> s) in
      starts (s :: acc) (spent +. s)
    end
    else acc
  in
  let setups = starts [] 0. in
  let ref_ = reference ~seed:dataset_seed in
  let n = Tm.size ref_.published.tm in
  let open_s = float_of_int seconds *. open_share in
  let schedule = schedule_for ~seed ~n ~seconds:open_s ref_ in
  let pool = pool_for ~seed ~n ref_ in
  with_server ~seed:dataset_seed ~tag:(List.length setups) (fun c conn setup_s ->
      let setups = Array.of_list (setups @ [ setup_s ]) in
      let tally = { sent = 0; shed = 0; errors = 0; transport = 0; mismatched = 0 } in
      let cpu0 = Host.cpu_seconds c.pid in
      let lat, late = open_pass conn tally schedule in
      let closed = closed_pass conn tally pool ~seconds:(float_of_int seconds -. open_s) in
      let cpu = Host.cpu_seconds c.pid -. cpu0 in
      let rss = Host.rss_peak_mb (string_of_int c.pid) in
      finish_tally report tally;
      let n = Samples.length closed.rtt in
      Report.latency ~label:"query (open loop, from due time)" (Stats.sorted (Samples.to_array lat));
      Report.latency ~label:"generator lateness" (Stats.sorted (Samples.to_array late));
      Report.latency ~label:"query round trip (closed loop)" (Stats.sorted (Samples.to_array closed.rtt));
      Report.info "open loop at %.0f/s: %d queries; closed loop: %d queries in %d windows"
        rate (Samples.length lat) n closed.windows;
      let m = Report.metric report in
      m ~name:"setup_s" ~unit_:"s" ~n:(Array.length setups) (Stats.median setups);
      m ~name:"latency_p50_us" ~unit_:"us" ~n closed.p50;
      m ~name:"latency_p90_us" ~unit_:"us" ~n closed.p90;
      m ~name:"throughput_per_s" ~unit_:"1/s" ~n closed.qps;
      m ~name:"cpu_us_per_op" ~unit_:"us" ~n:tally.sent (cpu *. 1e6 /. float_of_int tally.sent);
      m ~name:"rel_l2_mean" ~unit_:"ratio" ~n:(Array.length ref_.rel_l2) (Stats.mean ref_.rel_l2);
      m ~name:"rss_peak_mb" ~unit_:"MiB" ~n:1 rss;
      m ~name:"ok_frac" ~unit_:"frac" ~n:report.Report.attempted
        (1. -. (float_of_int report.Report.failed /. float_of_int (max 1 report.Report.attempted))))

(* The traced run: each closed-loop answer is also run in-process through
   Wire.decode_request -> Handler.handle -> Wire.encode_response, once
   plain and once under spans (alternating which goes first), so the
   server's layers are timed by the same calls and the round trip minus
   them is the transport. *)
let run_traced report ~seed ~seconds =
  let ref_ = reference ~seed:dataset_seed in
  let n = Tm.size ref_.published.tm in
  let open_s = float_of_int seconds *. open_share in
  let schedule = schedule_for ~seed ~n ~seconds:open_s ref_ in
  let pool = pool_for ~seed ~n ref_ in
  let layers = Layers.create () in
  let tracer = Trace.create ~capacity:64 () in
  let plain_s = ref 0. and traced_s = ref 0. and mirror_bad = ref 0 in
  let mirror i q got =
    let plain () =
      let a = Unix.gettimeofday () in
      let r = Result.get_ok (Wire.decode_request q.frame) in
      ignore (Wire.encode_response (Handler.handle ref_.handler r));
      plain_s := !plain_s +. (Unix.gettimeofday () -. a)
    in
    let traced () =
      let a = Unix.gettimeofday () in
      let r =
        Trace.with_span tracer "Wire.decode_request" (fun () ->
            Result.get_ok (Wire.decode_request q.frame))
      in
      let resp = Trace.with_span tracer "Handler.handle" (fun () -> Handler.handle ref_.handler r) in
      let bytes = Trace.with_span tracer "Wire.encode_response" (fun () -> Wire.encode_response resp) in
      traced_s := !traced_s +. (Unix.gettimeofday () -. a);
      if r <> q.req then incr mirror_bad;
      (match got with `Response g when same_response g resp -> () | _ -> incr mirror_bad);
      Layers.sample layers "wire.response_bytes" (float_of_int (String.length bytes))
    in
    if i land 1 = 0 then (plain (); traced ()) else (traced (); plain ());
    let spans = Trace.spans tracer in
    Trace.clear tracer;
    Layers.absorb layers spans;
    let dur name =
      List.fold_left
        (fun acc (s : Trace.span) -> if s.name = name then acc +. (s.dur_ns /. 1e3) else acc)
        0. spans
    in
    let kind = Wire.request_kind q.req in
    Layers.sample layers ("Handler.handle/" ^ kind) (dur "Handler.handle");
    Layers.sample layers ("Wire.encode_response/" ^ kind) (dur "Wire.encode_response");
    Layers.sample layers "transport"
      (dur "Server.roundtrip" -. dur "Wire.decode_request" -. dur "Handler.handle"
     -. dur "Wire.encode_response")
  in
  with_server ~seed:dataset_seed ~tag:0 (fun _ conn _ ->
      let tally = { sent = 0; shed = 0; errors = 0; transport = 0; mismatched = 0 } in
      let _, late = open_pass conn tally schedule in
      ignore (closed_pass ~tracer ~mirror conn tally pool ~seconds:(float_of_int seconds -. open_s));
      finish_tally report tally;
      Report.check report (!mirror_bad = 0)
        "in-process decode -> handle -> encode agrees with every served answer";
      let rtt_total = Layers.total layers "Server.roundtrip" in
      let transport_total = Layers.total_samples layers "transport" in
      Layers.print_rows ~title:"served query (closed loop)" ~root:"Server.roundtrip"
        ~total:rtt_total
        (List.map
           (fun name -> (name, Layers.count layers name, Layers.total layers name, Layers.p50 layers name))
           [ "Wire.decode_request"; "Handler.handle"; "Wire.encode_response" ]
        @ [ ("transport (unattributed)", Layers.count layers "transport", transport_total, Layers.p50 layers "transport") ]);
      let late = Stats.sorted (Samples.to_array late) in
      (* Means, not medians: these calls take about a microsecond, the
         resolution of the span clock, so their medians read 0 or 1. *)
      let mean = Layers.mean layers in
      [
        ("wire.decode_us.mean", mean "Wire.decode_request");
        ("wire.encode_us.latest_tm.mean", mean "Wire.encode_response/latest_tm");
        ("wire.encode_us.whatif.mean", mean "Wire.encode_response/whatif");
        ("wire.response_bytes.mean", mean "wire.response_bytes");
        ("handler.handle_us.ping.mean", mean "Handler.handle/ping");
        ("handler.handle_us.latest_tm.mean", mean "Handler.handle/latest_tm");
        ("handler.handle_us.od_flow.mean", mean "Handler.handle/od_flow");
        ("handler.handle_us.topology.mean", mean "Handler.handle/topology");
        ("handler.handle_us.whatif.mean", mean "Handler.handle/whatif");
        ("transport_us.p50", Layers.p50 layers "transport");
        ("loadgen.lateness_us.p50", Stats.percentile late 50.);
        ("loadgen.lateness_us.p90", Stats.percentile late 90.);
        ("op.unattributed_share", Layers.share transport_total rtt_total);
        ("trace.overhead_share", (!traced_s /. !plain_s) -. 1.);
      ])
