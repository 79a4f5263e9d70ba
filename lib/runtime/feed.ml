module Vec = Ic_linalg.Vec
module Routing = Ic_topology.Routing
module Snmp = Ic_topology.Snmp
module Series = Ic_traffic.Series

module Openloop = struct
  type cdf = { sizes : float array; probs : float array }

  let make_cdf points =
    let points = Array.of_list points in
    let k = Array.length points in
    if k < 2 then invalid_arg "Openloop.make_cdf: need at least two points";
    let sizes = Array.map fst points and probs = Array.map snd points in
    if probs.(0) <> 0. then invalid_arg "Openloop.make_cdf: first prob must be 0";
    if probs.(k - 1) <> 1. then
      invalid_arg "Openloop.make_cdf: last prob must be 1";
    Array.iter
      (fun s ->
        if not (Float.is_finite s) || s < 0. then
          invalid_arg "Openloop.make_cdf: sizes must be finite and non-negative")
      sizes;
    for i = 1 to k - 1 do
      if sizes.(i) < sizes.(i - 1) then
        invalid_arg "Openloop.make_cdf: sizes must be non-decreasing";
      if probs.(i) <= probs.(i - 1) then
        invalid_arg "Openloop.make_cdf: probs must be strictly increasing"
    done;
    { sizes; probs }

  (* The DCTCP flow-size CDF from 1M production samples (the open-loop
     datacenter workload generator's empirical distribution): bytes on the
     x axis, cumulative probability on the y axis. *)
  let dctcp =
    make_cdf
      [
        (0., 0.);
        (10_000., 0.15);
        (20_000., 0.2);
        (30_000., 0.3);
        (50_000., 0.4);
        (80_000., 0.53);
        (200_000., 0.6);
        (1e6, 0.7);
        (2e6, 0.8);
        (5e6, 0.9);
        (1e7, 0.97);
        (3e7, 1.);
      ]

  let quantile cdf u =
    if not (Float.is_finite u) || u < 0. || u > 1. then
      invalid_arg "Openloop.quantile: u out of [0,1]";
    let k = Array.length cdf.probs in
    if u <= 0. then cdf.sizes.(0)
    else if u >= 1. then cdf.sizes.(k - 1)
    else begin
      (* first segment whose upper prob covers u *)
      let i = ref 1 in
      while cdf.probs.(!i) < u do
        incr i
      done;
      let p0 = cdf.probs.(!i - 1) and p1 = cdf.probs.(!i) in
      let s0 = cdf.sizes.(!i - 1) and s1 = cdf.sizes.(!i) in
      s0 +. ((s1 -. s0) *. (u -. p0) /. (p1 -. p0))
    end

  let mean_size cdf =
    (* mean of the piecewise-linear distribution: each segment contributes
       its probability mass times its midpoint size *)
    let acc = ref 0. in
    for i = 1 to Array.length cdf.probs - 1 do
      let mass = cdf.probs.(i) -. cdf.probs.(i - 1) in
      acc := !acc +. (mass *. 0.5 *. (cdf.sizes.(i) +. cdf.sizes.(i - 1)))
    done;
    !acc

  type event = { time : float; size : float }

  (* Substream layout (jump-ahead splits of the schedule seed, so the
     arrival process, the size marks, and any consumer-side draws are
     independent and replays are deterministic):
       0 -> exponential inter-arrival times
       1 -> flow-size CDF samples
       2 -> reserved for consumers (the feed's OD-pair assignment)      *)
  let substreams seed =
    let base = Ic_prng.Rng.create seed in
    (Ic_prng.Rng.split base 0, Ic_prng.Rng.split base 1)

  let consumer_stream seed = Ic_prng.Rng.split (Ic_prng.Rng.create seed) 2

  let check_rate rate =
    if not (Float.is_finite rate) || rate <= 0. then
      invalid_arg "Openloop: rate must be finite and positive"

  let arrivals ?(cdf = dctcp) ~rate ~count ~seed () =
    check_rate rate;
    if count < 0 then invalid_arg "Openloop.arrivals: negative count";
    let gaps, sizes = substreams seed in
    let t = ref 0. in
    Array.init count (fun _ ->
        t := !t +. Ic_prng.Sampler.exponential gaps ~rate;
        { time = !t; size = quantile cdf (Ic_prng.Rng.float sizes) })

  let schedule ?(cdf = dctcp) ~rate ~duration ~seed () =
    check_rate rate;
    if not (Float.is_finite duration) || duration < 0. then
      invalid_arg "Openloop.schedule: bad duration";
    let gaps, sizes = substreams seed in
    let events = ref [] in
    let t = ref (Ic_prng.Sampler.exponential gaps ~rate) in
    while !t < duration do
      events :=
        { time = !t; size = quantile cdf (Ic_prng.Rng.float sizes) } :: !events;
      t := !t +. Ic_prng.Sampler.exponential gaps ~rate
    done;
    Array.of_list (List.rev !events)
end

type breaker_config = {
  open_after : int;
  cooldown : int;
  fault_frac : float;
}

let default_breaker = { open_after = 3; cooldown = 6; fault_frac = 0.5 }

(* The breaker's state is deliberately NOT checkpointed anywhere: it is a
   pure function of the delivered stream, and a resumed run rebuilds it by
   replaying the stream through [skip] (which runs the state machine with
   counting suppressed). Keeping it replay-derived is what keeps the
   checkpoint format untouched and kill/resume bit-identical. *)
type breaker = {
  config : breaker_config;
  mutable consec : int;  (* consecutive faulted bins while closed *)
  mutable state : [ `Closed | `Open of int ];
      (* [`Open k]: k more bins carried before the half-open probe *)
  mutable last_good : Vec.t option;  (* last clean delivery, copied *)
}

type t = {
  loads : Vec.t array;  (* true per-bin link loads, precomputed *)
  snmp : Snmp.stream;
  corrupt_rate : float;
  fault_rng : Ic_prng.Rng.t;
  telemetry : Telemetry.t option;
  breaker : breaker option;
  mutable counting : bool;  (* suppressed during [skip] fast-forward *)
  mutable primed : bool;  (* the snmp stream has delivered at least once *)
  mutable pos : int;
}

(* Open-loop flow overlay: each scheduled flow lands in the bin its arrival
   time falls into, on an OD pair drawn from the schedule's consumer
   substream (uniform over distinct pairs), and its bytes ride the same
   routing matrix as the base traffic. Returns per-bin extra link loads;
   bins without arrivals share one zero vector. *)
let overlay_loads routing series ~seed (events : Openloop.event array) =
  let n = Series.size series in
  let bins = Series.length series in
  let width = float_of_int series.Series.binning.Ic_timeseries.Timebin.width_s in
  let od_rng = Openloop.consumer_stream seed in
  let per_bin = Array.make bins None in
  Array.iter
    (fun (e : Openloop.event) ->
      let bin = int_of_float (e.time /. width) in
      if bin >= 0 && bin < bins then begin
        let x =
          match per_bin.(bin) with
          | Some x -> x
          | None ->
              let x = Array.make (n * n) 0. in
              per_bin.(bin) <- Some x;
              x
        in
        let src = Ic_prng.Rng.int od_rng n in
        let dst =
          if n = 1 then src
          else begin
            let d = ref (Ic_prng.Rng.int od_rng n) in
            while !d = src do
              d := Ic_prng.Rng.int od_rng n
            done;
            !d
          end
        in
        let k = Routing.od_index ~n src dst in
        x.(k) <- x.(k) +. e.size
      end)
    events;
  let zero = Array.make (Routing.row_count routing) 0. in
  Array.map
    (function
      | None -> zero
      | Some x -> Routing.link_loads routing x)
    per_bin

let make ~noise_sigma ~drop_rate ~corrupt_rate ~telemetry ~breaker ~loads
    ~seed =
  if corrupt_rate < 0. || corrupt_rate >= 1. then
    invalid_arg "Feed: corrupt rate out of [0,1)";
  (match breaker with
  | None -> ()
  | Some c ->
      if c.open_after < 1 then
        invalid_arg "Feed: breaker open_after must be >= 1";
      if c.cooldown < 1 then invalid_arg "Feed: breaker cooldown must be >= 1";
      if c.fault_frac <= 0. || c.fault_frac > 1. then
        invalid_arg "Feed: breaker fault_frac out of (0,1]");
  let rng = Ic_prng.Rng.create seed in
  let snmp_rng = Ic_prng.Rng.fork rng in
  {
    loads;
    snmp = Snmp.stream { noise_sigma; loss_rate = drop_rate } snmp_rng;
    corrupt_rate;
    fault_rng = Ic_prng.Rng.fork rng;
    telemetry;
    breaker =
      Option.map
        (fun config ->
          { config; consec = 0; state = `Closed; last_good = None })
        breaker;
    counting = true;
    primed = false;
    pos = 0;
  }

let create ?(noise_sigma = 0.01) ?(drop_rate = 0.) ?(corrupt_rate = 0.)
    ?openloop ?telemetry ?breaker routing series ~seed =
  let g = routing.Routing.graph in
  if Series.size series <> Ic_topology.Graph.node_count g then
    invalid_arg "Feed.create: series does not match routing";
  let loads =
    Array.init (Series.length series) (fun k ->
        Routing.link_loads routing
          (Ic_traffic.Tm.to_vector (Series.tm series k)))
  in
  (match openloop with
  | None -> ()
  | Some events ->
      let extra = overlay_loads routing series ~seed events in
      Array.iteri
        (fun k y ->
          let e = extra.(k) in
          for r = 0 to Array.length y - 1 do
            y.(r) <- y.(r) +. e.(r)
          done)
        loads);
  make ~noise_sigma ~drop_rate ~corrupt_rate ~telemetry ~breaker ~loads ~seed

let of_loads ?(noise_sigma = 0.01) ?(drop_rate = 0.) ?(corrupt_rate = 0.)
    ?telemetry ?breaker loads ~seed =
  let bins = Array.length loads in
  if bins > 0 then begin
    let m = Array.length loads.(0) in
    Array.iteri
      (fun k y ->
        if Array.length y <> m then
          invalid_arg "Feed.of_loads: ragged load series";
        (* True loads are caller-computed physics, not measurements: a NaN
           or infinity here is a caller bug that would otherwise propagate
           as plausible-looking corrupt polls. Reject loudly at ingest. *)
        Array.iteri
          (fun r v ->
            if not (Float.is_finite v) then
              invalid_arg
                (Printf.sprintf
                   "Feed.of_loads: non-finite load at bin %d row %d" k r))
          y)
      loads
  end;
  make ~noise_sigma ~drop_rate ~corrupt_rate ~telemetry ~breaker
    ~loads:(Array.map Array.copy loads) ~seed

let length t = Array.length t.loads

let position t = t.pos

let breaker_state t = Option.map (fun b -> b.state) t.breaker

let next t =
  if t.pos >= Array.length t.loads then None
  else begin
    let was_primed = t.primed in
    let { Snmp.values; missing } = Snmp.poll t.snmp t.loads.(t.pos) in
    t.pos <- t.pos + 1;
    t.primed <- true;
    let corrupted = ref 0 in
    if t.corrupt_rate > 0. then
      for e = 0 to Array.length values - 1 do
        if
          (not missing.(e))
          && Ic_prng.Rng.float t.fault_rng < t.corrupt_rate
        then begin
          (* A corrupt counter read: strictly negative, detectably bogus. *)
          values.(e) <- -.(Float.abs values.(e)) -. 1.;
          incr corrupted
        end
      done;
    (match t.telemetry with
    | Some tel when t.counting ->
        let dropped = ref 0 in
        Array.iter (fun m -> if m then incr dropped) missing;
        Telemetry.add tel "feed.polls.total" (Array.length values);
        Telemetry.add tel "feed.polls.dropped" !dropped;
        Telemetry.add tel "feed.polls.corrupt" !corrupted;
        (* Carry-forwards: drops the SNMP layer papered over with the last
           reported value. First-poll drops fall back to the true value
           instead, so they are drops but not carries. *)
        Telemetry.add tel "feed.polls.carried"
          (if was_primed then !dropped else 0)
    | _ -> ());
    match t.breaker with
    | None -> Some (values, missing)
    | Some b ->
        (* The circuit breaker runs on every bin — including [skip]
           fast-forwards, where only the counters are suppressed — so a
           resumed feed replays the identical transitions. *)
        let count name =
          match t.telemetry with
          | Some tel when t.counting -> Telemetry.incr tel name
          | _ -> ()
        in
        let m = Array.length values in
        let dropped = ref 0 in
        Array.iter (fun x -> if x then incr dropped) missing;
        let faulted =
          float_of_int (!dropped + !corrupted) /. float_of_int m
          > b.config.fault_frac
        in
        let deliver_real () =
          if not faulted then b.last_good <- Some (Array.copy values);
          Some (values, missing)
        in
        let carry () =
          match b.last_good with
          | Some good ->
              count "feed.breaker.carried";
              Some (Array.copy good, Array.make m false)
          | None ->
              (* Opened before any clean bin: nothing to carry, deliver the
                 faulted poll and let the engine's imputation cope. *)
              Some (values, missing)
        in
        begin
          match b.state with
          | `Closed ->
              if faulted then begin
                b.consec <- b.consec + 1;
                if b.consec >= b.config.open_after then begin
                  b.consec <- 0;
                  b.state <- `Open b.config.cooldown;
                  count "feed.breaker.opened";
                  carry ()
                end
                else deliver_real ()
              end
              else begin
                b.consec <- 0;
                deliver_real ()
              end
          | `Open k when k > 0 ->
              b.state <- `Open (k - 1);
              carry ()
          | `Open _ ->
              (* Half-open probe: let the real poll through; a clean bin
                 recloses, a faulted one reopens for a full cooldown. *)
              count "feed.breaker.probes";
              if faulted then begin
                b.state <- `Open b.config.cooldown;
                count "feed.breaker.opened";
                carry ()
              end
              else begin
                b.state <- `Closed;
                b.consec <- 0;
                count "feed.breaker.reclosed";
                deliver_real ()
              end
        end
  end

let skip t k =
  (* A resumed engine's restored counters already include the skipped bins'
     feed outcomes (they were counted live before the kill), so the
     fast-forward draws must not count again. *)
  t.counting <- false;
  for _ = 1 to k do
    ignore (next t)
  done;
  t.counting <- true
