(* Result printing: one "metric" line per measured value (name, value,
   unit, sample count), then the result object as the last line of
   standard output. *)

type t = {
  mutable metrics : (string * float * string) list;  (** reverse order *)
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let create () = { metrics = []; attempted = 0; failed = 0; problems = [] }

let metric t ~name ~unit_ ~n value =
  Printf.printf "metric %-34s %16.6f %-6s n=%d\n" name value unit_ n;
  t.metrics <- (name, value, unit_) :: t.metrics

(* Set-up is repeated at least 3 times and, while it is quick, until 4 s
   have gone into it (at most 10 times); setup_s is the median. A 0.2 s
   set-up timed 3 times spread 0.23 across runs. *)
let another_setup ~done_ ~spent = done_ < 3 || (done_ < 10 && spent < 4.)

(* A reading printed for context but not part of the result object. *)
let info fmt = Printf.ksprintf (fun s -> Printf.printf "info   %s\n" s) fmt

(* A timing reported as its median, p90, and the highest percentile with
   at least ten samples beyond it. *)
let latency ~label (sorted : float array) =
  let n = Array.length sorted in
  if n = 0 then info "%s: no samples" label
  else begin
    let p99 =
      if Stats.reportable ~n 99. then Printf.sprintf "%.2f" (Stats.percentile sorted 99.)
      else "n/a"
    in
    let tail =
      match Stats.tail sorted with
      | Some (p, v) -> Printf.sprintf "p%g %.2f" p v
      | None -> "none reportable"
    in
    info "%s, us: p50 %.2f  p90 %.2f  p99 %s  (highest reportable: %s; n=%d, %d beyond p99)"
      label (Stats.percentile sorted 50.) (Stats.percentile sorted 90.) p99 tail n
      (Stats.beyond ~n 99.)
  end

let check t ok fmt =
  Printf.ksprintf
    (fun what ->
      if not ok then begin
        t.problems <- what :: t.problems;
        Printf.printf "FAIL   %s\n" what
      end
      else Printf.printf "ok     %s\n" what)
    fmt

let finish t =
  let correct = t.failed = 0 && t.problems = [] && t.attempted > 0 in
  let body =
    List.rev t.metrics
    |> List.map (fun (name, v, u) ->
           if not (Float.is_finite v) then
             failwith (Printf.sprintf "metric %s is not finite" name);
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v u)
    |> String.concat ", "
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 t.attempted) t.failed body
