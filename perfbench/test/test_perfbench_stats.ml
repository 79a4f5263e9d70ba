(* The benchmark's statistics: nearest-rank percentiles, the ten-beyond
   rule for tail percentiles, and the quartile spread bounds are judged
   by (checked against Python's statistics.quantiles). *)

let close = Alcotest.float 1e-12

let one_to n = Array.init n (fun i -> float_of_int (i + 1))

let test_rank () =
  Alcotest.(check int) "p50 of 10" 5 (Stats.rank ~n:10 50.);
  Alcotest.(check int) "p90 of 10" 9 (Stats.rank ~n:10 90.);
  Alcotest.(check int) "p100 of 10" 10 (Stats.rank ~n:10 100.);
  Alcotest.(check int) "p1 of 10 rounds up to the first" 1 (Stats.rank ~n:10 1.);
  Alcotest.(check int) "p99.9 of 1000" 999 (Stats.rank ~n:1000 99.9);
  Alcotest.check_raises "p = 0" (Invalid_argument "Stats.rank: p outside (0, 100]")
    (fun () -> ignore (Stats.rank ~n:10 0.));
  Alcotest.check_raises "empty" (Invalid_argument "Stats.rank: empty sample")
    (fun () -> ignore (Stats.rank ~n:0 50.))

let test_percentile () =
  (* The textbook nearest-rank example: no interpolation, always a sample. *)
  let xs = Stats.sorted [| 50.; 15.; 40.; 20.; 35. |] in
  List.iter
    (fun (p, want) -> Alcotest.check close (Printf.sprintf "p%g" p) want (Stats.percentile xs p))
    [ (5., 15.); (30., 20.); (40., 20.); (50., 35.); (100., 50.) ]

let test_ten_beyond () =
  Alcotest.(check int) "beyond p90 of 100" 10 (Stats.beyond ~n:100 90.);
  Alcotest.(check bool) "p90 of 100" true (Stats.reportable ~n:100 90.);
  Alcotest.(check bool) "p99 of 100" false (Stats.reportable ~n:100 99.);
  Alcotest.(check bool) "p99 of 1000" true (Stats.reportable ~n:1000 99.);
  Alcotest.(check bool) "p99 of 1009" true (Stats.reportable ~n:1009 99.);
  Alcotest.(check bool) "p99.9 of 1000" false (Stats.reportable ~n:1000 99.9);
  Alcotest.(check bool) "p50 of 20" true (Stats.reportable ~n:20 50.);
  Alcotest.(check bool) "p50 of 19" false (Stats.reportable ~n:19 50.);
  Alcotest.(check bool) "no samples" false (Stats.reportable ~n:0 50.)

let test_tail () =
  let tail n = Option.map fst (Stats.tail (one_to n)) in
  Alcotest.(check (option (float 0.))) "50 samples: none" None (tail 50);
  Alcotest.(check (option (float 0.))) "100 samples: p90" (Some 90.) (tail 100);
  Alcotest.(check (option (float 0.))) "999 samples: p90" (Some 90.) (tail 999);
  Alcotest.(check (option (float 0.))) "1000 samples: p99" (Some 99.) (tail 1000);
  Alcotest.(check (option (float 0.))) "10000 samples: p99.9" (Some 99.9) (tail 10000);
  Alcotest.(check (option (pair (float 0.) close)))
    "value is the nearest-rank sample" (Some (99., 990.)) (Stats.tail (one_to 1000))

let test_quartiles () =
  let check name xs (a, b, c) =
    let q1, q2, q3 = Stats.quartiles xs in
    Alcotest.check close (name ^ " q1") a q1;
    Alcotest.check close (name ^ " q2") b q2;
    Alcotest.check close (name ^ " q3") c q3
  in
  (* Expected values are statistics.quantiles(xs, n=4). *)
  check "1..10" (one_to 10) (2.75, 5.5, 8.25);
  check "1..5" (one_to 5) (1.5, 3.0, 4.5);
  check "two samples extrapolate" [| 3.; 1. |] (0.5, 2.0, 3.5);
  check "unsorted with an outlier"
    [| 10.0; 10.5; 9.8; 10.2; 11.0; 9.9; 10.1; 10.4; 10.3; 30.0 |]
    (9.975, 10.25, 10.625);
  Alcotest.check_raises "one sample"
    (Invalid_argument "Stats.quartiles: need at least two samples") (fun () ->
      ignore (Stats.quartiles [| 1. |]))

let test_spread () =
  Alcotest.check close "1..10" 1.0 (Stats.quartile_spread (one_to 10));
  Alcotest.check close "constant" 0. (Stats.quartile_spread [| 4.; 4.; 4.; 4. |]);
  (* One wild run out of ten barely moves the spread. *)
  Alcotest.check close "outlier"
    ((10.625 -. 9.975) /. 10.25)
    (Stats.quartile_spread [| 10.0; 10.5; 9.8; 10.2; 11.0; 9.9; 10.1; 10.4; 10.3; 30.0 |]);
  Alcotest.check_raises "zero median" (Invalid_argument "Stats.quartile_spread: median is 0")
    (fun () -> ignore (Stats.quartile_spread [| 0.; 0.; 0. |]))

let test_median () =
  Alcotest.check close "odd" 3. (Stats.median [| 5.; 1.; 3. |]);
  Alcotest.check close "even" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check close "mean" 2.5 (Stats.mean [| 4.; 1.; 3.; 2. |]);
  Alcotest.check close "mean of nothing" 0. (Stats.mean [||])

let () =
  Alcotest.run "perfbench_stats"
    [
      ( "percentiles",
        [
          Alcotest.test_case "nearest rank" `Quick test_rank;
          Alcotest.test_case "nearest-rank values" `Quick test_percentile;
          Alcotest.test_case "ten samples beyond" `Quick test_ten_beyond;
          Alcotest.test_case "highest reportable tail" `Quick test_tail;
        ] );
      ( "spread",
        [
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "quartile spread" `Quick test_spread;
          Alcotest.test_case "median and mean" `Quick test_median;
        ] );
    ]
