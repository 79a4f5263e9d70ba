module Vec = Ic_linalg.Vec
module Mat = Ic_linalg.Mat

let feq = Alcotest.(check (float 1e-9))

let feq_tol tol = Alcotest.(check (float tol))

(* deterministic pseudo-random floats for test data *)
let rng = Ic_prng.Rng.create 12345

let random_vec n = Array.init n (fun _ -> Ic_prng.Rng.float_range rng (-5.) 5.)

let random_mat m n = Mat.init m n (fun _ _ -> Ic_prng.Rng.float_range rng (-2.) 2.)

let random_spd n =
  (* A = B Bt + n I is symmetric positive definite *)
  let b = random_mat n n in
  let g = Mat.gram (Mat.transpose b) in
  Mat.add g (Mat.scale (float_of_int n) (Mat.identity n))

(* --- Vec --- *)

let test_vec_dot () =
  feq "dot" 32. (Vec.dot [| 1.; 2.; 3. |] [| 4.; 5.; 6. |]);
  Alcotest.check_raises "dim mismatch"
    (Invalid_argument "Vec.dot: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.dot [| 1.; 2. |] [| 1.; 2.; 3. |]))

let test_vec_nrm2 () =
  feq "pythagoras" 5. (Vec.nrm2 [| 3.; 4. |]);
  feq "zero" 0. (Vec.nrm2 [| 0.; 0. |]);
  (* scaling safety: huge magnitudes must not overflow *)
  let huge = Vec.nrm2 [| 3e200; 4e200 |] in
  feq_tol 1e190 "huge" 5e200 huge;
  feq "diff" 5. (Vec.nrm2_diff [| 4.; 6. |] [| 1.; 2. |])

let test_vec_misc () =
  feq "sum" 6. (Vec.sum [| 1.; 2.; 3. |]);
  feq "asum" 6. (Vec.asum [| -1.; 2.; -3. |]);
  feq "mean" 2. (Vec.mean [| 1.; 2.; 3. |]);
  feq "amax" 3. (Vec.amax [| -3.; 2. |]);
  Alcotest.(check int) "max_index" 1 (Vec.max_index [| 1.; 5.; 3. |]);
  Alcotest.(check bool)
    "clamp" true
    (Vec.approx_equal (Vec.clamp_nonneg [| -1.; 2. |]) [| 0.; 2. |]);
  let v = Vec.normalize_sum [| 1.; 3. |] in
  feq "normalize" 0.25 v.(0);
  let y = [| 1.; 1. |] in
  Vec.axpy 2. [| 1.; 2. |] y;
  feq "axpy" 3. y.(0);
  feq "axpy" 5. y.(1)

(* --- Mat --- *)

let test_mat_mul () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Mat.of_arrays [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let c = Mat.mul a b in
  feq "c00" 19. (Mat.get c 0 0);
  feq "c11" 50. (Mat.get c 1 1);
  let x = [| 1.; 1. |] in
  let y = Mat.mulv a x in
  feq "mulv" 3. y.(0);
  let yt = Mat.mulv_t a x in
  feq "mulv_t" 4. yt.(0)

let test_mat_gram () =
  let a = random_mat 7 4 in
  let g = Mat.gram a in
  let g' = Mat.mul (Mat.transpose a) a in
  Alcotest.(check bool) "gram = AtA" true (Mat.approx_equal ~tol:1e-9 g g')

let test_mat_transpose () =
  let a = random_mat 3 5 in
  Alcotest.(check bool)
    "double transpose" true
    (Mat.approx_equal a (Mat.transpose (Mat.transpose a)))

let test_printers_smoke () =
  (* pretty-printers must render something non-trivial without raising *)
  let show pp v = Format.asprintf "%a" pp v in
  Alcotest.(check bool) "vec" true (String.length (show Vec.pp [| 1.; 2. |]) > 3);
  Alcotest.(check bool) "mat" true
    (String.length (show Mat.pp (Mat.identity 2)) > 5)

(* --- Chol --- *)

let test_chol_solve () =
  let a = random_spd 8 in
  let x = random_vec 8 in
  let b = Mat.mulv a x in
  match Ic_linalg.Chol.factorize a with
  | Error _ -> Alcotest.fail "not SPD"
  | Ok ch ->
      let x' = Ic_linalg.Chol.solve ch b in
      Alcotest.(check bool) "roundtrip" true (Vec.approx_equal ~tol:1e-7 x x')

let test_chol_not_pd () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  match Ic_linalg.Chol.factorize a with
  | Error (`Not_positive_definite _) -> ()
  | Ok _ -> Alcotest.fail "expected not-PD"

let test_chol_ridge () =
  (* rank-deficient: ridge must still produce a usable factorization *)
  let a = Mat.of_arrays [| [| 1.; 1. |]; [| 1.; 1. |] |] in
  let ch = Ic_linalg.Chol.factorize_ridge ~ridge:1e-8 a in
  let x = Ic_linalg.Chol.solve ch [| 2.; 2. |] in
  feq_tol 1e-3 "consistent solve" 2. (x.(0) +. x.(1))

(* --- Nnls --- *)

let test_nnls_interior () =
  (* when the unconstrained solution is positive, NNLS matches it *)
  let a = Mat.add (random_mat 5 5) (Mat.scale 10. (Mat.identity 5)) in
  let x = Array.map Float.abs (random_vec 5) in
  let b = Mat.mulv a x in
  let x' = Ic_linalg.Nnls.solve a b in
  Alcotest.(check bool) "matches truth" true (Vec.approx_equal ~tol:1e-6 x x')

let test_nnls_active () =
  (* classic example where the unconstrained solution is negative *)
  let a = Mat.of_arrays [| [| 1.; 1. |]; [| 1.; 1.001 |]; [| 1.; 0.999 |] |] in
  let b = [| 1.; -1.; 1. |] in
  let x = Ic_linalg.Nnls.solve a b in
  Alcotest.(check bool) "nonneg" true (Array.for_all (fun v -> v >= 0.) x);
  Alcotest.(check bool)
    "kkt" true
    (Ic_linalg.Nnls.kkt_violation a b x < 1e-6)

let nnls_property =
  QCheck.Test.make ~count:60 ~name:"nnls satisfies KKT on random problems"
    QCheck.(pair (list_of_size (Gen.return 12) (float_range (-3.) 3.))
              (list_of_size (Gen.return 20) (float_range (-3.) 3.)))
    (fun (xs, ys) ->
      let m = 5 and n = 4 in
      let vals = Array.of_list (xs @ ys) in
      let a = Mat.init m n (fun i j -> vals.((i * n + j) mod Array.length vals)) in
      let b = Array.init m (fun i -> vals.((i * 7 + 3) mod Array.length vals)) in
      let x = Ic_linalg.Nnls.solve a b in
      Array.for_all (fun v -> v >= 0.) x
      && Ic_linalg.Nnls.kkt_violation a b x < 1e-5)

(* Cold-start Lawson-Hanson, as [Nnls.solve_gram] ran before it was
   warm-started: x = 0, the passive set grown one index at a time. Both
   return the restricted solve on their terminal passive set, so they agree
   bit for bit whenever they end on the same one: checked bit for bit on
   the pipeline's systems, and to 1e-9 on random ones, where a degenerate
   or rank-deficient system may end elsewhere. *)
let cold_passive_ls g c passive =
  let np = Array.length passive in
  let gp = Mat.init np np (fun i j -> Mat.get g passive.(i) passive.(j)) in
  let cp = Array.map (fun i -> c.(i)) passive in
  Ic_linalg.Chol.solve (Ic_linalg.Chol.factorize_ridge ~ridge:1e-12 gp) cp

let cold_nnls_gram g c =
  let tol = 1e-10 in
  let n = Array.length c in
  let max_iter = (3 * n) + 10 in
  let in_passive = Array.make n false in
  let x = Array.make n 0. in
  let scale =
    let m = Vec.amax c in
    if m > 0. then m else 1.
  in
  let passive_indices () =
    List.filter (fun i -> in_passive.(i)) (List.init n Fun.id) |> Array.of_list
  in
  let iter = ref 0 in
  let continue_outer = ref true in
  while !continue_outer && !iter < max_iter do
    incr iter;
    let gx = Mat.mulv g x in
    let w = Array.init n (fun i -> c.(i) -. gx.(i)) in
    let best = ref (-1) in
    for i = 0 to n - 1 do
      if (not in_passive.(i)) && w.(i) > tol *. scale then
        if !best < 0 || w.(i) > w.(!best) then best := i
    done;
    if !best < 0 then continue_outer := false
    else begin
      in_passive.(!best) <- true;
      let feasible = ref false in
      let inner = ref 0 in
      while (not !feasible) && !inner < max_iter do
        incr inner;
        let passive = passive_indices () in
        let z = cold_passive_ls g c passive in
        if Array.for_all (fun zi -> zi > 0.) z then begin
          Array.fill x 0 n 0.;
          Array.iteri (fun k i -> x.(i) <- z.(k)) passive;
          feasible := true
        end
        else begin
          let alpha = ref infinity in
          Array.iteri
            (fun k i ->
              if z.(k) <= 0. then begin
                let denom = x.(i) -. z.(k) in
                if denom > 0. then begin
                  let a = x.(i) /. denom in
                  if a < !alpha then alpha := a
                end
                else if x.(i) = 0. then alpha := 0.
              end)
            passive;
          let alpha = if Float.is_finite !alpha then !alpha else 0. in
          Array.iteri
            (fun k i -> x.(i) <- x.(i) +. (alpha *. (z.(k) -. x.(i))))
            passive;
          Array.iteri
            (fun k i ->
              if z.(k) <= 0. && x.(i) <= tol *. scale then begin
                x.(i) <- 0.;
                in_passive.(i) <- false
              end)
            passive
        end
      done
    end
  done;
  Vec.clamp_nonneg x

let bits_equal x y =
  Array.length x = Array.length y
  && Array.for_all2
       (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       x y

(* One Géant day and the previous day's 6-sweep stable-fP fit, as the
   streaming engine's daily refit leaves them. *)
let geant_days =
  lazy
    (let week =
       Ic_datasets.Dataset.week (Ic_datasets.Geant.generate ~weeks:1 ()) 0
     in
     let day k = Ic_traffic.Series.sub week ~pos:(k * 288) ~len:288 in
     let fitted =
       Ic_core.Fit.fit_stable_fp
         ~options:{ Ic_core.Fit.default_options with max_sweeps = 6 }
         (day 0)
     in
     (fitted.params, day 1))

(* Every activity system of one Géant day, priored from the previous day's
   fit. About three bins in four of these optima are not interior, so the
   warm start's active-set path is exercised, not only its first solve. *)
let test_nnls_warm_geant_day () =
  let ({ f; preference; _ } : Ic_core.Params.stable_fp), day =
    Lazy.force geant_days
  in
  let design = Ic_core.Estimate_a.design_matrix ~f ~preference in
  let g = Mat.gram design in
  let cache = Ic_core.Estimate_a.make_cache ~f ~preference in
  let non_interior = ref 0 and mismatches = ref [] in
  for k = 0 to 287 do
    let tm = Ic_traffic.Series.tm day k in
    let ingress = Ic_traffic.Marginals.ingress tm in
    let egress = Ic_traffic.Marginals.egress tm in
    let c = Mat.mulv_t design (Array.append ingress egress) in
    let cold = cold_nnls_gram g c in
    if Array.exists (fun v -> v = 0.) cold then incr non_interior;
    if
      not
        (bits_equal (Ic_linalg.Nnls.solve_gram g c) cold
        && bits_equal
             (Ic_core.Estimate_a.activities_cached cache ~ingress ~egress)
             cold)
    then mismatches := k :: !mismatches
  done;
  Alcotest.(check (list int)) "bins where warm <> cold" [] (List.rev !mismatches);
  Alcotest.(check bool) "a quarter of the bins or more are not interior" true
    (!non_interior >= 72)

(* The fit's own activity systems for the same day. Row (i, j) of the
   n^2 x n design has f p_j in column i and (1 - f) p_i in column j (p_i
   alone when i = j). They are taken under the f >= 1/2 branch that every
   stable-fP fit's dual start also descends (f held at 1 - f of the
   previous day's fit, P fitted to it), where about two bins in five have
   an unconstrained solve that goes negative and so take the NNLS fallback.
   The fallback must match the cold oracle bit for bit, with and without
   the shared [full_factor]. *)
let test_nnls_warm_geant_fit_systems () =
  let (fitted : Ic_core.Params.stable_fp), day = Lazy.force geant_days in
  let ({ f; preference = p; _ } : Ic_core.Params.stable_fp) =
    (Ic_core.Fit.fit_stable_fp
       ~options:
         {
           Ic_core.Fit.default_options with
           max_sweeps = 6;
           fixed_f = true;
           f_init = 1. -. fitted.f;
         }
       day)
      .params
  in
  let n = Array.length p in
  let design =
    Mat.init (n * n) n (fun r col ->
        let i = r / n and j = r mod n in
        if i = j then if col = i then p.(i) else 0.
        else if col = i then f *. p.(j)
        else if col = j then (1. -. f) *. p.(i)
        else 0.)
  in
  let g = Mat.gram design in
  let factor = Ic_linalg.Nnls.full_factor g in
  let interior c =
    match Ic_linalg.Chol.factorize g with
    | Ok ch -> Array.for_all (fun v -> v >= 0.) (Ic_linalg.Chol.solve ch c)
    | Error _ -> false
  in
  let fallbacks = ref 0 and mismatches = ref [] in
  for k = 0 to 287 do
    let c =
      Mat.mulv_t design (Ic_traffic.Tm.to_vector (Ic_traffic.Series.tm day k))
    in
    if not (interior c) then begin
      incr fallbacks;
      let cold = cold_nnls_gram g c in
      if
        not
          (bits_equal (Ic_linalg.Nnls.solve_gram ~factor g c) cold
          && bits_equal (Ic_linalg.Nnls.solve_gram g c) cold)
      then mismatches := k :: !mismatches
    end
  done;
  Alcotest.(check (list int)) "bins where warm <> cold" [] (List.rev !mismatches);
  Alcotest.(check bool) "a quarter of the bins or more take the fallback" true
    (!fallbacks >= 72)

(* The NNLS fixture of bench/main.ml (ablation/nnls-active-set). *)
let test_nnls_warm_bench_fixture () =
  let n = 22 in
  let rng = Ic_prng.Rng.create 5 in
  let a = Mat.init (2 * n) n (fun _ _ -> Ic_prng.Rng.float_range rng (-1.) 1.) in
  let b = Array.init (2 * n) (fun _ -> Ic_prng.Rng.float_range rng (-1.) 2.) in
  let g = Mat.gram a and c = Mat.mulv_t a b in
  let cold = cold_nnls_gram g c in
  Alcotest.(check bool) "active constraints" true (Array.exists (fun v -> v = 0.) cold);
  Alcotest.(check bool) "warm = cold" true
    (bits_equal (Ic_linalg.Nnls.solve_gram g c) cold)

(* Random systems from a seed: [m x n] designs with entries in [-1, 1],
   optionally with duplicated columns (rank deficient, so the minimizer is
   not unique). The solver sees the Gram system of [s a] and [s b], where
   [scale] draws [s]; [x] does not depend on [s], so the KKT conditions are
   checked at unit scale, where [kkt_violation]'s normalization (which
   mixes the units of [aᵀr] and [b]) means what it says. The fitted values
   [a x] are unique even when [x] is not, so agreement with the oracle is
   checked on them. *)
let nnls_family ?(prepare = fun _ _ -> ()) ?(scale = fun _ -> 1.) name =
  QCheck.Test.make ~count:200 ~name
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Ic_prng.Rng.create seed in
      let n = 2 + Ic_prng.Rng.int rng 11 in
      let m = n + Ic_prng.Rng.int rng (2 * n) in
      let a = Mat.init m n (fun _ _ -> Ic_prng.Rng.float_range rng (-1.) 1.) in
      prepare rng a;
      let b = Array.init m (fun _ -> Ic_prng.Rng.float_range rng (-1.) 2.) in
      let s = scale rng in
      let sa = Mat.scale s a and sb = Vec.scale s b in
      let g = Mat.gram sa and c = Mat.mulv_t sa sb in
      let x = Ic_linalg.Nnls.solve_gram g c in
      let fit = Mat.mulv sa x and fit_cold = Mat.mulv sa (cold_nnls_gram g c) in
      Array.for_all Float.is_finite x
      && Array.for_all (fun v -> v >= 0.) x
      && Ic_linalg.Nnls.kkt_violation a b x < 1e-5
      && Vec.nrm2_diff fit fit_cold <= 1e-9 *. Vec.nrm2 sb)

let nnls_random = nnls_family "warm start: random systems"

let nnls_rank_deficient =
  nnls_family "warm start: duplicated columns"
    ~prepare:(fun rng a ->
      let m, n = Mat.dims a in
      for _ = 1 to 1 + (n / 3) do
        let src = Ic_prng.Rng.int rng n and dst = Ic_prng.Rng.int rng n in
        for i = 0 to m - 1 do
          Mat.set a i dst (Mat.get a i src)
        done
      done)

(* Gram entries around 1e12 or 1e-12. *)
let nnls_scaled =
  nnls_family "warm start: Gram scaled by 1e12 or 1e-12"
    ~scale:(fun rng -> if Ic_prng.Rng.int rng 2 = 0 then 1e6 else 1e-6)

(* [factorize_ridge_into] and [solve_into] are the allocation-free forms of
   [factorize_ridge] and [solve] that [Nnls]'s sub-solves now use: the same
   values combined in the same order, so factors and solutions agree bit
   for bit, also when the ridge loop escalates. The factor buffer starts
   out as NaN, so any read of an entry the factorization did not write
   shows. Grams of designs with duplicated columns are singular, so a zero
   starting ridge always escalates, and shifting them down by 1e-6 of the
   mean diagonal makes them indefinite, which escalates several times. *)
let chol_into_family ?(duplicate = false) ?(shift = 0.) ~ridge name =
  QCheck.Test.make ~count:200 ~name
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let module Chol = Ic_linalg.Chol in
      let rng = Ic_prng.Rng.create seed in
      let n = 1 + Ic_prng.Rng.int rng 12 in
      let m = 1 + Ic_prng.Rng.int rng (2 * n) in
      let a = Mat.init m n (fun _ _ -> Ic_prng.Rng.float_range rng (-1.) 1.) in
      if duplicate then
        for _ = 1 to 1 + (n / 3) do
          let src = Ic_prng.Rng.int rng n and dst = Ic_prng.Rng.int rng n in
          for i = 0 to m - 1 do
            Mat.set a i dst (Mat.get a i src)
          done
        done;
      let g = Mat.gram a in
      let mean_diag =
        Vec.sum (Array.init n (fun i -> Mat.get g i i)) /. float_of_int n
      in
      let g =
        Mat.init n n (fun i j ->
            Mat.get g i j -. if i = j then shift *. mean_diag else 0.)
      in
      let b = Array.init n (fun _ -> Ic_prng.Rng.float_range rng (-1.) 1.) in
      let factor_bits ch =
        let lt = Mat.create n n in
        Chol.transpose_into ch ~lt;
        Array.init (n * n) (fun k ->
            let i = k / n and j = k mod n in
            if j >= i then Mat.get lt i j else 0.)
      in
      let ch = Chol.factorize_ridge ~ridge g in
      let ch_into =
        Chol.factorize_ridge_into ~ridge ~l:(Mat.init n n (fun _ _ -> nan)) g
      in
      let x_into = Array.copy b in
      Chol.solve_into ch_into x_into;
      bits_equal (factor_bits ch) (factor_bits ch_into)
      && bits_equal (Chol.solve ch b) x_into)

let chol_into_random =
  chol_into_family ~ridge:1e-12 "ridge_into = ridge: random Grams"

let chol_into_duplicated =
  chol_into_family ~duplicate:true ~ridge:0.
    "ridge_into = ridge: duplicated columns, zero starting ridge"

let chol_into_indefinite =
  chol_into_family ~duplicate:true ~shift:1e-6 ~ridge:1e-12
    "ridge_into = ridge: indefinite by 1e-6 of the mean diagonal"

(* --- Cg --- *)

let test_cg_matches_chol () =
  let a = random_spd 10 in
  let b = random_vec 10 in
  let x_cg, stats = Ic_linalg.Cg.solve (fun v -> Mat.mulv a v) b in
  (match Ic_linalg.Chol.factorize a with
  | Ok ch ->
      let x_ch = Ic_linalg.Chol.solve ch b in
      Alcotest.(check bool)
        "cg = chol" true
        (Vec.approx_equal ~tol:1e-6 x_cg x_ch)
  | Error _ -> Alcotest.fail "SPD expected");
  Alcotest.(check bool) "converged" true (stats.residual < 1e-8)

let test_cg_zero_rhs () =
  let x, stats = Ic_linalg.Cg.solve (fun v -> v) (Vec.create 4) in
  Alcotest.(check bool) "zero" true (Vec.approx_equal x (Vec.create 4));
  Alcotest.(check int) "no iterations" 0 stats.iterations

(* --- Sparse --- *)

let test_sparse_roundtrip () =
  let d = random_mat 6 9 in
  let s = Ic_linalg.Sparse.of_dense d in
  Alcotest.(check bool)
    "roundtrip" true
    (Mat.approx_equal d (Ic_linalg.Sparse.to_dense s))

let test_sparse_mulv () =
  let d = random_mat 5 7 in
  let s = Ic_linalg.Sparse.of_dense d in
  let x = random_vec 7 in
  Alcotest.(check bool)
    "mulv" true
    (Vec.approx_equal ~tol:1e-10 (Mat.mulv d x) (Ic_linalg.Sparse.mulv s x));
  let y = random_vec 5 in
  Alcotest.(check bool)
    "mulv_t" true
    (Vec.approx_equal ~tol:1e-10 (Mat.mulv_t d y)
       (Ic_linalg.Sparse.mulv_t s y))

let test_sparse_triplets () =
  let s =
    Ic_linalg.Sparse.of_triplets ~rows:2 ~cols:2
      [ (0, 0, 1.); (0, 0, 2.); (1, 1, 0.); (1, 0, 4.) ]
  in
  Alcotest.(check int) "nnz (dup merged, zero dropped)" 2 (Ic_linalg.Sparse.nnz s);
  feq "merged" 3. (Ic_linalg.Sparse.get s 0 0);
  feq "zero entry" 0. (Ic_linalg.Sparse.get s 1 1);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Sparse.of_triplets: entry (2,0) out of 2x2") (fun () ->
      ignore (Ic_linalg.Sparse.of_triplets ~rows:2 ~cols:2 [ (2, 0, 1.) ]))

let test_sparse_transpose_scale () =
  let d = random_mat 4 6 in
  let s = Ic_linalg.Sparse.of_dense d in
  Alcotest.(check bool)
    "transpose" true
    (Mat.approx_equal (Mat.transpose d)
       (Ic_linalg.Sparse.to_dense (Ic_linalg.Sparse.transpose s)));
  let diag = Array.init 6 (fun i -> float_of_int (i + 1)) in
  let scaled = Ic_linalg.Sparse.scale_cols s diag in
  let expected = Mat.mul d (Mat.diag diag) in
  Alcotest.(check bool)
    "scale_cols" true
    (Mat.approx_equal ~tol:1e-10 expected (Ic_linalg.Sparse.to_dense scaled))

(* --- Eig --- *)

let test_eig_known () =
  let a = Mat.of_arrays [| [| 2.; 1. |]; [| 1.; 2. |] |] in
  let e = Ic_linalg.Eig.decompose a in
  feq_tol 1e-10 "lambda1" 3. e.eigenvalues.(0);
  feq_tol 1e-10 "lambda2" 1. e.eigenvalues.(1)

let test_eig_reconstruct () =
  let a = random_spd 9 in
  let e = Ic_linalg.Eig.decompose a in
  Alcotest.(check bool)
    "V L Vt = A" true
    (Mat.approx_equal ~tol:1e-7 a (Ic_linalg.Eig.reconstruct e));
  Alcotest.(check bool)
    "orthonormal eigenvectors" true
    (Mat.approx_equal ~tol:1e-8 (Mat.gram e.eigenvectors) (Mat.identity 9));
  (* SPD: all eigenvalues positive and sorted *)
  let l = e.eigenvalues in
  Alcotest.(check bool) "positive" true (Array.for_all (fun x -> x > 0.) l);
  for k = 0 to 7 do
    Alcotest.(check bool) "sorted" true (l.(k) >= l.(k + 1))
  done

let test_eig_eigenvector_property () =
  let a = random_spd 6 in
  let e = Ic_linalg.Eig.decompose a in
  (* A v = lambda v for the leading pair *)
  let v = Mat.col e.eigenvectors 0 in
  let av = Mat.mulv a v in
  let lv = Vec.scale e.eigenvalues.(0) v in
  Alcotest.(check bool) "A v = lambda v" true (Vec.approx_equal ~tol:1e-7 av lv)

let test_eig_not_square () =
  Alcotest.check_raises "not square"
    (Invalid_argument "Eig.decompose: matrix not square") (fun () ->
      ignore (Ic_linalg.Eig.decompose (Mat.create 2 3)))

(* --- Proj --- *)

let test_simplex_basic () =
  let p = Ic_linalg.Proj.simplex [| 0.5; 0.5 |] in
  feq "already on simplex" 0.5 p.(0);
  let p = Ic_linalg.Proj.simplex [| 2.; 0. |] in
  feq "projects to vertex" 1. p.(0);
  feq "projects to vertex" 0. p.(1)

let simplex_property =
  QCheck.Test.make ~count:100 ~name:"simplex projection is feasible and optimal"
    QCheck.(list_of_size (Gen.int_range 1 8) (float_range (-4.) 4.))
    (fun xs ->
      let v = Array.of_list xs in
      let p = Ic_linalg.Proj.simplex v in
      let feasible =
        Array.for_all (fun x -> x >= -1e-12) p
        && Float.abs (Vec.sum p -. 1.) < 1e-9
      in
      (* optimality: no closer point among a few random feasible points *)
      let dist a = Vec.nrm2_diff v a in
      let uniform = Array.make (Array.length v) (1. /. float_of_int (Array.length v)) in
      let vertex k =
        Array.init (Array.length v) (fun i -> if i = k then 1. else 0.)
      in
      let candidates = uniform :: List.init (Array.length v) vertex in
      feasible
      && List.for_all (fun c -> dist p <= dist c +. 1e-9) candidates)

let test_box () =
  feq "clamps low" 0. (Ic_linalg.Proj.box ~lo:0. ~hi:1. (-3.));
  feq "clamps high" 1. (Ic_linalg.Proj.box ~lo:0. ~hi:1. 3.);
  feq "interior" 0.4 (Ic_linalg.Proj.box ~lo:0. ~hi:1. 0.4)

let () =
  Alcotest.run "ic_linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "dot" `Quick test_vec_dot;
          Alcotest.test_case "nrm2" `Quick test_vec_nrm2;
          Alcotest.test_case "misc" `Quick test_vec_misc;
        ] );
      ( "mat",
        [
          Alcotest.test_case "mul" `Quick test_mat_mul;
          Alcotest.test_case "gram" `Quick test_mat_gram;
          Alcotest.test_case "transpose" `Quick test_mat_transpose;
          Alcotest.test_case "printers" `Quick test_printers_smoke;
        ] );
      ( "chol",
        [
          Alcotest.test_case "solve" `Quick test_chol_solve;
          Alcotest.test_case "not PD" `Quick test_chol_not_pd;
          Alcotest.test_case "ridge" `Quick test_chol_ridge;
          QCheck_alcotest.to_alcotest chol_into_random;
          QCheck_alcotest.to_alcotest chol_into_duplicated;
          QCheck_alcotest.to_alcotest chol_into_indefinite;
        ] );
      ( "nnls",
        [
          Alcotest.test_case "interior" `Quick test_nnls_interior;
          Alcotest.test_case "active constraints" `Quick test_nnls_active;
          QCheck_alcotest.to_alcotest nnls_property;
          Alcotest.test_case "warm start = cold on a Geant day" `Quick
            test_nnls_warm_geant_day;
          Alcotest.test_case "warm start = cold on a Geant day's fit systems"
            `Quick test_nnls_warm_geant_fit_systems;
          Alcotest.test_case "warm start = cold on the bench fixture" `Quick
            test_nnls_warm_bench_fixture;
          QCheck_alcotest.to_alcotest nnls_random;
          QCheck_alcotest.to_alcotest nnls_rank_deficient;
          QCheck_alcotest.to_alcotest nnls_scaled;
        ] );
      ( "cg",
        [
          Alcotest.test_case "matches cholesky" `Quick test_cg_matches_chol;
          Alcotest.test_case "zero rhs" `Quick test_cg_zero_rhs;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "dense roundtrip" `Quick test_sparse_roundtrip;
          Alcotest.test_case "mulv" `Quick test_sparse_mulv;
          Alcotest.test_case "triplets" `Quick test_sparse_triplets;
          Alcotest.test_case "transpose/scale" `Quick
            test_sparse_transpose_scale;
        ] );
      ( "eig",
        [
          Alcotest.test_case "known values" `Quick test_eig_known;
          Alcotest.test_case "reconstruction" `Quick test_eig_reconstruct;
          Alcotest.test_case "eigenvector property" `Quick
            test_eig_eigenvector_property;
          Alcotest.test_case "not square" `Quick test_eig_not_square;
        ] );
      ( "proj",
        [
          Alcotest.test_case "simplex basic" `Quick test_simplex_basic;
          QCheck_alcotest.to_alcotest simplex_property;
          Alcotest.test_case "box" `Quick test_box;
        ] );
    ]
