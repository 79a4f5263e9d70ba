(* Lawson & Hanson (1974) active-set NNLS, run on the normal equations.
   For the problem sizes in this library (tens of variables) the normal
   equations are well within double-precision comfort, and accumulating the
   Gram matrix is much cheaper than factoring the tall design matrix. *)

let solve_passive_ls g c passive =
  (* Solve the unconstrained LS restricted to the passive index set: gather
     the sub-Gram by direct indexing, factor it into a second buffer with
     [factorize_ridge_into] (bit-identical to [factorize_ridge] on the
     gathered copy) and solve the gathered right-hand side in place. *)
  let np = Array.length passive in
  let gp = Mat.create np np in
  let gd = g.Mat.data and pd = gp.Mat.data in
  let n = g.Mat.cols in
  for i = 0 to np - 1 do
    let row = passive.(i) * n in
    for j = 0 to np - 1 do
      Array.unsafe_set pd ((i * np) + j) gd.(row + passive.(j))
    done
  done;
  let cp = Array.map (fun i -> c.(i)) passive in
  let ch = Chol.factorize_ridge_into ~ridge:1e-12 ~l:(Mat.create np np) gp in
  Chol.solve_into ch cp;
  cp

let passive_indices in_passive =
  let count = ref 0 in
  Array.iter (fun b -> if b then incr count) in_passive;
  let idx = Array.make !count 0 in
  let k = ref 0 in
  Array.iteri
    (fun i b ->
      if b then begin
        idx.(!k) <- i;
        incr k
      end)
    in_passive;
  idx

(* The Lawson-Hanson outer and inner loops, from a feasible [x] whose
   positive coordinates are exactly the passive ones. *)
let lawson_hanson ~max_iter ~tol ~scale g c in_passive x =
  let n = Array.length c in
  let dual () =
    (* w = c - G x *)
    let gx = Mat.mulv g x in
    Array.init n (fun i -> c.(i) -. gx.(i))
  in
  let iter = ref 0 in
  let continue_outer = ref true in
  while !continue_outer && !iter < max_iter do
    incr iter;
    let w = dual () in
    (* most-violating inactive coordinate *)
    let best = ref (-1) in
    for i = 0 to n - 1 do
      if (not in_passive.(i)) && w.(i) > tol *. scale then
        if !best < 0 || w.(i) > w.(!best) then best := i
    done;
    if !best < 0 then continue_outer := false
    else begin
      in_passive.(!best) <- true;
      (* inner loop: restore primal feasibility on the passive set *)
      let feasible = ref false in
      let inner = ref 0 in
      while (not !feasible) && !inner < max_iter do
        incr inner;
        let passive = passive_indices in_passive in
        let z = solve_passive_ls g c passive in
        let all_pos = ref true in
        Array.iteri (fun _ zi -> if zi <= 0. then all_pos := false) z;
        if !all_pos then begin
          Array.fill x 0 n 0.;
          Array.iteri (fun k i -> x.(i) <- z.(k)) passive;
          feasible := true
        end
        else begin
          (* step toward z until the first passive coordinate hits zero *)
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

(* Warm start: rather than grow the passive set from x = 0 one index at a
   time (about n sub-factorizations), start from the full set and drop every
   non-positive coordinate at once until the restricted solution is strictly
   positive, then run the loops above from that feasible point. The answer,
   [clamp_nonneg (solve_passive_ls g c P* )], depends only on the terminal
   passive set P*, so it matches a cold start bit for bit whenever both end
   on the same P*. [factor] replaces the full-set solve's factorization:
   with every index passive, [solve_passive_ls] factorizes [g] verbatim. *)
let solve_gram ?max_iter ?(tol = 1e-10) ?factor g c =
  let n = Array.length c in
  let max_iter = match max_iter with Some k -> k | None -> 3 * n + 10 in
  let scale =
    let m = Vec.amax c in
    if m > 0. then m else 1.
  in
  let in_passive = Array.make n true in
  let rec shrink passive z =
    if Array.for_all (fun zi -> zi > 0.) z then (passive, z)
    else begin
      Array.iteri
        (fun k i -> if not (z.(k) > 0.) then in_passive.(i) <- false)
        passive;
      match passive_indices in_passive with
      | [||] -> ([||], [||])
      | p -> shrink p (solve_passive_ls g c p)
    end
  in
  let full = Array.init n Fun.id in
  let passive, z =
    shrink full
      (match factor with
      | Some ch -> Chol.solve ch c
      | None -> solve_passive_ls g c full)
  in
  if Array.length passive = n then z
  else
    let x = Array.make n 0. in
    Array.iteri (fun k i -> x.(i) <- z.(k)) passive;
    lawson_hanson ~max_iter ~tol ~scale g c in_passive x

let full_factor g = Chol.factorize_ridge ~ridge:1e-12 g

let solve ?max_iter ?tol a b =
  let g = Mat.gram a in
  let c = Mat.mulv_t a b in
  solve_gram ?max_iter ?tol g c

let kkt_violation a b x =
  let r = Vec.sub b (Mat.mulv a x) in
  let w = Mat.mulv_t a r in
  let scale =
    let m = Float.max (Vec.amax w) (Vec.amax b) in
    if m > 0. then m else 1.
  in
  let viol = ref 0. in
  Array.iteri
    (fun i xi ->
      if xi < 0. then viol := Float.max !viol (-.xi);
      if xi > 0. then viol := Float.max !viol (Float.abs w.(i) /. scale)
      else viol := Float.max !viol (Float.max 0. (w.(i) /. scale)))
    x;
  !viol
