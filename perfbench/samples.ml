(* A growable float buffer for per-operation measurements. *)

type t = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 1024 0.; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0. in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let length t = t.len

let to_array t = Array.sub t.data 0 t.len

let sum t =
  let s = ref 0. in
  for i = 0 to t.len - 1 do
    s := !s +. t.data.(i)
  done;
  !s
