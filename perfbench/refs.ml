(* Hand-written OCaml references for the two catalog programs that ship
   without a validator ([validate = None] in lib/workloads). Both follow
   the Lime source operation by operation in IEEE single precision
   through the [Wire.Value] f32 helpers, reading the program's own
   inputs, so the benchmark checks every op against something other
   than the compiler under test. *)

module Lm = Liquid_metal.Lm
module V = Wire.Value

(* The catalog's float tolerance (Workloads.close, not exported). *)
let close a b =
  let d = Float.abs (a -. b) in
  d <= 1e-3 *. (1.0 +. Float.max (Float.abs a) (Float.abs b))

(* Mandel.escape: iteration counts must match exactly. Int-to-float
   promotions are exact (every operand is below 2^24). *)
let mandelbrot ~size =
  let w = size and h = size and max_iter = 64 in
  let f = V.f32 in
  let four = f 4.0 in
  Array.init (w * h) (fun xy ->
      let cx =
        V.sub_f32
          (V.div_f32 (V.mul_f32 (f 3.5) (float_of_int (xy mod w))) (float_of_int w))
          (f 2.5)
      in
      let cy =
        V.sub_f32
          (V.div_f32 (V.mul_f32 (f 2.0) (float_of_int (xy / w))) (float_of_int h))
          (f 1.0)
      in
      let rec go zx zy iter =
        if iter < max_iter && V.add_f32 (V.mul_f32 zx zx) (V.mul_f32 zy zy) <= four
        then
          let t = V.add_f32 (V.sub_f32 (V.mul_f32 zx zx) (V.mul_f32 zy zy)) cx in
          let zy = V.add_f32 (V.mul_f32 (V.mul_f32 (f 2.0) zx) zy) cy in
          go t zy (iter + 1)
        else iter
      in
      go 0.0 0.0 0)

let check_mandelbrot ~size (v : Lm.I.v) =
  match v with
  | Lm.I.Prim (V.Int_array got) ->
    let want = mandelbrot ~size in
    if got = want then Ok ()
    else Error "mandelbrot: iteration counts differ from the OCaml reference"
  | _ -> Error "mandelbrot: not an int array"

(* NBody.force over the program's inputs (px, py, m, n). *)
let nbody args =
  match List.map Lm.as_float_array (List.filteri (fun i _ -> i < 3) args) with
  | [ px; py; m ] ->
    let n = Array.length px in
    let soft = V.f32 0.01 in
    Array.init n (fun i ->
        let fx = ref 0.0 and fy = ref 0.0 in
        for j = 0 to n - 1 do
          if j <> i then begin
            let dx = V.sub_f32 px.(j) px.(i) and dy = V.sub_f32 py.(j) py.(i) in
            let d2 =
              V.add_f32 (V.add_f32 (V.mul_f32 dx dx) (V.mul_f32 dy dy)) soft
            in
            let s = V.div_f32 m.(j) d2 in
            fx := V.add_f32 !fx (V.mul_f32 dx s);
            fy := V.add_f32 !fy (V.mul_f32 dy s)
          end
        done;
        V.add_f32 (V.mul_f32 !fx !fx) (V.mul_f32 !fy !fy))
  | _ -> invalid_arg "Refs.nbody: expected px, py, m"

let check_nbody args (v : Lm.I.v) =
  match v with
  | Lm.I.Prim (V.Float_array got) ->
    let want = nbody args in
    if Array.length got <> Array.length want then Error "nbody: length differs"
    else if Array.for_all2 close got want then Ok ()
    else Error "nbody: forces differ from the OCaml reference"
  | _ -> Error "nbody: not a float array"

(* The check for one catalog program: its own validator when it has
   one, otherwise the reference above. *)
let validate (w : Workloads.t) ~size args v =
  match w.Workloads.validate, w.Workloads.name with
  | Some check, _ -> check ~size v
  | None, "mandelbrot" -> check_mandelbrot ~size v
  | None, "nbody" -> check_nbody args v
  | None, name -> Error (name ^ ": no reference")
