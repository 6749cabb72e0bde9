(* A latency histogram in nanoseconds: one bucket per nanosecond below
   1024 ns, then 128 buckets per octave (under 1% relative width) up to
   2^50 ns.  Recording is a few integer operations and never allocates,
   so it can sit in a timed loop; quantiles interpolate linearly inside
   the bucket, so a reported percentile moves with the data instead of
   snapping to a bucket edge. *)

let linear = 1024
let sub_bits = 7
let per_octave = 1 lsl sub_bits
let top_octave = 49
let buckets = linear + ((top_octave - 9) * per_octave)

type t = {
  counts : int array;
  mutable n : int;
  mutable sum : int;
}

let create () = { counts = Array.make buckets 0; n = 0; sum = 0 }

let index v =
  if v < linear then if v < 0 then 0 else v
  else begin
    let o = ref 10 in
    while v lsr (!o + 1) > 0 do
      incr o
    done;
    let o = if !o > top_octave then top_octave else !o in
    let sub = (v lsr (o - sub_bits)) land (per_octave - 1) in
    linear + ((o - 10) * per_octave) + sub
  end

let record t v =
  let i = index v in
  Array.unsafe_set t.counts i (Array.unsafe_get t.counts i + 1);
  t.n <- t.n + 1;
  t.sum <- t.sum + v

let bounds i =
  if i < linear then (float_of_int i, 1.0)
  else
    let o = 10 + ((i - linear) / per_octave) in
    let sub = (i - linear) mod per_octave in
    let width = 1 lsl (o - sub_bits) in
    (float_of_int ((per_octave + sub) * width), float_of_int width)

let merge_into dst src =
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.n <- dst.n + src.n;
  dst.sum <- dst.sum + src.sum

let count t = t.n
let mean t = if t.n = 0 then 0.0 else float_of_int t.sum /. float_of_int t.n

(* The value at rank [q * (n - 1)] (0-based), the sample spread evenly
   across its bucket. *)
let quantile t q =
  if t.n = 0 then 0.0
  else begin
    let rank = q *. float_of_int (t.n - 1) in
    let cum = ref 0 and i = ref 0 and result = ref nan in
    while Float.is_nan !result && !i < buckets do
      let c = t.counts.(!i) in
      if c > 0 && float_of_int (!cum + c) > rank then begin
        let low, width = bounds !i in
        result := low +. (width *. ((rank -. float_of_int !cum +. 0.5) /. float_of_int c))
      end;
      cum := !cum + c;
      incr i
    done;
    !result
  end
