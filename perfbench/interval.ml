(* Per-slice tallies of a timed phase.

   The host this benchmark was tuned on is a 2-vCPU virtual machine
   whose speed swings by up to 2x over seconds as other tenants come
   and go: a plain arithmetic loop ran at between 112k and 227k
   iterations per second within one 20-second window.  The phase is
   therefore cut into 100 ms slices, each with its own throughput and
   median latency, and a run reports the medians over its slices, so
   a burst of contention moves a few slices rather than the result.
   The p99 is taken over every op of the phase: one slice holds too
   few ops beyond its p99 to steady it. *)

let length_ns = 100_000_000

type t = {
  start : int;
  lat : Lat.t array;  (** latencies of the ops that count toward p50/p99 *)
  busy : int array;  (** summed op windows, ns *)
  ops : int array;
}

let create ~start ~ns =
  let n = max 1 ((ns + length_ns - 1) / length_ns) in
  { start; lat = Array.init n (fun _ -> Lat.create ()); busy = Array.make n 0; ops = Array.make n 0 }

let index t now =
  let i = (now - t.start) / length_ns in
  if i < 0 then 0 else if i >= Array.length t.ops then Array.length t.ops - 1 else i

(* One op whose window was [t0, t1]; [latency] says whether it counts
   toward the latency quantiles. *)
let record t ~latency t0 t1 =
  let i = index t t0 and d = t1 - t0 in
  t.busy.(i) <- t.busy.(i) + d;
  t.ops.(i) <- t.ops.(i) + 1;
  if latency then Lat.record t.lat.(i) d

let total_ops ts = List.fold_left (fun a t -> Array.fold_left ( + ) a t.ops) 0 ts

(* The median over slices in which any op ran of the summed
   per-domain rates (ops over the time the domain had an op in flight)
   and of the p50 of the merged latencies; and the p99 of all of the
   phase's latencies. *)
let summary ts =
  match ts with
  | [] -> (0.0, 0.0, 0.0)
  | first :: _ ->
    let rates = ref [] and p50s = ref [] and all = Lat.create () in
    for i = 0 to Array.length first.ops - 1 do
      let lat = Lat.create () and rate = ref 0.0 and ops = ref 0 in
      List.iter
        (fun t ->
          ops := !ops + t.ops.(i);
          if t.busy.(i) > 0 then rate := !rate +. (float_of_int t.ops.(i) *. 1e9 /. float_of_int t.busy.(i));
          Lat.merge_into lat t.lat.(i))
        ts;
      Lat.merge_into all lat;
      if !ops > 0 then begin
        rates := !rate :: !rates;
        if Lat.count lat > 0 then p50s := Lat.quantile lat 0.50 :: !p50s
      end
    done;
    (Outcome.median !rates, Outcome.median !p50s, Lat.quantile all 0.99)
