(* What one run reports, and the digests the oracle compares.

   An op's outcome is reduced to an int digest outside the timed
   window, with no allocation: the reference replay computes the same
   digest for the same op, and the two must be equal.  File contents
   are identified by their length and leading bytes (every generated
   file starts with its own name); errors are hashed deep enough to
   cover the denial and its rendering. *)

open Exsec_extsys

let digest_str s =
  let n = String.length s in
  let h = ref n in
  for i = 0 to min 15 (n - 1) do
    h := (!h * 31) + Char.code (String.unsafe_get s i)
  done;
  (4 * (!h land 0xFFFFFFF)) + 1

let digest_error (e : Service.error) = (4 * Hashtbl.hash_param 64 256 e) + 2

let digest_result (r : (Value.t, Service.error) result) =
  match r with
  | Ok (Value.Str s) -> digest_str s
  | Ok v -> 4 * Hashtbl.hash_param 64 256 v
  | Error e -> digest_error e

type metric = string * float

type t = {
  attempted : int;
  failed : int;
  checks : (string * bool * string) list;  (** conservation checks: name, held, detail *)
  metrics : metric list;  (** whatever the run measured; the caller picks by name *)
  info : (string * string) list;  (** values are JSON *)
}

let counter (snap : Exsec_obs.Metrics.snapshot) name =
  match List.assoc_opt name snap.Exsec_obs.Metrics.counters with Some v -> v | None -> 0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mb_of_words words = float_of_int words *. float_of_int (Sys.word_size / 8) /. 1048576.0

(* Counters the library already keeps, turned into the per-layer
   ratios; read from the traced phase's snapshot. *)
let counter_metrics snap ~ops ~linked_calls =
  let c = counter snap in
  [
    "serve.requests", float_of_int (c "serve.requests");
    "serve.responses", float_of_int (c "serve.responses");
    "handle.hit_ratio", ratio (c "handle.hits") (c "handle.calls");
    "handle.reminted", float_of_int (c "handle.reminted");
    "kernel.cert_fast_path_ratio", ratio (c "kernel.cert_fast_path") linked_calls;
    "cert.revoked", float_of_int (c "cert.revoked");
    "resolver.denial_ratio", ratio (c "resolver.denials") (c "resolver.resolves");
    "cache.hit_ratio", ratio (c "cache.hits") (c "cache.hits" + c "cache.misses");
    "cache.invalidations", float_of_int (c "cache.invalidations");
    "cache.hits", float_of_int (c "cache.hits");
    "cache.misses", float_of_int (c "cache.misses");
    "monitor.decisions", float_of_int (c "monitor.decisions");
    ( "monitor.interpreted_ratio",
      ratio (c "monitor.dac_interpreted") (c "monitor.dac_compiled" + c "monitor.dac_interpreted") );
    "audit.records_per_op", ratio (c "audit.records") ops;
  ]

let cache_conservation snap =
  let c = counter snap in
  let hits = c "cache.hits" and misses = c "cache.misses" and decisions = c "monitor.decisions" in
  ( "cache.hits + cache.misses = monitor.decisions",
    hits + misses = decisions,
    Printf.sprintf "%d + %d vs %d" hits misses decisions )

let gc_metrics (g0 : Gc.stat) (g1 : Gc.stat) ~ops =
  [
    ( "gc.minor_collections_per_kop",
      if ops = 0 then 0.0
      else float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections) *. 1000.0 /. float_of_int ops );
    "gc.major_collections", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections);
  ]
