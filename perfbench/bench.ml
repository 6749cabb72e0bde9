(* The benchmark's entry point.

     bench.exe --workload W --seed N --seconds S --trace 0|1
     bench.exe --workload W --seed N --dump-ops K

   prints one [{"info": ...}] line, then, as its last line, the result:
   [{"correct", "attempted", "failed", "metrics"}].  With [--trace 0]
   the metrics are the end-to-end ones, with [--trace 1] the per-layer
   ones (see ../BENCHMARK.json and layers.json).  [--corrupt-oracle]
   falsifies one expected outcome, for the self-test.  [--dump-ops]
   prints the first K ops of the seeded stream instead of running. *)

let end_to_end =
  [
    "setup_s", "s";
    "ops_per_s", "1/s";
    "p50_us", "us";
    "p99_us", "us";
    "minor_words_per_op", "words";
    "heap_top_mb", "MB";
  ]

let per_layer =
  [
    "wire.encode_ns", "ns";
    "wire.decode_ns", "ns";
    "wire.bytes_per_op", "bytes";
    "transport.send_ns", "ns";
    "transport.recv_wait_us", "us";
    "transport.rtt_us", "us";
    "server.busy_us", "us";
    "server.share", "ratio";
    "serve.requests", "count";
    "serve.responses", "count";
    "kernel.call_ns", "ns";
    "kernel.call_handle_ns", "ns";
    "handle.hit_ratio", "ratio";
    "handle.reminted", "count";
    "linker.linked_call_ns", "ns";
    "kernel.cert_fast_path_ratio", "ratio";
    "linker.link_us", "us";
    "cert.revoked", "count";
    "resolver.resolve_ns", "ns";
    "resolver.denial_ratio", "ratio";
    "monitor.decide_ns", "ns";
    "cache.hit_ratio", "ratio";
    "cache.invalidations", "count";
    "monitor.interpreted_ratio", "ratio";
    "acl.check_ns", "ns";
    "acl.compile_us", "us";
    "principal.batch_us", "us";
    "principal.snapshot_us", "us";
    "audit.records_per_op", "count";
    "gc.minor_collections_per_kop", "count";
    "gc.major_collections", "count";
    "trace.overhead_ratio", "ratio";
    "untraced_share", "ratio";
    "cache.hits", "count";
    "cache.misses", "count";
    "monitor.decisions", "count";
    "failed_ratio", "ratio";
    "admin_p50_us", "us";
    "admin_p99_us", "us";
  ]

let workloads = [ "serve-mixed"; "kernel-calls"; "policy-churn" ]

let number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"
let quote = Exsec_obs.Metrics.json_string

let fields kvs = String.concat ", " (List.map (fun (k, v) -> quote k ^ ": " ^ v) kvs)

let usage () =
  prerr_endline
    "usage: bench.exe --workload serve-mixed|kernel-calls|policy-churn --seed N \
     --seconds S --trace 0|1 [--corrupt-oracle] | --dump-ops K";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let corrupt = ref false and dump = ref 0 in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: n :: rest -> seconds := int_of_string n; parse rest
    | "--trace" :: n :: rest -> trace := int_of_string n; parse rest
    | "--corrupt-oracle" :: rest -> corrupt := true; parse rest
    | "--dump-ops" :: n :: rest -> dump := int_of_string n; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not (List.mem !workload workloads)) || !seconds < 1 || (!trace <> 0 && !trace <> 1) then
    usage ();
  if !dump > 0 then begin
    let ops =
      match !workload with
      | "serve-mixed" -> Served.dump ~seed:!seed ~n:!dump
      | "kernel-calls" -> Inproc.dump Inproc.Kernel_calls ~seed:!seed ~n:!dump
      | _ -> Inproc.dump Inproc.Policy_churn ~seed:!seed ~n:!dump
    in
    List.iter print_endline ops;
    exit 0
  end;
  (try Unix.mkdir ".bench_out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let trace = !trace = 1 in
  let outcome, spans =
    match !workload with
    | "serve-mixed" -> Served.run ~seed:!seed ~seconds:!seconds ~trace ~corrupt:!corrupt
    | "kernel-calls" ->
      Inproc.run Inproc.Kernel_calls ~seed:!seed ~seconds:!seconds ~trace ~corrupt:!corrupt
    | _ -> Inproc.run Inproc.Policy_churn ~seed:!seed ~seconds:!seconds ~trace ~corrupt:!corrupt
  in
  let trace_file = Printf.sprintf ".bench_out/trace-%s-%d.jsonl" !workload !seed in
  if trace then Spans.write trace_file spans;
  let checks_hold = List.for_all (fun (_, held, _) -> held) outcome.Outcome.checks in
  let info =
    [
      "workload", quote !workload;
      "seed", string_of_int !seed;
      "seconds", string_of_int !seconds;
      "trace", string_of_bool trace;
      "recommended_domain_count", string_of_int (Domain.recommended_domain_count ());
      "ocaml_version", quote Sys.ocaml_version;
    ]
    @ outcome.Outcome.info
    @ (if trace then [ "trace_file", quote trace_file ] else [])
    @ [
        ( "checks",
          "["
          ^ String.concat ", "
              (List.map
                 (fun (name, held, detail) ->
                   "{"
                   ^ fields
                       [ "check", quote name; "held", string_of_bool held; "detail", quote detail ]
                   ^ "}")
                 outcome.Outcome.checks)
          ^ "]" );
      ]
  in
  print_endline ("{\"info\": {" ^ fields info ^ "}}");
  let wanted = if trace then per_layer else end_to_end in
  let metric (name, unit) =
    let value =
      match List.assoc_opt name outcome.Outcome.metrics with
      | Some v -> v
      | None -> if trace then 0.0 else failwith ("metric not measured: " ^ name)
    in
    name, "{\"value\": " ^ number value ^ ", \"unit\": " ^ quote unit ^ "}"
  in
  let correct = outcome.Outcome.failed = 0 && checks_hold && outcome.Outcome.attempted > 0 in
  print_endline
    ("{"
    ^ fields
        [
          "correct", string_of_bool correct;
          "attempted", string_of_int outcome.Outcome.attempted;
          "failed", string_of_int outcome.Outcome.failed;
          "metrics", "{" ^ fields (List.map metric wanted) ^ "}";
        ]
    ^ "}")
