(* Layer probes for the traced run: the layers the op loop reaches only
   through other layers (the monitor and compiled ACLs, and the
   resolver behind the wire) are timed by calling their public
   functions directly, after the op loop, on the run's own world and
   on (subject, object, mode) targets drawn from the run's own ops.
   Each probe times a whole pass over the targets and reports the
   mean, so two clock reads are spread over many calls. *)

open Exsec_core

type target = { subject : Subject.t; path : Path.t; mode : Access_mode.t }

let passes = 8

let time_pass n f =
  let t0 = Clock.now () in
  for _ = 1 to passes do
    for i = 0 to n - 1 do
      f i
    done
  done;
  float_of_int (Clock.now () - t0) /. float_of_int (passes * n)

let run (w : World.t) (targets : target array) =
  let n = Array.length targets in
  if n = 0 then []
  else begin
    let kernel = w.World.kernel in
    let monitor = Exsec_extsys.Kernel.monitor kernel in
    let resolver = World.resolver w in
    let metas = Array.map (fun t -> World.meta w t.path) targets in
    let principals = Array.map (fun t -> Subject.principal t.subject) targets in
    let resolve_ns =
      time_pass n (fun i ->
          let t = targets.(i) in
          ignore (Resolver.resolve resolver ~subject:t.subject ~mode:t.mode t.path))
    in
    let decide_ns =
      time_pass n (fun i ->
          let t = targets.(i) in
          ignore (Reference_monitor.decide monitor ~subject:t.subject ~meta:metas.(i) ~mode:t.mode))
    in
    let compiled = Array.map (fun m -> Meta.compiled_acl m ~db:w.World.db) metas in
    let check_ns =
      time_pass n (fun i ->
          ignore (Acl_compiled.check compiled.(i) ~subject:principals.(i) ~mode:targets.(i).mode))
    in
    let m = min n 256 in
    let compile_ns =
      time_pass m (fun i -> ignore (Acl_compiled.compile ~db:w.World.db metas.(i).Meta.acl))
    in
    [
      "resolver.resolve_ns", resolve_ns;
      "monitor.decide_ns", decide_ns;
      "acl.check_ns", check_ns;
      "acl.compile_us", compile_ns /. 1000.0;
    ]
  end
