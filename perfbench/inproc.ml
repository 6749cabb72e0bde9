(* The in-process workloads: kernel-calls and policy-churn.

   Ops go through the functions the server itself calls
   ([Resolver.resolve] plus the memfs payload, [Kernel.call],
   [Kernel.call_handle]) and through [Linker.Linked.call] on imports of
   extensions linked at setup.  An op is a {e template} — (kind,
   subject, target) — out of 32768.  Each caller domain draws its own
   seeded stream: the kind by the fixed mix, then a template of that
   kind by a Zipf(0.8) popularity, so a hot head fits the decision
   cache and the tail does not, while no single template carries
   enough of the traffic for the seed to move the mix.

   policy-churn also interleaves one administrative op every 100 ops
   (see [admin_kinds]); kernel-calls performs no writes.

   Oracle: every op's outcome digest is recorded; at every segment
   boundary (and untimed) the segment is replayed against the
   reference world of [World] — admin ops applied in stream order, every
   other op through plain [Kernel.call] / [Resolver.resolve].  Between
   two admin ops the reference outcome of an op depends only on its
   template, so the replay memoizes by template and forgets at every
   admin op; kernel-calls never writes, so its memo is filled once at
   setup. *)

open Exsec_core
open Exsec_extsys
open Exsec_services
module Metrics = Exsec_obs.Metrics
module Sys_domain = Stdlib.Domain
module Linked = Linker.Linked

let k_read = 0
let k_big = 1
let k_resolve = 2
let k_call = 3
let k_handle = 4
let k_linked = 5
let kind_names = [| "read"; "read_big"; "resolve"; "call"; "call_handle"; "linked_call" |]
let mix = [| 55; 5; 10; 10; 10; 10 |]

type admin = Set_acl | Set_class | Membership | Revoke_relink | Advance_sweep | Set_policy

let admin_kinds = [| Set_acl; Set_class; Membership; Revoke_relink; Advance_sweep; Set_policy |]

let admin_name = function
  | Set_acl -> "set_acl"
  | Set_class -> "set_class"
  | Membership -> "membership"
  | Revoke_relink -> "revoke_relink"
  | Advance_sweep -> "advance_sweep"
  | Set_policy -> "set_policy"

(* Admin op k has kind [admin_kinds.(admin_cycle.(k mod 20))]: the mix
   is exact in every 20 admin ops (set_acl 35%, set_class 25%,
   membership 15%, revoke_relink 10%, advance_sweep 10%, set_policy
   5%), so a slice of the run holds the same admin work whatever the
   seed. *)
let admin_cycle = [| 0; 1; 0; 2; 0; 1; 3; 0; 4; 1; 0; 2; 0; 1; 5; 0; 4; 1; 2; 3 |]
let n_templates = 32768
let zipf_exponent = 0.8

(* Templates of kind [k] are the indices [offset.(k) .. offset.(k+1)-1]. *)
let offset =
  let o = Array.make (Array.length mix + 1) 0 in
  Array.iteri (fun k share -> o.(k + 1) <- o.(k) + (n_templates * share / 100)) mix;
  o
let n_handles = 256
let pool_size = 4096
let caller = "bench"
let segment = 4096

type handle = {
  h : Handle.h;
  h_subject : int;
  h_proc : int;
}

type templates = {
  kind : int array;
  subj : int array;
  target : int array;
  aux : int array;  (** linked_call: import index *)
}

type ctx = {
  w : World.t;
  tpl : templates;
  handles : handle array;
  rtable : (Path.t * Access_mode.t) array;  (** resolve targets *)
  imports : Path.t array array;  (** per extension *)
  pool : (int * int) array;  (** (individual, group) pairs membership ops toggle *)
}

let pick_weighted weights r =
  let rec go i acc =
    if i = Array.length weights - 1 || r < acc + weights.(i) then i
    else go (i + 1) (acc + weights.(i))
  in
  go 0 0

let resolve_table (w : World.t) =
  Array.concat
    [
      Array.map (fun p -> p, Access_mode.Read) w.World.files;
      Array.map (fun p -> p, Access_mode.List) w.World.dirs;
      Array.map (fun p -> p, Access_mode.Execute) w.World.procs;
    ]

let open_handles (w : World.t) ~seed =
  let rng = Random.State.make [| seed; 0x4a4d |] in
  let people = Array.length w.World.subjects and procs = Array.length w.World.procs in
  let acc = ref [] and n = ref 0 and tries = ref 0 in
  while !n < n_handles && !tries < 100 * n_handles do
    incr tries;
    let s = Random.State.int rng people and p = Random.State.int rng procs in
    let subject = w.World.subjects.(s) in
    match Kernel.open_handle w.World.kernel ~subject ~caller w.World.procs.(p) with
    | Ok h ->
      acc := { h; h_subject = s; h_proc = p } :: !acc;
      incr n
    | Error _ -> ()
  done;
  Array.of_list (List.rev !acc)

let make_templates (w : World.t) ~handles ~rtable ~imports ~seed =
  let rng = Random.State.make [| seed; 0x7e3 |] in
  let pick n = Random.State.int rng n in
  let people = Array.length w.World.subjects in
  let n = offset.(Array.length mix) in
  let tpl =
    { kind = Array.make n 0; subj = Array.make n 0; target = Array.make n 0; aux = Array.make n 0 }
  in
  for t = 0 to n - 1 do
    let kind = ref 0 in
    while offset.(!kind + 1) <= t do
      incr kind
    done;
    let kind = !kind in
    tpl.kind.(t) <- kind;
    tpl.subj.(t) <- pick people;
    if kind = k_read then tpl.target.(t) <- pick (Array.length w.World.files)
    else if kind = k_resolve then tpl.target.(t) <- pick (Array.length rtable)
    else if kind = k_call then tpl.target.(t) <- pick (Array.length w.World.procs)
    else if kind = k_handle then tpl.target.(t) <- pick (Array.length handles)
    else if kind = k_linked then begin
      (* Mostly registered sessions, which certificates cover. *)
      if pick 100 < 80 then tpl.subj.(t) <- pick w.World.shape.World.registered;
      let e = pick (Array.length imports) in
      tpl.target.(t) <- e;
      tpl.aux.(t) <- pick (Array.length imports.(e))
    end
  done;
  tpl

let make_ctx (w : World.t) ~handles ~seed =
  let rtable = resolve_table w in
  let imports = Array.map (fun (e : World.ext) -> Array.of_list e.World.imports) w.World.exts in
  let rng = Random.State.make [| seed; 0x900 |] in
  let pool =
    Array.init pool_size (fun _ ->
        ( Random.State.int rng (Array.length w.World.people),
          Random.State.int rng (Array.length w.World.groups) ))
  in
  { w; tpl = make_templates w ~handles ~rtable ~imports ~seed; handles; rtable; imports; pool }

(* The same templates, handles and pool over the reference world. *)
let reference_ctx c (w : World.t) = { c with w }

(* {1 Op streams} *)

(* Zipf popularity over [n] ranks, as a cumulative table scaled to the
   30 bits [Random.State.bits] returns (sampling allocates nothing). *)
let zipf_cdf n =
  let weights = Array.init n (fun i -> float_of_int (i + 1) ** -.zipf_exponent) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0 and acc = ref 0.0 in
  Array.iteri
    (fun i x ->
      acc := !acc +. x;
      cdf.(i) <- int_of_float (!acc /. total *. 1073741824.0))
    weights;
  cdf.(n - 1) <- 1 lsl 30;
  cdf

let kind_cdfs () = Array.init (Array.length mix) (fun k -> zipf_cdf (offset.(k + 1) - offset.(k)))

type stream = {
  rng : Random.State.t;
  cdfs : int array array;  (** per kind *)
  admin_every : int;  (** 0: no admin ops *)
  mutable pos : int;
}

let stream ~seed ~domain ~admin_every cdfs =
  { rng = Random.State.make [| seed; 100 + domain |]; cdfs; admin_every; pos = 0 }

(* An op is a template index, or a negative admin op carrying its kind
   and a 24-bit parameter. *)
let next s =
  let pos = s.pos in
  s.pos <- pos + 1;
  if s.admin_every > 0 && pos mod s.admin_every = s.admin_every - 1 then begin
    let kind = admin_cycle.(pos / s.admin_every mod Array.length admin_cycle) in
    let param = Random.State.bits s.rng land 0xFFFFFF in
    -1 - ((kind lsl 24) lor param)
  end
  else begin
    let kind = pick_weighted mix (Random.State.int s.rng 100) in
    let cdf = s.cdfs.(kind) in
    let u = Random.State.bits s.rng in
    let lo = ref 0 and hi = ref (Array.length cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if cdf.(mid) > u then hi := mid else lo := mid + 1
    done;
    offset.(kind) + !lo
  end

let admin_kind op = admin_kinds.((-1 - op) lsr 24)
let admin_param op = (-1 - op) land 0xFFFFFF

let describe c op =
  if op < 0 then Printf.sprintf "admin %s %d" (admin_name (admin_kind op)) (admin_param op)
  else
    Printf.sprintf "%s t%d s%d x%d a%d" kind_names.(c.tpl.kind.(op)) op c.tpl.subj.(op)
      c.tpl.target.(op) c.tpl.aux.(op)

(* {1 Executing ops} *)

type st = {
  traced : bool;
  sp : Spans.t;
  iv : Interval.t;  (** every op; latencies of the read mix only *)
  admin_lat : Lat.t;
  mutable admins : int;
  mutable linked_calls : int;
  mutable id : int;
  mutable heap_top : int;  (** major heap words, sampled at segment ends *)
}

let new_st ~traced ~start ~ns domain =
  {
    traced;
    sp = Spans.create domain;
    iv = Interval.create ~start ~ns;
    admin_lat = Lat.create ();
    admins = 0;
    linked_calls = 0;
    id = 0;
    heap_top = 0;
  }

let not_a_file = Service.Unresolved "not a readable object"

let kind_string node =
  match Namespace.payload node with
  | Some (Kernel.Proc _) -> "proc"
  | Some (Memfs.File _) -> "file"
  | Some _ -> "entry"
  | None -> "dir"

let digest_read r contents =
  match r with
  | Error d -> Outcome.digest_error (Service.error_of_denial d)
  | Ok node -> (
    match Namespace.payload node with
    | Some (Memfs.File _) -> Outcome.digest_str contents
    | Some _ | None -> Outcome.digest_error not_a_file)

let digest_resolve r =
  match r with
  | Error d -> Outcome.digest_error (Service.error_of_denial d)
  | Ok node -> Outcome.digest_str (kind_string node)

let file_contents node =
  match Namespace.payload node with
  | Some (Memfs.File f) -> Memfs.file_contents f
  | Some _ | None -> ""

let read_target c op =
  if c.tpl.kind.(op) = k_read then c.w.World.files.(c.tpl.target.(op)) else c.w.World.big

let finish st t0 t1 = Interval.record st.iv ~latency:true t0 t1

(* Every branch reads the clock before and after the layer calls and
   digests the outcome after the window closes; the traced branches
   add one child span per layer call. *)
let exec_template c st op =
  let w = c.w and tpl = c.tpl in
  let kind = tpl.kind.(op) in
  let subject = w.World.subjects.(tpl.subj.(op)) in
  if kind <= k_big then begin
    let path = read_target c op in
    let resolver = World.resolver w in
    let t0 = Clock.now () in
    if st.traced then begin
      let r = Resolver.resolve resolver ~subject ~mode:Access_mode.Read path in
      let a = Clock.now () in
      Spans.child st.sp ~op:st.id Spans.resolve t0 a;
      let contents = match r with Ok node -> file_contents node | Error _ -> "" in
      let t1 = Clock.now () in
      Spans.child st.sp ~op:st.id Spans.memfs_read a t1;
      finish st t0 t1;
      digest_read r contents
    end
    else begin
      let r = Resolver.resolve resolver ~subject ~mode:Access_mode.Read path in
      let contents = match r with Ok node -> file_contents node | Error _ -> "" in
      let t1 = Clock.now () in
      finish st t0 t1;
      digest_read r contents
    end
  end
  else if kind = k_resolve then begin
    let path, mode = c.rtable.(tpl.target.(op)) in
    let t0 = Clock.now () in
    let r = Resolver.resolve (World.resolver w) ~subject ~mode path in
    let t1 = Clock.now () in
    if st.traced then Spans.child st.sp ~op:st.id Spans.resolve t0 t1;
    finish st t0 t1;
    digest_resolve r
  end
  else begin
    let t0 = Clock.now () in
    let r, layer =
      if kind = k_call then
        ( Kernel.call w.World.kernel ~subject ~caller w.World.procs.(tpl.target.(op)) [],
          Spans.kernel_call )
      else if kind = k_handle then
        (Kernel.call_handle w.World.kernel c.handles.(tpl.target.(op)).h [], Spans.call_handle)
      else begin
        st.linked_calls <- st.linked_calls + 1;
        let e = tpl.target.(op) in
        (Linked.call w.World.linked.(e) ~subject c.imports.(e).(tpl.aux.(op)) [], Spans.linked_call)
      end
    in
    let t1 = Clock.now () in
    if st.traced then Spans.child st.sp ~op:st.id layer t0 t1;
    finish st t0 t1;
    Outcome.digest_result r
  end

let policy_default = Policy.with_recheck Policy.default
let policy_swapped = Policy.with_recheck Policy.no_integrity

let denial_result = function
  | Ok () -> Ok Value.unit
  | Error d -> Error (Service.error_of_denial d)

let admin_acl (w : World.t) param =
  let n = Array.length w.World.people in
  Acl.of_entries
    ([
       Acl.allow_all (Acl.Individual (Subject.principal w.World.admin));
       Acl.allow
         (Acl.Group w.World.groups.(param mod Array.length w.World.groups))
         [ Access_mode.Read; Access_mode.List ];
       Acl.deny (Acl.Individual w.World.people.((param / 4) mod n)) [ Access_mode.Read ];
     ]
    @ if param land 2 = 0 then [ Acl.allow Acl.Everyone [ Access_mode.Read ] ] else [])

(* One administrative op, issued as the admin subject (the re-link as
   the extension's author, who owns its directory).  Shared by the
   timed world and the reference replay, which passes [traced:false]. *)
let apply_admin c ~traced sp ~id kind param : (Value.t, Service.error) result =
  let w = c.w in
  let kernel = w.World.kernel in
  let timed layer f =
    if traced then begin
      let a = Clock.now () in
      let r = f () in
      Spans.child sp ~op:id layer a (Clock.now ());
      r
    end
    else f ()
  in
  let files = w.World.files in
  match kind with
  | Set_acl ->
    let path = files.(param mod Array.length files) in
    denial_result
      (timed Spans.set_acl (fun () ->
           Resolver.set_acl (World.resolver w) ~subject:w.World.admin path (admin_acl w param)))
  | Set_class ->
    let path = files.(param / 7 mod Array.length files) in
    let klass = w.World.classes.(param mod Array.length w.World.classes) in
    denial_result
      (timed Spans.set_class (fun () ->
           Resolver.set_class (World.resolver w) ~subject:w.World.admin path klass))
  | Membership ->
    let db = w.World.db in
    timed Spans.batch (fun () ->
        Kernel.batch_principals kernel (fun () ->
            for j = 0 to 7 do
              let i, g = c.pool.((param + (j * 31)) mod pool_size) in
              let member = Principal.Ind w.World.people.(i) and group = w.World.groups.(g) in
              if List.mem member (Principal.Db.direct_members db group) then
                Principal.Db.remove_member db group member
              else Principal.Db.add_member db group member
            done));
    ignore (timed Spans.snapshot (fun () -> Principal.Db.snapshot db));
    Ok Value.unit
  | Revoke_relink -> (
    let e = param mod Array.length w.World.exts in
    let ext = w.World.exts.(e) in
    let author = w.World.people.(ext.World.author) in
    ignore (timed Spans.revoke (fun () -> Kernel.revoke_by_principal kernel author));
    match
      timed Spans.unload (fun () ->
          Linker.unload kernel ~subject:w.World.subjects.(ext.World.author) ext.World.ext_name)
    with
    | Error e -> Error e
    | Ok () ->
      timed Spans.link (fun () -> World.relink w e);
      Ok Value.unit)
  | Advance_sweep ->
    ignore (timed Spans.advance (fun () -> Kernel.advance_cert_epoch kernel));
    ignore (timed Spans.sweep (fun () -> Kernel.sweep_expired_certificates kernel));
    Ok Value.unit
  | Set_policy ->
    timed Spans.set_policy (fun () ->
        Reference_monitor.set_policy (Kernel.monitor kernel)
          (if param land 1 = 0 then policy_swapped else policy_default));
    Ok Value.unit

let exec c st op =
  st.id <- st.id + 1;
  if op >= 0 then exec_template c st op
  else begin
    let t0 = Clock.now () in
    let r = apply_admin c ~traced:st.traced st.sp ~id:st.id (admin_kind op) (admin_param op) in
    let t1 = Clock.now () in
    Lat.record st.admin_lat (t1 - t0);
    Interval.record st.iv ~latency:false t0 t1;
    st.admins <- st.admins + 1;
    Outcome.digest_result r
  end

(* {1 The reference replay} *)

let reference_outcome rc op =
  let w = rc.w and tpl = rc.tpl in
  let kind = tpl.kind.(op) in
  let subject = w.World.subjects.(tpl.subj.(op)) in
  let kernel = w.World.kernel in
  if kind <= k_big then begin
    let path = read_target rc op in
    let r = Resolver.resolve (World.resolver w) ~subject ~mode:Access_mode.Read path in
    digest_read r (match r with Ok node -> file_contents node | Error _ -> "")
  end
  else if kind = k_resolve then begin
    let path, mode = rc.rtable.(tpl.target.(op)) in
    digest_resolve (Resolver.resolve (World.resolver w) ~subject ~mode path)
  end
  else
    Outcome.digest_result
      (if kind = k_call then Kernel.call kernel ~subject ~caller w.World.procs.(tpl.target.(op)) []
       else if kind = k_handle then begin
         let h = rc.handles.(tpl.target.(op)) in
         let subject = w.World.subjects.(h.h_subject) in
         Kernel.call kernel ~subject ~caller w.World.procs.(h.h_proc) []
       end
       else begin
         let e = tpl.target.(op) in
         Kernel.call kernel ~subject ~caller:w.World.exts.(e).World.ext_name rc.imports.(e).(tpl.aux.(op)) []
       end)

type replay = {
  rc : ctx;
  memo : (int, int) Hashtbl.t;
  mutable corrupt : bool;  (** self-test: falsify the next expected digest *)
}

let replay_segment rp ops codes n =
  let bad = ref 0 in
  for i = 0 to n - 1 do
    let op = ops.(i) in
    let expected =
      if op < 0 then begin
        Hashtbl.reset rp.memo;
        Outcome.digest_result
          (apply_admin rp.rc ~traced:false (Spans.create 0) ~id:0 (admin_kind op) (admin_param op))
      end
      else
        match Hashtbl.find_opt rp.memo op with
        | Some d -> d
        | None ->
          let d = reference_outcome rp.rc op in
          Hashtbl.replace rp.memo op d;
          d
    in
    let expected =
      if rp.corrupt then begin
        rp.corrupt <- false;
        expected + 1
      end
      else expected
    in
    if expected <> codes.(i) then incr bad
  done;
  !bad

(* {1 Timed phases} *)

type domain_result = {
  st : st;
  failed : int;
  replay_words : float;
}

let run_domain c st s ~deadline ~verify =
  let seg_ops = Array.make segment 0 and seg_codes = Array.make segment 0 in
  let n = ref 0 and failed = ref 0 and replay_words = ref 0.0 in
  let flush () =
    if !n > 0 then begin
      let w0 = Gc.minor_words () in
      failed := !failed + verify seg_ops seg_codes !n;
      replay_words := !replay_words +. (Gc.minor_words () -. w0);
      st.heap_top <- max st.heap_top (Gc.quick_stat ()).Gc.heap_words;
      n := 0
    end
  in
  (* A traced op's root span runs from drawing the op to recording its
     digest: whatever of it no layer span covers is the benchmark's own
     work, or a layer call with no span around it. *)
  while Clock.now () < deadline do
    let r0 = if st.traced then Clock.now () else 0 in
    let op = next s in
    let d = exec c st op in
    seg_ops.(!n) <- op;
    seg_codes.(!n) <- d;
    incr n;
    if st.traced then Spans.close_root st.sp ~op:st.id r0 (Clock.now ());
    if !n = segment then flush ()
  done;
  flush ();
  { st; failed = !failed; replay_words = !replay_words }

type phase = {
  results : domain_result list;
  gc0 : Gc.stat;
  gc1 : Gc.stat;
}

let start_timeout_ns = 10_000_000_000

let run_phase c streams ~traced ~ns ~verify =
  let nd = Array.length streams in
  let gc0 = Gc.quick_stat () in
  let results =
    if nd = 1 then begin
      let start = Clock.now () in
      [ run_domain c (new_st ~traced ~start ~ns 0) streams.(0) ~deadline:(start + ns) ~verify:(verify 0) ]
    end
    else begin
      let ready = Atomic.make 0 and start = Atomic.make 0 in
      let body d () =
        Atomic.incr ready;
        let give_up = Clock.now () + start_timeout_ns in
        while Atomic.get start = 0 && Clock.now () < give_up do
          Sys_domain.cpu_relax ()
        done;
        let start = Atomic.get start in
        if start = 0 then failwith "caller domain never released";
        run_domain c (new_st ~traced ~start ~ns d) streams.(d) ~deadline:(start + ns) ~verify:(verify d)
      in
      let domains = List.init nd (fun d -> Sys_domain.spawn (body d)) in
      let give_up = Clock.now () + start_timeout_ns in
      while Atomic.get ready < nd && Clock.now () < give_up do
        Sys_domain.cpu_relax ()
      done;
      Atomic.set start (Clock.now ());
      List.map Sys_domain.join domains
    end
  in
  { results; gc0; gc1 = Gc.quick_stat () }

let sum f p = List.fold_left (fun a r -> a + f r) 0 p.results
let ivs p = List.map (fun r -> r.st.iv) p.results
let ops_of p = Interval.total_ops (ivs p)
let ops_per_s p = let rate, _, _ = Interval.summary (ivs p) in rate

let minor_words_per_op p =
  let replay = List.fold_left (fun a r -> a +. r.replay_words) 0.0 p.results in
  let ops = ops_of p in
  if ops = 0 then 0.0 else (p.gc1.Gc.minor_words -. p.gc0.Gc.minor_words -. replay) /. float_of_int ops

(* The peak major heap over the phase: the phase starts right after a
   compaction, so this is the live world plus what the ops leave
   behind, not the garbage of setup. *)
let heap_top_mb p =
  Outcome.mb_of_words
    (List.fold_left (fun a r -> max a r.st.heap_top) (max p.gc0.Gc.heap_words p.gc1.Gc.heap_words) p.results)

let end_to_end p ~setup_s =
  let rate, p50, p99 = Interval.summary (ivs p) in
  [
    "setup_s", setup_s;
    "ops_per_s", rate;
    "p50_us", p50 /. 1000.0;
    "p99_us", p99 /. 1000.0;
    "minor_words_per_op", minor_words_per_op p;
    "heap_top_mb", heap_top_mb p;
  ]

(* {1 The workload} *)

type workload = Kernel_calls | Policy_churn

let setup_rounds = 7

let build ?(rounds = setup_rounds) workload ~seed =
  let shape = match workload with Kernel_calls -> World.dense | Policy_churn -> World.sparse in
  let times = ref [] and built = ref None in
  for _ = 1 to rounds do
    built := None;
    (* every round starts from the same clean heap *)
    Gc.full_major ();
    let t0 = Clock.now () in
    let w = World.build ~reference:false ~seed shape in
    let handles = open_handles w ~seed in
    times := (float_of_int (Clock.now () - t0) /. 1e9) :: !times;
    built := Some (w, handles)
  done;
  let w, handles = Option.get !built in
  (make_ctx w ~handles ~seed, Outcome.median !times, shape)

let domains workload =
  match workload with Kernel_calls -> min 8 (Sys_domain.recommended_domain_count ()) | Policy_churn -> 1

let admin_every = function Kernel_calls -> 0 | Policy_churn -> 100

(* The first [n] ops of each domain's stream, for the self-test. *)
let dump workload ~seed ~n =
  let c, _, _ = build ~rounds:1 workload ~seed in
  let cdfs = kind_cdfs () in
  List.concat
    (List.init (domains workload) (fun d ->
         let s = stream ~seed ~domain:d ~admin_every:(admin_every workload) cdfs in
         List.init n (fun _ -> describe c (next s))))

let run workload ~seed ~seconds ~trace ~corrupt =
  let c, setup_s, shape = build workload ~seed in
  let rw = World.build ~reference:true ~seed shape in
  let rc = reference_ctx c rw in
  let nd = domains workload in
  let cdfs = kind_cdfs () in
  let streams = Array.init nd (fun d -> stream ~seed ~domain:d ~admin_every:(admin_every workload) cdfs) in
  let verify =
    match workload with
    | Kernel_calls ->
      (* Never written: the replay of any op is its template's outcome. *)
      let expected = Array.init (Array.length c.tpl.kind) (reference_outcome rc) in
      if corrupt then expected.(0) <- expected.(0) + 1;
      fun _domain ops codes n ->
        let bad = ref 0 in
        for i = 0 to n - 1 do
          if expected.(ops.(i)) <> codes.(i) then incr bad
        done;
        !bad
    | Policy_churn ->
      let rp = { rc; memo = Hashtbl.create 1024; corrupt } in
      fun _domain ops codes n ->
        (* The replay's monitor work must not reach the traced counters. *)
        let metrics_on = Metrics.enabled () in
        Metrics.set_enabled false;
        let bad = replay_segment rp ops codes n in
        Metrics.set_enabled metrics_on;
        bad
  in
  let ns = seconds * 1_000_000_000 in
  let failed p = sum (fun r -> r.failed) p in
  Gc.compact ();
  let info =
    [ "domains", string_of_int nd; "individuals", string_of_int (Principal.Db.individual_count c.w.World.db) ]
  in
  if not trace then begin
    let p = run_phase c streams ~traced:false ~ns ~verify in
    ( {
        Outcome.attempted = ops_of p;
        failed = failed p;
        checks = [];
        metrics = end_to_end p ~setup_s;
        info;
      },
      [] )
  end
  else begin
    let plain = run_phase c streams ~traced:false ~ns:(ns / 2) ~verify in
    Metrics.reset ();
    Metrics.set_enabled true;
    let p = run_phase c streams ~traced:true ~ns:(ns / 2) ~verify in
    Metrics.set_enabled false;
    let snap = Metrics.snapshot () in
    let spans = List.map (fun r -> r.st.sp) p.results in
    let ops = ops_of p in
    (* the 1024 most popular read templates *)
    let targets =
      Array.init 1024 (fun t ->
          {
            Probe.subject = c.w.World.subjects.(c.tpl.subj.(offset.(k_read) + t));
            path = c.w.World.files.(c.tpl.target.(offset.(k_read) + t));
            mode = Access_mode.Read;
          })
    in
    let admin = Lat.create () in
    List.iter (fun r -> Lat.merge_into admin r.st.admin_lat) p.results;
    let us layer = Spans.mean_ns spans layer /. 1000.0 in
    let attempted = ops_of plain + ops in
    let failures = failed plain + failed p in
    let metrics =
      [
        "resolver.resolve_ns", Spans.mean_ns spans Spans.resolve;
        "kernel.call_ns", Spans.mean_ns spans Spans.kernel_call;
        "kernel.call_handle_ns", Spans.mean_ns spans Spans.call_handle;
        "linker.linked_call_ns", Spans.mean_ns spans Spans.linked_call;
        "linker.link_us", Lat.mean c.w.World.link_ns /. 1000.0;
        "principal.batch_us", us Spans.batch;
        "principal.snapshot_us", us Spans.snapshot;
        "admin_p50_us", Lat.quantile admin 0.50 /. 1000.0;
        "admin_p99_us", Lat.quantile admin 0.99 /. 1000.0;
        "trace.overhead_ratio", (if ops_per_s p = 0.0 then 0.0 else ops_per_s plain /. ops_per_s p);
        "untraced_share", Spans.untraced_share spans;
        "failed_ratio", Outcome.ratio failures attempted;
      ]
      @ Outcome.counter_metrics snap ~ops ~linked_calls:(sum (fun r -> r.st.linked_calls) p)
      @ Outcome.gc_metrics p.gc0 p.gc1 ~ops
      (* the op loop's own resolve spans stand in for the probe's *)
      @ List.remove_assoc "resolver.resolve_ns" (Probe.run c.w targets)
    in
    ( {
        Outcome.attempted;
        failed = failures;
        checks = [ Outcome.cache_conservation snap ];
        metrics;
        info =
          info
          @ [
              "spans", string_of_int (Spans.count spans Spans.root);
              "layer_shares", Spans.shares_json spans;
            ];
      },
      spans )
  end
