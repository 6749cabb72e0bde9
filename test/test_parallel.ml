(* Multi-domain stress suite for the domain-safe reference monitor.

   Four reader domains replay seeded check-only Opstream streams
   against one shared monitor while a mutator domain churns ACLs,
   classes, group memberships and the active policy.  Invariants:

   - no crash and no torn state (the data-then-generation publication
     order of Meta/Principal.Db plus the cache's per-shard locks);
   - revocation barrier: after the mutator revokes the barrier
     object's ACL and publishes the round number, every reader's next
     look at that object must be denied — a grant would be a stale
     cache entry surviving a revocation, i.e. a protection hole;
   - conservation: cache hits + misses equals decisions taken, and the
     audit ring's granted + denied totals equal checks recorded.

   This module must not [open Exsec_extsys]: that library's [Domain]
   (protection domains, after the paper) would shadow stdlib [Domain]
   (OCaml parallelism). *)

open Exsec_core
open Exsec_workload

let check = Alcotest.(check bool)

(* Every barrier wait is bounded: a domain that stops acknowledging
   fails the test with the round and the lagging domains named,
   instead of hanging the suite.  Normal rounds take microseconds. *)
let ack_deadline_s = 30.0

let await_acks ~what acks round =
  let deadline = Unix.gettimeofday () +. ack_deadline_s in
  while Array.exists (fun ack -> Atomic.get ack < round) acks do
    if Unix.gettimeofday () > deadline then begin
      let lagging = ref [] in
      Array.iteri
        (fun i ack ->
          let seen = Atomic.get ack in
          if seen < round then
            lagging := Printf.sprintf "%s %d (acked round %d)" what i seen :: !lagging)
        acks;
      Alcotest.failf "round %d: no ack within %.0f s from %s" round ack_deadline_s
        (String.concat ", " (List.rev !lagging))
    end;
    Domain.cpu_relax ()
  done

(* {1 Readers vs. mutator} *)

let readers = 4
let rounds = 40
let mutations_per_round = 20

let stress_readers_vs_mutator ~cache_shards =
  let rng = Prng.create ~seed:1997 in
  let env =
    Opstream.environment rng ~individuals:16 ~groups:4 ~subjects:12 ~objects:24
      ~levels:3 ~categories:3
  in
  (* Small capacity so concurrent eviction runs alongside concurrent
     invalidation. *)
  let monitor =
    Reference_monitor.create ~cache:true ~cache_capacity:64 ~cache_shards env.Opstream.db
  in
  (* The barrier object and its observer live outside the generated
     environment, so its only mutations are the mutator's revocations:
     at bottom class with an unlabelled integrity slot, the observer's
     outcome hinges on the ACL alone under every DAC-enabled policy. *)
  let bottom = Security_class.bottom env.Opstream.hierarchy env.Opstream.universe in
  let warden = Principal.individual "warden" in
  let observer_ind = Principal.individual "observer" in
  Principal.Db.add_individual env.Opstream.db warden;
  Principal.Db.add_individual env.Opstream.db observer_ind;
  let observer = Subject.make observer_ind bottom in
  let allow_read = Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.Read ] ] in
  let deny_read = Acl.of_entries [ Acl.deny Acl.Everyone [ Access_mode.Read ] ] in
  let barrier_meta = Meta.make ~owner:warden ~acl:allow_read bottom in
  let barrier_round = Atomic.make 0 in
  let acks = Array.init readers (fun _ -> Atomic.make 0) in
  let stop = Atomic.make false in
  let run_reader i =
    (* Each reader replays its own seeded check-only stream, cycling
       until the mutator calls time. *)
    let rng = Prng.create ~seed:(4000 + i) in
    let ops =
      Array.of_list (Opstream.generate rng env ~steps:512 ~mutation_fraction:0.0)
    in
    let checks = ref 0 in
    let stale_grants = ref 0 in
    let pos = ref 0 in
    let my_ack = ref 0 in
    while not (Atomic.get stop) do
      (match ops.(!pos) with
      | Opstream.Check { subject; object_; mode } ->
        incr checks;
        ignore
          (Reference_monitor.check monitor
             ~subject:env.Opstream.subjects.(subject)
             ~meta:env.Opstream.metas.(object_)
             ~object_name:(Printf.sprintf "obj-%d" object_)
             ~mode)
      | _ -> ());
      pos := (!pos + 1) mod Array.length ops;
      let round = Atomic.get barrier_round in
      if round > !my_ack then begin
        (* The mutator revoked before publishing [round] and re-grants
           only after every reader acknowledges, so this check runs
           strictly inside the deny window: any grant is stale. *)
        incr checks;
        let decision =
          Reference_monitor.check monitor ~subject:observer ~meta:barrier_meta
            ~object_name:"barrier" ~mode:Access_mode.Read
        in
        if Decision.is_granted decision then incr stale_grants;
        my_ack := round;
        Atomic.set acks.(i) round
      end
    done;
    !checks, !stale_grants
  in
  let run_mutator () =
    let rng = Prng.create ~seed:5077 in
    let ops =
      Array.of_list (Opstream.generate rng env ~steps:1024 ~mutation_fraction:1.0)
    in
    let pos = ref 0 in
    for round = 1 to rounds do
      for _ = 1 to mutations_per_round do
        (match ops.(!pos) with
        | Opstream.Set_acl { object_; acl } ->
          Meta.set_acl_raw env.Opstream.metas.(object_) acl
        | Opstream.Set_class { object_; klass } ->
          Meta.set_klass_raw env.Opstream.metas.(object_) klass
        | Opstream.Set_integrity { object_; integrity } ->
          Meta.set_integrity_raw env.Opstream.metas.(object_) integrity
        | Opstream.Set_policy policy ->
          (* Keep discretionary control on so the barrier's explicit
             deny stays definitive in every window. *)
          if policy.Policy.dac then Reference_monitor.set_policy monitor policy
        | Opstream.Join_group { group; ind } ->
          Principal.Db.add_member env.Opstream.db group (Principal.Ind ind)
        | Opstream.Leave_group { group; ind } ->
          Principal.Db.remove_member env.Opstream.db group (Principal.Ind ind)
        | Opstream.Check _ -> ());
        pos := (!pos + 1) mod Array.length ops
      done;
      (* Revoke first, publish the round after: a reader that observes
         the new round therefore observes the revocation too. *)
      Meta.set_acl_raw barrier_meta deny_read;
      Atomic.set barrier_round round;
      await_acks ~what:"reader" acks round;
      Meta.set_acl_raw barrier_meta allow_read
    done
  in
  (* [stop] is set even when a wait times out, so the readers exit and
     the join below re-raises the mutator's failure. *)
  let run_mutator () = Fun.protect ~finally:(fun () -> Atomic.set stop true) run_mutator in
  let reader_handles = List.init readers (fun i -> Domain.spawn (fun () -> run_reader i)) in
  let mutator_handle = Domain.spawn run_mutator in
  let results = List.map Domain.join reader_handles in
  Domain.join mutator_handle;
  let total_checks = List.fold_left (fun acc (c, _) -> acc + c) 0 results in
  let total_stale = List.fold_left (fun acc (_, s) -> acc + s) 0 results in
  Alcotest.(check int) "no stale grant crossed a revocation barrier" 0 total_stale;
  check "every reader saw every barrier" true
    (Array.for_all (fun ack -> Atomic.get ack = rounds) acks);
  (match Reference_monitor.cache_stats monitor with
  | None -> Alcotest.fail "cache enabled but no stats"
  | Some stats ->
    Alcotest.(check int)
      "cache hits + misses = decisions" total_checks
      (stats.Decision_cache.hits + stats.Decision_cache.misses);
    check "size within capacity" true
      (stats.Decision_cache.size <= stats.Decision_cache.capacity);
    Alcotest.(check int) "shard count as configured" cache_shards stats.Decision_cache.shards);
  let audit = Reference_monitor.audit monitor in
  Alcotest.(check int)
    "audit granted + denied = checks" total_checks
    (Audit.granted_total audit + Audit.denied_total audit)

(* At 1, 2 and 8 shards, so that whether readers share a shard — and
   race each other's stores between lookup and evaluation — does not
   depend on the host's core count or on domain ids. *)
let test_stress_readers_vs_mutator () =
  List.iter (fun cache_shards -> stress_readers_vs_mutator ~cache_shards) [ 1; 2; 8 ]

(* {1 Capability handles under parallel callers and a mutator}

   Four caller domains hammer [Kernel.call_handle] over a pool of
   pinned handles while a mutator flips proc ACLs and bumps the policy
   epoch.  Invariants:

   - revocation barrier: the mutator revokes [Execute] on the barrier
     proc {e before} publishing the round number, so every caller's
     next handle call on the barrier — observed strictly inside the
     deny window — must refuse; a grant would be a stale generation
     snapshot surviving a revocation;
   - counter conservation: handle.calls = handle.hits + handle.stale +
     handle.use_after_close, exactly, across all domains;
   - the churn actually exercised the fallback: stale revalidations
     and in-place re-mints both occurred. *)

let callers = 4
let handle_rounds = 30

let counter_of snap name =
  match List.assoc_opt name snap.Exsec_obs.Metrics.counters with
  | Some value -> value
  | None -> 0

let test_handle_callers_vs_mutator () =
  let module Kernel = Exsec_extsys.Kernel in
  let module Service = Exsec_extsys.Service in
  let module Value = Exsec_extsys.Value in
  let module Metrics = Exsec_obs.Metrics in
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  Principal.Db.add_individual db admin;
  let caller_inds =
    Array.init callers (fun i -> Principal.individual (Printf.sprintf "caller%d" i))
  in
  Array.iter (Principal.Db.add_individual db) caller_inds;
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [] in
  let bottom = Security_class.bottom hierarchy universe in
  let kernel = Kernel.boot ~db ~admin ~hierarchy ~universe () in
  let admin_sub = Kernel.admin_subject kernel in
  let open_acl () =
    Acl.of_entries
      [
        Acl.allow_all (Acl.Individual admin);
        Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ];
      ]
  in
  let list_only_acl () =
    Acl.of_entries
      [ Acl.allow_all (Acl.Individual admin); Acl.allow Acl.Everyone [ Access_mode.List ] ]
  in
  let deny_exec_acl () =
    Acl.of_entries
      [
        Acl.allow_all (Acl.Individual admin);
        Acl.deny Acl.Everyone [ Access_mode.Execute ];
        Acl.allow Acl.Everyone [ Access_mode.List ];
      ]
  in
  let n_procs = 8 in
  let proc_paths =
    Array.init n_procs (fun i -> Path.of_string (Printf.sprintf "/svc/p%d" i))
  in
  let install path meta proc_value =
    match
      Kernel.install_proc kernel ~subject:admin_sub path ~meta
        (Exsec_extsys.Service.proc "p" 0 (Service.const proc_value))
    with
    | Ok () -> ()
    | Error e -> failwith (Service.error_to_string e)
  in
  let proc_metas =
    Array.init n_procs (fun i ->
        let meta = Meta.make ~owner:admin ~acl:(open_acl ()) bottom in
        install proc_paths.(i) meta (Value.int i);
        meta)
  in
  let barrier_path = Path.of_string "/svc/barrier" in
  let barrier_meta = Meta.make ~owner:admin ~acl:(open_acl ()) bottom in
  install barrier_path barrier_meta Value.unit;
  let barrier_round = Atomic.make 0 in
  let acks = Array.init callers (fun _ -> Atomic.make 0) in
  let stop = Atomic.make false in
  Metrics.set_enabled true;
  let before = Metrics.snapshot () in
  (* Every handle is opened before any domain starts: a caller opening
     its own while the mutator already flips ACLs can be refused, die
     without acknowledging, and leave the mutator waiting forever. *)
  let opened =
    Array.init callers (fun i ->
        let subject = Subject.make caller_inds.(i) bottom in
        let open_h path =
          match Kernel.open_handle kernel ~subject ~caller:"stress" path with
          | Ok h -> h
          | Error e -> failwith (Service.error_to_string e)
        in
        Array.map open_h proc_paths, open_h barrier_path)
  in
  let run_caller i =
    let handles, barrier_h = opened.(i) in
    let stale_grants = ref 0 in
    let my_ack = ref 0 in
    let pos = ref 0 in
    while not (Atomic.get stop) do
      ignore (Kernel.call_handle kernel handles.(!pos land (n_procs - 1)) []);
      incr pos;
      let round = Atomic.get barrier_round in
      if round > !my_ack then begin
        (* Inside the deny window: the handle's generation snapshot
           predates the revocation, so this call must fall into the
           checked path and refuse. *)
        (match Kernel.call_handle kernel barrier_h [] with
        | Ok _ -> incr stale_grants
        | Error _ -> ());
        my_ack := round;
        Atomic.set acks.(i) round
      end
    done;
    !stale_grants
  in
  let run_mutator () =
    let policies = [| Policy.default; Policy.with_recheck Policy.default |] in
    for round = 1 to handle_rounds do
      for m = 0 to n_procs - 1 do
        Meta.set_acl_raw proc_metas.(m)
          (if (round + m) land 1 = 0 then open_acl () else list_only_acl ())
      done;
      Reference_monitor.set_policy (Kernel.monitor kernel) policies.(round land 1);
      (* Revoke first, publish the round after: a caller that observes
         the round number observes the revocation too. *)
      Meta.set_acl_raw barrier_meta (deny_exec_acl ());
      Atomic.set barrier_round round;
      await_acks ~what:"caller" acks round;
      Meta.set_acl_raw barrier_meta (open_acl ())
    done
  in
  let run_mutator () = Fun.protect ~finally:(fun () -> Atomic.set stop true) run_mutator in
  let caller_handles = List.init callers (fun i -> Domain.spawn (fun () -> run_caller i)) in
  let mutator_handle = Domain.spawn run_mutator in
  let stale = List.fold_left (fun acc h -> acc + Domain.join h) 0 caller_handles in
  Domain.join mutator_handle;
  let after = Metrics.snapshot () in
  Metrics.set_enabled false;
  let delta name = counter_of after name - counter_of before name in
  Alcotest.(check int) "no grant crossed the revocation barrier" 0 stale;
  check "every caller saw every round" true
    (Array.for_all (fun ack -> Atomic.get ack = handle_rounds) acks);
  Alcotest.(check int)
    "handle.calls = hits + stale + use_after_close"
    (delta "handle.calls")
    (delta "handle.hits" + delta "handle.stale" + delta "handle.use_after_close");
  check "stale revalidations occurred" true (delta "handle.stale" > 0);
  check "in-place re-mints occurred" true (delta "handle.reminted" > 0)

(* {1 Atomic identity allocation} *)

let test_fresh_ids_unique_across_domains () =
  (* [Meta.make] draws identities from a process-wide atomic counter;
     flow analysis depends on identities never being reused, so
     parallel creation must never hand out a duplicate. *)
  let domains = 4 in
  let per_domain = 2000 in
  let owner = Principal.individual "owner" in
  let bottom =
    Security_class.bottom (Level.hierarchy [ "hi"; "lo" ]) (Category.universe [])
  in
  let handles =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            List.init per_domain (fun _ -> (Meta.make ~owner bottom).Meta.id)))
  in
  let ids = List.concat_map Domain.join handles in
  let module Ints = Set.Make (Int) in
  Alcotest.(check int)
    "all identities distinct"
    (domains * per_domain)
    (Ints.cardinal (Ints.of_list ids))

(* {1 Audit ring under parallel recording} *)

(* Run with the shard count forced to 1, 2 and 8, so that the result
   cannot depend on the host's core count (the default). *)
let audit_totals_with ~shards =
  let domains = 4 in
  let per_domain = 5000 in
  let audit = Audit.create ~capacity:64 ~shards () in
  let owner = Principal.individual "owner" in
  let bottom =
    Security_class.bottom (Level.hierarchy [ "hi"; "lo" ]) (Category.universe [])
  in
  let subject = Subject.make owner bottom in
  let meta = Meta.make ~owner bottom in
  let handles =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Audit.record audit ~subject ~object_name:"o" ~object_id:meta.Meta.id
                ~object_class:bottom ~mode:Access_mode.Read
                (if i land 1 = 0 then Decision.Granted
                 else Decision.Denied Decision.Dac_no_entry)
            done))
  in
  List.iter Domain.join handles;
  Alcotest.(check int) "total conserved" (domains * per_domain) (Audit.total audit);
  Alcotest.(check int)
    "granted + denied = total"
    (Audit.total audit)
    (Audit.granted_total audit + Audit.denied_total audit);
  Alcotest.(check int) "granted half" (domains * per_domain / 2) (Audit.granted_total audit);
  Alcotest.(check int) "ring keeps capacity" 64 (List.length (Audit.events audit));
  let seqs = List.map (fun (e : Audit.event) -> e.Audit.seq) (Audit.events audit) in
  check "oldest first" true (seqs = List.sort_uniq Int.compare seqs);
  Alcotest.(check int)
    "ends with the newest event"
    ((domains * per_domain) - 1)
    (List.nth seqs 63)

let test_audit_totals_parallel () = List.iter (fun shards -> audit_totals_with ~shards) [ 1; 2; 8 ]

(* {1 Audit tails read while domains record}

   Two domains record while a third reads [Audit.tail] in a loop.
   Every event read must be untorn — its name, subject and decision
   are the ones recorded with its object id — and every tail must be
   strictly increasing in seq.  Run at 1, 2 and 8 shards: at 1 the
   recorders share a shard, at 2 and 8 that depends on their domain
   ids. *)

let tail_race_with ~shards =
  let recorders = 2 in
  let per_recorder = 100_000 in
  let audit = Audit.create ~capacity:256 ~shards () in
  let bottom =
    Security_class.bottom (Level.hierarchy [ "hi"; "lo" ]) (Category.universe [])
  in
  let subjects =
    Array.init recorders (fun r ->
        Subject.make (Principal.individual (Printf.sprintf "recorder%d" r)) bottom)
  in
  let names = Array.init (recorders * per_recorder) (Printf.sprintf "o%d") in
  let decision_of id =
    if id land 1 = 0 then Decision.Granted else Decision.Denied Decision.Dac_no_entry
  in
  let acks = Array.init (recorders + 1) (fun _ -> Atomic.make 0) in
  let recording = Atomic.make recorders in
  (* Every domain starts work only once all three run, so recording and
     reading overlap instead of following each other's spawn. *)
  let ready = Atomic.make 0 in
  let start_gate () =
    Atomic.incr ready;
    let deadline = Unix.gettimeofday () +. ack_deadline_s in
    while Atomic.get ready < recorders + 1 && Unix.gettimeofday () < deadline do
      Domain.cpu_relax ()
    done
  in
  let recorder r () =
    start_gate ();
    for i = 0 to per_recorder - 1 do
      let id = (r * per_recorder) + i in
      Audit.record audit ~subject:subjects.(r) ~object_name:names.(id) ~object_id:id
        ~object_class:bottom ~mode:Access_mode.Read (decision_of id)
    done;
    Atomic.decr recording;
    Atomic.set acks.(r) 1
  in
  let tails = ref 0 and torn = ref 0 and unordered = ref 0 in
  let untorn (e : Audit.event) =
    let id = e.Audit.object_id in
    id >= 0
    && id < Array.length names
    && e.Audit.object_name == names.(id)
    && e.Audit.subject == subjects.(id / per_recorder)
    && Decision.equal e.Audit.decision (decision_of id)
  in
  let rec increasing = function
    | (a : Audit.event) :: (b :: _ as rest) -> a.Audit.seq < b.Audit.seq && increasing rest
    | [ _ ] | [] -> true
  in
  let tailer () =
    start_gate ();
    let continue = ref true in
    while !continue do
      continue := Atomic.get recording > 0;
      let events = Audit.tail audit ~count:64 in
      incr tails;
      if not (List.for_all untorn events) then incr torn;
      if not (increasing events) then incr unordered
    done;
    Atomic.set acks.(recorders) 1
  in
  let domains =
    Domain.spawn tailer :: List.init recorders (fun r -> Domain.spawn (recorder r))
  in
  await_acks ~what:"domain" acks 1;
  List.iter Domain.join domains;
  Alcotest.(check int) (Printf.sprintf "%d shards: tails with a torn event" shards) 0 !torn;
  Alcotest.(check int)
    (Printf.sprintf "%d shards: tails out of seq order" shards)
    0 !unordered;
  check "the tailer ran" true (!tails > 0);
  Alcotest.(check int) "every record counted" (recorders * per_recorder) (Audit.total audit)

let test_audit_tail_race () = List.iter (fun shards -> tail_race_with ~shards) [ 1; 2; 8 ]

(* {1 Directories under concurrent mutation}

   Two inserter domains add the same names to one directory while a
   reader domain resolves an untouched leaf in it through the checked
   resolver.  Invariants, every round:

   - of two racing inserts of one name exactly one returns [Ok];
   - every name is present exactly once, and [Namespace.size] equals a
     fold over the tree (no lost or duplicated entry, no miscount);
   - the reader never sees the untouched leaf go missing;
   - nothing raises.

   The main domain drives the rounds and waits through [await_acks],
   so a worker stuck inside a corrupted directory fails the test with
   the lagging domain named instead of hanging it. *)

let dir_rounds = 200
let dir_names = 2000

let test_directory_mutation () =
  let owner = Principal.individual "owner" in
  let db = Principal.Db.create () in
  Principal.Db.add_individual db owner;
  let bottom =
    Security_class.bottom (Level.hierarchy [ "hi"; "lo" ]) (Category.universe [])
  in
  let subject = Subject.make owner bottom in
  let open_meta () =
    Meta.make ~owner
      ~acl:(Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Read ] ])
      bottom
  in
  let monitor = Reference_monitor.create db in
  let names = Array.init dir_names (Printf.sprintf "n%04d") in
  let untouched = Path.of_string "/d/untouched" in
  let leaf_meta = open_meta () in
  (* One fresh tree per round, published before the round number. *)
  let world = Atomic.make None in
  let round = Atomic.make 0 in
  let inserting = Atomic.make 0 in
  let stop = Atomic.make false in
  let acks = Array.init 3 (fun _ -> Atomic.make 0) in
  let oks = Array.init 2 (fun _ -> Array.make dir_names false) in
  let not_found = Atomic.make 0 in
  let raised = Atomic.make 0 in
  let first_raised = Atomic.make None in
  let guarded f =
    try f ()
    with e ->
      Atomic.incr raised;
      ignore (Atomic.compare_and_set first_raised None (Some (Printexc.to_string e)))
  in
  (* Run [body] on each published round until [stop]. *)
  let worker i body () =
    let seen = ref 0 in
    while not (Atomic.get stop) do
      if Atomic.get round > !seen then begin
        incr seen;
        (match Atomic.get world with
        | Some w -> body w
        | None -> ());
        Atomic.set acks.(i) !seen
      end
      else Domain.cpu_relax ()
    done
  in
  let inserter i (ns, _, dir) =
    let mine = oks.(i) in
    Array.fill mine 0 dir_names false;
    guarded (fun () ->
        Array.iteri
          (fun j name ->
            match Namespace.add_leaf_at ns dir name ~meta:leaf_meta j with
            | Ok _ -> mine.(j) <- true
            | Error _ -> ())
          names);
    Atomic.decr inserting
  in
  let reader (_, resolver, _) =
    let continue = ref true in
    while !continue do
      continue := Atomic.get inserting > 0;
      guarded (fun () ->
          match Resolver.resolve resolver ~subject ~mode:Access_mode.Read untouched with
          | Error (Resolver.Name_error (Namespace.Not_found _)) -> Atomic.incr not_found
          | Ok _ | Error _ -> ())
    done
  in
  let double_ok = ref 0 and no_ok = ref 0 in
  let entry_rounds = ref 0 and size_rounds = ref 0 in
  let run_round r =
    let ns = Namespace.create ~root_meta:(open_meta ()) () in
    let dir =
      match Namespace.add_dir ns (Path.of_string "/d") ~meta:(open_meta ()) with
      | Ok dir -> dir
      | Error e -> Alcotest.failf "round %d: %a" r Namespace.pp_error e
    in
    ignore (Namespace.add_leaf ns untouched ~meta:leaf_meta (-1));
    Atomic.set inserting 2;
    Atomic.set world (Some (ns, Resolver.create monitor ns, dir));
    Atomic.set round r;
    await_acks ~what:"worker" acks r;
    Array.iteri
      (fun j _ ->
        match oks.(0).(j), oks.(1).(j) with
        | true, true -> incr double_ok
        | false, false -> incr no_ok
        | _ -> ())
      names;
    let listed = List.map fst (Namespace.children dir) in
    if listed <> List.sort String.compare ("untouched" :: Array.to_list names) then
      incr entry_rounds;
    if Namespace.size ns <> Namespace.fold ns ~init:0 ~f:(fun n _ -> n + 1) then
      incr size_rounds
  in
  let domains =
    [ Domain.spawn (worker 0 (inserter 0)); Domain.spawn (worker 1 (inserter 1));
      Domain.spawn (worker 2 reader) ]
  in
  (* On a timeout the lagging worker may never return: stop the others
     and fail without joining it. *)
  (match
     for r = 1 to dir_rounds do
       run_round r
     done
   with
  | () ->
    Atomic.set stop true;
    List.iter Domain.join domains
  | exception e ->
    Atomic.set stop true;
    Printf.printf
      "before the failure: %d raised, %d double Ok, %d no Ok, %d entry rounds, %d size \
       rounds, %d Not_found\n"
      (Atomic.get raised) !double_ok !no_ok !entry_rounds !size_rounds (Atomic.get not_found);
    raise e);
  Alcotest.(check int)
    (Printf.sprintf "exceptions raised (first: %s)"
       (Option.value (Atomic.get first_raised) ~default:"none"))
    0 (Atomic.get raised);
  Alcotest.(check int) "names both inserts returned Ok for" 0 !double_ok;
  Alcotest.(check int) "names neither insert returned Ok for" 0 !no_ok;
  Alcotest.(check int) "rounds with a lost or duplicated entry" 0 !entry_rounds;
  Alcotest.(check int) "rounds where size disagreed with a fold" 0 !size_rounds;
  Alcotest.(check int) "untouched leaf reported Not_found" 0 (Atomic.get not_found)

let suite =
  [
    Alcotest.test_case "stress: readers vs mutator" `Quick test_stress_readers_vs_mutator;
    Alcotest.test_case "stress: handle callers vs mutator" `Quick
      test_handle_callers_vs_mutator;
    Alcotest.test_case "fresh ids unique across domains" `Quick
      test_fresh_ids_unique_across_domains;
    Alcotest.test_case "audit totals conserved across domains" `Quick
      test_audit_totals_parallel;
    Alcotest.test_case "audit tails race recorders" `Quick test_audit_tail_race;
    Alcotest.test_case "directory inserts race a resolver" `Quick test_directory_mutation;
  ]
