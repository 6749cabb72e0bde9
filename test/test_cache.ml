(* Differential oracle for the decision cache: a cached and an
   uncached monitor sharing one principal database and one object
   population replay the same seeded operation stream, and every
   access check must produce bit-identical decisions — including the
   checks that follow mid-stream revocations (ACL replacement,
   relabeling, policy swaps, group membership churn).  Any divergence
   is a stale cache entry, i.e. a protection hole. *)

open Exsec_core
open Exsec_workload

let check = Alcotest.(check bool)
let decision = Alcotest.testable Decision.pp Decision.equal

(* {1 Differential replay} *)

let replay ?(cache_capacity = 8192) ?cache_shards ~seed ~steps ~mutation_fraction () =
  let rng = Prng.create ~seed in
  let env =
    Opstream.environment rng ~individuals:16 ~groups:4 ~subjects:12 ~objects:24
      ~levels:3 ~categories:3
  in
  let cached =
    Reference_monitor.create ~cache:true ~cache_capacity ?cache_shards env.Opstream.db
  in
  let uncached = Reference_monitor.create ~cache:false env.Opstream.db in
  let ops = Opstream.generate rng env ~steps ~mutation_fraction in
  List.iteri
    (fun step op ->
      match op with
      | Opstream.Check { subject; object_; mode } ->
        let subject = env.Opstream.subjects.(subject) in
        let meta = env.Opstream.metas.(object_) in
        let oracle = Reference_monitor.decide uncached ~subject ~meta ~mode in
        let memoized = Reference_monitor.decide cached ~subject ~meta ~mode in
        Alcotest.check decision
          (Printf.sprintf "seed %d step %d" seed step)
          oracle memoized
      | Opstream.Set_acl { object_; acl } ->
        Meta.set_acl_raw env.Opstream.metas.(object_) acl
      | Opstream.Set_class { object_; klass } ->
        Meta.set_klass_raw env.Opstream.metas.(object_) klass
      | Opstream.Set_integrity { object_; integrity } ->
        Meta.set_integrity_raw env.Opstream.metas.(object_) integrity
      | Opstream.Set_policy policy ->
        Reference_monitor.set_policy cached policy;
        Reference_monitor.set_policy uncached policy
      | Opstream.Join_group { group; ind } ->
        Principal.Db.add_member env.Opstream.db group (Principal.Ind ind)
      | Opstream.Leave_group { group; ind } ->
        Principal.Db.remove_member env.Opstream.db group (Principal.Ind ind))
    ops;
  cached

let seeds = [ 1; 2; 3; 5; 8; 13; 21; 34; 55; 89; 144; 233 ]

let test_differential_check_only () =
  (* Pure check streams: maximal reuse, zero revocations. *)
  List.iter
    (fun seed -> ignore (replay ~seed ~steps:600 ~mutation_fraction:0.0 ()))
    seeds

let test_differential_with_revocations () =
  (* One op in five mutates — far hotter churn than any deployment, so
     every invalidation path (per-object generation, database
     generation, policy flush) is exercised on every seed. *)
  List.iter
    (fun seed -> ignore (replay ~seed ~steps:600 ~mutation_fraction:0.2 ()))
    seeds

let test_differential_tiny_cache () =
  (* Capacity 4 forces constant eviction; correctness must not depend
     on entries surviving. *)
  List.iter
    (fun seed ->
      ignore (replay ~cache_capacity:4 ~seed ~steps:400 ~mutation_fraction:0.1 ()))
    seeds

let test_differential_sharded () =
  (* Many shards on a small table: keys spread thin, every shard's
     FIFO and counters run; decisions must stay oracle-identical. *)
  List.iter
    (fun seed ->
      ignore
        (replay ~cache_capacity:32 ~cache_shards:8 ~seed ~steps:400
           ~mutation_fraction:0.15 ()))
    seeds

(* {1 Explicit revocation scenarios} *)

(* A minimal world where one subject's access hinges on exactly one
   mutable input, so a stale entry would flip the visible outcome. *)
let small_world () =
  let db = Principal.Db.create () in
  let alice = Principal.individual "alice" in
  Principal.Db.add_individual db alice;
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [ "c" ] in
  let bottom = Security_class.bottom hierarchy universe in
  let top = Security_class.top hierarchy universe in
  let subject = Subject.make alice bottom in
  db, alice, subject, bottom, top

let test_acl_change_revokes () =
  let db, alice, subject, bottom, _top = small_world () in
  let monitor = Reference_monitor.create ~cache:true db in
  let meta =
    Meta.make ~owner:alice
      ~acl:(Acl.of_entries [ Acl.allow (Acl.Individual alice) [ Access_mode.Read ] ])
      bottom
  in
  let decide () = Reference_monitor.decide monitor ~subject ~meta ~mode:Access_mode.Read in
  Alcotest.check decision "granted before" Decision.Granted (decide ());
  Alcotest.check decision "cached grant" Decision.Granted (decide ());
  Meta.set_acl_raw meta (Acl.of_entries [ Acl.deny (Acl.Individual alice) [ Access_mode.Read ] ]);
  Alcotest.check decision "revoked after ACL swap"
    (Decision.Denied (Decision.Dac_explicit_deny (Acl.Individual alice)))
    (decide ())

let test_membership_change_revokes () =
  let db, alice, subject, bottom, _top = small_world () in
  let readers = Principal.group "readers" in
  Principal.Db.add_member db readers (Principal.Ind alice);
  let monitor = Reference_monitor.create ~cache:true db in
  let meta =
    Meta.make ~owner:alice
      ~acl:(Acl.of_entries [ Acl.allow (Acl.Group readers) [ Access_mode.Read ] ])
      bottom
  in
  let decide () = Reference_monitor.decide monitor ~subject ~meta ~mode:Access_mode.Read in
  Alcotest.check decision "granted via group" Decision.Granted (decide ());
  Alcotest.check decision "cached grant" Decision.Granted (decide ());
  Principal.Db.remove_member db readers (Principal.Ind alice);
  Alcotest.check decision "revoked after leaving group"
    (Decision.Denied Decision.Dac_no_entry) (decide ());
  (* Rejoining must also take effect immediately. *)
  Principal.Db.add_member db readers (Principal.Ind alice);
  Alcotest.check decision "regranted after rejoining" Decision.Granted (decide ())

let test_relabel_revokes () =
  let db, alice, subject, bottom, top = small_world () in
  let monitor = Reference_monitor.create ~cache:true db in
  let meta =
    Meta.make ~owner:alice ~acl:(Acl.of_entries [ Acl.allow_all Acl.Everyone ]) bottom
  in
  let decide () = Reference_monitor.decide monitor ~subject ~meta ~mode:Access_mode.Read in
  Alcotest.check decision "granted at bottom" Decision.Granted (decide ());
  Meta.set_klass_raw meta top;
  check "denied after relabel to top" false (Decision.is_granted (decide ()))

let test_policy_change_revokes () =
  let db, alice, subject, bottom, top = small_world () in
  let monitor = Reference_monitor.create ~cache:true db in
  let meta =
    Meta.make ~owner:alice ~acl:(Acl.of_entries [ Acl.allow_all Acl.Everyone ]) top
  in
  ignore bottom;
  let decide () = Reference_monitor.decide monitor ~subject ~meta ~mode:Access_mode.Read in
  check "MAC denies read-up" false (Decision.is_granted (decide ()));
  check "still denied (cached)" false (Decision.is_granted (decide ()));
  Reference_monitor.set_policy monitor Policy.dac_only;
  Alcotest.check decision "granted once MAC is off" Decision.Granted (decide ());
  Reference_monitor.set_policy monitor Policy.default;
  check "denied again under default" false (Decision.is_granted (decide ()))

(* {1 Counter sanity} *)

let test_stats_hits_and_bound () =
  let db, alice, subject, bottom, _top = small_world () in
  let monitor = Reference_monitor.create ~cache:true ~cache_capacity:8 db in
  let meta =
    Meta.make ~owner:alice ~acl:(Acl.of_entries [ Acl.allow_all Acl.Everyone ]) bottom
  in
  for _ = 1 to 100 do
    ignore (Reference_monitor.decide monitor ~subject ~meta ~mode:Access_mode.Read)
  done;
  match Reference_monitor.cache_stats monitor with
  | None -> Alcotest.fail "cache enabled but no stats"
  | Some stats ->
    Alcotest.(check int) "one miss" 1 stats.Decision_cache.misses;
    Alcotest.(check int) "rest are hits" 99 stats.Decision_cache.hits;
    check "size within bound" true (stats.Decision_cache.size <= stats.Decision_cache.capacity)

let test_stats_evictions_under_pressure () =
  let db, alice, subject, bottom, _top = small_world () in
  let monitor = Reference_monitor.create ~cache:true ~cache_capacity:4 db in
  let metas =
    Array.init 32 (fun _ ->
        Meta.make ~owner:alice ~acl:(Acl.of_entries [ Acl.allow_all Acl.Everyone ]) bottom)
  in
  Array.iter
    (fun meta -> ignore (Reference_monitor.decide monitor ~subject ~meta ~mode:Access_mode.Read))
    metas;
  match Reference_monitor.cache_stats monitor with
  | None -> Alcotest.fail "cache enabled but no stats"
  | Some stats ->
    check "evictions under pressure" true (stats.Decision_cache.evictions > 0);
    check "size capped" true (stats.Decision_cache.size <= 4);
    Alcotest.(check int) "all distinct keys miss" 32 stats.Decision_cache.misses

(* {1 Accounting under churn}

   A workload that stays below capacity while invalidating every
   entry, driven against the cache directly.  Two of the objects may
   share a slot, so per-object counts are not exact; the accounting
   identities are: every lookup is a hit or a miss, and every miss is
   followed by one store that fills an empty slot, refills one a stale
   lookup emptied, or evicts another key. *)

let churn_world () =
  let db, alice, subject, bottom, _top = small_world () in
  ignore db;
  let metas =
    Array.init 8 (fun _ ->
        Meta.make ~owner:alice ~acl:(Acl.of_entries [ Acl.allow_all Acl.Everyone ]) bottom)
  in
  subject, metas

let test_churn_accounting () =
  let subject, metas = churn_world () in
  let cache = Decision_cache.create ~shards:4 ~capacity:64 () in
  let rounds = 500 in
  let lookups = ref 0 in
  let decide meta =
    incr lookups;
    let meta_generation = Meta.generation meta in
    match
      Decision_cache.lookup cache ~subject ~meta ~mode:Access_mode.Read ~meta_generation
        ~db_generation:0 ~policy_generation:0
    with
    | Some _ -> ()
    | None ->
      Decision_cache.store cache ~subject ~meta ~mode:Access_mode.Read ~meta_generation
        ~db_generation:0 ~policy_generation:0 Decision.Granted
  in
  for _ = 1 to rounds do
    Array.iter
      (fun meta ->
        (* Bump the generation, then decide twice: the first lookup
           invalidates the stale entry (a miss), the second hits. *)
        Meta.set_acl_raw meta (Acl.of_entries [ Acl.allow_all Acl.Everyone ]);
        decide meta;
        decide meta)
      metas;
    let stats = Decision_cache.stats cache in
    check "size <= capacity" true (stats.Decision_cache.size <= stats.Decision_cache.capacity);
    Alcotest.(check int)
      "hits + misses = lookups" !lookups
      (stats.Decision_cache.hits + stats.Decision_cache.misses);
    Alcotest.(check int)
      "misses = size + invalidations + evictions" stats.Decision_cache.misses
      (stats.Decision_cache.size + stats.Decision_cache.invalidations
     + stats.Decision_cache.evictions)
  done

(* {1 Born-stale entries}

   The race the monitor's ordering defends against, made
   deterministic: a lookup misses, a mutation lands while the decision
   is being evaluated, and the result is filed under the generations
   read before the lookup.  That entry must never validate. *)

let test_born_stale_store () =
  let db, alice, subject, bottom, _top = small_world () in
  let epochs = Reference_monitor.create ~cache:false db in
  let everyone = Acl.of_entries [ Acl.allow_all Acl.Everyone ] in
  let meta = Meta.make ~owner:alice ~acl:everyone bottom in
  let cache = Decision_cache.create ~shards:1 ~capacity:64 () in
  let generations () =
    Meta.generation meta, Principal.Db.generation db, Reference_monitor.policy_epoch epochs
  in
  let lookup (meta_generation, db_generation, policy_generation) =
    Decision_cache.lookup cache ~subject ~meta ~mode:Access_mode.Read ~meta_generation
      ~db_generation ~policy_generation
  in
  let store (meta_generation, db_generation, policy_generation) =
    Decision_cache.store cache ~subject ~meta ~mode:Access_mode.Read ~meta_generation
      ~db_generation ~policy_generation Decision.Granted
  in
  let race what bump =
    let before = generations () in
    check (what ^ ": first lookup misses") true (lookup before = None);
    bump ();
    store before;
    check (what ^ ": entry filed before the bump misses") true (lookup (generations ()) = None)
  in
  (* Control: with nothing bumped, the stored entry hits. *)
  let now = generations () in
  check "control: first lookup misses" true (lookup now = None);
  store now;
  check "control: stored entry hits" true (lookup now <> None);
  Meta.set_acl_raw meta everyone;
  race "meta generation" (fun () -> Meta.set_acl_raw meta everyone);
  race "db generation" (fun () ->
      Principal.Db.add_member db (Principal.group "readers") (Principal.Ind alice));
  race "policy epoch" (fun () -> Reference_monitor.set_policy epochs Policy.dac_only);
  let stats = Decision_cache.stats cache in
  Alcotest.(check int) "one hit, the control's" 1 stats.Decision_cache.hits;
  Alcotest.(check int) "each race's entry was invalidated, and the control's" 4
    stats.Decision_cache.invalidations

let test_churn_seeded_stream () =
  (* Same invariant under a seeded mixed stream that keeps the table
     small while invalidating from every path (per-object generation,
     db generation, policy epoch). *)
  let rng = Prng.create ~seed:377 in
  let env =
    Opstream.environment rng ~individuals:8 ~groups:3 ~subjects:6 ~objects:8 ~levels:2
      ~categories:2
  in
  let monitor =
    Reference_monitor.create ~cache:true ~cache_capacity:128 ~cache_shards:2
      env.Opstream.db
  in
  let ops = Opstream.generate rng env ~steps:2000 ~mutation_fraction:0.5 in
  let decisions = ref 0 in
  List.iter
    (fun op ->
      match op with
      | Opstream.Check { subject; object_; mode } ->
        incr decisions;
        ignore
          (Reference_monitor.decide monitor ~subject:env.Opstream.subjects.(subject)
             ~meta:env.Opstream.metas.(object_) ~mode)
      | Opstream.Set_acl { object_; acl } ->
        Meta.set_acl_raw env.Opstream.metas.(object_) acl
      | Opstream.Set_class { object_; klass } ->
        Meta.set_klass_raw env.Opstream.metas.(object_) klass
      | Opstream.Set_integrity { object_; integrity } ->
        Meta.set_integrity_raw env.Opstream.metas.(object_) integrity
      | Opstream.Set_policy policy -> Reference_monitor.set_policy monitor policy
      | Opstream.Join_group { group; ind } ->
        Principal.Db.add_member env.Opstream.db group (Principal.Ind ind)
      | Opstream.Leave_group { group; ind } ->
        Principal.Db.remove_member env.Opstream.db group (Principal.Ind ind))
    ops;
  match Reference_monitor.cache_stats monitor with
  | None -> Alcotest.fail "cache enabled but no stats"
  | Some stats ->
    Alcotest.(check int)
      "hits + misses = decisions" !decisions
      (stats.Decision_cache.hits + stats.Decision_cache.misses);
    check "size within bound" true
      (stats.Decision_cache.size <= stats.Decision_cache.capacity)

let test_uncached_monitor_has_no_stats () =
  let db, _alice, _subject, _bottom, _top = small_world () in
  let monitor = Reference_monitor.create ~cache:false db in
  check "no stats when disabled" true (Reference_monitor.cache_stats monitor = None)

let suite =
  [
    Alcotest.test_case "differential: check-only streams" `Quick test_differential_check_only;
    Alcotest.test_case "differential: with revocations" `Quick
      test_differential_with_revocations;
    Alcotest.test_case "differential: tiny cache" `Quick test_differential_tiny_cache;
    Alcotest.test_case "differential: sharded cache" `Quick test_differential_sharded;
    Alcotest.test_case "ACL change revokes" `Quick test_acl_change_revokes;
    Alcotest.test_case "membership change revokes" `Quick test_membership_change_revokes;
    Alcotest.test_case "relabel revokes" `Quick test_relabel_revokes;
    Alcotest.test_case "policy change revokes" `Quick test_policy_change_revokes;
    Alcotest.test_case "stats: hits and bound" `Quick test_stats_hits_and_bound;
    Alcotest.test_case "stats: evictions" `Quick test_stats_evictions_under_pressure;
    Alcotest.test_case "churn: accounting below capacity" `Quick test_churn_accounting;
    Alcotest.test_case "born-stale store never validates" `Quick test_born_stale_store;
    Alcotest.test_case "churn: seeded stream accounting" `Quick test_churn_seeded_stream;
    Alcotest.test_case "stats: disabled monitor" `Quick test_uncached_monitor_has_no_stats;
  ]
