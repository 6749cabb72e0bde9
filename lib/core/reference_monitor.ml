module Metrics = Exsec_obs.Metrics
module Trace = Exsec_obs.Trace

(* Decision-layer instruments.  Counters cost one gated atomic add;
   the decide histogram samples 1 of 16 decisions because two clock
   reads would dominate the sub-microsecond cached path (see the
   overhead discipline in DESIGN.md, "Observability").  All are inert
   until [Metrics.set_enabled true]. *)
let m_decisions = Metrics.counter "monitor.decisions"
let m_granted = Metrics.counter "monitor.granted"
let m_denied = Metrics.counter "monitor.denied"
let m_dac_compiled = Metrics.counter "monitor.dac_compiled"
let m_dac_interpreted = Metrics.counter "monitor.dac_interpreted"
let m_mac_granted = Metrics.counter "monitor.mac_granted"
let m_mac_denied = Metrics.counter "monitor.mac_denied"
let m_decide_ns = Metrics.histogram ~sample_shift:4 "monitor.decide_ns"

exception Access_denied of {
  object_name : string;
  mode : Access_mode.t;
  denial : Decision.denial;
}

type t = {
  db : Principal.Db.t;
  mutable policy : Policy.t;
  policy_epoch : int Atomic.t;
      (* Generation counter for the policy, mirroring Meta.generation
         for metadata: [set_policy] writes the policy first and bumps
         the epoch after, and cached entries are filed under the epoch
         read before their computation.  The flush alone is not
         enough: a decision computed under the old policy but stored
         after the flush would otherwise survive as a stale entry. *)
  audit : Audit.t;
  cache : Decision_cache.t option;
}

let create ?(policy = Policy.default) ?audit_capacity ?audit_shards ?(cache = true)
    ?(cache_capacity = 8192) ?cache_shards db =
  {
    db;
    policy;
    policy_epoch = Atomic.make 0;
    audit = Audit.create ?capacity:audit_capacity ?shards:audit_shards ();
    cache =
      (if cache then
         Some (Decision_cache.create ?shards:cache_shards ~capacity:cache_capacity ())
       else None);
  }

let db monitor = monitor.db
let policy monitor = monitor.policy

let set_policy monitor policy =
  monitor.policy <- policy;
  (* Bump after the policy write lands (data-then-generation, as in
     Meta): any entry filed under the previous epoch can never
     validate again.  The flush is memory hygiene on top. *)
  Atomic.incr monitor.policy_epoch;
  Option.iter Decision_cache.flush monitor.cache

let audit monitor = monitor.audit
let policy_epoch monitor = Atomic.get monitor.policy_epoch
let cache_stats monitor = Option.map Decision_cache.stats monitor.cache

(* The discretionary layer runs on the compiled decision path: the
   object's ACL, compiled to flat mode-mask arrays and cached on its
   metadata (see Acl_compiled / Meta.compiled_acl), answers in a few
   bitwise tests with zero allocation.  Only an explicit deny re-runs
   the interpreted walk, to recover the who diagnostic the compiled
   form deliberately drops. *)
let dac_decide monitor ~span ~subject ~(meta : Meta.t) ~mode =
  let principal = Subject.principal subject in
  let compiled = Meta.compiled_acl meta ~db:monitor.db in
  match Acl_compiled.check compiled ~subject:principal ~mode with
  | Acl_compiled.Granted ->
    Metrics.incr m_dac_compiled;
    if Trace.active span then Trace.annotate span "dac" "compiled";
    Ok ()
  | Acl_compiled.No_entry ->
    Metrics.incr m_dac_compiled;
    if Trace.active span then Trace.annotate span "dac" "compiled";
    Error Decision.Dac_no_entry
  | Acl_compiled.Denied -> (
    Metrics.incr m_dac_interpreted;
    if Trace.active span then Trace.annotate span "dac" "interpreted";
    match Acl.check ~db:monitor.db ~subject:principal ~mode meta.acl with
    | Acl.Denied_by who -> Error (Decision.Dac_explicit_deny who)
    | Acl.No_entry -> Error Decision.Dac_no_entry
    | Acl.Granted _ ->
      (* Only reachable when a mutation raced between the compiled and
         interpreted reads; the interpreted walk is the later, more
         current answer. *)
      Ok ())

let mac_decide monitor ~span ~subject ~(meta : Meta.t) ~mode =
  (* Trusted subjects (the TCB) are exempt from the [*]-property: they
     may write down.  Read rules still apply. *)
  if Subject.is_trusted subject && Access_mode.is_write_like mode then begin
    Metrics.incr m_mac_granted;
    if Trace.active span then Trace.annotate span "mac" "granted";
    Ok ()
  end
  else
    match
      Mac.check ~rule:monitor.policy.Policy.overwrite
        ~subject:(Subject.effective_class subject) ~object_:meta.klass mode
    with
    | Ok () ->
      Metrics.incr m_mac_granted;
      if Trace.active span then Trace.annotate span "mac" "granted";
      Ok ()
    | Error denial ->
      Metrics.incr m_mac_denied;
      if Trace.active span then Trace.annotate span "mac" "denied";
      Error (Decision.Mac_denied denial)

(* Biba rules apply only when both sides carry integrity labels; the
   TCB exemption mirrors the MAC one. *)
let integrity_decide monitor ~subject ~(meta : Meta.t) ~mode =
  if not monitor.policy.Policy.integrity then Ok ()
  else
    match Subject.integrity subject, meta.integrity with
    | None, _ | _, None -> Ok ()
    | Some subject_integrity, Some object_integrity ->
      if Subject.is_trusted subject && Access_mode.is_write_like mode then Ok ()
      else (
        match Integrity.check ~subject:subject_integrity ~object_:object_integrity mode with
        | Ok () -> Ok ()
        | Error denial -> Error (Decision.Integrity_denied denial))

(* Written as direct matches rather than a Result.bind chain: the bind
   closures would allocate on every call, and the grant path through
   [evaluate] is the allocation-free fast path the compiled-ACL work
   buys (a regression test holds it to zero minor words). *)
let evaluate monitor ~span ~subject ~meta ~mode =
  let dac =
    if monitor.policy.Policy.dac then dac_decide monitor ~span ~subject ~meta ~mode
    else Ok ()
  in
  match dac with
  | Error denial -> Decision.Denied denial
  | Ok () -> (
    let mac =
      if monitor.policy.Policy.mac then mac_decide monitor ~span ~subject ~meta ~mode
      else Ok ()
    in
    match mac with
    | Error denial -> Decision.Denied denial
    | Ok () -> (
      match integrity_decide monitor ~subject ~meta ~mode with
      | Error denial -> Decision.Denied denial
      | Ok () -> Decision.Granted))

let decide ?(span = Trace.none) monitor ~subject ~meta ~mode =
  Metrics.incr m_decisions;
  let t0 = Metrics.start_timing m_decide_ns in
  let decision =
    match monitor.cache with
    | None -> evaluate monitor ~span ~subject ~meta ~mode
    | Some cache -> (
      (* All three generations are read before the lookup, and a miss
         is filed under them: see the ordering argument in
         Decision_cache. *)
      let meta_generation = Meta.generation meta in
      let db_generation = Principal.Db.generation monitor.db in
      let policy_generation = Atomic.get monitor.policy_epoch in
      match
        Decision_cache.lookup cache ~subject ~meta ~mode ~meta_generation ~db_generation
          ~policy_generation
      with
      | Some decision ->
        if Trace.active span then Trace.annotate span "cache" "hit";
        decision
      | None ->
        if Trace.active span then Trace.annotate span "cache" "miss";
        let decision = evaluate monitor ~span ~subject ~meta ~mode in
        Decision_cache.store cache ~subject ~meta ~mode ~meta_generation ~db_generation
          ~policy_generation decision;
        decision)
  in
  Metrics.stop_timing m_decide_ns t0;
  (match decision with
  | Decision.Granted -> Metrics.incr m_granted
  | Decision.Denied _ -> Metrics.incr m_denied);
  if Trace.active span then
    Trace.annotate span "decision"
      (match decision with
      | Decision.Granted -> "granted"
      | Decision.Denied _ -> "denied");
  decision

let check ?span monitor ~subject ~(meta : Meta.t) ~object_name ~mode =
  let decision = decide ?span monitor ~subject ~meta ~mode in
  Audit.record monitor.audit ~subject ~object_name ~object_id:meta.Meta.id
    ~object_class:meta.klass ~mode decision;
  decision

let check_exn monitor ~subject ~meta ~object_name ~mode =
  match check monitor ~subject ~meta ~object_name ~mode with
  | Decision.Granted -> ()
  | Decision.Denied denial -> raise (Access_denied { object_name; mode; denial })

let set_acl monitor ~subject ~meta ~object_name acl =
  let decision =
    check monitor ~subject ~meta ~object_name ~mode:Access_mode.Administrate
  in
  (match decision with
  | Decision.Granted -> Meta.set_acl_raw meta acl
  | Decision.Denied _ -> ());
  decision

let set_class monitor ~subject ~meta ~object_name klass =
  let decision =
    check monitor ~subject ~meta ~object_name ~mode:Access_mode.Administrate
  in
  (match decision with
  | Decision.Granted -> Meta.set_klass_raw meta klass
  | Decision.Denied _ -> ());
  decision

let check_attach monitor ~subject ~parent ~child ~object_name =
  let dac_result =
    if monitor.policy.Policy.dac then
      dac_decide monitor ~span:Trace.none ~subject ~meta:parent ~mode:Access_mode.Write
    else Ok ()
  in
  let decision =
    match dac_result with
    | Error denial -> Decision.Denied denial
    | Ok () ->
      if
        (not monitor.policy.Policy.mac)
        || Subject.is_trusted subject
        || Security_class.dominates child.Meta.klass (Subject.effective_class subject)
      then Decision.Granted
      else Decision.Denied (Decision.Mac_denied Mac.Write_down)
  in
  Audit.record monitor.audit ~subject ~object_name ~object_id:child.Meta.id
    ~object_class:child.Meta.klass ~mode:Access_mode.Write decision;
  decision
