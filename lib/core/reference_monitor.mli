(** The central reference monitor.

    One facility decides every access in the system (economy of
    mechanism; paper sections 1.2 and 3): the name space, the kernel's
    call/extend paths and all simulated services route their checks
    through {!check}.  A request is granted only if every enabled
    policy layer — discretionary ACLs and the mandatory lattice —
    grants it, and every decision is recorded in the audit log. *)

exception Access_denied of {
  object_name : string;
  mode : Access_mode.t;
  denial : Decision.denial;
}

type t

val create :
  ?policy:Policy.t -> ?audit_capacity:int -> ?audit_shards:int -> ?cache:bool ->
  ?cache_capacity:int -> ?cache_shards:int -> Principal.Db.t -> t
(** A monitor over the given principal database.  [policy] defaults to
    {!Policy.default}.  [cache] (default [true]) memoizes decisions in
    a {!Decision_cache} of [cache_capacity] (default 8192) entries
    split into [cache_shards] shards (default: the recognized domain
    count), invalidated by metadata/membership/policy generation
    counters — see {!Decision_cache} for the soundness argument.
    [audit_capacity]/[audit_shards] size the sharded audit pipeline
    ({!Audit.create}).  Creating a monitor allocates no cache table or
    audit ring; each shard allocates its own on first use.

    Discretionary decisions run on the compiled ACL path: each
    object's ACL is compiled to flat mode-mask arrays over interned
    principal ids ({!Acl_compiled}), cached on its metadata and
    invalidated by the same generation counters; the uncached grant
    path allocates nothing.

    The monitor is safe to share across OCaml 5 domains:
    - the decision cache and the audit log each pick their shard by
      the calling domain ([Domain.self () mod shards]), so domains on
      different shards share no lock;
    - a shard's mutex is held only for one slot probe, one slot write
      or one audit record, never while a decision is evaluated;
    - each cache shard is a direct-mapped table: a new key evicts
      whatever other key held its slot;
    - the generation counters are atomic with a data-then-generation
      publication order (DESIGN.md, "Concurrency model").

    A granted {!check} allocates nothing, on a cache hit or without a
    cache.  Registering {e new} principals or groups in the database
    remains a setup-time operation. *)

val db : t -> Principal.Db.t
val policy : t -> Policy.t

val set_policy : t -> Policy.t -> unit
(** Swap the policy; bumps the monitor's policy epoch and flushes the
    decision cache, revoking every memoized outcome the old policy
    produced — including decisions still being computed during the
    swap, which the epoch validation catches after the flush. *)

val audit : t -> Audit.t

val policy_epoch : t -> int
(** The current policy epoch: a monotone counter bumped by every
    {!set_policy}.  Every reusable decision records it in its
    {!Stamp} and stops validating as soon as it moves — the same
    generation-validation scheme the decision cache uses. *)

val cache_stats : t -> Decision_cache.stats option
(** Hit/miss/eviction/invalidation counters and current size of the
    decision cache; [None] when the monitor was created with
    [~cache:false]. *)

val decide :
  ?span:Exsec_obs.Trace.handle ->
  t -> subject:Subject.t -> meta:Meta.t -> mode:Access_mode.t -> Decision.t
(** Decision without an audit record: DAC then MAC.  The subject's
    {e effective} class (clearance capped by any static extension
    class) is used for the MAC rules.  Answered from the decision
    cache when a validated entry exists; observationally identical to
    the uncached evaluation.

    Feeds the [monitor.*] metrics (decision/grant/deny counters, the
    compiled-vs-interpreted DAC split, MAC verdicts, and a sampled
    latency histogram); all of it noop until
    [Exsec_obs.Metrics.set_enabled true].  When [span] carries an
    active trace span, the decision annotates it with
    [cache=hit|miss], [dac=compiled|interpreted], [mac] and the final
    verdict. *)

val check :
  ?span:Exsec_obs.Trace.handle ->
  t ->
  subject:Subject.t ->
  meta:Meta.t ->
  object_name:string ->
  mode:Access_mode.t ->
  Decision.t
(** {!decide}, recorded in the audit log under [object_name]. *)

val check_exn :
  t ->
  subject:Subject.t ->
  meta:Meta.t ->
  object_name:string ->
  mode:Access_mode.t ->
  unit
(** @raise Access_denied when {!check} denies. *)

val set_acl :
  t ->
  subject:Subject.t ->
  meta:Meta.t ->
  object_name:string ->
  Acl.t ->
  Decision.t
(** Replace an object's ACL; requires [Administrate] on the object.
    Applies the new ACL only when granted. *)

val set_class :
  t ->
  subject:Subject.t ->
  meta:Meta.t ->
  object_name:string ->
  Security_class.t ->
  Decision.t
(** Relabel an object; requires [Administrate] and, under MAC, is
    treated as a write to the object. *)

val check_attach :
  t ->
  subject:Subject.t ->
  parent:Meta.t ->
  child:Meta.t ->
  object_name:string ->
  Decision.t
(** The container rule for creating or removing a directory entry:
    discretionary [Write] on the {e parent} container, and — because
    containers are multi-level (Multics-style "upgraded directories")
    — the mandatory check applies to the {e child}: its class must
    dominate the subject's, so a subject creates or unlinks entries
    only at or above its own class.  (The target of a removal is
    additionally subject to a normal [Delete] check.) *)
