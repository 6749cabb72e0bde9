(** Audit log of security-relevant events.

    The paper lists auditing among the concerns an access-control
    model must support.  The reference monitor records every decision
    here; the log keeps a bounded window of recent events plus running
    totals, so long benchmarks do not grow memory without bound.

    The pipeline is {e sharded by domain}: a record goes to the ring of
    shard [Domain.self () mod shards], behind that shard's own mutex,
    with one shared atomic sequence counter ordering events globally.
    Recording domains on different shards therefore share no lock —
    the property the multi-domain scaling benches (A8) measure — while
    {!events} still returns exactly the last [capacity] events,
    independent of the shard count.  Each ring is kept as flat columns
    (seq, subject, name, id, class, mode, decision) allocated by the
    shard's first record, so recording allocates nothing; {!event}
    records are built only when read.  Totals remain conserved:
    [granted_total + denied_total] always equals the number of
    completed {!record} calls. *)

type event = {
  seq : int;  (** monotonically increasing event number *)
  subject : Subject.t;  (** the acting subject, as of the check *)
  object_name : string;
  object_id : int;  (** the object's unique identity ({!Meta.t}[.id]) *)
  object_class : Security_class.t;  (** the object's class at check time *)
  mode : Access_mode.t;
  decision : Decision.t;
}

type t

val create : ?capacity:int -> ?shards:int -> unit -> t
(** [capacity] bounds the retained events (default 4096, must be > 0):
    {!events} returns the newest [capacity], whatever the shard count.
    [shards] defaults to the runtime-recognized domain count and must
    be positive. *)

val shard_count : t -> int
val capacity : t -> int
(** Retention bound; also each shard's ring capacity. *)

val record :
  t ->
  subject:Subject.t ->
  object_name:string ->
  object_id:int ->
  object_class:Security_class.t ->
  mode:Access_mode.t ->
  Decision.t ->
  unit
(** Stamp the event from the shared sequence counter, then write its
    fields into the calling domain's shard under that shard's lock
    (ring slots and counters only).  Allocates nothing once the shard's
    columns exist. *)

val events : t -> event list
(** The newest {!capacity} recorded events merged across shards on the
    global sequence number, oldest first; [tail ~count:capacity]. *)

val tail : t -> count:int -> event list
(** The newest [count] retained events, oldest first — for
    [count <= capacity], the last [count] elements of {!events} —
    gathering only [count] events per shard before the merge, so the
    cost is independent of total retention.  Negative counts are
    treated as 0. *)

val granted_total : t -> int
val denied_total : t -> int
val total : t -> int
val clear : t -> unit
(** Forget retained events and totals. *)

val pp_event : Format.formatter -> event -> unit
