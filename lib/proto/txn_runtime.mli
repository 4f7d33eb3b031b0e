(** The transaction runtime shared by both protocol stacks.

    Xenic and its RDMA baselines run the same FaRM-style OCC lifecycle
    (execute, validate, log to backups, commit); what differs is where
    each step runs. This module owns everything about that lifecycle
    that does not depend on the data path: the routing view and the
    epoch/commit fence, the abort taxonomy with the retry/backoff loop,
    membership-driven recovery, the recorders (metrics, oracle, trace,
    telemetry) and the fault-injection pass-throughs. Each stack keeps
    one [t] and only its data path: stores, lock tables, transport and
    the phases themselves. *)

open Xenic_cluster

(** A fabric message: wire size plus the closure run at delivery. *)
type msg = { bytes : int; deliver : unit -> unit }

(** Commit decision for a LOG record, shared (one ref per transaction)
    between the coordinator and every backup holding a copy. Backups
    apply only decided-committed records, so a crash between partial
    LOG appends and the commit point cannot diverge the replicas.
    Un-armed runs create records already decided. *)
type decision = Dpending | Dcommit | Dabort

(** Outcome of one attempt. [`Retry]: the attempt ran into a dead or
    reconfigured peer and released its locks; armed runs back off and
    retry. *)
type attempt =
  [ `Committed
  | `Aborted of Metrics.abort_reason
  | `Retry of Metrics.abort_reason ]

(** The stack's lock tables, logs and promotion, installed once at the
    stack's [create] (see {!set_hooks}) and used by recovery and
    {!quiesce}. *)
type hooks = {
  locks : int -> (Keyspace.t * int) list;
      (** Every (key, owner token) locked at a node, in a fixed order. *)
  unlock : int -> Keyspace.t -> owner:int -> unit;
  backup_pending : int -> bool;
      (** A node's backup LOG still has records to apply. *)
  logs_pending : int -> bool;  (** Any of a node's host logs does. *)
  promote : shard:int -> int -> int;
      (** [promote ~shard np]: make a live replica the shard's primary
          (the candidate [np] has drained its backup log); returns the
          new primary. *)
}

type t = {
  engine : Xenic_sim.Engine.t;
  cfg : Config.t;
  stack : string;  (** Stack label for telemetry and attribution. *)
  fabric : msg Xenic_net.Fabric.t;
  req_timeout_ns : float option;
      (** [Some _]: per-request timeouts and the fault-tolerant commit
          path are armed. *)
  retry_backoff_ns : float;
  max_retries : int;
  metrics : Metrics.t;
  part_metrics : Metrics.t array;
      (** One shard per engine partition under a windowed topology;
          empty otherwise. *)
  part_oracle : Oracle.t array;
      (** Per-partition commit buffers feeding the attached oracle,
          flushed by {!sync}; empty when unpartitioned. *)
  mutable oracle : Oracle.t option;
  txn_seq : int array;  (** Per-coordinator attempt counter. *)
  primaries : int array;  (** shard -> current primary node *)
  alive : bool array;
      (** Routing view: false once a node is removed from the
          configuration. *)
  crashed : bool array;
      (** Instantaneous view: true from the crash instant on; inbound
          messages of a crashed node are dropped at dispatch. *)
  mutable epoch : int;  (** Bumped on every reconfiguration. *)
  mutable inflight_commits : int;
      (** Transactions past the commit fence; recovery waits for 0. *)
  mutable recovery_waiting : int;
      (** Pending reconfigurations; the fence admits nobody while > 0. *)
  mutable membership : Membership.t option;
  mutable trace : Xenic_sim.Trace.t option;
  mutable telemetry : Xenic_telemetry.Telemetry.t option;
  mutable hooks : hooks;
}

(** Install the engine's node-partition topology when
    [partitions > 0] (windowed, lookahead = wire latency; otherwise the
    engine keeps its single heap), then build the fabric and the shared
    state. *)
val create :
  Xenic_sim.Engine.t ->
  Xenic_params.Hw.t ->
  Config.t ->
  stack:string ->
  partitions:int ->
  req_timeout_ns:float option ->
  retry_backoff_ns:float ->
  max_retries:int ->
  t

val set_hooks : t -> hooks -> unit

(** {1 Recorders} *)

(** The metrics object the current event records into (its partition's
    shard under a windowed topology). *)
val mx : t -> Metrics.t

(** Reported metrics: the live object, or a fresh merge of every
    partition shard in partition-index order. *)
val metrics : t -> Metrics.t

val counters : t -> Xenic_stats.Counter.t

(** Increment a named counter of {!mx}. *)
val count : t -> string -> unit

(** Attach/detach an execution trace (phase spans, aborts, retries,
    recovery events). Recording is free in simulated time. *)
val set_trace : t -> Xenic_sim.Trace.t option -> unit

(** Attach/detach a windowed telemetry flight recorder. Raises
    [Invalid_argument] unless it has one shard per engine partition
    (create the recorder after the system that partitions the
    engine). *)
val set_telemetry : t -> Xenic_telemetry.Telemetry.t option -> unit

val trace_instant :
  t -> cat:string -> name:string -> pid:int -> tid:int ->
  (string * string) list -> unit

(** [phase_mark t ~src ~seq name t_prev] closes a protocol phase started
    at [t_prev] and returns the new phase start. *)
val phase_mark : t -> src:int -> seq:int -> string -> float -> float

(** Record one admission-control shed as an aborted transaction with
    reason {!Metrics.Shed}. *)
val record_shed : t -> latency_ns:float -> unit

(** Attach a serializability oracle recording committed transactions. *)
val set_oracle : t -> Oracle.t -> unit

(** Flush partition-local oracle buffers into the attached oracle
    (between engine runs only); no-op on unpartitioned systems. *)
val sync : t -> unit

(** Report a committed transaction: [values] are execution reads,
    [locked] lock-time entries (value if fetched), [read_from_lock]
    makes a locked entry without a value an observed absence. *)
val oracle_commit :
  t ->
  id:int ->
  values:(Keyspace.t * bytes option * int) list ->
  locked:(Keyspace.t * bytes option * int) list ->
  read_from_lock:bool ->
  seq_ops:(Op.t * int) list ->
  unit

(** {1 Routing and the commit fence} *)

val armed : t -> bool

val primary_of : t -> shard:int -> int

(** Live backups of a shard: its replicas minus the primary and dead
    nodes. *)
val backups_of : t -> shard:int -> int list

val node_alive : t -> node:int -> bool

val live_replica : t -> shard:int -> int option

(** Locked keys get their lock-time version + 1, fresh keys version 1. *)
val seq_ops_of :
  lock_versions:(Keyspace.t * int) list -> Op.t list -> (Op.t * int) list

(** LOG/COMMIT records grouped per written shard: shards ascending,
    each shard's ops in input order. *)
val group_ops_by_shard : (Op.t * int) list -> (int * (Op.t * int) list) list

(** Poll every 1,000 ns of simulated time while the predicate holds. *)
val wait_while : t -> (unit -> bool) -> unit

(** Wait for a LOG record's decision; [true]: apply it. *)
val decided : t -> decision ref -> bool

(** After an armed LOG timeout to [backup]: [true] to resend; [false]
    when the coordinator or the backup crashed (counted). Fails after 8
    attempts against a live backup. *)
val log_resend : t -> src:int -> backup:int -> attempt:int -> bool

(** [commit_point t ~src ~epoch0 ~log ~commit ~abort] runs a validated
    transaction's LOG and COMMIT under the commit fence. [log d] sends
    LOG with every record stamped [d] and returns what [commit] needs.
    - Un-armed: [commit (log (ref Dcommit))]; [`Committed].
    - Armed, fence refused (counted as [fence_refusals]: the
      coordinator crashed, or the epoch moved past [epoch0]; waits
      while a reconfiguration is pending): [abort ()] before any LOG
      byte; [`Retry Stale_epoch].
    - Armed, coordinator crashed mid-LOG: the decision goes
      [Dpending] -> [Dabort]; [`Aborted Crashed_owner].
    - Armed, otherwise: decide [Dcommit] and run [commit] with no
      suspension in between; [`Committed].
    Armed, the fence is held from before [log] until the outcome. *)
val commit_point :
  t ->
  src:int ->
  epoch0:int ->
  log:(decision ref -> 'a) ->
  commit:('a -> unit) ->
  abort:(unit -> unit) ->
  attempt

(** {1 Armed requests} *)

(** A request to a crashed destination: count a timeout and sleep the
    whole deadline. *)
val timeout_dead : t -> timeout_ns:float -> unit

(** At the destination: [true] (counted) when a request stamped with
    [epoch0] crossed a reconfiguration and must be rejected. *)
val reject_stale : t -> int option -> bool

(** At the caller: [true] (counted) when a response landed after a
    reconfiguration and must be dropped. *)
val drop_stale : t -> int option -> bool

(** Fill an ivar unless already filled. *)
val settle : 'a Xenic_sim.Ivar.t -> 'a -> unit

(** {1 Transactions} *)

(** [run_txn t ~node sys attempt txn] runs [attempt sys ~node txn] and
    accounts its outcome: one abort-taxonomy reason per [Aborted], the
    committed latency, trace and telemetry. Armed runs retry [`Retry]
    attempts with exponential backoff up to [max_retries]. Each attempt
    takes its owner id from [txn_seq]. *)
val run_txn :
  t ->
  node:int ->
  'sys ->
  ('sys -> node:int -> Types.t -> attempt) ->
  Types.t ->
  Types.outcome

(** {1 Node processes} *)

(** Spawn a node's inbound dispatch loop; [on_packet] charges the
    stack's per-packet receive cost. *)
val dispatch_loop : t -> node:int -> on_packet:(unit -> unit) -> unit

(** Wait until every live node's logs are drained. *)
val quiesce : t -> unit

(** {1 Reconfiguration (§4.2.1)} *)

(** Break locks whose owner's coordinator has crashed, at every live
    node. *)
val sweep_dead_owner_locks : t -> unit

(** Attach a membership service: a declaration bumps the epoch, marks
    the dead nodes, and runs recovery (fence wait, lock sweep, backup
    log drain, promotion) in the background. *)
val attach_membership : t -> Membership.t -> unit

(** Crash a node now: it stops responding; without membership it also
    leaves routing immediately. *)
val crash_node : t -> node:int -> unit

(** Count and trace a refused recovery request. *)
val refuse_rejoin : t -> node:int -> unit

(** Stop background services (membership loops) so the engine can
    drain. *)
val stop_background : t -> unit

(** {1 Gray failures} Link faults; see {!Xenic_net.Fabric}. Mutations
    must run as engine events at [src]. *)

val net_enable_faults : t -> seed:int64 -> rto_ns:float -> unit

val net_set_cut : t -> src:int -> dst:int -> bool -> unit

val net_set_loss : t -> src:int -> dst:int -> float -> unit

val net_set_delay : t -> src:int -> dst:int -> float -> unit
