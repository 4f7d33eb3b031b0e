open Xenic_sim
open Xenic_cluster

type msg = { bytes : int; deliver : unit -> unit }

type decision = Dpending | Dcommit | Dabort

type attempt =
  [ `Committed
  | `Aborted of Metrics.abort_reason
  | `Retry of Metrics.abort_reason ]

type hooks = {
  locks : int -> (Keyspace.t * int) list;
  unlock : int -> Keyspace.t -> owner:int -> unit;
  backup_pending : int -> bool;
  logs_pending : int -> bool;
  promote : shard:int -> int -> int;
}

type t = {
  engine : Engine.t;
  cfg : Config.t;
  stack : string;
  fabric : msg Xenic_net.Fabric.t;
  req_timeout_ns : float option;
  retry_backoff_ns : float;
  max_retries : int;
  metrics : Metrics.t;
  part_metrics : Metrics.t array;
  part_oracle : Oracle.t array;
  mutable oracle : Oracle.t option;
  txn_seq : int array;
  primaries : int array;
  alive : bool array;
  crashed : bool array;
  mutable epoch : int;
  mutable inflight_commits : int;
  mutable recovery_waiting : int;
  mutable membership : Membership.t option;
  mutable trace : Trace.t option;
  mutable telemetry : Xenic_telemetry.Telemetry.t option;
  mutable hooks : hooks;
}

let no_hooks =
  let unset _ = invalid_arg "Txn_runtime: stack hooks not installed" in
  {
    locks = unset;
    unlock = (fun _ _ ~owner:_ -> unset ());
    backup_pending = unset;
    logs_pending = unset;
    promote = (fun ~shard:_ _ -> unset ());
  }

let create engine hw cfg ~stack ~partitions ~req_timeout_ns ~retry_backoff_ns
    ~max_retries =
  (* [partitions > 0] partitions the engine by node before any event
     exists, for windowed conservative-PDES mode: the open-loop driver
     has no cross-node shared state, so partitions can drain whole
     lookahead windows independently (lookahead = the wire latency every
     cross-node message already pays). Results are bit-identical for a
     fixed partition count regardless of domains. Otherwise the engine
     keeps its single heap, whatever its domain budget. *)
  let nodes = cfg.Config.nodes in
  if partitions > 0 then begin
    if Engine.partitions engine <> 0 then
      invalid_arg "Txn_runtime.create: engine already has a topology";
    let partitions = min partitions nodes in
    Engine.set_topology engine ~lookahead:hw.Xenic_params.Hw.wire_latency_ns
      ~partitions
      ~node_partition:(fun node ->
        Config.partition_of_node cfg ~partitions ~node)
  end;
  let fabric = Xenic_net.Fabric.create engine hw ~nodes in
  let shards f =
    if partitions > 0 then Array.init (Engine.partitions engine) (fun _ -> f ())
    else [||]
  in
  {
    engine;
    cfg;
    stack;
    fabric;
    req_timeout_ns;
    retry_backoff_ns;
    max_retries;
    metrics = Metrics.create ();
    part_metrics = shards Metrics.create;
    part_oracle = shards Oracle.create;
    oracle = None;
    txn_seq = Array.make nodes 0;
    primaries = Array.init nodes (fun shard -> Config.primary cfg ~shard);
    alive = Array.make nodes true;
    crashed = Array.make nodes false;
    epoch = 0;
    inflight_commits = 0;
    recovery_waiting = 0;
    membership = None;
    trace = None;
    telemetry = None;
    hooks = no_hooks;
  }

let set_hooks t h = t.hooks <- h

(* ------------------------------------------------------------------ *)
(* Recorders *)

(* The metrics object protocol events record into: the partition-local
   shard under a windowed topology (each partition's events run on one
   domain at a time, so the shard is never written concurrently), the
   shared object otherwise. *)
let mx t =
  if Array.length t.part_metrics = 0 then t.metrics
  else t.part_metrics.(Engine.current_partition t.engine)

(* Reported metrics. Sharded runs merge the partitions into a fresh
   object in partition-index order — deterministic for a fixed
   partition count, independent of how many domains drained them. *)
let metrics t =
  if Array.length t.part_metrics = 0 then t.metrics
  else begin
    let m = Metrics.create () in
    Metrics.merge ~into:m t.metrics;
    Array.iter (fun pm -> Metrics.merge ~into:m pm) t.part_metrics;
    m
  end

let counters t = Metrics.counters (mx t)

let count t name = Xenic_stats.Counter.incr (counters t) name

let set_trace t tr = t.trace <- tr

(* A recorder created before the engine was partitioned has one shard
   and would be indexed out of bounds mid-run: refuse it at attach. *)
let set_telemetry t tel =
  (match tel with
  | Some tel
    when Xenic_telemetry.Telemetry.shards tel
         <> max 1 (Engine.partitions t.engine) ->
      invalid_arg
        "Txn_runtime.set_telemetry: the recorder's shards do not match the \
         engine's partitions; create the recorder after the system"
  | _ -> ());
  t.telemetry <- tel

(* Phase/recovery events for the trace (no-ops with tracing off). *)
let trace_instant t ~cat ~name ~pid ~tid args =
  match t.trace with
  | None -> ()
  | Some tr -> Trace.instant tr ~cat ~name ~pid ~tid ~args ()

(* Close one protocol phase: record its latency histogram sample and,
   when tracing, a span on the coordinator's track keyed by the
   transaction's sequence number. Returns the new phase start. *)
let phase_mark t ~src ~seq name t_prev =
  let now = Engine.now t.engine in
  Metrics.record_phase (mx t) ~phase:name (now -. t_prev);
  (match t.trace with
  | None -> ()
  | Some tr ->
      Trace.span tr ~cat:"txn" ~name ~pid:src ~tid:seq ~ts:t_prev
        ~dur:(now -. t_prev) ());
  now

(* Admission-control hook (open-loop driver). A shed request is an
   aborted transaction in this stack's taxonomy (reason [Shed]) so
   reason counts still sum to the abort count. *)
let record_shed t ~latency_ns =
  let m = mx t in
  Metrics.record m ~latency_ns Types.Aborted;
  Metrics.record_abort_reason m Metrics.Shed

let set_oracle t o = t.oracle <- Some o

(* Flush the partition-local oracle buffers into the attached oracle,
   in partition-index order (deterministic for a fixed partition
   count). Call between engine runs — never while partitions may still
   be recording. No-op on unsharded systems. *)
let sync t =
  match t.oracle with
  | None -> ()
  | Some o -> Array.iter (fun po -> Oracle.absorb ~into:o po) t.part_oracle

(* Report a committed transaction to the serializability oracle, if one
   is attached. Execution reads carry values; locked entries carry
   their value when the stack fetched one, and otherwise their
   lock-time version only — except with [read_from_lock] (DrTM+R's
   post-CAS READ), where a missing value means the key was genuinely
   absent. Sharded runs buffer into the current partition's oracle
   ([sync] merges later). *)
let oracle_commit t ~id ~values ~locked ~read_from_lock ~seq_ops =
  match t.oracle with
  | None -> ()
  | Some o ->
      let o =
        if Array.length t.part_oracle = 0 then o
        else t.part_oracle.(Engine.current_partition t.engine)
      in
      let read_keys = List.map (fun (k, _, _) -> k) values in
      let reads =
        List.map (fun (k, v, seq) -> (k, seq, Oracle.Value v)) values
        @ List.filter_map
            (fun (k, v, seq) ->
              if List.mem k read_keys then None
              else if Option.is_some v || read_from_lock then
                Some (k, seq, Oracle.Value v)
              else Some (k, seq, Oracle.Version_only))
            locked
      in
      let writes =
        List.map
          (fun (op, seq) ->
            match op with
            | Op.Put (k, b) -> (k, seq, Oracle.Put b)
            | Op.Delete k -> (k, seq, Oracle.Delete))
          seq_ops
      in
      Oracle.record_commit o ~id ~reads ~writes

(* ------------------------------------------------------------------ *)
(* Routing and the commit fence *)

(* Timeout/fault machinery armed? *)
let armed t = Option.is_some t.req_timeout_ns

(* Current primary routing (reconfiguration-aware, §4.2.1). *)
let primary_of t ~shard = t.primaries.(shard)

(* Live backups of [shard]: its replicas minus the current primary and
   any dead nodes. *)
let backups_of t ~shard =
  List.filter
    (fun n -> n <> t.primaries.(shard) && t.alive.(n))
    (Config.replicas t.cfg ~shard)

let node_alive t ~node = t.alive.(node) && not t.crashed.(node)

(* The first replica of [shard] that is in the configuration and up. *)
let live_replica t ~shard =
  List.find_opt (fun n -> node_alive t ~node:n) (Config.replicas t.cfg ~shard)

(* Version assignment for LOG/COMMIT records: locked keys get their
   lock-time version + 1; fresh keys (uniqueness guaranteed by a held
   lock) start at version 1. *)
let seq_ops_of ~lock_versions ops =
  List.map
    (fun op ->
      let k = Op.key op in
      match List.assoc_opt k lock_versions with
      | Some seq -> (op, seq + 1)
      | None -> (op, 1))
    ops

(* LOG/COMMIT records per written shard: shards ascending, each shard's
   ops in input order. *)
let group_ops_by_shard seq_ops =
  let shard (op, _) = Keyspace.shard (Op.key op) in
  List.sort_uniq compare (List.map shard seq_ops)
  |> List.map (fun s -> (s, List.filter (fun o -> shard o = s) seq_ops))

(* The commit fence: entered before the first LOG byte is sent, so that
   recovery (which waits for [inflight_commits = 0]) can never change
   routing or rebuild an index while a transaction is between LOG and
   COMMIT. Refused (and counted) — the caller aborts cleanly and
   retries — when the coordinator crashed, the configuration moved on
   from [epoch0], or a reconfiguration is waiting. *)
let rec fence_acquire t ~src ~epoch0 =
  if t.crashed.(src) || t.epoch <> epoch0 then begin
    count t "fence_refusals";
    false
  end
  else if t.recovery_waiting > 0 then begin
    Process.sleep t.engine 1_000.0;
    fence_acquire t ~src ~epoch0
  end
  else begin
    t.inflight_commits <- t.inflight_commits + 1;
    true
  end

let fence_release t = t.inflight_commits <- t.inflight_commits - 1

(* Poll every 1,000 ns while [busy ()] holds: the recovery-side waits
   for in-flight commits to resolve or for a host log to drain. *)
let rec wait_while t busy =
  if busy () then begin
    Process.sleep t.engine 1_000.0;
    wait_while t busy
  end

(* Wait out a LOG record's commit decision: the coordinator that caused
   the append always resolves it (to [Dabort] if it bails out after a
   crash), so the wait is bounded by an ack round trip. [true]: apply. *)
let rec decided t d =
  match !d with
  | Dcommit -> true
  | Dabort ->
      count t "log_discards";
      false
  | Dpending ->
      Process.sleep t.engine 500.0;
      decided t d

(* Armed LOG retry rule after a timeout to [backup]; [true]: resend (a
   resend is idempotent — the apply is sequence-guarded). A LOG must
   not fail once the commit fence is held, so the only ways out are a
   crashed coordinator (responses into it are dropped, so the timeout
   says nothing about the backup; the shared decision resolves to abort
   and backups discard) and a crashed backup (its copy died with it and
   it can never be promoted past the declaration). *)
let log_resend t ~src ~backup ~attempt =
  if t.crashed.(src) then begin
    count t "log_from_dead_coord";
    false
  end
  else if t.crashed.(backup) then begin
    count t "log_to_dead_backup";
    false
  end
  else if attempt >= 8 then
    (* With req_timeout_ns far above worst-case latency this is
       unreachable; failing loud beats silently diverging a live
       replica. *)
    failwith (t.stack ^ ": LOG to a live backup timed out repeatedly")
  else true

(* The commit point (§4.2, §4.2.1). Armed: enter the fence before the
   first LOG byte (refused: [abort] releases the locks, nothing was
   sent), LOG under a pending decision, and never decide if the
   coordinator died mid-LOG — backups then discard the records and its
   locks die with it or are swept at the declaration. Otherwise decide
   and run [commit] with no suspension in between, so a crash cannot
   split the decision from handing COMMIT to the fabric. Un-armed
   records are born decided and there is no fence. *)
let commit_point t ~src ~epoch0 ~log ~commit ~abort : attempt =
  if not (armed t) then begin
    commit (log (ref Dcommit));
    `Committed
  end
  else if not (fence_acquire t ~src ~epoch0) then begin
    abort ();
    `Retry Metrics.Stale_epoch
  end
  else begin
    let decision = ref Dpending in
    let x = log decision in
    if t.crashed.(src) then begin
      decision := Dabort;
      fence_release t;
      `Aborted Metrics.Crashed_owner
    end
    else begin
      decision := Dcommit;
      commit x;
      fence_release t;
      `Committed
    end
  end

(* ------------------------------------------------------------------ *)
(* Armed requests *)

(* A request to a crashed destination: the coordinator cannot know the
   peer is gone, so it pays the full timeout, exactly as if the request
   had been dropped. *)
let timeout_dead t ~timeout_ns =
  count t "req_timeouts";
  Process.sleep t.engine timeout_ns

let stale t epoch0 = match epoch0 with Some e -> t.epoch <> e | None -> false

(* Epoch fencing of a request stamped with [epoch0]: the destination
   rejects it once the configuration moved on ... *)
let reject_stale t epoch0 =
  if stale t epoch0 then begin
    count t "stale_epoch_rejects";
    true
  end
  else false

(* ... and a response landing after a reconfiguration is dropped. *)
let drop_stale t epoch0 =
  if stale t epoch0 then begin
    count t "stale_epoch_drops";
    true
  end
  else false

let settle iv v = if not (Ivar.is_filled iv) then Ivar.fill iv v

(* ------------------------------------------------------------------ *)
(* Transaction skeleton *)

(* One taxonomy reason is counted per [Types.Aborted] returned to the
   caller (never per internal attempt), so reason counts always sum to
   this metrics object's aborted-transaction count. *)
let abort_with t ~node ~t_start reason =
  let m = mx t in
  let latency_ns = Engine.now t.engine -. t_start in
  Metrics.record m ~latency_ns Types.Aborted;
  Metrics.record_abort_reason m reason;
  (match t.telemetry with
  | None -> ()
  | Some tel ->
      Xenic_telemetry.Telemetry.record_abort tel
        ~label:(Attrib.get ()).Attrib.cls ~stack:t.stack ~node
        ~reason:(Metrics.abort_reason_name reason) ~latency_ns);
  trace_instant t ~cat:"txn" ~name:"abort" ~pid:node ~tid:t.txn_seq.(node)
    [ ("reason", Metrics.abort_reason_name reason) ];
  Types.Aborted

let commit t ~node ~t_start =
  let now = Engine.now t.engine in
  (* Outer transaction span ("txnlat"): the profiler slices it into the
     committed attempt's phase spans (same pid/tid) plus "other" gaps,
     so per-txn critical-path sums equal the recorded latency. *)
  (match t.trace with
  | None -> ()
  | Some tr ->
      Trace.span tr ~cat:"txnlat" ~name:"txn" ~pid:node ~tid:t.txn_seq.(node)
        ~ts:t_start ~dur:(now -. t_start)
        ~args:[ ("cls", (Attrib.get ()).Attrib.cls) ]
        ());
  Metrics.record (mx t) ~latency_ns:(now -. t_start) Types.Committed;
  (match t.telemetry with
  | None -> ()
  | Some tel ->
      Xenic_telemetry.Telemetry.record_commit tel
        ~label:(Attrib.get ()).Attrib.cls ~stack:t.stack ~node
        ~latency_ns:(now -. t_start));
  Types.Committed

let run_txn t ~node sys (attempt : _ -> node:int -> Types.t -> attempt) txn =
  let t_start = Engine.now t.engine in
  if not (armed t) then begin
    if not t.alive.(node) then invalid_arg "run_txn: coordinator is dead";
    match attempt sys ~node txn with
    | `Committed -> commit t ~node ~t_start
    | `Aborted reason -> abort_with t ~node ~t_start reason
    | `Retry _ -> assert false
  end
  else
    (* Armed: retry attempts that ran into a dead peer, with exponential
       backoff so reconfiguration can complete. A node leaves [alive]
       only together with setting [crashed] (declaration, [fail_node],
       or a crash with no membership) and a rejoin clears [crashed]
       only while still [alive], so [node_alive] is [not crashed] on
       every stack. *)
    let rec go n backoff =
      if not (node_alive t ~node) then
        abort_with t ~node ~t_start Metrics.Crashed_owner
      else
        match attempt sys ~node txn with
        | `Committed -> commit t ~node ~t_start
        | `Aborted reason -> abort_with t ~node ~t_start reason
        | `Retry reason ->
            count t "txn_retries";
            trace_instant t ~cat:"txn" ~name:"retry" ~pid:node
              ~tid:t.txn_seq.(node)
              [ ("reason", Metrics.abort_reason_name reason) ];
            if n >= t.max_retries then abort_with t ~node ~t_start reason
            else begin
              Process.sleep t.engine backoff;
              go (n + 1) (backoff *. 2.0)
            end
    in
    go 1 t.retry_backoff_ns

(* ------------------------------------------------------------------ *)
(* Node processes *)

(* Per-node inbound dispatch: every delivered message runs in a fresh
   process. A crashed node's NIC is gone — every frame addressed to it
   is lost, including responses to its own in-flight requests, and the
   sender's timeout is what notices. [on_packet] charges the stack's
   per-packet receive cost. *)
let dispatch_loop t ~node ~on_packet =
  Process.spawn t.engine (fun () ->
      Attrib.set { Attrib.stack = t.stack; node; phase = "dispatch"; cls = "-" };
      let rx = Xenic_net.Fabric.rx t.fabric node in
      let rec loop () =
        let pkt = Mailbox.recv rx in
        if t.crashed.(node) then
          Xenic_stats.Counter.add (counters t) "msgs_dropped"
            (List.length pkt.Xenic_net.Packet.msgs)
        else begin
          on_packet ();
          List.iter
            (fun m -> Process.spawn t.engine m.deliver)
            pkt.Xenic_net.Packet.msgs
        end;
        loop ()
      in
      loop ())

(* Wait until every live node's logs are drained (crashed nodes are
   excluded: their state died with them). *)
let rec quiesce t =
  let rec busy n =
    n < Array.length t.crashed
    && (((not t.crashed.(n)) && t.hooks.logs_pending n) || busy (n + 1))
  in
  if busy 0 then begin
    Process.sleep t.engine 10_000.0;
    quiesce t
  end

(* ------------------------------------------------------------------ *)
(* Reconfiguration (§4.2.1) *)

(* Locks held at surviving nodes by coordinators that died between
   EXECUTE and their abort/commit: the owner token encodes the
   coordinator, so they are identifiable and safe to break once the
   owner is crashed. *)
let sweep_dead_owner_locks t =
  Array.iteri
    (fun node crashed ->
      if not crashed then
        List.iter
          (fun (k, owner) ->
            if t.crashed.(owner / 1_000_000_000) then begin
              count t "recovery_lock_sweeps";
              t.hooks.unlock node k ~owner
            end)
          (t.hooks.locks node))
    t.crashed

(* Membership-driven recovery. Routing was frozen synchronously at the
   declaration (epoch bump + crashed flags); here we wait for in-flight
   commits to resolve — the fence refuses new ones while
   [recovery_waiting > 0] — then break dead coordinators' locks, drain
   each successor's backup log (every record is already decided, so
   this terminates) and promote. The brief write stall is the
   throughput dip the fault experiment measures. *)
let recover t =
  wait_while t (fun () -> t.inflight_commits > 0);
  trace_instant t ~cat:"recovery" ~name:"recovery-start" ~pid:0 ~tid:0
    [ ("epoch", string_of_int t.epoch) ];
  sweep_dead_owner_locks t;
  Array.iteri
    (fun shard p ->
      if t.crashed.(p) then begin
        let np =
          match live_replica t ~shard with
          | None -> invalid_arg "recover: no live replica"
          | Some np ->
              wait_while t (fun () -> t.hooks.backup_pending np);
              t.hooks.promote ~shard np
        in
        trace_instant t ~cat:"recovery" ~name:"promote" ~pid:np ~tid:0
          [ ("shard", string_of_int shard) ];
        count t "recovery_promotions"
      end)
    t.primaries;
  t.recovery_waiting <- t.recovery_waiting - 1;
  trace_instant t ~cat:"recovery" ~name:"recovery-done" ~pid:0 ~tid:0
    [ ("epoch", string_of_int t.epoch) ]

let attach_membership t m =
  t.membership <- Some m;
  Membership.on_reconfigure m (fun ~epoch:_ ~dead ->
      (* Runs synchronously inside the manager's expiry check: routing
         freezes in one atomic step — no request started under the old
         epoch can cross it — then recovery proceeds in the
         background. *)
      t.epoch <- t.epoch + 1;
      trace_instant t ~cat:"recovery" ~name:"epoch-bump" ~pid:0 ~tid:0
        [ ("epoch", string_of_int t.epoch) ];
      List.iter
        (fun n ->
          t.alive.(n) <- false;
          t.crashed.(n) <- true)
        dead;
      t.recovery_waiting <- t.recovery_waiting + 1;
      Process.spawn t.engine (fun () -> recover t))

(* Fault injection: the node's NIC and host stop responding at this
   instant, but nothing is declared yet — requests into it time out
   until the membership lease expires and drives reconfiguration. *)
let crash_node t ~node =
  if not t.crashed.(node) then begin
    count t "node_crashes";
    trace_instant t ~cat:"recovery" ~name:"crash" ~pid:node ~tid:0 [];
    t.crashed.(node) <- true;
    match t.membership with
    | Some m -> Membership.fail_node m ~node
    | None ->
        (* No membership service: nothing would ever declare the node,
           so remove it from routing immediately. *)
        t.alive.(node) <- false
  end

(* A recovery request the stack will not honour: counted, never
   raised, so scenario runs that race a recovery against a declaration
   stay well-defined. *)
let refuse_rejoin t ~node =
  count t "rejoin_refused";
  trace_instant t ~cat:"recovery" ~name:"rejoin-refused" ~pid:node ~tid:0 []

let stop_background t =
  match t.membership with Some m -> Membership.stop m | None -> ()

(* -- Gray-failure hooks (scenario injection) ------------------------ *)

let net_enable_faults t ~seed ~rto_ns =
  Xenic_net.Fabric.enable_faults t.fabric ~seed ~rto_ns

let net_set_cut t ~src ~dst cut = Xenic_net.Fabric.set_cut t.fabric ~src ~dst cut

let net_set_loss t ~src ~dst p = Xenic_net.Fabric.set_loss t.fabric ~src ~dst p

let net_set_delay t ~src ~dst f = Xenic_net.Fabric.set_delay t.fabric ~src ~dst f
