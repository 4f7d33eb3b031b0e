(* Mid-run fault injection.

   Every test here crashes a node at an arbitrary simulated instant in
   the middle of a driver run — not between load phases — with
   per-request timeouts armed and a lease-based membership attached, so
   declaration, epoch bump, dead-owner lock sweeps and promotion all
   happen while transactions are in flight.

   [Driver.run] returning at all is itself the liveness assertion:
   every in-flight transaction reached a terminal outcome (no request
   blocked forever on the dead node) and the run survived the strict
   engine's sanitizer plus the post-quiesce protocol audit (no leftover
   lock, no undrained log, no leaked sim primitive). On top of that we
   require the whole history to be serializable under [Oracle.check]
   and every seed to reproduce bit for bit. *)

open Xenic_sim
open Xenic_cluster
open Xenic_proto
open Xenic_workload

let hw = Xenic_params.Hw.testbed

let sb_params = { Smallbank.default_params with accounts_per_node = 500 }

let tpcc_params =
  {
    Tpcc.default_params with
    warehouses_per_node = 2;
    customers_per_district = 20;
    items = 200;
  }

(* Whole-transaction p99 in these runs is ~20us, so 40us per request
   sits well above the worst-case round trip: a firing timeout implies
   a dead peer. The lease is shorter than the timeout so promotion
   lands while coordinators are still backing off. *)
let req_timeout_ns = 40_000.0

let lease_ns = 25_000.0

let mk_xenic ?(lease_ns = lease_ns) ?(max_retries = 10) ~store_cfg
    ~cache_capacity () =
  let engine = Engine.create ~strict:true () in
  let cfg = Config.make ~nodes:4 ~replication:3 in
  let segments, seg_size, d_max = store_cfg in
  let p =
    {
      Xenic_system.default_params with
      segments;
      seg_size;
      d_max;
      cache_capacity;
      req_timeout_ns = Some req_timeout_ns;
      max_retries;
    }
  in
  let xs = Xenic_system.create engine hw cfg p in
  let m = Membership.create engine cfg ~lease_ns in
  Txn_runtime.attach_membership (Xenic_system.rt xs) m;
  Membership.start m;
  System.of_xenic xs

let mk_rdma ?(lease_ns = lease_ns) ?(max_retries = 10) flavor () =
  let engine = Engine.create ~strict:true () in
  let cfg = Config.make ~nodes:4 ~replication:3 in
  let p =
    {
      Rdma_system.default_params with
      buckets = Smallbank.chained_buckets sb_params;
      req_timeout_ns = Some req_timeout_ns;
      max_retries;
    }
  in
  let rs = Rdma_system.create engine hw cfg flavor p in
  let m = Membership.create engine cfg ~lease_ns in
  Txn_runtime.attach_membership (Rdma_system.rt rs) m;
  Membership.start m;
  System.of_rdma rs

let counter sys name =
  match
    List.assoc_opt name
      (Xenic_stats.Counter.to_list (Metrics.counters (sys.System.metrics ())))
  with
  | Some v -> v
  | None -> 0.0

(* Same lossless digest as the determinism sweep: %h floats, every
   perf counter. Equal digests mean bit-identical runs. *)
let fingerprint sys (result : Driver.result) oracle =
  let counters =
    Xenic_stats.Counter.to_list (Metrics.counters (sys.System.metrics ()))
  in
  String.concat "\n"
    (Printf.sprintf "committed=%d aborted=%d oracle_txns=%d"
       result.Driver.committed result.Driver.aborted (Oracle.txn_count oracle)
    :: Printf.sprintf "median=%h p99=%h abort_rate=%h duration=%h"
         result.Driver.median_latency_us result.Driver.p99_latency_us
         result.Driver.abort_rate result.Driver.duration_ns
    :: List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) counters)

let run_once ~mk ~load ~spec_of ~concurrency ~target ~faults seed =
  let sys = mk () in
  let oracle = Oracle.create () in
  sys.System.set_oracle oracle;
  load sys;
  let spec = spec_of sys in
  let result = Driver.run sys spec ~seed ~concurrency ~target ~faults in
  let name = sys.System.name in
  Alcotest.(check bool)
    (Printf.sprintf "%s seed %Ld: made progress" name seed)
    true
    (result.Driver.committed > 0);
  List.iter
    (fun (_, node) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s seed %Ld: node %d removed" name seed node)
        false
        (Txn_runtime.node_alive sys.System.rt ~node))
    faults;
  Alcotest.(check bool)
    (Printf.sprintf "%s seed %Ld: crash recorded" name seed)
    true
    (counter sys "node_crashes" >= 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "%s seed %Ld: membership-driven promotion ran" name seed)
    true
    (counter sys "recovery_promotions" >= 1.0);
  (match Oracle.check oracle with
  | Oracle.Serializable -> ()
  | Oracle.Violation msg ->
      Alcotest.failf "%s seed %Ld: not serializable: %s" name seed msg);
  fingerprint sys result oracle

let sweep ~mk ~load ~spec_of ~concurrency ~target ~faults seeds =
  let digests =
    List.map (run_once ~mk ~load ~spec_of ~concurrency ~target ~faults) seeds
  in
  let again =
    run_once ~mk ~load ~spec_of ~concurrency ~target ~faults (List.hd seeds)
  in
  Alcotest.(check string)
    (Printf.sprintf "seed %Ld reproduces bit-identically under faults"
       (List.hd seeds))
    (List.hd digests) again;
  digests

let sb_spec sys = Smallbank.spec sb_params ~nodes:sys.System.cfg.Config.nodes

let test_xenic_smallbank_fault () =
  let digests =
    sweep
      ~mk:(mk_xenic ~store_cfg:(Smallbank.store_cfg sb_params)
             ~cache_capacity:256)
      ~load:(Smallbank.load sb_params) ~spec_of:sb_spec ~concurrency:8
      ~target:600
      ~faults:[ (100_000.0, 2) ]
      [ 1L; 2L; 3L ]
  in
  Alcotest.(check bool) "seeds produce distinct faulty runs" true
    (List.length (List.sort_uniq String.compare digests) > 1)

let test_xenic_tpcc_fault () =
  ignore
    (sweep
       ~mk:(mk_xenic ~store_cfg:(Tpcc.store_cfg tpcc_params)
              ~cache_capacity:8192)
       ~load:(Tpcc.load tpcc_params)
       ~spec_of:(fun sys -> Tpcc.spec tpcc_params sys)
       ~concurrency:6 ~target:400
       ~faults:[ (150_000.0, 1) ]
       [ 1L; 2L ])

let test_rdma_fault flavor () =
  ignore
    (sweep ~mk:(mk_rdma flavor) ~load:(Smallbank.load sb_params)
       ~spec_of:sb_spec ~concurrency:8 ~target:400
       ~faults:[ (80_000.0, 2) ]
       [ 1L; 2L ])

(* {2 Retry exhaustion}

   One attempt allowed, and a lease far longer than the timeout: every
   coordinator that runs into the crashed node gives up on its first
   [`Retry] well before the declaration, so the retry reason becomes
   the transaction's abort reason — still exactly one per abort. *)
let test_retry_exhaustion mk () =
  let sys = mk () in
  let oracle = Oracle.create () in
  sys.System.set_oracle oracle;
  Smallbank.load sb_params sys;
  let result =
    Driver.run sys (sb_spec sys) ~seed:1L ~concurrency:8 ~target:600
      ~faults:[ (60_000.0, 2) ]
  in
  let name = sys.System.name in
  let m = sys.System.metrics () in
  Alcotest.(check bool) (name ^ ": made progress") true
    (result.Driver.committed > 0);
  Alcotest.(check bool) (name ^ ": retries counted") true
    (counter sys "txn_retries" > 0.0);
  Alcotest.(check bool) (name ^ ": declared and promoted") true
    (counter sys "recovery_promotions" >= 1.0);
  (* With a budget of one attempt, every retry is a give-up. *)
  Alcotest.(check int)
    (name ^ ": each retry aborted with its reason")
    (int_of_float (counter sys "txn_retries"))
    (Metrics.abort_reason_count m Metrics.Timeout
    + Metrics.abort_reason_count m Metrics.Stale_epoch);
  Alcotest.(check int)
    (name ^ ": abort reasons sum to aborted")
    (Metrics.aborted m)
    (List.fold_left (fun acc (_, n) -> acc + n) 0
       (Metrics.abort_reason_counts m));
  match Oracle.check oracle with
  | Oracle.Serializable -> ()
  | Oracle.Violation msg -> Alcotest.failf "%s: not serializable: %s" name msg

let late_lease_ns = 120_000.0

(* {2 Driver measurement-window fixes (no faults involved)} *)

let mk_plain () =
  let engine = Engine.create ~strict:true () in
  let cfg = Config.make ~nodes:4 ~replication:3 in
  let segments, seg_size, d_max = Smallbank.store_cfg sb_params in
  let p =
    {
      Xenic_system.default_params with
      segments;
      seg_size;
      d_max;
      cache_capacity = 256;
    }
  in
  System.of_xenic (Xenic_system.create engine hw cfg p)

(* warmup >= every commit the run makes (warmup_frac 2.0 outruns even
   the closed loop's in-flight overshoot past [target]): the
   measurement window never opens. The result must say so explicitly —
   zero throughput over a zero-length window — instead of the old
   behavior of dividing by a fabricated 1ns. *)
let test_driver_empty_window () =
  let sys = mk_plain () in
  Smallbank.load sb_params sys;
  let result =
    Driver.run ~warmup_frac:2.0 sys (sb_spec sys) ~concurrency:4 ~target:50
  in
  Alcotest.(check int) "no commit counted in window" 0 result.Driver.committed;
  Alcotest.(check bool) "zero throughput" true
    (Float.equal result.Driver.tput_per_server 0.0);
  Alcotest.(check bool) "zero-length window" true
    (Float.equal result.Driver.duration_ns 0.0)

let test_driver_negative_fault_time () =
  let sys = mk_plain () in
  Smallbank.load sb_params sys;
  Alcotest.check_raises "negative fault time rejected"
    (Invalid_argument "Driver.run: negative fault time") (fun () ->
      ignore
        (Driver.run sys (sb_spec sys) ~concurrency:4 ~target:50
           ~faults:[ (-1.0, 0) ]))

(* -- Commit point ------------------------------------------------------ *)

(* [Txn_runtime.commit_point] on a bare runtime. The callbacks note the
   decision and the fence count they observe, so each outcome's ordering
   rule is checked from inside the step it constrains. Returns the
   outcome, the notes in order, the final decision and the runtime. *)
let commit_point_run ~armed ?(setup = ignore) ?(crash_in_log = false) () =
  let engine = Engine.create ~strict:true () in
  let rt =
    Txn_runtime.create engine hw
      (Config.make ~nodes:4 ~replication:3)
      ~stack:"test" ~partitions:0
      ~req_timeout_ns:(if armed then Some req_timeout_ns else None)
      ~retry_backoff_ns:1_000.0 ~max_retries:3
  in
  setup rt;
  let name = function
    | Txn_runtime.Dpending -> "pending"
    | Dcommit -> "commit"
    | Dabort -> "abort"
  in
  let notes = ref [] and decision = ref None and outcome = ref "none" in
  let note step d =
    notes :=
      Printf.sprintf "%s: %s, fence %d" step (name d) rt.inflight_commits
      :: !notes
  in
  Process.spawn engine (fun () ->
      let r =
        Txn_runtime.commit_point rt ~src:0 ~epoch0:0
          ~log:(fun d ->
            decision := Some d;
            note "log" !d;
            if crash_in_log then rt.crashed.(0) <- true;
            Option.get !decision)
          ~commit:(fun d -> note "commit" !d)
          ~abort:(fun () -> notes := "abort" :: !notes)
      in
      outcome :=
        match r with
        | `Committed -> "committed"
        | `Aborted reason -> "aborted " ^ Metrics.abort_reason_name reason
        | `Retry reason -> "retry " ^ Metrics.abort_reason_name reason);
  ignore (Engine.run engine);
  (!outcome, List.rev !notes, Option.map (fun d -> name !d) !decision, rt)

let check_commit_point ~outcome ~notes ~decision (o, n, d, rt) =
  Alcotest.(check string) "outcome" outcome o;
  Alcotest.(check (list string)) "steps" notes n;
  Alcotest.(check (option string)) "final decision" decision d;
  Alcotest.(check int) "fence released" 0 rt.Txn_runtime.inflight_commits

let test_commit_point_unarmed () =
  check_commit_point ~outcome:"committed"
    ~notes:[ "log: commit, fence 0"; "commit: commit, fence 0" ]
    ~decision:(Some "commit")
    (commit_point_run ~armed:false ())

let test_commit_point_fence_refused () =
  let ((_, _, _, rt) as run) =
    commit_point_run ~armed:true ~setup:(fun rt -> rt.epoch <- 1) ()
  in
  check_commit_point ~outcome:"retry stale-epoch" ~notes:[ "abort" ]
    ~decision:None run;
  Alcotest.(check (float 0.0)) "refusal counted" 1.0
    (Xenic_stats.Counter.get (Txn_runtime.counters rt) "fence_refusals")

let test_commit_point_crash_mid_log () =
  check_commit_point ~outcome:"aborted crashed-owner"
    ~notes:[ "log: pending, fence 1" ]
    ~decision:(Some "abort")
    (commit_point_run ~armed:true ~crash_in_log:true ())

let test_commit_point_commit () =
  check_commit_point ~outcome:"committed"
    ~notes:[ "log: pending, fence 1"; "commit: commit, fence 1" ]
    ~decision:(Some "commit")
    (commit_point_run ~armed:true ())

let () =
  Alcotest.run "xenic_fault"
    [
      ( "mid-run crash",
        [
          Alcotest.test_case "xenic smallbank (3 seeds)" `Quick
            test_xenic_smallbank_fault;
          Alcotest.test_case "xenic tpcc (2 seeds)" `Quick
            test_xenic_tpcc_fault;
          Alcotest.test_case "fasst smallbank" `Quick
            (test_rdma_fault Rdma_system.Fasst);
          Alcotest.test_case "drtmr smallbank" `Quick
            (test_rdma_fault Rdma_system.Drtmr);
        ] );
      ( "retry exhaustion",
        [
          Alcotest.test_case "xenic max_retries=1" `Quick
            (test_retry_exhaustion
               (mk_xenic ~lease_ns:late_lease_ns ~max_retries:1
                  ~store_cfg:(Smallbank.store_cfg sb_params)
                  ~cache_capacity:256));
          Alcotest.test_case "fasst max_retries=1" `Quick
            (test_retry_exhaustion
               (mk_rdma ~lease_ns:late_lease_ns ~max_retries:1
                  Rdma_system.Fasst));
        ] );
      ( "driver window",
        [
          Alcotest.test_case "empty measurement window" `Quick
            test_driver_empty_window;
          Alcotest.test_case "negative fault time" `Quick
            test_driver_negative_fault_time;
        ] );
      ( "commit point",
        [
          Alcotest.test_case "un-armed" `Quick test_commit_point_unarmed;
          Alcotest.test_case "fence refused" `Quick
            test_commit_point_fence_refused;
          Alcotest.test_case "crash mid-LOG" `Quick
            test_commit_point_crash_mid_log;
          Alcotest.test_case "commit" `Quick test_commit_point_commit;
        ] );
    ]
