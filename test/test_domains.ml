(* Regression tests for the partitioned multi-domain engine.

   Three guarantees that used to be impossible to state (the ambient
   attribution context and its enable flag were process-global mutable
   cells):

   - two engines interleaved in one OS process never observe each
     other's attribution state — contexts and enable flags are
     engine-owned now;
   - partition rng streams are derived ([Rng.derive]), not split off a
     shared parent, so a 2-domain run can never interleave-consume a
     1-domain stream;
   - windowed conservative mode is bit-identical across domain counts
     on a partition-clean model. *)

open Xenic_sim

let ctx stack = { Attrib.default with Attrib.stack }

(* ------------------------------------------------------------------ *)
(* Two-engine attribution interleaving *)

(* Engine A enables accounting and sets a context; engine B's events —
   run in between A's — must see their own (disabled, default) state,
   and each engine's context must survive the other's run. With the
   old process-global [Attrib.current]/[enabled_flag] every one of
   these checks fails. *)
let test_attrib_no_bleed () =
  let a = Engine.create () and b = Engine.create () in
  Engine.set_attrib_enabled a true;
  let saw = ref [] in
  let see tag v = saw := (tag, v) :: !saw in
  Engine.at a 10.0 (fun () ->
      see "a10.enabled" (string_of_bool (Attrib.enabled ()));
      Attrib.set (ctx "engine-a"));
  Engine.at b 20.0 (fun () ->
      see "b20.enabled" (string_of_bool (Attrib.enabled ()));
      see "b20.stack" (Attrib.get ()).Attrib.stack;
      Attrib.set (ctx "engine-b"));
  Engine.at a 30.0 (fun () -> see "a30.stack" (Attrib.get ()).Attrib.stack);
  Engine.at b 40.0 (fun () -> see "b40.stack" (Attrib.get ()).Attrib.stack);
  ignore (Engine.run ~until:15.0 a);
  ignore (Engine.run ~until:25.0 b);
  ignore (Engine.run a);
  ignore (Engine.run b);
  let got tag = List.assoc tag !saw in
  Alcotest.(check string) "A runs with accounting enabled" "true"
    (got "a10.enabled");
  Alcotest.(check string) "B does not inherit A's enable flag" "false"
    (got "b20.enabled");
  Alcotest.(check string) "B starts from the default context"
    Attrib.default.Attrib.stack (got "b20.stack");
  Alcotest.(check string) "A's context survives B's run" "engine-a"
    (got "a30.stack");
  Alcotest.(check string) "B's context survives A's run" "engine-b"
    (got "b40.stack")

(* Outside any engine run the ambient slot is a plain fresh state, so
   an engine run must leave no residue behind it. *)
let test_attrib_no_residue () =
  let eng = Engine.create () in
  Engine.set_attrib_enabled eng true;
  Engine.at eng 5.0 (fun () -> Attrib.set (ctx "inside"));
  ignore (Engine.run eng);
  Alcotest.(check string) "run leaves ambient context untouched"
    Attrib.default.Attrib.stack
    (Attrib.get ()).Attrib.stack;
  Alcotest.(check bool) "run leaves ambient enable flag untouched" false
    (Attrib.enabled ())

(* ------------------------------------------------------------------ *)
(* Partition rng streams *)

let drain rng n = List.init n (fun _ -> Rng.int rng 1_000_000)

(* Derived partition streams are a pure function of (parent position,
   index): consuming one stream never perturbs another, so the draws a
   partition sees cannot depend on how many domains consume in
   parallel — i.e. a 2-domain run can never interleave-consume what a
   1-domain run would see as one stream. *)
let test_rng_derived_streams () =
  let seed = 99L in
  (* Sequential consumption: drain partition 0's stream fully, then
     partition 1's. *)
  let root = Rng.create ~seed in
  let seq0 = drain (Rng.derive root ~index:0) 32 in
  let seq1 = drain (Rng.derive root ~index:1) 32 in
  (* Interleaved consumption, one draw at a time — as two domains
     racing ahead of each other would. *)
  let root' = Rng.create ~seed in
  let r0 = Rng.derive root' ~index:0 and r1 = Rng.derive root' ~index:1 in
  let il0 = ref [] and il1 = ref [] in
  for _ = 1 to 32 do
    il0 := Rng.int r0 1_000_000 :: !il0;
    il1 := Rng.int r1 1_000_000 :: !il1
  done;
  Alcotest.(check (list int)) "stream 0 independent of stream 1's draws"
    seq0 (List.rev !il0);
  Alcotest.(check (list int)) "stream 1 independent of stream 0's draws"
    seq1 (List.rev !il1);
  Alcotest.(check bool) "streams are distinct" false (seq0 = seq1);
  (* derive never advances the parent: the parent's own next draw is
     the same whether or not streams were derived from it. *)
  let p1 = Rng.create ~seed and p2 = Rng.create ~seed in
  ignore (Rng.derive p1 ~index:7);
  ignore (Rng.derive p1 ~index:8);
  Alcotest.(check bool) "derive does not advance the parent" true
    (Rng.next p1 = Rng.next p2);
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Rng.derive: index must be non-negative") (fun () ->
      ignore (Rng.derive (Rng.create ~seed) ~index:(-1)))

(* ------------------------------------------------------------------ *)
(* Windowed mode: 1-domain vs 2-domain bit-identity *)

(* A handcrafted partition-clean model: 4 nodes on 2 partitions, each
   node with private state and a derived rng stream, local work every
   few ns, and cross-node messages scheduled exactly [lookahead] ahead
   (the fabric wire-latency pattern). Nothing mutable is shared across
   partitions, so windowed runs must be bit-identical for any domain
   count. *)
type node_state = {
  mutable steps : int;
  mutable hash : int;
  mutable inbox : int;
}

let mix h v = ((h * 31) + v) land 0x3FFFFFFF

let run_windowed_model ~domains =
  let lookahead = 50.0 in
  let nodes = 4 in
  let eng = Engine.create ~domains () in
  Engine.set_topology ~lookahead eng ~partitions:2
    ~node_partition:(fun n -> n mod 2);
  let root = Rng.create ~seed:2026L in
  let st =
    Array.init nodes (fun _ -> { steps = 0; hash = 0; inbox = 0 })
  in
  let rngs = Array.init nodes (fun n -> Rng.derive root ~index:n) in
  let horizon_t = 2_000.0 in
  let rec step node () =
    let s = st.(node) in
    s.steps <- s.steps + 1;
    let draw = Rng.int rngs.(node) 1000 in
    s.hash <- mix s.hash (draw + s.inbox);
    s.inbox <- 0;
    (* Every third step, message a neighbour one wire latency out —
       the only cross-partition edge in the model. *)
    if s.steps mod 3 = 0 then begin
      let dst = (node + 1 + Rng.int rngs.(node) (nodes - 1)) mod nodes in
      let v = draw land 0xFF in
      Engine.at ~node:dst eng
        (Engine.now eng +. lookahead)
        (fun () -> st.(dst).inbox <- st.(dst).inbox + v)
    end;
    if Float.compare (Engine.now eng) horizon_t < 0 then
      Engine.after ~node eng (7.0 +. float_of_int node) (step node)
  in
  for n = 0 to nodes - 1 do
    Engine.at ~node:n eng 1.0 (step n)
  done;
  let events = Engine.run eng in
  let digest =
    Array.to_list st
    |> List.mapi (fun n s ->
           Printf.sprintf "node%d steps=%d hash=%d inbox=%d" n s.steps s.hash
             s.inbox)
    |> String.concat "; "
  in
  (events, Printf.sprintf "events=%d now=%h" events (Engine.now eng), digest)

let test_windowed_domain_parity () =
  let e1, t1, d1 = run_windowed_model ~domains:1 in
  let _e2, t2, d2 = run_windowed_model ~domains:2 in
  Alcotest.(check bool) "model did real work" true (e1 > 500);
  Alcotest.(check string) "event count and final time identical" t1 t2;
  Alcotest.(check string) "per-node digests identical" d1 d2

(* Sleeps hand their delay to the effect handler through a slot; each
   partition has its own, touched only by the domain draining it. Many
   processes on both partitions sleep with partition-specific delays in
   the same windows: every one must wake at exactly its own
   [now + delay] (a slot shared across domains would let one
   partition's delay leak into the other's wakeup), and 1- and 2-domain
   runs must agree. *)
let run_sleepers ~domains =
  let eng = Engine.create ~domains () in
  Engine.set_topology ~lookahead:50.0 eng ~partitions:2
    ~node_partition:(fun n -> n mod 2);
  let procs = 32 and naps = 2000 in
  let late = Array.make 2 0 and log = Array.make 2 0 in
  for node = 0 to 1 do
    for p = 0 to procs - 1 do
      Engine.at ~node eng 1.0 (fun () ->
          Process.spawn eng (fun () ->
              for i = 1 to naps do
                let delay =
                  if node = 0 then 1.0 +. (0.125 *. float_of_int (p mod 5))
                  else 1.0625 +. (0.125 *. float_of_int ((p + i) mod 5))
                in
                let t0 = Engine.now eng in
                if i mod 2 = 0 then Process.sleep ~node eng delay
                else Process.sleep eng delay;
                if not (Float.equal (Engine.now eng) (t0 +. delay)) then
                  late.(node) <- late.(node) + 1;
                log.(node) <- mix log.(node) (p + Hashtbl.hash (Engine.now eng))
              done))
    done
  done;
  let events = Engine.run eng in
  (events, late, log)

let test_partition_sleep_slots () =
  let e1, late1, log1 = run_sleepers ~domains:1 in
  let e2, late2, log2 = run_sleepers ~domains:2 in
  Alcotest.(check (array int)) "1 domain: every wake on time" [| 0; 0 |] late1;
  Alcotest.(check (array int)) "2 domains: every wake on time" [| 0; 0 |] late2;
  Alcotest.(check int) "same event count" e1 e2;
  Alcotest.(check (array int)) "same wake log" log1 log2

(* Cross-partition schedules inside a window below the horizon must be
   rejected deterministically, not silently reordered. *)
let test_windowed_horizon_enforced () =
  let eng = Engine.create ~domains:1 () in
  Engine.set_topology ~lookahead:100.0 eng ~partitions:2
    ~node_partition:(fun n -> n);
  let raised = ref false in
  Engine.at ~node:0 eng 10.0 (fun () ->
      match Engine.at ~node:1 eng 20.0 ignore with
      | () -> ()
      | exception Invalid_argument _ -> raised := true);
  ignore (Engine.run eng);
  Alcotest.(check bool) "sub-lookahead cross-partition schedule raises" true
    !raised

(* ------------------------------------------------------------------ *)
(* Single-heap mode *)

(* A domain budget alone does not partition the engine: until
   [set_topology] the engine is one heap on the calling domain, node
   tags are ignored, events run in (time, seq) order, a "cross-node"
   schedule has no lookahead floor, and every event sees partition 0. *)
let run_single_heap ~domains =
  let eng = Engine.create ~domains () in
  let log = Buffer.create 64 in
  let parts = ref [] in
  let note tag () =
    Buffer.add_string log
      (Printf.sprintf "%s@%g " tag (Engine.now eng));
    parts := Engine.current_partition eng :: !parts
  in
  Engine.at ~node:1 eng 5.0 (note "b");
  Engine.at ~node:0 eng 5.0 (note "c");
  Engine.at ~node:3 eng 1.0 (fun () ->
      note "a" ();
      Engine.at ~node:2 eng 1.5 (note "hop"));
  Engine.at eng 5.0 (note "d");
  let events = Engine.run eng in
  (Engine.partitions eng, events, Buffer.contents log, !parts)

let test_single_heap_any_budget () =
  let p1, e1, l1, c1 = run_single_heap ~domains:1 in
  let p2, e2, l2, c2 = run_single_heap ~domains:2 in
  Alcotest.(check int) "no partitions on 2 domains" 0 p2;
  Alcotest.(check int) "no partitions on 1 domain" 0 p1;
  Alcotest.(check string) "(time, seq) order" "a@1 hop@1.5 b@5 c@5 d@5 " l2;
  Alcotest.(check string) "same order on 1 domain" l1 l2;
  Alcotest.(check int) "same event count" e1 e2;
  Alcotest.(check (list int)) "partition 0 throughout" [ 0; 0; 0; 0; 0 ] c2;
  Alcotest.(check (list int)) "partition 0 on 1 domain" c1 c2

let test_set_topology_rejects () =
  let topo ?(lookahead = 100.0) ?(partitions = 2) eng =
    Engine.set_topology ~lookahead eng ~partitions
      ~node_partition:(fun n -> n mod 2)
  in
  Alcotest.check_raises "zero lookahead"
    (Invalid_argument "Engine.set_topology: lookahead must be positive")
    (fun () -> topo ~lookahead:0.0 (Engine.create ()));
  Alcotest.check_raises "zero partitions"
    (Invalid_argument "Engine.set_topology: partitions must be positive")
    (fun () -> topo ~partitions:0 (Engine.create ()));
  let eng = Engine.create () in
  topo eng;
  Alcotest.(check int) "topology installed" 2 (Engine.partitions eng);
  Alcotest.check_raises "second topology"
    (Invalid_argument "Engine.set_topology: topology already set")
    (fun () -> topo eng);
  let eng = Engine.create () in
  Engine.at eng 1.0 ignore;
  Alcotest.check_raises "after scheduling"
    (Invalid_argument "Engine.set_topology: engine already has events")
    (fun () -> topo eng);
  Alcotest.(check int) "still single-heap" 0 (Engine.partitions eng)

let () =
  Alcotest.run "xenic_domains"
    [
      ( "ambient state",
        [
          Alcotest.test_case "two engines do not bleed" `Quick
            test_attrib_no_bleed;
          Alcotest.test_case "no residue after run" `Quick
            test_attrib_no_residue;
        ] );
      ( "rng streams",
        [
          Alcotest.test_case "derived partition streams" `Quick
            test_rng_derived_streams;
        ] );
      ( "windowed mode",
        [
          Alcotest.test_case "1-domain vs 2-domain parity" `Quick
            test_windowed_domain_parity;
          Alcotest.test_case "horizon enforced" `Quick
            test_windowed_horizon_enforced;
          Alcotest.test_case "partition-local sleep slots" `Quick
            test_partition_sleep_slots;
        ] );
      ( "single-heap mode",
        [
          Alcotest.test_case "any domain budget" `Quick
            test_single_heap_any_budget;
          Alcotest.test_case "set_topology rejects" `Quick
            test_set_topology_rejects;
        ] );
    ]
