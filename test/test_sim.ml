(* Tests for the discrete-event simulation substrate: engine ordering,
   processes, mailboxes, resources, and the network/PCIe device models. *)

open Xenic_sim

let check_float = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Heap *)

(* Drain a heap into [(time, seq, value)] list, checking the in-place
   key accessors agree with what pop returns. *)
let drain_heap h =
  let rec go acc =
    if Heap.is_empty h then List.rev acc
    else
      let time = Heap.min_time h in
      let seq = Heap.min_seq h in
      let v = Heap.pop h in
      go ((time, seq, v) :: acc)
  in
  go []

let test_heap_ordering () =
  let h = Heap.create ~dummy:(0.0, 0) in
  let values = [ (5.0, 1); (1.0, 2); (3.0, 3); (1.0, 4); (2.0, 5) ] in
  List.iter (fun (time, seq) -> Heap.push h ~time ~seq (time, seq)) values;
  let popped = List.map (fun (_, _, v) -> v) (drain_heap h) in
  Alcotest.(check (list (pair (float 0.0) int)))
    "time then seq order"
    [ (1.0, 2); (1.0, 4); (2.0, 5); (3.0, 3); (5.0, 1) ]
    popped

let test_heap_empty_raises () =
  let h = Heap.create ~dummy:() in
  Alcotest.check_raises "pop on empty"
    (Invalid_argument "Heap.pop: empty heap") (fun () -> Heap.pop h);
  Alcotest.check_raises "min_time on empty"
    (Invalid_argument "Heap.min_time: empty heap") (fun () ->
      ignore (Heap.min_time h));
  Alcotest.check_raises "min_seq on empty"
    (Invalid_argument "Heap.min_seq: empty heap") (fun () ->
      ignore (Heap.min_seq h));
  Heap.push h ~time:1.0 ~seq:1 ();
  Heap.pop h;
  Alcotest.(check bool) "empty again" true (Heap.is_empty h)

let test_heap_random_qcheck =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun times ->
      let h = Heap.create ~dummy:nan in
      List.iteri (fun i time -> Heap.push h ~time ~seq:i time) times;
      let rec drain last =
        if Heap.is_empty h then true
        else
          let t = Heap.min_time h in
          ignore (Heap.pop h);
          t >= last && drain t
      in
      drain neg_infinity)

(* Property: against a sorted-list reference model, a random
   interleaving of pushes and pops is indistinguishable — same keys,
   same values, same order, including FIFO tie-break on equal times.
   Times are drawn from a tiny domain so collisions are the common
   case, not the rare one. *)
let test_heap_model_qcheck =
  (* ops: true = push (with a time bucket), false = pop *)
  let gen = QCheck.(list (pair bool (int_bound 7))) in
  QCheck.Test.make ~name:"heap matches sorted-list reference model" ~count:500
    gen
    (fun ops ->
      let h = Heap.create ~dummy:(-1) in
      (* Reference model: list of (time, seq, value) kept sorted by
         (time, seq); stable sort preserves push order on ties. *)
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun (is_push, bucket) ->
          if is_push then begin
            incr seq;
            let time = float_of_int bucket in
            Heap.push h ~time ~seq:!seq !seq;
            model :=
              List.stable_sort
                (fun (t1, s1, _) (t2, s2, _) -> compare (t1, s1) (t2, s2))
                (!model @ [ (time, !seq, !seq) ])
          end
          else begin
            (match (!model, Heap.is_empty h) with
            | [], true -> ()
            | [], false | _ :: _, true -> ok := false
            | (mt, ms, mv) :: rest, false ->
                let t = Heap.min_time h in
                let s = Heap.min_seq h in
                let v = Heap.pop h in
                (* model times are small ints: float compare is exact *)
                (* xenic-lint: allow FLOAT-CMP *)
                if not (t = mt && s = ms && v = mv) then ok := false;
                model := rest);
            if List.length !model <> Heap.length h then ok := false
          end)
        ops;
      (* Drain what's left: full agreement to the end. *)
      List.iter
        (fun (mt, ms, mv) ->
          if Heap.is_empty h then ok := false
          else begin
            let t = Heap.min_time h in
            let s = Heap.min_seq h in
            let v = Heap.pop h in
            (* xenic-lint: allow FLOAT-CMP *)
            if not (t = mt && s = ms && v = mv) then ok := false
          end)
        !model;
      !ok && Heap.is_empty h)

(* Property: the engine dispatches same-timestamp events in scheduling
   order (FIFO tie-break), for random schedules full of collisions. *)
let test_engine_fifo_qcheck =
  QCheck.Test.make ~name:"engine FIFO tie-break on equal timestamps"
    ~count:300
    QCheck.(list (int_bound 5))
    (fun buckets ->
      let eng = Engine.create () in
      let log = ref [] in
      List.iteri
        (fun i bucket ->
          Engine.at eng (float_of_int bucket) (fun () -> log := i :: !log))
        buckets;
      ignore (Engine.run eng);
      let got = List.rev !log in
      (* Reference: stable sort of indices by time bucket. *)
      let want =
        List.mapi (fun i b -> (b, i)) buckets
        |> List.stable_sort (fun (b1, _) (b2, _) -> compare b1 b2)
        |> List.map snd
      in
      got = want)

(* Property: scheduling strictly in the past always raises, from any
   reached simulation time — the engine's non-monotonic-time guard. *)
let test_engine_no_past_qcheck =
  QCheck.Test.make ~name:"engine rejects past scheduling at any time"
    ~count:200
    QCheck.(pair (float_bound_exclusive 100.0) (float_bound_exclusive 100.0))
    (fun (t_reach, dt) ->
      let t_reach = t_reach +. 1.0 and dt = dt +. 0.5 in
      let eng = Engine.create () in
      let raised = ref false in
      Engine.at eng t_reach (fun () ->
          match Engine.at eng (t_reach -. dt) ignore with
          | () -> ()
          | exception Invalid_argument _ -> raised := true);
      ignore (Engine.run eng);
      !raised)

(* Property: windowed-mode partition handoff ordering. Two partitions,
   each with a root event in the first window that schedules a mix of
   same-partition and cross-partition events, ALL at one equal
   timestamp beyond the window horizon — the batch a single
   [Heap.next_at_or_before] window drains in one go. The drain order at
   each destination must be the global scheduling-seq order (partition-
   local events in emission order, then handed-off events in their
   source's emission order), never the channel arrival order — and must
   be bit-identical between a 1-domain and a 2-domain run of the same
   topology. *)
let run_handoff ~domains items =
  let eng = Engine.create ~domains () in
  Engine.set_topology ~lookahead:100.0 eng ~partitions:2
    ~node_partition:(fun n -> n);
  (* logs.(d) is only ever touched by partition d's events, so in the
     2-domain run each cell stays domain-local; the run/join barrier
     orders the final reads. *)
  let logs = [| ref []; ref [] |] in
  let t_batch = 150.0 in
  for p = 0 to 1 do
    Engine.at ~node:p eng 10.0 (fun () ->
        List.iter
          (fun (i, src, cross) ->
            if src = p then begin
              let dst = if cross then 1 - p else p in
              Engine.at ~node:dst eng t_batch (fun () ->
                  logs.(dst) := i :: !(logs.(dst)))
            end)
          items)
  done;
  ignore (Engine.run eng);
  (List.rev !(logs.(0)), List.rev !(logs.(1)))

let test_engine_handoff_order_qcheck =
  QCheck.Test.make
    ~name:"windowed handoff drains equal-time batch in global seq order"
    ~count:150
    QCheck.(list (pair bool bool))
    (fun raw ->
      let items =
        List.mapi (fun i (s, c) -> (i, (if s then 1 else 0), c)) raw
      in
      let expect dst =
        List.filter_map
          (fun (i, src, cross) ->
            if src = dst && not cross then Some i else None)
          items
        @ List.filter_map
            (fun (i, src, cross) ->
              if src = 1 - dst && cross then Some i else None)
            items
      in
      let one = run_handoff ~domains:1 items in
      let two = run_handoff ~domains:2 items in
      one = two && one = (expect 0, expect 1))

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_event_order () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.after eng 10.0 (fun () -> log := "b" :: !log);
  Engine.after eng 5.0 (fun () -> log := "a" :: !log);
  Engine.after eng 10.0 (fun () -> log := "c" :: !log);
  ignore (Engine.run eng);
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "final time" 10.0 (Engine.now eng)

let test_engine_until () =
  let eng = Engine.create () in
  let hits = ref 0 in
  for i = 1 to 10 do
    Engine.after eng (float_of_int i) (fun () -> incr hits)
  done;
  ignore (Engine.run ~until:5.0 eng);
  Alcotest.(check int) "events up to t=5" 5 !hits;
  ignore (Engine.run eng);
  Alcotest.(check int) "all events" 10 !hits

let test_engine_no_past () =
  let eng = Engine.create () in
  Engine.after eng 5.0 (fun () ->
      Alcotest.check_raises "past scheduling rejected"
        (Invalid_argument "Engine.at: time 1.0 is before now 5.0") (fun () ->
          Engine.at eng 1.0 (fun () -> ())));
  ignore (Engine.run eng)

(* ------------------------------------------------------------------ *)
(* Processes *)

let test_process_sleep () =
  let eng = Engine.create () in
  let trace = ref [] in
  Process.spawn eng (fun () ->
      trace := (Engine.now eng, "start") :: !trace;
      Process.sleep eng 100.0;
      trace := (Engine.now eng, "mid") :: !trace;
      Process.sleep eng 50.0;
      trace := (Engine.now eng, "end") :: !trace);
  ignore (Engine.run eng);
  Alcotest.(check (list (pair (float 0.0) string)))
    "timeline"
    [ (0.0, "start"); (100.0, "mid"); (150.0, "end") ]
    (List.rev !trace)

let test_process_parallel () =
  let eng = Engine.create () in
  let result = ref [] in
  Process.spawn eng (fun () ->
      let rs =
        Process.parallel eng
          [
            (fun () ->
              Process.sleep eng 30.0;
              1);
            (fun () ->
              Process.sleep eng 10.0;
              2);
            (fun () ->
              Process.sleep eng 20.0;
              3);
          ]
      in
      result := [ (Engine.now eng, rs) ]);
  ignore (Engine.run eng);
  Alcotest.(check (list (pair (float 0.0) (list int))))
    "joined at max, ordered results"
    [ (30.0, [ 1; 2; 3 ]) ]
    !result

(* Results come back in thunk order whichever child finishes first,
   including unboxed floats and children that never suspend. *)
let test_process_parallel_floats () =
  let eng = Engine.create () in
  let result = ref [] in
  Process.spawn eng (fun () ->
      result :=
        Process.parallel eng
          [
            (fun () ->
              Process.sleep eng 5.0;
              1.5);
            (fun () -> 2.5);
            (fun () ->
              Process.yield eng;
              3.5);
          ]);
  ignore (Engine.run eng);
  Alcotest.(check (list (float 0.0))) "ordered" [ 1.5; 2.5; 3.5 ] !result

let test_suspend_outside_process () =
  let eng = Engine.create () in
  Alcotest.check_raises "suspend" Process.Not_in_process (fun () ->
      ignore (Process.suspend (fun _ -> ())));
  Alcotest.check_raises "sleep" Process.Not_in_process (fun () ->
      Process.sleep eng 1.0);
  Alcotest.check_raises "sleep ~node" Process.Not_in_process (fun () ->
      Process.sleep ~node:0 eng 1.0);
  Alcotest.check_raises "yield" Process.Not_in_process (fun () ->
      Process.yield eng);
  let r = Resource.create eng ~name:"cpu" ~servers:1 in
  Resource.acquire r;
  Alcotest.check_raises "blocked acquire" Process.Not_in_process (fun () ->
      Resource.acquire r);
  Alcotest.(check int) "no acquirer parked" 0 (Resource.queue_length r);
  Alcotest.check_raises "blocked recv" Process.Not_in_process (fun () ->
      Mailbox.recv (Mailbox.create eng));
  Alcotest.check_raises "blocked poll" Process.Not_in_process (fun () ->
      ignore (Xenic_store.Hostlog.poll (Xenic_store.Hostlog.create eng ~capacity_b:64)));
  Alcotest.(check bool) "nothing scheduled" true (Engine.idle eng)

(* Allocation ratchet for the suspension path: minor-heap words per
   operation on a bare engine, averaged over 10k operations run inside
   one process. Each bound is the figure measured when the shared
   handler and the slot-based sleep went in (sleep, spawn, parallel;
   before them: sleep 32, Resource.use 38, spawn 14, parallel 136) or
   when blocked calls began parking directly on their object (the rest;
   before: Resource.use 17, blocked acquire 61, blocked recv 56,
   blocked poll 52), plus 2 words of headroom. The blocked cases
   include a spawn (5) and a yield (9). A change that puts a closure or
   a box back on this path fails here before it shows up as words per
   transaction. *)
let words_per_op ~setup =
  let n = 10_000 in
  let eng = Engine.create () in
  let op = setup eng in
  (* Build the shared handler and arm the engine's sleep slot first. *)
  Process.spawn eng (fun () -> Process.yield eng);
  ignore (Engine.run eng);
  let before = Gc.minor_words () in
  Process.spawn eng (fun () ->
      for _ = 1 to n do
        op ()
      done);
  ignore (Engine.run eng);
  (Gc.minor_words () -. before) /. float_of_int n

let test_alloc_ratchet () =
  let check name bound setup =
    let w = words_per_op ~setup in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.2f words/op <= %d" name w bound)
      true
      (w <= float_of_int bound)
  in
  check "sleep" 13 (fun eng () -> Process.sleep eng 1.0);
  check "sleep ~node" 13 (fun eng () -> Process.sleep ~node:1 eng 1.0);
  check "Resource.use" 13 (fun eng ->
      let r = Resource.create eng ~name:"idle" ~servers:1 in
      fun () -> Resource.use r 1.0);
  (* Take the unit, park a second acquirer behind it, hand the unit
     over on release and let the waiter run. *)
  check "blocked Resource.acquire" 35 (fun eng ->
      let r = Resource.create eng ~name:"busy" ~servers:1 in
      let waiter () =
        Resource.acquire r;
        Resource.release r
      in
      fun () ->
        Resource.acquire r;
        Process.spawn eng waiter;
        Resource.release r;
        Process.yield eng);
  check "blocked Mailbox.recv + send" 34 (fun eng ->
      let mb = Mailbox.create eng in
      let receiver () = ignore (Mailbox.recv mb) in
      fun () ->
        Process.spawn eng receiver;
        Mailbox.send mb 1;
        Process.yield eng);
  check "blocked Hostlog.poll + append" 37 (fun eng ->
      let log = Xenic_store.Hostlog.create eng ~capacity_b:1024 in
      let worker () =
        let (), bytes = Xenic_store.Hostlog.poll log in
        Xenic_store.Hostlog.ack log ~bytes
      in
      fun () ->
        Process.spawn eng worker;
        ignore (Xenic_store.Hostlog.append log ~bytes:8 ());
        Process.yield eng);
  check "spawn" 7 (fun eng () -> Process.spawn eng ignore);
  check "parallel of 2" 71 (fun eng ->
      let thunks =
        [
          (fun () ->
            Process.sleep eng 1.0;
            1);
          (fun () -> 2);
        ]
      in
      fun () -> ignore (Process.parallel eng thunks))

(* A parked acquirer or receiver resumes under the context it blocked
   in, not its waker's; once its body finishes, the wakeup event's own
   context is back for whatever runs next. *)
let test_park_context () =
  let eng = Engine.create () in
  let r = Resource.create eng ~name:"cpu" ~servers:1 in
  let mb = Mailbox.create eng in
  let ctx stack = { Attrib.default with Attrib.stack } in
  let seen = ref [] in
  let see tag = seen := (tag, (Attrib.get ()).Attrib.stack) :: !seen in
  Process.spawn eng (fun () ->
      Resource.acquire r;
      Process.sleep eng 10.0;
      Attrib.set (ctx "waker");
      Resource.release r;
      Mailbox.send mb ();
      see "waker";
      Engine.after eng 0.0 (fun () -> see "event"));
  let parked name block =
    Process.spawn eng (fun () ->
        Attrib.set (ctx name);
        block ();
        see name;
        Attrib.set (ctx (name ^ "-done")))
  in
  parked "acquirer" (fun () ->
      Resource.acquire r;
      Resource.release r);
  parked "receiver" (fun () -> Mailbox.recv mb);
  ignore (Engine.run eng);
  Alcotest.(check (list (pair string string)))
    "each side under its own context"
    [
      ("waker", "waker");
      ("acquirer", "acquirer");
      ("receiver", "receiver");
      ("event", Attrib.default.Attrib.stack);
    ]
    (List.rev !seen)

(* Parked acquirers get the unit, and parked receivers the messages, in
   the order they blocked. *)
let test_park_fifo () =
  let eng = Engine.create () in
  let r = Resource.create eng ~name:"cpu" ~servers:1 in
  let mb = Mailbox.create eng in
  let grants = ref [] and got = ref [] in
  Process.spawn eng (fun () -> Resource.use r 10.0);
  for i = 1 to 4 do
    Process.spawn eng (fun () ->
        Resource.use r 1.0;
        grants := (i, Engine.now eng) :: !grants);
    Process.spawn eng (fun () ->
        let v = Mailbox.recv mb in
        got := (i, v) :: !got)
  done;
  Process.spawn eng (fun () ->
      Process.sleep eng 20.0;
      List.iter (Mailbox.send mb) [ "a"; "b"; "c"; "d" ]);
  ignore (Engine.run eng);
  Alcotest.(check (list (pair int (float 1e-6))))
    "acquirers in blocking order"
    [ (1, 11.0); (2, 12.0); (3, 13.0); (4, 14.0) ]
    (List.rev !grants);
  Alcotest.(check (list (pair int string)))
    "receivers in blocking order"
    [ (1, "a"); (2, "b"); (3, "c"); (4, "d") ]
    (List.rev !got)

(* ------------------------------------------------------------------ *)
(* Mailbox *)

let test_mailbox_fifo () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let received = ref [] in
  Process.spawn eng (fun () ->
      for _ = 1 to 3 do
        received := Mailbox.recv mb :: !received
      done);
  Process.spawn eng (fun () ->
      Process.sleep eng 10.0;
      Mailbox.send mb 1;
      Mailbox.send mb 2;
      Mailbox.send mb 3);
  ignore (Engine.run eng);
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !received)

let test_mailbox_burst () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  List.iter (Mailbox.send mb) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "burst of 3" [ 1; 2; 3 ] (Mailbox.recv_burst mb ~max:3);
  Alcotest.(check (list int)) "rest" [ 4; 5 ] (Mailbox.recv_burst mb ~max:10);
  Alcotest.(check (list int)) "empty" [] (Mailbox.recv_burst mb ~max:10)

(* ------------------------------------------------------------------ *)
(* Ivar *)

let test_ivar () =
  let eng = Engine.create () in
  let iv = Ivar.create eng in
  let seen = ref [] in
  for i = 1 to 3 do
    Process.spawn eng (fun () ->
        let v = Ivar.read iv in
        seen := (i, v, Engine.now eng) :: !seen)
  done;
  Process.spawn eng (fun () ->
      Process.sleep eng 42.0;
      Ivar.fill iv "done");
  ignore (Engine.run eng);
  Alcotest.(check int) "all woke" 3 (List.length !seen);
  List.iter
    (fun (_, v, t) ->
      Alcotest.(check string) "value" "done" v;
      check_float "time" 42.0 t)
    !seen;
  Alcotest.check_raises "double fill"
    (Invalid_argument "Ivar.fill: already filled") (fun () ->
      Ivar.fill iv "again")

(* ------------------------------------------------------------------ *)
(* Resource *)

let test_resource_serialization () =
  let eng = Engine.create () in
  let r = Resource.create eng ~name:"cpu" ~servers:1 in
  let finish = ref [] in
  for i = 1 to 3 do
    Process.spawn eng (fun () ->
        Resource.use r 10.0;
        finish := (i, Engine.now eng) :: !finish)
  done;
  ignore (Engine.run eng);
  Alcotest.(check (list (pair int (float 1e-6))))
    "fifo serialization"
    [ (1, 10.0); (2, 20.0); (3, 30.0) ]
    (List.rev !finish)

let test_resource_parallel_servers () =
  let eng = Engine.create () in
  let r = Resource.create eng ~name:"cpu" ~servers:2 in
  let finish = ref [] in
  for i = 1 to 4 do
    Process.spawn eng (fun () ->
        Resource.use r 10.0;
        finish := (i, Engine.now eng) :: !finish)
  done;
  ignore (Engine.run eng);
  let times = List.map snd (List.rev !finish) in
  Alcotest.(check (list (float 1e-6))) "two at a time" [ 10.0; 10.0; 20.0; 20.0 ] times

let test_resource_utilization () =
  let eng = Engine.create () in
  let r = Resource.create eng ~name:"cpu" ~servers:2 in
  Process.spawn eng (fun () -> Resource.use r 50.0);
  Engine.after eng 100.0 (fun () -> ());
  ignore (Engine.run eng);
  (* 50 busy server-ns out of 2 servers * 100 ns. *)
  check_float "utilization" 0.25 (Resource.utilization r)

let test_resource_release_twice () =
  let eng = Engine.create () in
  let r = Resource.create eng ~name:"cpu" ~servers:2 in
  Resource.acquire r;
  Resource.release r;
  Alcotest.check_raises "over-release rejected"
    (Invalid_argument "Resource.release: cpu released more times than acquired")
    (fun () -> Resource.release r)

(* A profiled release closes the oldest open grant of its own context,
   else the oldest open grant, whatever order the holders release in. *)
let test_resource_grant_matching () =
  let eng = Engine.create () in
  Engine.set_attrib_enabled eng true;
  let r = Resource.create eng ~name:"cores" ~servers:3 in
  let under time stack f =
    Engine.at eng time (fun () ->
        Attrib.set { Attrib.default with Attrib.stack };
        f r)
  in
  under 0.0 "a" Resource.acquire;
  under 1.0 "b" Resource.acquire;
  under 2.0 "a" Resource.acquire;
  under 10.0 "a" Resource.release (* a's grant from 0 *);
  under 20.0 "c" Resource.release (* no c grant: b's, the oldest *);
  under 30.0 "a" Resource.release (* a's grant from 2 *);
  ignore (Engine.run eng);
  Alcotest.(check (list (triple string (float 1e-9) int)))
    "service per context"
    [ ("a", 38.0, 2); ("b", 19.0, 1) ]
    (List.map
       (fun (c, v) -> (c.Attrib.stack, v.Resource.v_service_ns, v.v_services))
       (Resource.stats r))

(* ------------------------------------------------------------------ *)
(* Sanitizer (strict engines) *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check_violation name sub violations =
  Alcotest.(check bool)
    (Printf.sprintf "%s reported (got: %s)" name (String.concat "; " violations))
    true
    (List.exists (fun v -> contains v sub) violations)

let test_sanitizer_clean_run () =
  let eng = Engine.create ~strict:true () in
  Alcotest.(check bool) "strict flag" true (Engine.strict eng);
  let r = Resource.create eng ~name:"cpu" ~servers:1 in
  let mb = Mailbox.create ~name:"mb" eng in
  let iv = Ivar.create ~name:"iv" eng in
  Process.spawn eng (fun () ->
      Resource.use r 5.0;
      Mailbox.send mb 1;
      Ivar.fill iv ());
  Process.spawn eng (fun () ->
      Ivar.read iv;
      ignore (Mailbox.recv mb));
  ignore (Engine.run eng);
  Alcotest.(check (list string)) "no violations" [] (Engine.sanitize eng)

let test_sanitizer_never_filled_ivar () =
  let eng = Engine.create ~strict:true () in
  let iv = Ivar.create ~name:"stuck" eng in
  Process.spawn eng (fun () -> Ivar.read iv);
  ignore (Engine.run eng);
  check_violation "never-filled ivar" "ivar stuck: never filled"
    (Engine.sanitize eng)

let test_sanitizer_unreleased_resource () =
  let eng = Engine.create ~strict:true () in
  let r = Resource.create eng ~name:"dma" ~servers:2 in
  Process.spawn eng (fun () -> Resource.acquire r);
  ignore (Engine.run eng);
  check_violation "leaked unit" "resource dma: 1 unit(s) acquired"
    (Engine.sanitize eng)

let test_sanitizer_undelivered_mailbox () =
  let eng = Engine.create ~strict:true () in
  let mb = Mailbox.create ~name:"rx0" eng in
  Mailbox.send mb "lost";
  ignore (Engine.run eng);
  check_violation "undelivered message" "mailbox rx0: 1 undelivered"
    (Engine.sanitize eng)

let test_sanitizer_double_resume () =
  let eng = Engine.create ~strict:true () in
  let order = ref [] in
  Process.spawn eng (fun () ->
      Process.suspend (fun resume ->
          Engine.after eng 1.0 (fun () -> resume ());
          Engine.after eng 2.0 (fun () -> resume ()));
      order := "woke" :: !order);
  ignore (Engine.run eng);
  Alcotest.(check (list string)) "woke exactly once" [ "woke" ] !order;
  check_violation "double resume" "resumed twice" (Engine.sanitize eng)

(* Every process on an engine shares one effect handler, so the
   one-shot check must live in each suspension, not in the handler: two
   processes that each double-resume their own [suspend] give one
   violation apiece, and a third, well-behaved process adds none. *)
let test_sanitizer_double_resume_shared () =
  let eng = Engine.create ~strict:true () in
  let woke = ref [] in
  let double name t =
    Process.spawn eng (fun () ->
        Process.suspend (fun resume ->
            Engine.after eng t (fun () -> resume ());
            Engine.after eng (t +. 1.0) (fun () -> resume ()));
        woke := name :: !woke)
  in
  double "a" 1.0;
  double "b" 1.5;
  ignore (Engine.run eng);
  let twice () =
    List.length
      (List.filter (fun v -> contains v "resumed twice") (Engine.sanitize eng))
  in
  Alcotest.(check int) "one violation per double resume" 2 (twice ());
  (* Plain sleeps skip the one-shot check (the engine owns their
     continuation) and must record nothing either. *)
  Process.spawn eng (fun () ->
      Process.suspend (fun resume -> Engine.after eng 1.0 resume);
      Process.sleep eng 2.0;
      Process.sleep ~node:3 eng 1.0;
      Process.yield eng;
      woke := "c" :: !woke);
  ignore (Engine.run eng);
  Alcotest.(check int) "well-behaved process adds nothing" 2
    (List.length (Engine.sanitize eng));
  Alcotest.(check (list string)) "each woke once" [ "a"; "b"; "c" ]
    (List.rev !woke)

let test_sanitizer_off_by_default () =
  let eng = Engine.create () in
  let iv : unit Ivar.t = Ivar.create ~name:"stuck" eng in
  Process.spawn eng (fun () -> Ivar.read iv);
  ignore (Engine.run eng);
  Alcotest.(check (list string))
    "non-strict engines record nothing" [] (Engine.sanitize eng)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_split_independence () =
  let a = Rng.create ~seed:7L in
  let c = Rng.split a in
  let x = Rng.next c in
  let a2 = Rng.create ~seed:7L in
  let c2 = Rng.split a2 in
  Alcotest.(check int64) "split deterministic" x (Rng.next c2)

let test_rng_uniform_qcheck =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair (int_bound 1000) small_int)
    (fun (seed, bound) ->
      let bound = max 1 bound in
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let test_rng_mean () =
  let rng = Rng.create ~seed:1L in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.01)

(* ------------------------------------------------------------------ *)
(* Fabric *)

let test_fabric_latency () =
  let eng = Engine.create () in
  let hw = Xenic_params.Hw.testbed in
  let fabric = Xenic_net.Fabric.create eng hw ~nodes:2 in
  let arrival = ref nan in
  Process.spawn eng (fun () ->
      let pkt = Mailbox.recv (Xenic_net.Fabric.rx fabric 1) in
      arrival := Engine.now eng;
      Alcotest.(check (list string)) "payload" [ "hello" ] pkt.Xenic_net.Packet.msgs);
  Xenic_net.Fabric.send fabric ~src:0 ~dst:1 ~payload_bytes:100 [ "hello" ];
  ignore (Engine.run eng);
  let rate = Xenic_params.Hw.link_rate hw in
  let expect =
    (2.0 *. float_of_int (100 + hw.eth_frame_overhead_b) /. rate)
    +. hw.wire_latency_ns
  in
  check_float "tx + wire + rx" expect !arrival

let test_fabric_bandwidth_saturation () =
  let eng = Engine.create () in
  let hw = Xenic_params.Hw.testbed in
  let fabric = Xenic_net.Fabric.create eng hw ~nodes:2 in
  (* 100 frames of ~1500B at 12.5 B/ns: serialization dominates. *)
  let n = 100 and bytes = 1500 - hw.eth_frame_overhead_b in
  let last = ref 0.0 in
  Process.spawn eng (fun () ->
      for _ = 1 to n do
        ignore (Mailbox.recv (Xenic_net.Fabric.rx fabric 1));
        last := Engine.now eng
      done);
  for _ = 1 to n do
    Xenic_net.Fabric.send fabric ~src:0 ~dst:1 ~payload_bytes:bytes []
  done;
  ignore (Engine.run eng);
  let rate = Xenic_params.Hw.link_rate hw in
  let min_serialization = float_of_int (n * 1500) /. rate in
  Alcotest.(check bool)
    "total time bounded below by link serialization" true
    (!last >= min_serialization)

let test_aggregator_batches () =
  let eng = Engine.create () in
  let hw = Xenic_params.Hw.testbed in
  let fabric = Xenic_net.Fabric.create eng hw ~nodes:2 in
  let agg = Xenic_net.Aggregator.create fabric ~src:0 ~enabled:true in
  let got = ref [] in
  Process.spawn eng (fun () ->
      let pkt = Mailbox.recv (Xenic_net.Fabric.rx fabric 1) in
      got := pkt.Xenic_net.Packet.msgs);
  (* Three small messages within the window coalesce into one frame. *)
  Xenic_net.Aggregator.push agg ~dst:1 ~bytes:50 "a";
  Xenic_net.Aggregator.push agg ~dst:1 ~bytes:50 "b";
  Xenic_net.Aggregator.push agg ~dst:1 ~bytes:50 "c";
  ignore (Engine.run eng);
  Alcotest.(check (list string)) "one frame, three msgs" [ "a"; "b"; "c" ] !got;
  Alcotest.(check int) "frames" 1 (Xenic_net.Aggregator.frames agg)

let test_aggregator_disabled () =
  let eng = Engine.create () in
  let hw = Xenic_params.Hw.testbed in
  let fabric = Xenic_net.Fabric.create eng hw ~nodes:2 in
  let agg = Xenic_net.Aggregator.create fabric ~src:0 ~enabled:false in
  let frames = ref 0 in
  Process.spawn eng (fun () ->
      for _ = 1 to 3 do
        ignore (Mailbox.recv (Xenic_net.Fabric.rx fabric 1));
        incr frames
      done);
  for _ = 1 to 3 do
    Xenic_net.Aggregator.push agg ~dst:1 ~bytes:50 "x"
  done;
  ignore (Engine.run eng);
  Alcotest.(check int) "frame per message" 3 !frames

let test_aggregator_flush_all () =
  let eng = Engine.create () in
  let hw = Xenic_params.Hw.testbed in
  let fabric = Xenic_net.Fabric.create eng hw ~nodes:3 in
  let agg = Xenic_net.Aggregator.create fabric ~src:0 ~enabled:true in
  Xenic_net.Aggregator.push agg ~dst:1 ~bytes:10 "a";
  Xenic_net.Aggregator.push agg ~dst:2 ~bytes:10 "b";
  (* Force out both gather lists before their windows expire. *)
  Xenic_net.Aggregator.flush_all agg;
  Alcotest.(check int) "two frames" 2 (Xenic_net.Aggregator.frames agg);
  Alcotest.(check int) "two messages" 2 (Xenic_net.Aggregator.messages agg);
  ignore (Engine.run eng)

let test_aggregator_stale_timer () =
  (* Regression: a window timer armed for a batch that was then flushed
     by the size trigger must not fire into the next batch — the stale
     timer used to cut the successor's aggregation window short. *)
  let eng = Engine.create () in
  let hw = Xenic_params.Hw.testbed in
  let fabric = Xenic_net.Fabric.create eng hw ~nodes:2 in
  let agg = Xenic_net.Aggregator.create fabric ~src:0 ~enabled:true in
  let w = hw.agg_window_ns in
  Process.spawn eng (fun () ->
      ignore (Mailbox.recv (Xenic_net.Fabric.rx fabric 1));
      ignore (Mailbox.recv (Xenic_net.Fabric.rx fabric 1)));
  Process.spawn eng (fun () ->
      (* Batch A: arm the window timer, then overflow the MTU so the
         size trigger flushes synchronously, leaving the timer stale. *)
      Xenic_net.Aggregator.push agg ~dst:1 ~bytes:50 "a0";
      for _ = 1 to 4 do
        Xenic_net.Aggregator.push agg ~dst:1 ~bytes:400 "a"
      done;
      Alcotest.(check int) "batch A flushed by size" 1
        (Xenic_net.Aggregator.frames agg);
      (* Batch B starts mid-window of the stale timer; it must get its
         own full aggregation window (flush at 1.5w), not be cut short
         when the stale timer fires at w. *)
      Process.sleep eng (0.5 *. w);
      Xenic_net.Aggregator.push agg ~dst:1 ~bytes:50 "b");
  ignore (Engine.run ~until:(1.25 *. w) eng);
  Alcotest.(check int) "stale timer did not flush batch B" 1
    (Xenic_net.Aggregator.frames agg);
  ignore (Engine.run eng);
  Alcotest.(check int) "two frames" 2 (Xenic_net.Aggregator.frames agg)

let test_fabric_accounting () =
  let eng = Engine.create () in
  let hw = Xenic_params.Hw.testbed in
  let fabric = Xenic_net.Fabric.create eng hw ~nodes:2 in
  Process.spawn eng (fun () ->
      ignore (Mailbox.recv (Xenic_net.Fabric.rx fabric 1)));
  Xenic_net.Fabric.send fabric ~src:0 ~dst:1 ~payload_bytes:100 [ "x" ];
  ignore (Engine.run eng);
  Alcotest.(check int) "frames" 1 (Xenic_net.Fabric.frames_sent fabric);
  Alcotest.(check int) "bytes include framing"
    (100 + hw.eth_frame_overhead_b)
    (Xenic_net.Fabric.bytes_sent fabric)

let test_aggregator_mtu_flush () =
  let eng = Engine.create () in
  let hw = Xenic_params.Hw.testbed in
  let fabric = Xenic_net.Fabric.create eng hw ~nodes:2 in
  let agg = Xenic_net.Aggregator.create fabric ~src:0 ~enabled:true in
  let count = ref 0 in
  Process.spawn eng (fun () ->
      let pkt = Mailbox.recv (Xenic_net.Fabric.rx fabric 1) in
      count := List.length pkt.Xenic_net.Packet.msgs);
  (* Push enough bytes to exceed the MTU: the gather list flushes
     immediately, without waiting for the window timer. *)
  for _ = 1 to 4 do
    Xenic_net.Aggregator.push agg ~dst:1 ~bytes:400 "m"
  done;
  Alcotest.(check int) "flushed synchronously on MTU" 1
    (Xenic_net.Aggregator.frames agg);
  ignore (Engine.run eng);
  Alcotest.(check bool) "several messages in frame" true (!count >= 3)

(* ------------------------------------------------------------------ *)
(* DMA engine *)

let test_dma_single_latency () =
  let eng = Engine.create () in
  let hw = Xenic_params.Hw.testbed in
  let dma = Xenic_pcie.Dma.create eng hw in
  Xenic_pcie.Dma.set_vectored dma false;
  let t_done = ref nan in
  Process.spawn eng (fun () ->
      Xenic_pcie.Dma.read dma ~bytes:64;
      t_done := Engine.now eng);
  ignore (Engine.run eng);
  let expect =
    hw.dma_submit_ns +. hw.dma_engine_elem_ns +. hw.dma_read_completion_ns
    +. (64.0 /. Xenic_params.Hw.pcie_rate hw)
  in
  check_float "single read latency" expect !t_done

let test_dma_vector_amortization () =
  let eng = Engine.create () in
  let hw = Xenic_params.Hw.testbed in
  let dma = Xenic_pcie.Dma.create eng hw in
  let n = 150 in
  let completions = ref 0 in
  for i = 0 to n - 1 do
    Xenic_pcie.Dma.submit dma Xenic_pcie.Dma.Write ~bytes:64 ~queue:(i mod 8)
      (fun () -> incr completions)
  done;
  ignore (Engine.run eng);
  Alcotest.(check int) "all complete" n !completions;
  (* Vectored submission should need far fewer vectors than ops. *)
  Alcotest.(check bool)
    "vectors amortized" true
    (Xenic_pcie.Dma.vectors_issued dma <= (n / 8) + 8);
  Alcotest.(check int) "ops counted" n (Xenic_pcie.Dma.ops_completed dma)

let test_dma_throughput_cap () =
  let eng = Engine.create () in
  let hw = Xenic_params.Hw.testbed in
  let dma = Xenic_pcie.Dma.create eng hw in
  (* Saturate one queue with full vectors; throughput per queue must be
     near 1/dma_engine_elem_ns = 8.7 Mops/s. *)
  let n = 1500 in
  let last = ref 0.0 in
  for _ = 1 to n do
    Xenic_pcie.Dma.submit dma Xenic_pcie.Dma.Write ~bytes:16 ~queue:0 (fun () ->
        last := Engine.now eng)
  done;
  ignore (Engine.run eng);
  let mops = float_of_int n /. !last *. 1_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "one-queue throughput ~8.7Mops (got %.2f)" mops)
    true
    (mops > 7.0 && mops < 9.5)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "xenic_sim"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "empty raises" `Quick test_heap_empty_raises;
          qt test_heap_random_qcheck;
          qt test_heap_model_qcheck;
        ] );
      ( "engine",
        [
          Alcotest.test_case "event order" `Quick test_engine_event_order;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "no past scheduling" `Quick test_engine_no_past;
          qt test_engine_fifo_qcheck;
          qt test_engine_no_past_qcheck;
          qt test_engine_handoff_order_qcheck;
        ] );
      ( "process",
        [
          Alcotest.test_case "sleep timeline" `Quick test_process_sleep;
          Alcotest.test_case "parallel join" `Quick test_process_parallel;
          Alcotest.test_case "parallel floats" `Quick
            test_process_parallel_floats;
          Alcotest.test_case "suspend outside" `Quick test_suspend_outside_process;
          Alcotest.test_case "allocation ratchet" `Quick test_alloc_ratchet;
          Alcotest.test_case "park context" `Quick test_park_context;
          Alcotest.test_case "park fifo" `Quick test_park_fifo;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "burst" `Quick test_mailbox_burst;
        ] );
      ("ivar", [ Alcotest.test_case "broadcast" `Quick test_ivar ]);
      ( "resource",
        [
          Alcotest.test_case "serialization" `Quick test_resource_serialization;
          Alcotest.test_case "parallel servers" `Quick test_resource_parallel_servers;
          Alcotest.test_case "utilization" `Quick test_resource_utilization;
          Alcotest.test_case "release twice" `Quick test_resource_release_twice;
          Alcotest.test_case "grant matching" `Quick test_resource_grant_matching;
        ] );
      ( "sanitizer",
        [
          Alcotest.test_case "clean run" `Quick test_sanitizer_clean_run;
          Alcotest.test_case "never-filled ivar" `Quick
            test_sanitizer_never_filled_ivar;
          Alcotest.test_case "unreleased resource" `Quick
            test_sanitizer_unreleased_resource;
          Alcotest.test_case "undelivered mailbox" `Quick
            test_sanitizer_undelivered_mailbox;
          Alcotest.test_case "double resume" `Quick test_sanitizer_double_resume;
          Alcotest.test_case "double resume, shared handler" `Quick
            test_sanitizer_double_resume_shared;
          Alcotest.test_case "off by default" `Quick
            test_sanitizer_off_by_default;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split" `Quick test_rng_split_independence;
          Alcotest.test_case "mean" `Quick test_rng_mean;
          qt test_rng_uniform_qcheck;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "latency" `Quick test_fabric_latency;
          Alcotest.test_case "bandwidth" `Quick test_fabric_bandwidth_saturation;
          Alcotest.test_case "aggregation" `Quick test_aggregator_batches;
          Alcotest.test_case "aggregation off" `Quick test_aggregator_disabled;
          Alcotest.test_case "mtu flush" `Quick test_aggregator_mtu_flush;
          Alcotest.test_case "flush all" `Quick test_aggregator_flush_all;
          Alcotest.test_case "stale timer" `Quick test_aggregator_stale_timer;
          Alcotest.test_case "accounting" `Quick test_fabric_accounting;
        ] );
      ( "dma",
        [
          Alcotest.test_case "single latency" `Quick test_dma_single_latency;
          Alcotest.test_case "vector amortization" `Quick test_dma_vector_amortization;
          Alcotest.test_case "throughput cap" `Quick test_dma_throughput_cap;
        ] );
    ]
