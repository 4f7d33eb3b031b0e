(* Per-context wait/service accounting (profiler):

   - every completed acquire records its queue wait (zero for an
     immediate grant) against the acquirer's ambient {!Attrib} context;
   - every release closes the matching open grant and records its
     service time against the grant's context (matched by context, the
     oldest grant as a fallback, so totals stay exact even if a phase
     boundary crossed a hold);
   - queue length is integrated over time ([queue_area]), giving the
     Little's-law cross-check: the integral equals the sum of completed
     waits exactly, since each waiter contributes its wait interval.

   Per-context map updates run only while [Attrib.enabled]; the queue
   integral is a couple of float ops and stays always-on. *)

type stat = {
  mutable wait_ns : float;
  mutable waits : int;
  mutable service_ns : float;
  mutable services : int;
}

type stat_view = {
  v_wait_ns : float;
  v_waits : int;
  v_service_ns : float;
  v_services : int;
}

(* An open grant, linked to the next-newer one; the resource's
   [no_grant] sentinel ends the chain and is never written. *)
type grant = { g_ctx : Attrib.ctx; t_grant : float; mutable next : grant }

(* A parked acquirer: its continuation, the context it blocked under
   (reinstalled when it resumes, and the one its wait and grant are
   attributed to), and when it joined the queue. *)
type waiter = {
  k : (unit, unit) Effect.Deep.continuation;
  ctx : Attrib.ctx;
  t_enq : float;
}

(* All-float, so OCaml stores the fields unboxed and accounting
   allocates nothing. *)
type clock = {
  mutable busy_time : float;
  mutable last_change : float;
  mutable queue_area : float;  (* integral of queue length over time *)
  mutable last_qchange : float;
}

type t = {
  engine : Engine.t;
  name : string;
  servers : int;
  mutable busy : int;
  waiters : waiter Queue.t;
  park : unit Effect.t;  (* performed by a blocked [acquire] *)
  clock : clock;
  no_grant : grant;
  mutable oldest : grant;  (* open grants, oldest to newest *)
  mutable newest : grant;
  mutable stats : stat Attrib.Ctx_map.t;
}

let create engine ~name ~servers =
  if servers <= 0 then invalid_arg "Resource.create: servers must be positive";
  let waiters = Queue.create () in
  let rec no_grant = { g_ctx = Attrib.default; t_grant = 0.0; next = no_grant } in
  let t =
    {
      engine;
      name;
      servers;
      busy = 0;
      waiters;
      park =
        Process.park_effect (fun k ->
            Queue.add
              { k; ctx = Attrib.get (); t_enq = Engine.now engine }
              waiters);
      clock =
        {
          busy_time = 0.0;
          last_change = 0.0;
          queue_area = 0.0;
          last_qchange = 0.0;
        };
      no_grant;
      oldest = no_grant;
      newest = no_grant;
      stats = Attrib.Ctx_map.empty;
    }
  in
  Engine.register_check engine (fun () ->
      let held =
        if t.busy > 0 then
          [
            Printf.sprintf
              "resource %s: %d unit(s) acquired but never released" t.name
              t.busy;
          ]
        else []
      in
      let blocked =
        if Queue.is_empty t.waiters then []
        else
          [
            Printf.sprintf "resource %s: %d acquirer(s) still blocked" t.name
              (Queue.length t.waiters);
          ]
      in
      held @ blocked);
  t

let name t = t.name

let servers t = t.servers

let queue_length t = Queue.length t.waiters

let in_use t = t.busy

let account t =
  let now = Engine.now t.engine in
  let c = t.clock in
  c.busy_time <- c.busy_time +. (float_of_int t.busy *. (now -. c.last_change));
  c.last_change <- now

let account_queue t =
  let now = Engine.now t.engine in
  let c = t.clock in
  c.queue_area <-
    c.queue_area
    +. (float_of_int (Queue.length t.waiters) *. (now -. c.last_qchange));
  c.last_qchange <- now

let stat_for t ctx =
  match Attrib.Ctx_map.find_opt ctx t.stats with
  | Some s -> s
  | None ->
      let s = { wait_ns = 0.0; waits = 0; service_ns = 0.0; services = 0 } in
      t.stats <- Attrib.Ctx_map.add ctx s t.stats;
      s

let record_wait t ctx dt =
  let s = stat_for t ctx in
  s.wait_ns <- s.wait_ns +. dt;
  s.waits <- s.waits + 1

let open_grant t ctx =
  let g = { g_ctx = ctx; t_grant = Engine.now t.engine; next = t.no_grant } in
  if t.newest == t.no_grant then t.oldest <- g else t.newest.next <- g;
  t.newest <- g

(* The predecessor of the first grant from [g] (preceded by [prev]) on
   that matches [ctx]; [no_grant] if none does, so the oldest grant is
   the fallback. *)
let rec match_pred t ctx prev g =
  if g == t.no_grant then t.no_grant
  else if Attrib.compare_ctx g.g_ctx ctx = 0 then prev
  else match_pred t ctx g g.next

(* Unlink the first grant matching the ambient context, else the
   oldest, and record its service time. An empty chain means profiling
   was enabled mid-hold: nothing to attribute. *)
let close_grant t =
  if Attrib.enabled () && t.oldest != t.no_grant then begin
    let prev = match_pred t (Attrib.get ()) t.no_grant t.oldest in
    let g = if prev == t.no_grant then t.oldest else prev.next in
    if prev == t.no_grant then t.oldest <- g.next else prev.next <- g.next;
    if t.newest == g then t.newest <- prev;
    let s = stat_for t g.g_ctx in
    s.service_ns <- s.service_ns +. (Engine.now t.engine -. g.t_grant);
    s.services <- s.services + 1
  end

let acquire t =
  if t.busy < t.servers then begin
    account t;
    t.busy <- t.busy + 1;
    if Attrib.enabled () then begin
      let ctx = Attrib.get () in
      record_wait t ctx 0.0;
      open_grant t ctx
    end
  end
  else begin
    account_queue t;
    try Effect.perform t.park
    with Effect.Unhandled _ -> raise Process.Not_in_process
  end

let release t =
  close_grant t;
  (* Integrate the queue BEFORE dequeuing: the departing waiter must
     contribute its full interval to the area, or Little's law breaks. *)
  account_queue t;
  match Queue.take_opt t.waiters with
  | Some w ->
      (* Hand the unit directly to the next waiter: busy count
         unchanged; the waiter's grant starts now, under the context it
         carried into the queue. *)
      if Attrib.enabled () then begin
        record_wait t w.ctx (Engine.now t.engine -. w.t_enq);
        open_grant t w.ctx
      end;
      Process.unpark t.engine w.ctx w.k ()
  | None ->
      if t.busy <= 0 then
        invalid_arg
          (Printf.sprintf
             "Resource.release: %s released more times than acquired" t.name);
      account t;
      t.busy <- t.busy - 1

let use t duration =
  acquire t;
  Process.sleep t.engine duration;
  release t

let busy_time t =
  account t;
  t.clock.busy_time

let utilization t =
  let now = Engine.now t.engine in
  if Float.compare now 0.0 <= 0 then 0.0
  else busy_time t /. (float_of_int t.servers *. now)

let queue_area t =
  account_queue t;
  t.clock.queue_area

let stats t =
  Attrib.Ctx_map.fold
    (fun ctx s acc ->
      ( ctx,
        {
          v_wait_ns = s.wait_ns;
          v_waits = s.waits;
          v_service_ns = s.service_ns;
          v_services = s.services;
        } )
      :: acc)
    t.stats []
  |> List.rev
