(* GC activity of the whole process, every domain included, read from
   the runtime_events ring buffers. Used only by the traced run.

   A GC pause is a maximal interval during which a domain is inside any
   runtime phase (minor collection, major slice, stop-the-world
   handler, ...); nested phases are not double-counted. Waiting on a
   domain condition is idleness, not GC, and is excluded. *)

module RE = Runtime_events

type RE.User.tag += Sync

let sync_event = RE.User.register "perfbench.sync" Sync RE.Type.unit

let max_rings = 128

type counts = { minors : int; major_slices : int; pause_ns : float; lost : int }

type state = {
  depth : int array;  (* per ring: runtime-phase nesting depth *)
  outer : RE.runtime_phase array;  (* per ring: outermost open phase *)
  opened : int64 array;  (* per ring: when the outermost phase began *)
  mutable c : counts;
  mutable offset_s : float option;
      (* wall clock minus runtime-events clock, from the sync event *)
  mutable sync_wall : float;  (* wall time the sync event was written *)
  on_pause : ring:int -> name:string -> ts:float -> dur:float -> unit;
  mutable active : bool;  (* inside [measure]: pauses become spans *)
}

type t = { st : state; cursor : RE.cursor; callbacks : RE.Callbacks.t }

let poll t = ignore (RE.read_poll t.cursor t.callbacks None)

let counted phase = phase <> RE.EV_DOMAIN_CONDITION_WAIT

let runtime_begin st ring ts phase =
  if counted phase && ring < max_rings then begin
    (match phase with
    | RE.EV_MINOR -> st.c <- { st.c with minors = st.c.minors + 1 }
    | RE.EV_MAJOR_SLICE ->
        st.c <- { st.c with major_slices = st.c.major_slices + 1 }
    | _ -> ());
    if st.depth.(ring) = 0 then begin
      st.outer.(ring) <- phase;
      st.opened.(ring) <- RE.Timestamp.to_int64 ts
    end;
    st.depth.(ring) <- st.depth.(ring) + 1
  end

let runtime_end st ring ts phase =
  if counted phase && ring < max_rings && st.depth.(ring) > 0 then begin
    st.depth.(ring) <- st.depth.(ring) - 1;
    if st.depth.(ring) = 0 then begin
      let opened = st.opened.(ring) in
      let dur = Int64.to_float (Int64.sub (RE.Timestamp.to_int64 ts) opened) in
      st.c <- { st.c with pause_ns = st.c.pause_ns +. dur };
      match st.offset_s with
      | Some off when st.active ->
          st.on_pause ~ring
            ~name:(RE.runtime_phase_name st.outer.(ring))
            ~ts:((Int64.to_float opened *. 1e-9) +. off)
            ~dur:(dur *. 1e-9)
      | _ -> ()
    end
  end

(* [start ~on_pause] starts the runtime's event rings; [on_pause] gets
   every GC pause inside {!measure}, on the wall clock. *)
let start ~on_pause =
  RE.start ();
  let st =
    {
      depth = Array.make max_rings 0;
      outer = Array.make max_rings RE.EV_MINOR;
      opened = Array.make max_rings 0L;
      c = { minors = 0; major_slices = 0; pause_ns = 0.0; lost = 0 };
      offset_s = None;
      sync_wall = 0.0;
      on_pause;
      active = false;
    }
  in
  let callbacks =
    RE.Callbacks.create ~runtime_begin:(runtime_begin st)
      ~runtime_end:(runtime_end st)
      ~lost_events:(fun _ring n -> st.c <- { st.c with lost = st.c.lost + n })
      ()
    |> RE.Callbacks.add_user_event RE.Type.unit (fun _ring ts ev () ->
           match RE.User.tag ev with
           | Sync ->
               st.offset_s <-
                 Some
                   (st.sync_wall
                   -. (Int64.to_float (RE.Timestamp.to_int64 ts) *. 1e-9))
           | _ -> ())
  in
  let cursor = RE.create_cursor None in
  (* Pair one wall-clock reading with one runtime-events timestamp so
     GC pauses can be placed on the benchmark's span timeline. *)
  st.sync_wall <- Clock.now ();
  RE.User.write sync_event ();
  let t = { st; cursor; callbacks } in
  poll t;
  t

(* [measure t f] runs [f] and returns its result with the GC activity
   it caused. [f] starts outside any GC phase on a single domain, so
   nesting restarts from zero even if older events were lost. *)
let measure t f =
  poll t;
  Array.fill t.st.depth 0 max_rings 0;
  let c0 = t.st.c in
  t.st.active <- true;
  let v = f () in
  poll t;
  t.st.active <- false;
  let c1 = t.st.c in
  ( v,
    {
      minors = c1.minors - c0.minors;
      major_slices = c1.major_slices - c0.major_slices;
      pause_ns = c1.pause_ns -. c0.pause_ns;
      lost = c1.lost - c0.lost;
    } )
