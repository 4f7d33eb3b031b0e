(** Cooperative simulation processes built on OCaml 5 effect handlers.

    A process is a plain [unit -> unit] function started with {!spawn}.
    Inside a process, {!sleep} advances simulated time, {!suspend}
    parks the process until a component resumes it, and a blocking
    object ({!Resource}, {!Mailbox}, the host log) parks it on its own
    queue through a {!park_effect} — these are the only blocking points.
    Blocking outside a process raises {!Not_in_process}.

    Every process on an engine runs under one effect handler, built by
    the engine's first {!spawn}. It handles three effects:

    - [Sleep], performed by {!sleep} (and {!yield}): the delay and node
      travel in the engine's (or the executing partition's)
      {!Engine.slot}, the effect value is preallocated per slot, and
      the handler schedules the continuation itself, so a sleep
      allocates only the continuation and its wakeup event.
    - [Park], performed by a blocked {!Resource.acquire},
      {!Mailbox.recv} or host-log poll: the object builds the effect
      value and its answer once, at creation ({!park_effect}); the
      handler hands the continuation straight to the answer, which
      queues it with the caller's context, and the waker schedules it
      with {!unpark}. A wait allocates the continuation, the object's
      waiter record, its queue cell and the wakeup closure.
    - [Suspend], the generic path behind {!suspend} ([Ivar], the
      timeout variants, protocol-level waits): the caller's [register]
      receives a one-shot [resume]. On a strict engine each suspension
      checks its own [resume] against a second call.

    All three save the process's {!Attrib} context at suspension and
    reinstall it for the resumed body. The swap runs whether or not the
    profiler is on: transaction commit and abort read the context's
    class to label Telemetry and Trace events. *)

exception Not_in_process

(** [spawn engine f] starts [f] as a process at the current instant. An
    exception escaping [f] terminates the whole simulation (programming
    error), carrying its backtrace. *)
val spawn : Engine.t -> (unit -> unit) -> unit

(** [spawn_at engine ~delay f] starts [f] after [delay] ns. *)
val spawn_at : Engine.t -> delay:float -> (unit -> unit) -> unit

(** Block the calling process for [delay] simulated nanoseconds. On a
    partitioned engine, [~node] makes the wakeup — and everything the
    process does after it, until its next tagged hop — belong to that
    node's partition; the fabric tags its wire-latency hop with the
    destination so delivery-side work runs on the destination's
    partition. Ignored on an unpartitioned engine. *)
val sleep : ?node:int -> Engine.t -> float -> unit

(** [with_timeout engine ~timeout_ns f] runs [f] as a child process and
    blocks like {!sleep} until it finishes — returning [Some result] —
    or until [timeout_ns] simulated nanoseconds elapse, returning
    [None]. On timeout the child keeps running (cooperative processes
    cannot be killed); its eventual completion is discarded. The caller
    is resumed exactly once either way. *)
val with_timeout : Engine.t -> timeout_ns:float -> (unit -> 'a) -> 'a option

(** [suspend register] parks the calling process. [register] receives a
    one-shot [resume] function; calling [resume v] (typically from an
    event or another process) makes [suspend] return [v]. *)
val suspend : (('a -> unit) -> unit) -> 'a

(** Reschedule the calling process at the same instant, letting other
    pending events at this time run first. *)
val yield : Engine.t -> unit

(** [parallel engine thunks] runs each thunk as its own process and
    blocks the caller until all have finished, returning their results
    in order — the fork/join used for fan-out requests. *)
val parallel : Engine.t -> (unit -> 'a) list -> 'a list

(** {2 Parking on a blocking object}

    For the sim's blocking objects, whose waiter queue owns each parked
    continuation (so no one-shot check is needed): build the effect once
    at creation, [Effect.perform] it on a blocked call (mapping
    [Effect.Unhandled] to {!Not_in_process}), and wake a dequeued
    waiter with {!unpark}. *)

(** [park_effect answer] is the effect a blocked call performs: the
    handler passes the caller's continuation to [answer], which must
    queue it, together with the caller's [Attrib.get ()], for a later
    {!unpark}. *)
val park_effect : (('a, unit) Effect.Deep.continuation -> unit) -> 'a Effect.t

(** [unpark engine ctx k v] schedules, at the current instant, the
    parked continuation [k] to resume with [v] under its context [ctx];
    the resumer's own context is restored once [k] suspends again or
    finishes. *)
val unpark :
  Engine.t -> Attrib.ctx -> ('a, unit) Effect.Deep.continuation -> 'a -> unit
