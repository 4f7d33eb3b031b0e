(** Unbounded FIFO message queue with blocking receive.

    The primitive communication channel between simulation processes and
    device models. Sends never block; a receive on an empty mailbox parks
    the calling process until a message arrives. Wakeups are scheduled as
    zero-delay events so delivery order stays deterministic. *)

type 'a t

(** [create ?name engine] makes an empty mailbox. On a strict engine it
    registers a sanitizer check: messages still queued when
    {!Engine.sanitize} runs are reported (under [name]) as undelivered. *)
val create : ?name:string -> Engine.t -> 'a t

(** Number of queued messages. *)
val length : 'a t -> int

(** Enqueue a message, waking one waiting receiver if any. *)
val send : 'a t -> 'a -> unit

(** Dequeue the oldest message, blocking until one is available. *)
val recv : 'a t -> 'a

(** [recv_timeout t ~timeout_ns] blocks like {!recv} but gives up after
    [timeout_ns] simulated nanoseconds, returning [None]. A message
    arriving after the timeout goes to the next receiver (or queues)
    instead of the timed-out one; the caller is resumed exactly once. *)
val recv_timeout : 'a t -> timeout_ns:float -> 'a option

(** [recv_burst t ~max] dequeues up to [max] immediately-available
    messages (possibly zero), never blocking. *)
val recv_burst : 'a t -> max:int -> 'a list
