(* A parked receiver: its continuation and the context it blocked
   under, reinstalled when a message wakes it. *)
type 'a waiter = { k : ('a, unit) Effect.Deep.continuation; ctx : Attrib.ctx }

type 'a t = {
  engine : Engine.t;
  name : string;
  items : 'a Queue.t;
  waiters : 'a waiter Queue.t;
  park : 'a Effect.t;  (* performed by a blocked [recv] *)
}

let create ?(name = "<mailbox>") engine =
  let waiters = Queue.create () in
  let t =
    {
      engine;
      name;
      items = Queue.create ();
      waiters;
      park =
        Process.park_effect (fun k ->
            Queue.add { k; ctx = Attrib.get () } waiters);
    }
  in
  Engine.register_check engine (fun () ->
      if Queue.is_empty t.items then []
      else
        [
          Printf.sprintf "mailbox %s: %d undelivered message(s)" t.name
            (Queue.length t.items);
        ]);
  t

let length t = Queue.length t.items

(* Delivery goes through the engine, so the sender keeps running to
   completion first and wakeups stay in deterministic order. *)
let send t v =
  match Queue.take_opt t.waiters with
  | Some w -> Process.unpark t.engine w.ctx w.k v
  | None -> Queue.add v t.items

let recv t =
  match Queue.take_opt t.items with
  | Some v -> v
  | None -> (
      try Effect.perform t.park
      with Effect.Unhandled _ -> raise Process.Not_in_process)

let recv_burst t ~max =
  let rec take n acc =
    if n = 0 then List.rev acc
    else
      match Queue.take_opt t.items with
      | None -> List.rev acc
      | Some v -> take (n - 1) (v :: acc)
  in
  take max []
