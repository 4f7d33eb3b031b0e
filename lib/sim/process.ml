open Effect
open Effect.Deep

exception Not_in_process

type _ Effect.t +=
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Sleep : Engine.slot -> unit Effect.t
  | Park : (('a, unit) continuation -> unit) option -> 'a Effect.t

(* Dynamic scoping of the attribution context: the suspending process's
   context [ctx] travels with its continuation — reinstalled for the
   resumed body, with the resumer's own context restored once the body
   suspends again or finishes. *)
let resume_in ctx k v =
  let resumer_ctx = Attrib.get () in
  Attrib.set ctx;
  continue k v;
  Attrib.set resumer_ctx

(* Fill [s]'s process-layer fields: the [Sleep s] value a sleep in its
   context performs, and the handler's answer, which schedules the
   continuation itself. Both are built once per slot. *)
let arm engine (s : Engine.slot) =
  let eff = Sleep s in
  s.s_sleep <- Some eff;
  s.s_on_sleep <-
    Some
      (fun k ->
        let ctx = Attrib.get () in
        Engine.wake engine s (fun () -> resume_in ctx k ()));
  eff

(* One handler per engine, shared by all its processes. A sleep costs
   the continuation and its wakeup closure; a park hands the
   continuation to the blocking object's own answer; the generic
   [Suspend] path keeps its per-suspension one-shot check on a strict
   engine. *)
let handler engine =
  match Engine.handler engine with
  | Some h -> h
  | None ->
      let strict = Engine.strict engine in
      let on_suspend (type a) register (k : (a, unit) continuation) =
        let ctx = Attrib.get () in
        if strict then begin
          let resumed = ref false in
          register (fun v ->
              if !resumed then
                Engine.report_violation engine
                  "process: one-shot continuation resumed twice (second \
                   wakeup dropped)"
              else begin
                resumed := true;
                resume_in ctx k v
              end)
        end
        else register (resume_in ctx k)
      in
      let h =
        {
          retc = (fun () -> ());
          exnc = (fun exn -> raise exn);
          effc =
            (fun (type a) (eff : a Effect.t) :
                 ((a, unit) continuation -> unit) option ->
              match eff with
              | Sleep s -> s.Engine.s_on_sleep
              | Park answer -> answer
              | Suspend register -> Some (on_suspend register)
              | _ -> None);
        }
      in
      Engine.set_handler engine h;
      h

let spawn engine f =
  let h = handler engine in
  (* The child inherits the spawner's context and may overwrite it
     before its first suspension; restore the spawner's view either
     way. *)
  let caller_ctx = Attrib.get () in
  match_with f () h;
  Attrib.set caller_ctx

let suspend register =
  try perform (Suspend register)
  with Effect.Unhandled _ -> raise Not_in_process

let sleep ?node engine delay =
  let s = Engine.slot engine in
  s.s_delay <- delay;
  s.s_node <- node;
  let eff = match s.s_sleep with Some eff -> eff | None -> arm engine s in
  try perform eff with Effect.Unhandled _ -> raise Not_in_process

let park_effect answer = Park (Some answer)

let unpark engine ctx k v = Engine.after engine 0.0 (fun () -> resume_in ctx k v)

let with_timeout engine ~timeout_ns f =
  suspend (fun resume ->
      (* Whichever of {timer, body} settles first wins; the loser's
         settle is a no-op, so the one-shot continuation is resumed
         exactly once even on a strict engine. *)
      let settled = ref false in
      let settle r =
        if not !settled then begin
          settled := true;
          resume r
        end
      in
      Engine.after engine timeout_ns (fun () -> settle None);
      spawn engine (fun () ->
          let r = f () in
          settle (Some r)))

let yield engine = sleep engine 0.0

let spawn_at engine ~delay f =
  Engine.after engine delay (fun () -> spawn engine f)

(* Fork/join state: [results] is allocated by the first child to
   finish, filled with its own result, so no slot is ever read unset
   and no per-result option is boxed. *)
type 'a join = {
  n : int;
  mutable results : 'a array;
  mutable remaining : int;
  mutable waiter : unit -> unit;
}

(* Spawn [fs] as children [i], [i + 1], ... of [j], in list order. *)
let rec fork engine j i = function
  | [] -> ()
  | f :: rest ->
      spawn engine (fun () ->
          let r = f () in
          if Array.length j.results = 0 then j.results <- Array.make j.n r
          else j.results.(i) <- r;
          j.remaining <- j.remaining - 1;
          if j.remaining = 0 then j.waiter ());
      fork engine j (i + 1) rest

let rec collect results i acc =
  if i < 0 then acc else collect results (i - 1) (results.(i) :: acc)

let parallel engine thunks =
  match thunks with
  | [] -> []
  | [ f ] -> [ f () ]
  | _ ->
      let n = List.length thunks in
      let j = { n; results = [||]; remaining = n; waiter = ignore } in
      fork engine j 0 thunks;
      if j.remaining > 0 then suspend (fun resume -> j.waiter <- resume);
      collect j.results (n - 1) []
