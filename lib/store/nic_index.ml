type 'v entry = {
  mutable lock : int option;
  mutable seq : int;
  mutable value : 'v option;
  mutable pins : int;
  mutable present : bool;
}

type io = {
  nic_mem : unit -> unit;
  dma_read : slots:int -> bytes:int -> unit;
}

let free_io = { nic_mem = (fun () -> ()); dma_read = (fun ~slots:_ ~bytes:_ -> ()) }

type 'v t = {
  host : 'v Robinhood.t;
  entries : (int, 'v entry) Hashtbl.t;
  hints : int array;  (* max displacement per hint group of home slots *)
  hint_slots : int;  (* home slots covered by one hint *)
  slack : int;
  cache_capacity : int;
  evict_queue : int Queue.t;
  mutable n_cached : int;
  mutable hits : int;
}

let create ?(slack = 1) ?(hint_slots = 4) ~host ~cache_capacity () =
  let groups = ((Robinhood.capacity host + hint_slots - 1) / hint_slots) + 1 in
  {
    host;
    entries = Hashtbl.create 1024;
    hints = Array.make groups 0;
    hint_slots;
    slack;
    cache_capacity;
    evict_queue = Queue.create ();
    n_cached = 0;
    hits = 0;
  }

let host t = t.host

let sync_hints t =
  Array.fill t.hints 0 (Array.length t.hints) 0;
  Robinhood.iter_home_disp t.host (fun ~home ~disp ->
      let g = home / t.hint_slots in
      if disp > t.hints.(g) then t.hints.(g) <- disp)

let hint t ~seg = t.hints.(seg)

let prewarm t =
  (try
     Robinhood.iter t.host (fun k v seq ->
         if t.n_cached >= t.cache_capacity then raise Exit;
         match Hashtbl.find_opt t.entries k with
         | Some _ -> ()
         | None ->
             let e =
               { lock = None; seq; value = Some v; pins = 0; present = true }
             in
             Hashtbl.add t.entries k e;
             t.n_cached <- t.n_cached + 1;
             Queue.add k t.evict_queue)
   with Exit -> ())

let cache_hits t = t.hits

let seg_of_key t k = Robinhood.home t.host k / t.hint_slots

(* Remove cache values until under capacity, skipping entries that are
   pinned (committed but not yet applied by the host) or locked. *)
let evict t =
  let attempts = ref (Queue.length t.evict_queue) in
  while t.n_cached > t.cache_capacity && !attempts > 0 do
    decr attempts;
    match Queue.take_opt t.evict_queue with
    | None -> attempts := 0
    | Some k -> (
        match Hashtbl.find_opt t.entries k with
        | None -> ()
        | Some e ->
            if e.pins > 0 || e.lock <> None then Queue.add k t.evict_queue
            else begin
              if e.value <> None then begin
                e.value <- None;
                t.n_cached <- t.n_cached - 1
              end;
              Hashtbl.remove t.entries k
            end)
  done

let cache_value t k e v =
  (match e.value with
  | None ->
      t.n_cached <- t.n_cached + 1;
      Queue.add k t.evict_queue
  | Some _ -> ());
  e.value <- Some v;
  if t.n_cached > t.cache_capacity then evict t

let get_or_make_entry t k ~seq ~present =
  match Hashtbl.find_opt t.entries k with
  | Some e -> e
  | None ->
      let e = { lock = None; seq; value = None; pins = 0; present } in
      Hashtbl.add t.entries k e;
      e

(* Hint-guided DMA lookup against the host table (§4.1.3): one region
   read of hint+1+slack slots, then a second adjacent read up to the
   displacement limit, then the overflow page. *)
let lookup_dma t io k =
  let seg = seg_of_key t k in
  let host_seg =
    Robinhood.segment_of_pos t.host (Robinhood.home t.host k)
  in
  let limit =
    match Robinhood.d_max t.host with
    | Some d -> d
    | None -> max 1 (Robinhood.seg_disp_bound t.host host_seg + 1)
  in
  let read_overflow () =
    let ovf_bytes = max Kv.slot_header_b (Robinhood.overflow_bytes t.host k) in
    io.dma_read
      ~slots:(max 1 (Robinhood.overflow_count t.host host_seg))
      ~bytes:ovf_bytes;
    fst (Robinhood.find_overflow t.host k)
  in
  let fetch_at disp =
    match Robinhood.value_at t.host k ~disp with
    | Some (v, seq) ->
        if Robinhood.value_bytes t.host v > Kv.inline_max then
          io.dma_read ~slots:1
            ~bytes:(Kv.slot_header_b + Robinhood.value_bytes t.host v);
        if disp > t.hints.(seg) then t.hints.(seg) <- disp;
        Some (v, seq)
    | None -> None
  in
  (* Read d_i + k slots from the home position (§4.1.3); the hint is
     inclusive of the furthest known displacement, so hint + slack
     covers it with k = slack slots of staleness headroom. *)
  let read1 = max 1 (min (t.hints.(seg) + t.slack) limit) in
  io.dma_read ~slots:read1
    ~bytes:(Robinhood.region_bytes t.host k ~from_disp:0 ~slots:read1);
  match Robinhood.scan t.host k ~from_disp:0 ~slots:read1 with
  | Robinhood.Hit { disp; _ } -> fetch_at disp
  | Robinhood.Miss_empty _ -> None
  | Robinhood.Miss_exhausted ->
      if read1 < limit then begin
        let read2 = limit - read1 in
        io.dma_read ~slots:read2
          ~bytes:(Robinhood.region_bytes t.host k ~from_disp:read1 ~slots:read2);
        match Robinhood.scan t.host k ~from_disp:read1 ~slots:read2 with
        | Robinhood.Hit { disp; _ } -> fetch_at disp
        | Robinhood.Miss_empty _ -> None
        | Robinhood.Miss_exhausted ->
            if Robinhood.d_max t.host <> None then read_overflow () else None
      end
      else if Robinhood.d_max t.host <> None then read_overflow ()
      else None

let read t io k =
  match Hashtbl.find_opt t.entries k with
  | Some ({ value = Some v; _ } as e) when e.present ->
      io.nic_mem ();
      t.hits <- t.hits + 1;
      Some (v, e.seq)
  | Some e when not e.present ->
      io.nic_mem ();
      (* Pure stat counter: the increment re-reads after the resume, so
         concurrent hits are each counted exactly once. *)
      (* xenic-lint: atomic nic-read-hit-count *)
      t.hits <- t.hits + 1;
      None
  | _ -> (
      let outcome = lookup_dma t io k in
      (* The DMA may have suspended; if a concurrent lock or commit
         created or updated the metadata entry in the meantime, the
         entry is authoritative — never let the (possibly stale) host
         read clobber it. *)
      match Hashtbl.find_opt t.entries k with
      | Some e when not e.present -> None
      | Some e -> (
          (match (e.value, outcome) with
          | None, Some (v, seq) when e.pins = 0 && e.lock = None ->
              (* xenic-lint: atomic nic-read-refill *)
              e.seq <- seq;
              cache_value t k e v
          | _ -> ());
          match e.value with
          | Some v -> Some (v, e.seq)
          | None -> (
              match outcome with Some (v, _) -> Some (v, e.seq) | None -> None))
      | None -> (
          match outcome with
          | Some (v, seq) ->
              let e = get_or_make_entry t k ~seq ~present:true in
              cache_value t k e v;
              Some (v, seq)
          | None -> None))

let version t io k =
  match Hashtbl.find_opt t.entries k with
  | Some e ->
      io.nic_mem ();
      if e.present then Some e.seq else None
  | None -> (
      match read t io k with Some (_, seq) -> Some seq | None -> None)

let try_lock t io k ~owner =
  match Hashtbl.find_opt t.entries k with
  | Some e -> (
      match e.lock with
      | Some o when o <> owner ->
          io.nic_mem ();
          `Locked
      | _ ->
          (* Take the lock before charging the NIC-memory latency: the
             charge can suspend, and [evict] would drop a still-unlocked
             entry out of the table mid-grant, leaving this lock on a
             dangling record invisible to later acquirers. A held lock
             pins the entry. *)
          (* xenic-lint: atomic nic-lock-grant *)
          e.lock <- Some owner;
          io.nic_mem ();
          `Acquired e.seq)
  | None -> (
      (* Allocate an index entry; fetch the current version from the
         host so commit can increment it. The DMA suspends, so another
         handler may have allocated (and locked) the entry meanwhile —
         re-check before granting. *)
      let outcome = lookup_dma t io k in
      match Hashtbl.find_opt t.entries k with
      | Some e -> (
          match e.lock with
          | Some o when o <> owner -> `Locked
          | _ ->
              e.lock <- Some owner;
              `Acquired e.seq)
      | None -> (
          match outcome with
          | Some (v, seq) ->
              let e = get_or_make_entry t k ~seq ~present:true in
              e.lock <- Some owner;
              cache_value t k e v;
              `Acquired seq
          | None ->
              let e = get_or_make_entry t k ~seq:0 ~present:false in
              e.lock <- Some owner;
              `Acquired 0))

let unlock t k ~owner =
  match Hashtbl.find_opt t.entries k with
  | Some e ->
      (match e.lock with
      | Some o when o = owner -> e.lock <- None
      | _ -> ());
      (* Drop metadata-only entries once idle; the host version is
         consistent again. *)
      if e.lock = None && e.pins = 0 && e.value = None then
        Hashtbl.remove t.entries k
  | None -> ()

let locked_keys t =
  Hashtbl.fold
    (fun k e acc ->
      match e.lock with Some owner -> (k, owner) :: acc | None -> acc)
    t.entries []
  |> List.sort compare

let is_locked t k =
  match Hashtbl.find_opt t.entries k with
  | Some { lock = Some _; _ } -> true
  | _ -> false

let lock_owner t k =
  match Hashtbl.find_opt t.entries k with Some e -> e.lock | None -> None

let apply_commit t k v =
  let e = get_or_make_entry t k ~seq:0 ~present:true in
  e.seq <- e.seq + 1;
  e.present <- true;
  e.pins <- e.pins + 1;
  cache_value t k e v;
  e.seq

let apply_delete t k =
  let e = get_or_make_entry t k ~seq:0 ~present:true in
  e.seq <- e.seq + 1;
  e.present <- false;
  e.pins <- e.pins + 1;
  (match e.value with
  | Some _ ->
      e.value <- None;
      t.n_cached <- t.n_cached - 1
  | None -> ())

let host_applied t k =
  match Hashtbl.find_opt t.entries k with
  | Some e -> if e.pins > 0 then e.pins <- e.pins - 1
  | None -> ()
