type 'v slot = {
  mutable occupied : bool;
  mutable key : int;
  mutable disp : int;
  mutable seq : int;
  mutable value : 'v option;
}

type 'v ovf = { o_key : int; mutable o_seq : int; mutable o_value : 'v }

type 'v t = {
  slots : 'v slot array;
  capacity : int;
  n_segments : int;
  seg_size : int;
  d_max : int option;
  vsize : 'v -> int;
  overflow : 'v ovf list array;  (* per segment *)
  seg_bound : int array;  (* monotone max displacement per home segment *)
  mutable size : int;
  mutable ovf_size : int;
}

let create ~segments ~seg_size ~d_max ~vsize =
  if segments <= 0 || seg_size <= 0 then invalid_arg "Robinhood.create";
  (match d_max with
  | Some d when d <= 0 -> invalid_arg "Robinhood.create: d_max must be positive"
  | _ -> ());
  let capacity = segments * seg_size in
  {
    slots =
      Array.init capacity (fun _ ->
          { occupied = false; key = 0; disp = 0; seq = 0; value = None });
    capacity;
    n_segments = segments;
    seg_size;
    d_max;
    vsize;
    overflow = Array.make segments [];
    seg_bound = Array.make segments 0;
    size = 0;
    ovf_size = 0;
  }

let capacity t = t.capacity

let size t = t.size + t.ovf_size

let occupancy t = float_of_int (size t) /. float_of_int t.capacity

let d_max t = t.d_max

let seg_size t = t.seg_size

let segments t = t.n_segments

let home t k = Kv.Key.hash k mod t.capacity

let segment_of_pos t pos = pos / t.seg_size

let seg_disp_bound t seg = t.seg_bound.(seg)

let overflow_count t seg = List.length t.overflow.(seg)

let value_bytes t v = t.vsize v

(* Effective displacement cap used to bound probes. *)
let disp_cap t = match t.d_max with Some d -> d | None -> t.capacity

let bump_bound t ~home_pos ~disp =
  let seg = segment_of_pos t home_pos in
  if disp > t.seg_bound.(seg) then t.seg_bound.(seg) <- disp

type insert_outcome = Inserted | Replaced | Overflowed

(* Probe for an existing key. The scan is bounded by the home segment's
   displacement bound and never stops early at empties or lower
   displacements: deletion's overflow-swap can break the classic
   Robinhood ordering invariants, so only the monotone bound is sound. *)
let find_slot t k =
  let h = home t k in
  let bound = min (seg_disp_bound t (segment_of_pos t h)) (disp_cap t - 1) in
  let rec go i =
    if i > bound then None
    else
      let s = t.slots.((h + i) mod t.capacity) in
      if s.occupied && s.key = k then Some ((h + i) mod t.capacity) else go (i + 1)
  in
  go 0

let find_ovf t k =
  let seg = segment_of_pos t (home t k) in
  List.find_opt (fun o -> o.o_key = k) t.overflow.(seg)

let find t k =
  match find_slot t k with
  | Some pos ->
      let s = t.slots.(pos) in
      Some ((match s.value with Some v -> v | None -> assert false), s.seq)
  | None -> (
      match find_ovf t k with Some o -> Some (o.o_value, o.o_seq) | None -> None)

let mem t k = Option.is_some (find t k)

let locate t k =
  match find_slot t k with
  | Some pos -> Some (`Table t.slots.(pos).disp)
  | None -> ( match find_ovf t k with Some _ -> Some `Overflow | None -> None)

let update t k v ~seq =
  match find_slot t k with
  | Some pos ->
      let s = t.slots.(pos) in
      s.value <- Some v;
      s.seq <- seq;
      true
  | None -> (
      match find_ovf t k with
      | Some o ->
          o.o_value <- v;
          o.o_seq <- seq;
          true
      | None -> false)

(* A pending slot write of the copy-list: place [record] at [pos] with
   displacement [disp]. *)
type 'v move = { m_pos : int; m_key : int; m_seq : int; m_value : 'v; m_disp : int }

let apply_moves ?(on_step = fun () -> ()) t moves =
  (* Moves are accumulated in probe order; applying them from the last
     (the free slot) backward duplicates each displaced element before
     its old slot is overwritten, so a concurrent region read never
     observes a missing element. *)
  List.iter
    (fun m ->
      let s = t.slots.(m.m_pos) in
      s.occupied <- true;
      s.key <- m.m_key;
      s.seq <- m.m_seq;
      s.value <- Some m.m_value;
      s.disp <- m.m_disp;
      let home_pos = (m.m_pos - m.m_disp + t.capacity) mod t.capacity in
      bump_bound t ~home_pos ~disp:m.m_disp;
      on_step ())
    moves

let insert ?on_step t k v =
  match find_slot t k with
  | Some pos ->
      let s = t.slots.(pos) in
      s.value <- Some v;
      s.seq <- s.seq + 1;
      Replaced
  | None -> (
      match find_ovf t k with
      | Some o ->
          o.o_value <- v;
          o.o_seq <- o.o_seq + 1;
          Replaced
      | None ->
          if t.size >= t.capacity then failwith "Robinhood.insert: table full";
          let cap = disp_cap t in
          (* Carry (key, seq, value) along the probe, swapping with
             better-placed residents; collect writes in reverse order so
             the head of [moves] is the last write (free slot first). *)
          let rec probe pos disp ~ck ~cseq ~cv moves =
            if disp >= cap then begin
              (* Displacement limit: the carried element overflows to the
                 bucket of the segment holding its home position. *)
              apply_moves ?on_step t moves;
              let seg = segment_of_pos t (home t ck) in
              t.overflow.(seg) <-
                { o_key = ck; o_seq = cseq; o_value = cv } :: t.overflow.(seg);
              t.ovf_size <- t.ovf_size + 1;
              Overflowed
            end
            else
              let s = t.slots.(pos) in
              if not s.occupied then begin
                apply_moves ?on_step t
                  ({ m_pos = pos; m_key = ck; m_seq = cseq; m_value = cv;
                     m_disp = disp }
                  :: moves);
                t.size <- t.size + 1;
                Inserted
              end
              else if s.disp < disp then begin
                (* Steal the slot; continue carrying the displaced
                   resident from here. *)
                let moves =
                  { m_pos = pos; m_key = ck; m_seq = cseq; m_value = cv;
                    m_disp = disp }
                  :: moves
                in
                let nk = s.key
                and nseq = s.seq
                and nv = match s.value with Some v -> v | None -> assert false in
                probe ((pos + 1) mod t.capacity) (s.disp + 1) ~ck:nk ~cseq:nseq
                  ~cv:nv moves
              end
              else probe ((pos + 1) mod t.capacity) (disp + 1) ~ck ~cseq ~cv moves
          in
          probe (home t k) 0 ~ck:k ~cseq:1 ~cv:v [])

(* Is every slot in [from, to) occupied (circularly)? Required before an
   overflow element may be swapped over a deleted slot: its probe path
   must stay contiguous. *)
let path_occupied t ~from ~upto =
  let rec go pos =
    if pos = upto then true
    else if not t.slots.(pos).occupied then false
    else go ((pos + 1) mod t.capacity)
  in
  from = upto || go from

let delete t k =
  match find_slot t k with
  | None -> (
      let seg = segment_of_pos t (home t k) in
      match List.partition (fun o -> o.o_key = k) t.overflow.(seg) with
      | [], _ -> false
      | _ :: _, rest ->
          t.overflow.(seg) <- rest;
          t.ovf_size <- t.ovf_size - 1;
          true)
  | Some pos ->
      let deleted = t.slots.(pos) in
      let hd = (pos - deleted.disp + t.capacity) mod t.capacity in
      let seg = segment_of_pos t hd in
      let cap = disp_cap t in
      (* Prefer swapping an overflow element of the same segment over the
         hole (paper §4.1.2); it must fit under the displacement limit,
         not land before its own home, and keep its probe path
         contiguous. *)
      let candidate =
        List.find_opt
          (fun o ->
            let ho = home t o.o_key in
            let d = (pos - ho + t.capacity) mod t.capacity in
            d < cap && d <= deleted.disp
            && path_occupied t ~from:ho ~upto:pos)
          t.overflow.(seg)
      in
      (match candidate with
      | Some o ->
          let ho = home t o.o_key in
          let d = (pos - ho + t.capacity) mod t.capacity in
          deleted.key <- o.o_key;
          deleted.seq <- o.o_seq;
          deleted.value <- Some o.o_value;
          deleted.disp <- d;
          t.overflow.(seg) <- List.filter (fun x -> x != o) t.overflow.(seg);
          t.ovf_size <- t.ovf_size - 1;
          t.size <- t.size + 1 (* net: table +1, overflow -1; deleted -1 below *)
      | None ->
          (* Backward shift: pull successors one slot closer until an
             empty slot or a perfectly-placed element ends the run. *)
          let rec shift hole =
            let next = (hole + 1) mod t.capacity in
            let s = t.slots.(next) in
            if s.occupied && s.disp > 0 then begin
              let h = t.slots.(hole) in
              h.occupied <- true;
              h.key <- s.key;
              h.seq <- s.seq;
              h.value <- s.value;
              h.disp <- s.disp - 1;
              shift next
            end
            else begin
              let h = t.slots.(hole) in
              h.occupied <- false;
              h.value <- None
            end
          in
          deleted.occupied <- false;
          deleted.value <- None;
          shift pos);
      t.size <- t.size - 1;
      true

type scan_result =
  | Hit of { disp : int; seq : int; out_of_line : bool }
  | Miss_empty of int
  | Miss_exhausted

let scan t k ~from_disp ~slots =
  let h = home t k in
  let rec go i read =
    if read >= slots then Miss_exhausted
    else
      let s = t.slots.((h + i) mod t.capacity) in
      if not s.occupied then Miss_empty (read + 1)
      else if s.key = k then
        let out_of_line =
          match s.value with
          | Some v -> t.vsize v > Kv.inline_max
          | None -> false
        in
        Hit { disp = i; seq = s.seq; out_of_line }
      else go (i + 1) (read + 1)
  in
  go from_disp 0

let value_at t k ~disp =
  let h = home t k in
  let s = t.slots.((h + disp) mod t.capacity) in
  if s.occupied && s.key = k then
    Some ((match s.value with Some v -> v | None -> assert false), s.seq)
  else None

let region_bytes t k ~from_disp ~slots =
  let h = home t k in
  let total = ref 0 in
  for i = from_disp to from_disp + slots - 1 do
    let s = t.slots.((h + i) mod t.capacity) in
    let value_b =
      match s.value with Some v when s.occupied -> t.vsize v | _ -> 0
    in
    total := !total + Kv.slot_bytes ~value_b
  done;
  !total

let overflow_bytes t k =
  let seg = segment_of_pos t (home t k) in
  List.fold_left
    (fun acc o -> acc + Kv.slot_bytes ~value_b:(t.vsize o.o_value))
    0 t.overflow.(seg)

let find_overflow t k =
  let seg = segment_of_pos t (home t k) in
  let bucket = t.overflow.(seg) in
  let n = List.length bucket in
  match List.find_opt (fun o -> o.o_key = k) bucket with
  | Some o -> (Some (o.o_value, o.o_seq), n)
  | None -> (None, n)

let iter t f =
  Array.iter
    (fun s ->
      if s.occupied then
        f s.key (match s.value with Some v -> v | None -> assert false) s.seq)
    t.slots;
  Array.iter (fun l -> List.iter (fun o -> f o.o_key o.o_value o.o_seq) l) t.overflow

let iter_home_disp t f =
  Array.iteri
    (fun pos s ->
      if s.occupied then
        f ~home:((pos - s.disp + t.capacity) mod t.capacity) ~disp:s.disp)
    t.slots
