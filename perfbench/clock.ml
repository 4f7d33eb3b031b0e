(* Host-time measurement for the benchmark: the one wall-clock read and
   an in-memory span recorder exported as Chrome trace_event JSON.

   Clock readings only ever flow into the benchmark's own accumulators
   and span list — never into a simulated component. *)

(* Seconds since the epoch. Every host timer in the benchmark goes
   through this function. *)
let now () = Unix.gettimeofday () (* xenic-lint: allow WALL-CLOCK timer:perfbench-host *)

(* [time f] runs [f] and returns its result with the elapsed seconds. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* -- Calibration -------------------------------------------------------- *)

(* A fixed piece of OCaml work shaped like the simulator's own (small
   allocations, hash-table updates, float arithmetic). It touches no
   repository code, so only the host's speed changes its time. *)
let kernel () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0.0 in
  for i = 0 to 300_000 do
    let k = i * 7919 land 8191 in
    (match Hashtbl.find_opt h k with
    | Some (x, l) ->
        Hashtbl.replace h k (x +. 1.0, if List.length l > 3 then [ i ] else i :: l)
    | None -> Hashtbl.add h k (float_of_int i, [ i ]));
    acc := !acc +. sqrt (float_of_int k)
  done;
  ignore (Sys.opaque_identity !acc)

(* The kernel's time on the reference host (a 2-vCPU virtual machine,
   OCaml 5.1.1) in its usual state. Calibrated figures are host seconds
   scaled by [kernel_ref_s / measured kernel time], i.e. seconds on the
   reference host. *)
let kernel_ref_s = 0.040

(* Seconds the kernel takes now. *)
let calibrate () = snd (time kernel)

(* -- Spans ------------------------------------------------------------ *)

type span = {
  cat : string;
  name : string;
  tid : int;  (* track: 1 = benchmark phases, 2 = generate, 10+ = GC per domain *)
  ts : float;  (* start, seconds since the epoch *)
  dur : float;  (* seconds *)
  args : (string * string) list;
}

type recorder = {
  lock : Mutex.t;  (* generate spans arrive from every engine domain *)
  mutable spans : span list;  (* newest first *)
  mutable kept : int;
  mutable dropped : int;
}

(* Spans kept in memory; later ones are only counted. *)
let limit = 50_000

let recorder () = { lock = Mutex.create (); spans = []; kept = 0; dropped = 0 }

let add r s =
  Mutex.protect r.lock (fun () ->
      if r.kept < limit then begin
        r.spans <- s :: r.spans;
        r.kept <- r.kept + 1
      end
      else r.dropped <- r.dropped + 1)

(* [span r ~cat ~name f] runs [f] inside a recorded span on track 1. *)
let span r ~cat ~name f =
  let t0 = now () in
  let v = f () in
  add r { cat; name; tid = 1; ts = t0; dur = now () -. t0; args = [] };
  v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace_event JSON (open in chrome://tracing or ui.perfetto.dev).
   Timestamps are microseconds relative to the earliest span. *)
let write_chrome r path =
  let spans = List.rev r.spans in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.ts) infinity spans in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      let args =
        String.concat ","
          (List.map (fun (k, v) -> json_string k ^ ":" ^ json_string v) s.args)
      in
      Printf.fprintf oc
        "%s{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\
         \"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}"
        (if i = 0 then "" else ",\n")
        (json_string s.name) (json_string s.cat) s.tid
        ((s.ts -. t0) *. 1e6)
        (s.dur *. 1e6) args)
    spans;
  Printf.fprintf oc "\n],\"otherData\":{\"dropped_spans\":%d}}\n" r.dropped;
  close_out oc
