open Xenic_cluster

type txn_id = { coord : int; seq : int }

type view = Keyspace.t -> bytes option

type exec_result =
  | Done of Op.t list
  | More of { read : Keyspace.t list; lock : Keyspace.t list }

type t = {
  read_set : Keyspace.t list;
  write_set : Keyspace.t list;
  exec : view -> exec_result;
  host_exec_ns : float;
  state_bytes : int;
  ship_exec : bool;
}

let make_multishot ?(host_exec_ns = 150.0) ?(state_bytes = 0)
    ?(ship_exec = false) ~read_set ~write_set exec =
  { read_set; write_set; exec; host_exec_ns; state_bytes; ship_exec }

let make ?host_exec_ns ?state_bytes ?ship_exec ~read_set ~write_set exec =
  make_multishot ?host_exec_ns ?state_bytes ?ship_exec ~read_set ~write_set
    (fun view -> Done (exec view))

let validate_set t =
  List.filter (fun k -> not (List.mem k t.write_set)) t.read_set

let shards t =
  List.sort_uniq compare
    (List.map Keyspace.shard (t.read_set @ t.write_set))

let single_shard t = match shards t with [ s ] -> Some s | _ -> None

type outcome = Committed | Aborted

let pp_outcome fmt = function
  | Committed -> Format.pp_print_string fmt "committed"
  | Aborted -> Format.pp_print_string fmt "aborted"
