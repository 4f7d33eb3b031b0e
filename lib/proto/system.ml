open Xenic_cluster

type t = {
  name : string;
  cfg : Config.t;
  engine : Xenic_sim.Engine.t;
  rt : Txn_runtime.t;
  metrics : unit -> Metrics.t;
  ingress_occupancy : node:int -> float;
  sync : unit -> unit;
  load : Keyspace.t -> bytes -> unit;
  seal : unit -> unit;
  run_txn : node:int -> Types.t -> Types.outcome;
  peek : node:int -> Keyspace.t -> bytes option;
  peek_min : node:int -> lo:Keyspace.t -> hi:Keyspace.t -> (Keyspace.t * bytes) option;
  peek_max : node:int -> lo:Keyspace.t -> hi:Keyspace.t -> (Keyspace.t * bytes) option;
  peek_range : node:int -> lo:Keyspace.t -> hi:Keyspace.t -> (Keyspace.t * bytes) list;
  quiesce : unit -> unit;
  set_oracle : Oracle.t -> unit;
  audit : unit -> string list;
  nic_util : unit -> float;
  recover_node : node:int -> unit;
  set_nic_slowdown : node:int -> float -> unit;
  degrade_nic_cores : node:int -> n:int -> dur_ns:float -> unit;
  util_sources : unit -> (string * (unit -> float)) list;
  resources : unit -> (string * Xenic_sim.Resource.t) list;
}

let of_xenic x =
  let rt = Xenic_system.rt x in
  {
    name = rt.stack;
    cfg = rt.cfg;
    engine = rt.engine;
    rt;
    metrics = (fun () -> Txn_runtime.metrics rt);
    ingress_occupancy = Xenic_system.ingress_occupancy x;
    sync = (fun () -> Txn_runtime.sync rt);
    load = Xenic_system.load x;
    seal = (fun () -> Xenic_system.seal x);
    run_txn = Xenic_system.run_txn x;
    peek = Xenic_system.peek x;
    peek_min = Xenic_system.peek_min x;
    peek_max = Xenic_system.peek_max x;
    peek_range = Xenic_system.peek_range x;
    quiesce = (fun () -> Txn_runtime.quiesce rt);
    set_oracle = Txn_runtime.set_oracle rt;
    audit = (fun () -> Xenic_system.audit x);
    nic_util = (fun () -> Xenic_system.nic_core_utilization x);
    recover_node = Xenic_system.recover_node x;
    set_nic_slowdown = Xenic_system.set_nic_slowdown x;
    degrade_nic_cores = Xenic_system.degrade_nic_cores x;
    util_sources = (fun () -> Xenic_system.util_sources x);
    resources = (fun () -> Xenic_system.resources x);
  }

let of_rdma r =
  let rt = Rdma_system.rt r in
  {
    name = rt.stack;
    cfg = rt.cfg;
    engine = rt.engine;
    rt;
    metrics = (fun () -> Txn_runtime.metrics rt);
    ingress_occupancy = Rdma_system.ingress_occupancy r;
    sync = (fun () -> Txn_runtime.sync rt);
    load = Rdma_system.load r;
    seal = (fun () -> Rdma_system.seal r);
    run_txn = Rdma_system.run_txn r;
    peek = Rdma_system.peek r;
    peek_min = Rdma_system.peek_min r;
    peek_max = Rdma_system.peek_max r;
    peek_range = Rdma_system.peek_range r;
    quiesce = (fun () -> Txn_runtime.quiesce rt);
    set_oracle = Txn_runtime.set_oracle rt;
    audit = (fun () -> Rdma_system.audit r);
    nic_util = (fun () -> 0.0);
    recover_node = Rdma_system.recover_node r;
    set_nic_slowdown = Rdma_system.set_nic_slowdown r;
    degrade_nic_cores = Rdma_system.degrade_nic_cores r;
    util_sources = (fun () -> Rdma_system.util_sources r);
    resources = (fun () -> Rdma_system.resources r);
  }
