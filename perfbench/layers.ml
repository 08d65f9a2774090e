(* The traced run: per-layer metrics.  The workload runs again from a
   fresh set-up, this time through the timing wrappers (the LD
   interface under [Fs_generic.Make] / [Engine.Make], the backend
   record), with direct calls to [Recovery.prepare] / [Recovery.finish]
   on restart, and the layer kernels timed on the workload's own disk.
   Counts come from the program's counters, diffed over the traced
   phase.  Every workload reports every metric; a layer a workload does
   not reach reads 0. *)

open Common
module Lld = Lld_core.Lld
module Counters = Lld_core.Counters
module Recovery = Lld_core.Recovery
module Disk = Lld_disk.Disk
module Backend = Lld_disk.Backend
module Geometry = Lld_disk.Geometry

(* name, unit — the order the metrics are printed in *)
let names =
  [
    ("fs.self_us", "us");
    ("fs.ld_calls_per_op", "count");
    ("fs.ld_bytes_per_op", "B");
    ("lld.read_us", "us");
    ("lld.write_us", "us");
    ("lld.end_aru_us", "us");
    ("lld.bytes_copied_per_op", "B");
    ("lld.copy_elisions_per_op", "count");
    ("lld.mesh_hops_per_op", "count");
    ("lld.pred_search_hops_per_op", "count");
    ("lru.hit_ratio", "ratio");
    ("lru.misses_per_op", "count");
    ("lru.readaheads_per_op", "count");
    ("lru.find_ns", "ns");
    ("lru.add_ns", "ns");
    ("segment.seals_per_op", "count");
    ("segment.fill_ratio", "ratio");
    ("segment.seal_us", "us");
    ("segment.verify_us", "us");
    ("blk.crc32c_ns_per_kb", "ns/KB");
    ("blk.copy_ns_per_kb", "ns/KB");
    ("summary.encode_ns", "ns");
    ("summary.decode_ns", "ns");
    ("summary.entries_per_op", "count");
    ("commit.flush_us", "us");
    ("commit.barriers_per_commit", "count");
    ("commit.mean_batch", "count");
    ("engine.forced_flushes_per_flush", "ratio");
    ("shard.cross_commits_per_op", "ratio");
    ("shard.prepare_barriers_per_cross", "count");
    ("shard.cross_commit_us", "us");
    ("shard.local_commit_us", "us");
    ("clean.segments_per_op", "count");
    ("clean.copies_per_user_block", "ratio");
    ("clean.disk_reads_per_op", "count");
    ("clean.cache_hit_ratio", "ratio");
    ("clean.victim_scans_per_pick", "count");
    ("clean.stall_us", "us");
    ("recovery.prepare_us", "us");
    ("recovery.finish_us", "us");
    ("recovery.checkpoint_us", "us");
    ("recovery.segments_replayed", "count");
    ("recovery.segments_skipped", "count");
    ("recovery.replay_groups", "count");
    ("recovery.disk_reads", "count");
    ("checkpoint.decode_us", "us");
    ("checkpoint.bytes", "B");
    ("checkpoint.writes_per_op", "count");
    ("disk.writes_per_op", "count");
    ("disk.write_bytes_per_op", "B");
    ("disk.reads_per_op", "count");
    ("disk.read_bytes_per_op", "B");
    ("disk.barriers_per_op", "count");
    ("backend.write_us", "us");
    ("backend.read_us", "us");
    ("gc.minor_words_per_op", "words");
    ("gc.major_words_per_op", "words");
    ("gc.major_collections", "count");
    ("trace.op_per_s", "1/s");
    ("trace.overhead_pct", "%");
  ]

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* The figures every workload contributes the same way. *)
type phase = {
  ops : int;
  ns : int;  (* wall time of the traced phase *)
  counters : Counters.t;  (* diff over the phase *)
  disks : Disk.counters;  (* summed over the phase *)
  user_blocks : float;  (* client blocks written in the phase *)
  gc0 : Gc.stat;
  gc1 : Gc.stat;
}

let sum_disks ds =
  List.fold_left
    (fun (a : Disk.counters) (c : Disk.counters) ->
      {
        Disk.writes = a.Disk.writes + c.Disk.writes;
        reads = a.reads + c.reads;
        bytes_written = a.bytes_written + c.bytes_written;
        bytes_read = a.bytes_read + c.bytes_read;
      })
    { Disk.writes = 0; reads = 0; bytes_written = 0; bytes_read = 0 }
    ds

let counters_diff ~base c =
  let d = Counters.create () in
  List.iter2
    (fun (_, get, set) (_, v) -> ignore get; set d v)
    Counters.fields (Counters.diff ~base c);
  d

let common p ~base_op_per_s ~geom =
  let c = p.counters in
  let ops = fi (max 1 p.ops) in
  let per x = fi x /. ops in
  let bps = fi (Geometry.blocks_per_segment geom) in
  let op_per_s = fi p.ops /. s_of_ns p.ns in
  [
    ("lld.bytes_copied_per_op", per c.Counters.bytes_copied);
    ("lld.copy_elisions_per_op", per c.copy_elisions);
    ("lld.mesh_hops_per_op", per c.mesh_hops);
    ("lld.pred_search_hops_per_op", per c.pred_search_hops);
    ("lru.hit_ratio", ratio (fi c.cache_hits) (fi (c.cache_hits + c.cache_misses)));
    ("lru.misses_per_op", per c.cache_misses);
    ("lru.readaheads_per_op", per c.readaheads);
    ("segment.seals_per_op", per c.segments_written);
    ( "segment.fill_ratio",
      ratio (fi Timed.counts.seg_slots) (fi Timed.counts.seg_writes *. bps) );
    ("summary.entries_per_op", per c.summary_entries);
    ("commit.barriers_per_commit", ratio (fi c.commit_barriers) (fi c.arus_committed));
    ("commit.mean_batch", ratio (fi c.group_commits) (fi c.commit_batches));
    ("shard.cross_commits_per_op", per c.cross_shard_commits);
    ( "shard.prepare_barriers_per_cross",
      ratio (fi c.prepare_barriers) (fi c.cross_shard_commits) );
    ("clean.segments_per_op", per c.segments_cleaned);
    ("clean.copies_per_user_block", ratio (fi c.blocks_copied_clean) p.user_blocks);
    ("clean.disk_reads_per_op", per c.clean_disk_reads);
    ("clean.cache_hit_ratio", ratio (fi c.clean_cache_hits) (fi c.blocks_copied_clean));
    ("clean.victim_scans_per_pick", ratio (fi c.victim_scans) (fi c.clean_picks));
    ("checkpoint.writes_per_op", per c.checkpoints);
    ("disk.writes_per_op", per p.disks.Disk.writes);
    ("disk.write_bytes_per_op", per p.disks.Disk.bytes_written);
    ("disk.reads_per_op", per p.disks.Disk.reads);
    ("disk.read_bytes_per_op", per p.disks.Disk.bytes_read);
    ("disk.barriers_per_op", per Timed.counts.barriers);
    ("backend.write_us", Tracer.median_us Timed.k_bwrite);
    ("backend.read_us", Tracer.median_us Timed.k_bread);
    ("lld.read_us", Tracer.median_us Timed.k_read);
    ("lld.write_us", Tracer.median_us Timed.k_write);
    ( "lld.end_aru_us",
      (* the commit call: end_aru, or submit_commit under group commit *)
      if Timed.k_end.Tracer.calls > 0 then Tracer.median_us Timed.k_end
      else Tracer.median_us Timed.k_submit );
    ("commit.flush_us", Tracer.median_us Timed.k_flush_commits);
    ( "gc.minor_words_per_op",
      (p.gc1.Gc.minor_words -. p.gc0.Gc.minor_words) /. ops );
    ( "gc.major_words_per_op",
      (p.gc1.Gc.major_words -. p.gc0.Gc.major_words) /. ops );
    ("gc.major_collections", fi (p.gc1.Gc.major_collections - p.gc0.Gc.major_collections));
    ("trace.op_per_s", op_per_s);
    ("trace.overhead_pct", 100. *. (ratio base_op_per_s op_per_s -. 1.));
  ]

(* Assemble the full metric list: every name, 0 where not measured. *)
let finish ~ops ~notes values =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (n, v) -> Hashtbl.replace tbl n v) values;
  let metrics =
    List.map
      (fun (n, u) -> m n u (Option.value (Hashtbl.find_opt tbl n) ~default:0.))
      names
  in
  Tracer.disable ();
  let path = Filename.concat ".perfbench" "spans.json" in
  (try
     if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
     Tracer.write_file path
   with Sys_error e -> prerr_endline ("could not write spans: " ^ e));
  ( ops,
    metrics,
    notes @ ("self time per layer (traced phase):" :: Tracer.layer_lines ())
    @ [ "spans written to " ^ path ] )

let start () =
  Gc.full_major ();
  Tracer.enable ();
  Timed.reset_counts ();
  Timed.ld_bytes := 0;
  Gc.quick_stat ()

let traced_backend geom ~size = Timed.backend ~geom (Backend.mem ~size)

(* ---------------------------------------------------------------- *)
(* fs-churn                                                            *)

let k_fs = Tracer.key "fs" "op"

module Timed_lld = Timed.Make (Lld)
module Traced_minix = Lld_minixfs.Fs_generic.Make (Timed_lld)

module Traced_fs = struct
  module I = Traced_minix.Fs_impl
  include I

  let mkfs l = I.mkfs ~config:I.config_new ~inode_count:Fs_churn.inode_count l

  let timed f =
    incr Tracer.current_op;
    time_ns (fun () -> Tracer.span k_fs f)
end

module TF = Fs_churn.Make (Traced_fs)

let fs_churn ~seed ~seconds ~base_op_per_s =
  let st, fs = TF.setup ~backend:(traced_backend Fs_churn.geom) ~seed () in
  let c0 = Counters.copy (Lld.counters st.Fs_churn.lld) in
  Disk.reset_counters st.disk;
  let pw0 = st.payload_written in
  let gc0 = start () in
  let more () = Lld.free_segments st.lld > Fs_churn.free_floor in
  let rounds, ns =
    run_rounds ~more ~seconds ~ref_rounds:1
      ~round:(fun _ -> TF.round st fs ignore)
      ~at_ref:ignore ()
  in
  let gc1 = Gc.quick_stat () in
  Tracer.disable ();
  let ops = rounds * Fs_churn.ops_per_round in
  let p =
    {
      ops;
      ns;
      counters = counters_diff ~base:c0 (Lld.counters st.lld);
      disks = Disk.counters st.disk;
      user_blocks = fi (st.payload_written - pw0) /. 4096.;
      gc0;
      gc1;
    }
  in
  let k = Kernels.measure st.disk in
  finish ~ops ~notes:[]
    (common p ~base_op_per_s ~geom:Fs_churn.geom
    @ List.map (fun x -> (x.name, x.value)) (Kernels.metrics k)
    @ [
        ("fs.self_us", Tracer.median_self_us k_fs);
        ("fs.ld_calls_per_op", fi (Timed.ld_calls ()) /. fi ops);
        ("fs.ld_bytes_per_op", fi !Timed.ld_bytes /. fi ops);
      ])

(* ---------------------------------------------------------------- *)
(* ld-commit                                                           *)

module TE = Lld_core.Engine.Make (Timed.Make_engine (Lld_core.Shard))

let ld_commit ~seed ~seconds ~base_op_per_s =
  let open Ld_commit in
  let st = setup ~backend:(traced_backend geom) ~seed () in
  let c0 = Shard.total_counters st.t in
  Array.iter Disk.reset_counters st.disks;
  let cross_lat = Samples.create () and local_lat = Samples.create () in
  let probe =
    {
      on_begin = (fun _ -> incr Tracer.current_op);
      on_ack =
        (fun _ ~cross ~submit_ns ->
          Samples.add (if cross then cross_lat else local_lat) (now_ns () - submit_ns));
    }
  in
  let gc0 = start () in
  let stats, _, ns =
    rounds ~probe ~engine:TE.run st ~seed ~seconds ~ref_rounds:1 ~at_ref:ignore
  in
  let gc1 = Gc.quick_stat () in
  Tracer.disable ();
  (match stats.errors with
  | [] -> ()
  | e :: _ -> check false "traced phase: %s" e);
  let p =
    {
      ops = stats.arus;
      ns;
      counters = counters_diff ~base:c0 (Shard.total_counters st.t);
      disks = sum_disks (Array.to_list (Array.map Disk.counters st.disks));
      user_blocks = fi (stats.arus * 4);
      gc0;
      gc1;
    }
  in
  let k = Kernels.measure st.disks.(0) in
  finish ~ops:stats.arus ~notes:[]
    (common p ~base_op_per_s ~geom
    @ List.map (fun x -> (x.name, x.value)) (Kernels.metrics k)
    @ [
        ( "engine.forced_flushes_per_flush",
          ratio (fi stats.forced) (fi stats.flushes) );
        ("shard.cross_commit_us", median_us cross_lat);
        ("shard.local_commit_us", median_us local_lat);
        ("clean.stall_us", median_us stats.clean_ns);
      ])

(* ---------------------------------------------------------------- *)
(* restart                                                             *)

let k_prepare = Tracer.key "recovery" "prepare"
let k_finish = Tracer.key "recovery" "finish"
let k_recover = Tracer.key "recovery" "lld_recover"

let restart ~seed ~seconds ~base_op_per_s =
  let open Restart in
  let img = setup ~seed () in
  let d = fresh_disk ~wrap:(Timed.backend ~geom) img in
  let gc0 = start () in
  let report = ref None and last = ref None in
  let reads = ref 0 and read_bytes = ref 0 and writes = ref 0 and wbytes = ref 0 in
  let busy = ref 0 in
  let tally () =
    let c = Disk.counters d in
    reads := !reads + c.Disk.reads;
    read_bytes := !read_bytes + c.Disk.bytes_read;
    writes := !writes + c.Disk.writes;
    wbytes := !wbytes + c.Disk.bytes_written
  in
  let one () =
    (* the two halves of recovery, called directly (not counted as an op) *)
    reload d img;
    incr Tracer.current_op;
    let pending =
      Tracer.span k_prepare (fun () ->
          Recovery.prepare ~sweep:true ~parallel:false d)
    in
    let r = Tracer.span k_finish (fun () -> Recovery.finish pending) in
    ignore (Sys.opaque_identity r);
    (* the op: a whole [Lld.recover] *)
    reload d img;
    Timed.reset_counts ();
    incr Tracer.current_op;
    let (t, rep), ns = time_ns (fun () -> Tracer.span k_recover (fun () -> recover d)) in
    busy := !busy + ns;
    tally ();
    report := Some rep;
    last := Some t
  in
  let barriers = ref 0 in
  let round _ =
    for _ = 1 to recoveries_per_round do
      one ();
      barriers := !barriers + Timed.counts.barriers
    done
  in
  let rounds, _ = run_rounds ~seconds ~ref_rounds:1 ~round ~at_ref:ignore () in
  let gc1 = Gc.quick_stat () in
  Tracer.disable ();
  let ops = rounds * recoveries_per_round in
  let t = Option.get !last and rep = Option.get !report in
  let counters = Counters.copy (Lld.counters t) in
  check_recovered t img;
  (* every recovery starts a fresh instance: its counters are one op's *)
  let scale = fi ops in
  let p =
    {
      ops;
      ns = !busy;
      counters;
      disks =
        { Disk.writes = !writes; reads = !reads; bytes_written = !wbytes; bytes_read = !read_bytes };
      user_blocks = 0.;
      gc0;
      gc1;
    }
  in
  Timed.counts.barriers <- !barriers;
  let k = Kernels.measure d in
  let prepare_us = Tracer.median_us k_prepare and finish_us = Tracer.median_us k_finish in
  let values =
    common p ~base_op_per_s ~geom
    |> List.map (fun (n, v) ->
           (* counters are per instance (= per op) here, not phase totals *)
           if
             List.mem n
               [
                 "lld.bytes_copied_per_op"; "lld.copy_elisions_per_op";
                 "lld.mesh_hops_per_op"; "lld.pred_search_hops_per_op";
                 "lru.misses_per_op"; "lru.readaheads_per_op";
                 "segment.seals_per_op"; "summary.entries_per_op";
                 "clean.segments_per_op"; "clean.disk_reads_per_op";
                 "checkpoint.writes_per_op";
               ]
           then (n, v *. scale)
           else (n, v))
  in
  finish ~ops ~notes:[]
    (values
    @ List.map (fun x -> (x.name, x.value)) (Kernels.metrics k)
    @ [
        ("recovery.prepare_us", prepare_us);
        ("recovery.finish_us", finish_us);
        ( "recovery.checkpoint_us",
          Tracer.median_us k_recover -. prepare_us -. finish_us );
        ("recovery.segments_replayed", fi rep.Recovery.segments_replayed);
        ("recovery.segments_skipped", fi rep.Recovery.segments_skipped);
        ("recovery.replay_groups", fi rep.Recovery.replay_groups);
        ("recovery.disk_reads", fi rep.Recovery.disk_reads);
      ])
