(* restart: set-up builds a flat Lld image with a seeded ARU load — a
   full checkpoint, a delta generation over it, a log tail of tens of
   segments past the delta, and a few ARUs still open at the crash.
   Each op recovers a fresh copy of that crash image with [Lld.recover]
   (eager). *)

open Common
module Lld = Lld_core.Lld
module Types = Lld_core.Types
module Summary = Lld_core.Summary
module Recovery = Lld_core.Recovery
module Checkpoint = Lld_core.Checkpoint
module Disk = Lld_disk.Disk
module Geometry = Lld_disk.Geometry
module Backend = Lld_disk.Backend
module Vec = Lld_util.Vec

let segments = 128
let geom = Geometry.v ~num_segments:segments ()
let lists = 64
(* above checkpoint_dirty_threshold, so the first checkpoint is full;
   the seed adds up to 100 *)
let base_blocks = 4_950
let delta_writes = 1_000

(* ~6 block writes each: tens of segments of tail; the seed adds up to
   32, so the tail length (and the replay's virtual time) varies by
   about a segment *)
let tail_arus = 690
let open_arus = 3
let recoveries_per_round = 5
let ref_rounds = 4
let block_bytes = 4096

type image = {
  image : Blk.t;  (* the crash image *)
  committed : (int, int) Hashtbl.t;  (* block -> version it must read back *)
  doomed : int list;  (* blocks only open ARUs allocated: must be gone *)
  load_payload : int;  (* client payload bytes the load wrote *)
  load_device : int;  (* device bytes the load wrote *)
}

let setup ~seed () =
  let clock = Clock.create () in
  let disk = Disk.create ~clock geom ~backend:(Backend.mem ~size:(Geometry.total_bytes geom)) in
  let t = Lld.create ~config:Pinned.config ~obs:Lld_obs.Obs.null disk in
  let rng = Rng.create ~seed in
  let committed = Hashtbl.create 8192 in
  let payload_bytes = ref 0 in
  let ls = Array.init lists (fun _ -> Lld.new_list t ()) in
  let members = Array.make lists [] in
  let all = Vec.create () in
  let ver = ref 0 in
  let write ?aru b =
    incr ver;
    let g = Types.Block_id.to_int b in
    Lld.write t ?aru b (payload ~len:block_bytes ~tag:g ~version:!ver);
    payload_bytes := !payload_bytes + block_bytes;
    !ver
  in
  (* phase 1: allocate and fill the base population in ARUs of 10 *)
  let pending = ref [] in
  let base_blocks = base_blocks + Rng.int rng 101 in
  for i = 1 to base_blocks do
    if i mod 10 = 1 then pending := [];
    let li = Rng.int rng lists in
    let pred = match members.(li) with [] -> Summary.Head | b :: _ -> Summary.After b in
    let b = Lld.new_block t ~list:ls.(li) ~pred () in
    members.(li) <- b :: members.(li);
    Vec.push all b;
    pending := b :: !pending;
    if i mod 10 = 0 || i = base_blocks then
      Lld.with_aru t (fun aru ->
          List.iter
            (fun b -> Hashtbl.replace committed (Types.Block_id.to_int b) (write ~aru b))
            !pending)
  done;
  Lld.checkpoint t;
  let pick () = Vec.get all (Rng.int rng (Vec.length all)) in
  (* phase 2: rewrites, then a delta checkpoint *)
  for _ = 1 to delta_writes / 5 do
    Lld.with_aru t (fun aru ->
        for _ = 1 to 5 do
          let b = pick () in
          Hashtbl.replace committed (Types.Block_id.to_int b) (write ~aru b)
        done)
  done;
  Lld.checkpoint t;
  (* phase 3: the log tail — ARUs rewriting 4-6 blocks and allocating one *)
  for _ = 1 to tail_arus + Rng.int rng 33 do
    Lld.with_aru t (fun aru ->
        let li = Rng.int rng lists in
        let nb = Lld.new_block t ~aru ~list:ls.(li) ~pred:Summary.Head () in
        let w = write ~aru nb in
        Hashtbl.replace committed (Types.Block_id.to_int nb) w;
        for _ = 1 to 4 + Rng.int rng 3 do
          let b = pick () in
          Hashtbl.replace committed (Types.Block_id.to_int b) (write ~aru b)
        done;
        Vec.push all nb)
  done;
  (* phase 4: ARUs left open at the crash; their allocations reach the
     log through the simple writes and flush that follow *)
  let doomed = ref [] in
  for _ = 1 to open_arus do
    let aru = Lld.begin_aru t in
    let li = Rng.int rng lists in
    let nb = Lld.new_block t ~aru ~list:ls.(li) ~pred:Summary.Head () in
    ignore (write ~aru nb : int);
    ignore (write ~aru (pick ()) : int);
    doomed := Types.Block_id.to_int nb :: !doomed
  done;
  for _ = 1 to 20 do
    let b = pick () in
    Hashtbl.replace committed (Types.Block_id.to_int b) (write b)
  done;
  Lld.flush t;
  let c = Lld.counters t in
  check (c.Lld_core.Counters.segments_cleaned = 0) "restart set-up: the cleaner ran";
  (match Checkpoint.read_best disk with
  | Some { Checkpoint.best_snap = { Checkpoint.kind = Checkpoint.Delta _; _ }; _ } -> ()
  | _ -> check false "restart set-up: the newest checkpoint is not a delta");
  let image = Disk.snapshot_view disk in
  let load_device = (Disk.counters disk).Disk.bytes_written in
  Disk.close disk;
  {
    image;
    committed;
    doomed = !doomed;
    load_payload = !payload_bytes;
    load_device;
  }

(* A device holding a fresh copy of the image, reused op after op. *)
let fresh_disk ?(wrap = Fun.id) img =
  let clock = Clock.create () in
  let backend = wrap (Backend.mem ~size:(Geometry.total_bytes geom)) in
  let d = Disk.create ~clock ~backend geom in
  Disk.restore_view d img.image;
  d

let reload d img =
  Disk.restore_view d img.image;
  Disk.reset_counters d

let recover d = Lld.recover ~config:Pinned.config ~obs:Lld_obs.Obs.null d

(* Every committed ARU's payload reads back, no open ARU's effect is
   visible, and the recovery invariants hold. *)
let check_recovered t img =
  (match Lld.recovery_invariant_errors t with
  | [] -> ()
  | e :: _ -> check false "recovery invariant: %s" e);
  List.iter
    (fun b ->
      check
        (not (Lld.block_allocated t (Types.Block_id.of_int b)))
        "block %d of an open ARU survived recovery" b)
    img.doomed;
  Hashtbl.iter
    (fun b v ->
      let d = Lld.read t (Types.Block_id.of_int b) in
      check
        (Bytes.equal d (payload ~len:block_bytes ~tag:b ~version:v))
        "block %d does not read back committed version %d" b v)
    img.committed

let live_payload img = Hashtbl.length img.committed * block_bytes

(* ---------------------------------------------------------------- *)
(* The untraced run                                                    *)

let untraced ~seed ~seconds =
  let img, setup_s, _ = timed_setups ~k:3 (fun () -> setup ~seed ()) in
  let d = fresh_disk img in
  let lat = Samples.create () in
  let first = ref None in
  let at_ref_vals = ref [] in
  let busy = ref 0 in
  let virt = ref 0 and rec_dev = ref 0 in
  let last = ref None in
  let one () =
    reload d img;
    let c0 = Clock.now_ns (Disk.clock d) in
    let (t, report), ns = time_ns (fun () -> recover d) in
    Samples.add lat ns;
    busy := !busy + ns;
    virt := Clock.now_ns (Disk.clock d) - c0;
    rec_dev := (Disk.counters d).Disk.bytes_written;
    (match !first with
    | None ->
      check_recovered t img;
      first := Some report
    | Some r -> check (r = report) "recoveries of one image reported differently");
    last := Some t
  in
  let round _ =
    for _ = 1 to recoveries_per_round do
      one ()
    done
  in
  let at_ref () =
    let n = ref_rounds * recoveries_per_round in
    let t = Option.get !last in
    at_ref_vals :=
      [
        m "virt_op_per_s" "1/s" (1e9 /. float_of_int !virt);
        m "write_amp" "B/B"
          (float_of_int (img.load_device + (n * !rec_dev))
          /. float_of_int img.load_payload);
        m "space_amp" "B/B"
          (float_of_int (Lld.sealed_segments t * geom.Geometry.segment_bytes)
          /. float_of_int (live_payload img));
      ]
  in
  let rounds, _ = run_rounds ~seconds ~ref_rounds ~round ~at_ref () in
  let rss = max_rss_mb () in
  check_recovered (Option.get !last) img;
  let ops = rounds * recoveries_per_round in
  let lm, note = latency_metrics lat in
  ( ops,
    [
      m "setup_s" "s" setup_s;
      m "op_per_s" "1/s" (float_of_int ops /. s_of_ns !busy);
    ]
    @ lm @ !at_ref_vals
    @ [ m "max_rss_mb" "MB" rss ],
    [ note; "op_per_s counts recovery time only (image copies excluded)" ] )
