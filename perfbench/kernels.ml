(* Layer kernels timed on inputs shaped like each workload's: the
   newest sealed segment of the workload's own disk (its slots, its
   summary entries), the checkpoint the disk holds, and the LRU at the
   pinned cache size.  Each figure is the median of [reps] timed
   repetitions. *)

open Common
module Segment = Lld_core.Segment
module Summary = Lld_core.Summary
module Checkpoint = Lld_core.Checkpoint
module Disk = Lld_disk.Disk
module Geometry = Lld_disk.Geometry

let reps = 31

let median_ns f =
  let xs =
    List.init reps (fun _ ->
        let ns = f () in
        float_of_int ns)
  in
  median_float xs

(* The sealed segment with the highest sequence number on [disk]. *)
let newest_segment disk =
  let geom = Disk.geometry disk in
  let best = ref None in
  for idx = Lld_core.Disk_layout.log_first geom to geom.Geometry.num_segments - 1 do
    let image =
      Disk.read_view disk
        ~offset:(Geometry.segment_offset geom idx)
        ~length:geom.Geometry.segment_bytes
    in
    match Segment.parse geom image with
    | Some p -> (
      match !best with
      | Some (_, q) when q.Segment.p_seq >= p.Segment.p_seq -> ()
      | _ -> best := Some (idx, p))
    | None -> ()
  done;
  !best

type shape = {
  seal_us : float;
  verify_us : float;
  crc32c_ns_per_kb : float;
  copy_ns_per_kb : float;
  encode_ns : float;
  decode_ns : float;
  ckpt_decode_us : float;
  ckpt_bytes : float;
  lru_find_ns : float;
  lru_add_ns : float;
}

let zero =
  {
    seal_us = 0.;
    verify_us = 0.;
    crc32c_ns_per_kb = 0.;
    copy_ns_per_kb = 0.;
    encode_ns = 0.;
    decode_ns = 0.;
    ckpt_decode_us = 0.;
    ckpt_bytes = 0.;
    lru_find_ns = 0.;
    lru_add_ns = 0.;
  }

(* The LLD's read cache at its pinned capacity, full of block views:
   a hit ([find]) and an insert that evicts ([add]), per call, over
   keys strided like physical slots. *)
let lru_kernels () =
  let cap = Pinned.config.Lld_core.Config.cache_blocks in
  let lru = Lld_util.Lru.create ~capacity:cap in
  let v = Blk.create 16 in
  for k = 0 to cap - 1 do
    Lld_util.Lru.add lru k v
  done;
  let next = ref cap in
  let find_ns () =
    snd
      (time_ns (fun () ->
           for i = 0 to 255 do
             ignore (Sys.opaque_identity (Lld_util.Lru.find lru (!next - 1 - (i * 7 mod cap))))
           done))
  in
  let add_ns () =
    snd
      (time_ns (fun () ->
           for _ = 0 to 255 do
             Lld_util.Lru.add lru !next v;
             incr next
           done))
  in
  (median_ns find_ns /. 256., median_ns add_ns /. 256.)

let measure disk =
  let geom = Disk.geometry disk in
  let bb = geom.Geometry.block_bytes in
  let seg_kernels =
    match newest_segment disk with
    | None -> zero
    | Some (idx, p) ->
      let slots = p.Segment.p_slots_used in
      let entries = p.Segment.p_entries in
      let slot_views =
        Array.init slots (fun slot -> Blk.copy (Segment.unverified_slot geom p ~slot))
      in
      (* rebuild the same segment (untimed), then time the seal *)
      let seal_ns () =
        let s = Segment.create geom ~seq:p.Segment.p_seq ~disk_index:idx in
        Array.iteri
          (fun i v ->
            ignore
              (Segment.put_block s ~scope:Segment.Simple_scope
                 ~allow_cross_scope:true (Lld_core.Types.Block_id.of_int i) v
                : int))
          slot_views;
        List.iter (Segment.add_entry s) entries;
        snd (time_ns (fun () -> Segment.seal s))
      in
      let image = p.Segment.p_image in
      let verify_ns () =
        snd
          (time_ns (fun () ->
               match Segment.parse geom image with
               | Some q ->
                 for slot = 0 to q.Segment.p_slots_used - 1 do
                   ignore (Sys.opaque_identity (Segment.verify_slot geom q ~slot))
                 done
               | None -> ()))
      in
      let block = if slots > 0 then slot_views.(0) else Blk.create bb in
      let crc_ns () =
        snd
          (time_ns (fun () ->
               for _ = 1 to 64 do
                 ignore (Sys.opaque_identity (Blk.crc32c block))
               done))
      in
      let copy_ns () =
        snd
          (time_ns (fun () ->
               for _ = 1 to 64 do
                 ignore (Sys.opaque_identity (Blk.of_bytes (Blk.to_bytes block)))
               done))
      in
      let n = max 1 (List.length entries) in
      let encoded =
        let w = Blk.Writer.create () in
        List.iter (Summary.encode w) entries;
        Blk.copy (Blk.Writer.contents w)
      in
      let encode_ns () =
        snd
          (time_ns (fun () ->
               let w = Blk.Writer.create ~capacity:(Blk.length encoded) () in
               List.iter (Summary.encode w) entries))
      in
      let decode_ns () =
        snd
          (time_ns (fun () ->
               let r = Blk.Reader.of_view encoded in
               for _ = 1 to n do
                 ignore (Sys.opaque_identity (Summary.decode r))
               done))
      in
      let kb = float_of_int bb /. 1024. in
      {
        zero with
        seal_us = median_ns seal_ns /. 1e3;
        verify_us = median_ns verify_ns /. 1e3;
        crc32c_ns_per_kb = median_ns crc_ns /. 64. /. kb;
        (* two copies per round trip *)
        copy_ns_per_kb = median_ns copy_ns /. 128. /. kb;
        encode_ns = median_ns encode_ns /. float_of_int n;
        decode_ns = median_ns decode_ns /. float_of_int n;
      }
  in
  let lru_find_ns, lru_add_ns = lru_kernels () in
  let seg_kernels = { seg_kernels with lru_find_ns; lru_add_ns } in
  match Checkpoint.read_best disk with
  | None -> seg_kernels
  | Some b ->
    let enc = Checkpoint.encode b.Checkpoint.best_snap in
    let dec_ns () =
      snd (time_ns (fun () -> ignore (Sys.opaque_identity (Checkpoint.decode enc))))
    in
    {
      seg_kernels with
      ckpt_decode_us = median_ns dec_ns /. 1e3;
      ckpt_bytes = float_of_int (Blk.length enc);
    }

let metrics k =
  [
    m "segment.seal_us" "us" k.seal_us;
    m "segment.verify_us" "us" k.verify_us;
    m "blk.crc32c_ns_per_kb" "ns/KB" k.crc32c_ns_per_kb;
    m "blk.copy_ns_per_kb" "ns/KB" k.copy_ns_per_kb;
    m "summary.encode_ns" "ns" k.encode_ns;
    m "summary.decode_ns" "ns" k.decode_ns;
    m "checkpoint.decode_us" "us" k.ckpt_decode_us;
    m "checkpoint.bytes" "B" k.ckpt_bytes;
    m "lru.find_ns" "ns" k.lru_find_ns;
    m "lru.add_ns" "ns" k.lru_add_ns;
  ]
