(* Timing wrappers for the traced run: an [Ld_intf.S] wrapper (applied
   under [Fs_generic.Make] and [Engine.Make]) and a wrapper around the
   [Backend.t] record.  Both only add spans and counts; every call goes
   straight through to the wrapped implementation. *)

module Ld_intf = Lld_core.Ld_intf
module Engine = Lld_core.Engine
module Backend = Lld_disk.Backend
module Blk = Lld_util.Blk

(* bytes carried through the LD bytes API (read results + write
   arguments) *)
let ld_bytes = ref 0

let k name = Tracer.key "ld" name
let k_begin = k "begin_aru"
let k_end = k "end_aru"
let k_abort = k "abort_aru"
let k_submit = k "submit_commit"
let k_flush_commits = k "flush_commits"
let k_new_list = k "new_list"
let k_new_block = k "new_block"
let k_write = k "write"
let k_read = k "read"
let k_delete_block = k "delete_block"
let k_delete_list = k "delete_list"
let k_flush = k "flush"
let k_query = k "query"

let ld_keys =
  [
    k_begin; k_end; k_abort; k_submit; k_flush_commits; k_new_list;
    k_new_block; k_write; k_read; k_delete_block; k_delete_list; k_flush;
    k_query;
  ]

let ld_calls () = List.fold_left (fun a k -> a + k.Tracer.calls) 0 ld_keys

module Make (L : Ld_intf.S) = struct
  include L

  let sp = Tracer.span
  let begin_aru t = sp k_begin (fun () -> L.begin_aru t)
  let end_aru t a = sp k_end (fun () -> L.end_aru t a)
  let abort_aru t a = sp k_abort (fun () -> L.abort_aru t a)

  (* re-bracketed so the commit is timed as [end_aru] (the benchmark
     runs concurrent mode only, where an exception aborts) *)
  let with_aru t f =
    let a = begin_aru t in
    match f a with
    | v ->
      end_aru t a;
      v
    | exception e ->
      abort_aru t a;
      raise e

  let submit_commit t a = sp k_submit (fun () -> L.submit_commit t a)
  let flush_commits t = sp k_flush_commits (fun () -> L.flush_commits t)
  let new_list t ?aru () = sp k_new_list (fun () -> L.new_list t ?aru ())

  let new_block t ?aru ~list ~pred () =
    sp k_new_block (fun () -> L.new_block t ?aru ~list ~pred ())

  let write t ?aru b d =
    ld_bytes := !ld_bytes + Bytes.length d;
    sp k_write (fun () -> L.write t ?aru b d)

  let read t ?aru b =
    let d = sp k_read (fun () -> L.read t ?aru b) in
    ld_bytes := !ld_bytes + Bytes.length d;
    d

  let delete_block t ?aru b = sp k_delete_block (fun () -> L.delete_block t ?aru b)
  let delete_list t ?aru l = sp k_delete_list (fun () -> L.delete_list t ?aru l)
  let flush t = sp k_flush (fun () -> L.flush t)
  let list_exists t ?aru l = sp k_query (fun () -> L.list_exists t ?aru l)
  let block_allocated t ?aru b = sp k_query (fun () -> L.block_allocated t ?aru b)
  let block_member t ?aru b = sp k_query (fun () -> L.block_member t ?aru b)
  let list_blocks t ?aru l = sp k_query (fun () -> L.list_blocks t ?aru l)
  let lists t = sp k_query (fun () -> L.lists t)
end

(* The same, plus the group-commit hooks [Engine.Make] needs, passed
   through untimed (the engine polls them after every operation). *)
module Make_engine (L : Engine.ENGINE_LD) = struct
  include Make (L)

  let config = L.config
  let commit_due = L.commit_due
  let commit_pending = L.commit_pending
  let pending_commits = L.pending_commits
end

(* ---------------------------------------------------------------- *)
(* Backend                                                             *)

let k_bread = Tracer.key "backend" "read"
let k_bwrite = Tracer.key "backend" "write"
let k_barrier = Tracer.key "backend" "barrier"

type backend_counts = {
  mutable barriers : int;
  mutable seg_writes : int;  (* full-segment images that parse as segments *)
  mutable seg_slots : int;  (* data slots those images carry *)
}

let counts = { barriers = 0; seg_writes = 0; seg_slots = 0 }

let reset_counts () =
  counts.barriers <- 0;
  counts.seg_writes <- 0;
  counts.seg_slots <- 0

(* [geom] lets the write wrapper recognise sealed segment images and
   read their slot count (outside the timed span) for the fill ratio. *)
let backend ~geom (b : Backend.t) =
  let seg_bytes = geom.Lld_disk.Geometry.segment_bytes in
  {
    b with
    Backend.read =
      (fun ~offset ~length ->
        Tracer.span k_bread (fun () -> b.Backend.read ~offset ~length));
    write =
      (fun ~offset v ->
        Tracer.span k_bwrite (fun () -> b.Backend.write ~offset v);
        if !Tracer.enabled && Blk.length v = seg_bytes then
          match Lld_core.Segment.parse geom v with
          | Some p ->
            counts.seg_writes <- counts.seg_writes + 1;
            counts.seg_slots <- counts.seg_slots + p.Lld_core.Segment.p_slots_used
          | None -> ());
    barrier =
      (fun () ->
        counts.barriers <- counts.barriers + 1;
        Tracer.span k_barrier b.Backend.barrier);
  }
