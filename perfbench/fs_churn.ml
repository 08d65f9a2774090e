(* fs-churn: one client running the paper's Minix client (variant New)
   on a flat Lld.  A steady population of 1-16 KB files over a few
   directories, small enough to fit the 8 MB LRU; about half the ops
   read (whole files or a directory listing), the rest are create+write,
   overwrite and unlink, mixed so the population holds steady. *)

open Common
module Lld = Lld_core.Lld
module Disk = Lld_disk.Disk
module Geometry = Lld_disk.Geometry
module Backend = Lld_disk.Backend
module Fs = Lld_minixfs.Fs

let segments = 512
let geom = Geometry.v ~num_segments:segments ()
let dirs = 8
let population = 256
let inode_count = 1024
let ops_per_round = 200
(* the run also ends when free segments drop to this, so the cleaner
   never runs (see README.md) *)
let free_floor = 12
let ref_rounds = 100
let min_size = 1024
let max_size = 16384

(* The mix of one round: 45% whole-file reads, 5% directory listings,
   25% overwrites, 25% create+write or unlink (alternating, so the
   population stays at its target). *)
type kind = Read | Readdir | Overwrite | Churn

let round_mix =
  Array.concat
    [
      Array.make (ops_per_round * 45 / 100) Read;
      Array.make (ops_per_round * 5 / 100) Readdir;
      Array.make (ops_per_round * 25 / 100) Overwrite;
      Array.make (ops_per_round * 25 / 100) Churn;
    ]

(* The file-system operations the workload drives, so the traced run
   can substitute [Fs_generic.Make] over the timed LD wrapper. *)
module type FS = sig
  type t

  val mkfs : Lld.t -> t
  val mkdir : t -> string -> unit
  val create : t -> string -> unit
  val write_file : t -> string -> off:int -> bytes -> unit
  val read_file : t -> string -> off:int -> len:int -> bytes
  val readdir : t -> string -> string list
  val unlink : t -> string -> unit
  val flush : t -> unit

  val timed : (unit -> 'a) -> 'a * int
  (** wall-time one client operation *)
end

module Plain_fs = struct
  include Fs

  let mkfs l = Fs.mkfs ~config:Fs.config_new ~inode_count l
  let timed = time_ns
end

(* The file-system model: path -> (uid, version, size); contents are
   [payload ~len:size ~tag:uid ~version]. *)
type file = { uid : int; version : int; size : int }

type model = {
  files : (string, file) Hashtbl.t;
  names : string array;  (* dense index of live paths, for uniform picks *)
  mutable n : int;
  pos : (string, int) Hashtbl.t;
  mutable next_uid : int;
}

let model_add mo path f =
  Hashtbl.replace mo.files path f;
  if not (Hashtbl.mem mo.pos path) then begin
    mo.names.(mo.n) <- path;
    Hashtbl.replace mo.pos path mo.n;
    mo.n <- mo.n + 1
  end

let model_remove mo path =
  Hashtbl.remove mo.files path;
  let i = Hashtbl.find mo.pos path in
  Hashtbl.remove mo.pos path;
  mo.n <- mo.n - 1;
  if i < mo.n then begin
    let last = mo.names.(mo.n) in
    mo.names.(i) <- last;
    Hashtbl.replace mo.pos last i
  end

let dir_name d = Printf.sprintf "/d%d" d
let contents f = payload ~len:f.size ~tag:f.uid ~version:f.version

let model_dir mo d =
  let prefix = dir_name d ^ "/" in
  let pl = String.length prefix in
  Hashtbl.fold
    (fun p _ acc ->
      if String.length p > pl && String.sub p 0 pl = prefix then
        String.sub p pl (String.length p - pl) :: acc
      else acc)
    mo.files []
  |> List.sort compare

type state = {
  geom : Geometry.t;
  disk : Disk.t;
  lld : Lld.t;
  clock : Clock.t;
  mo : model;
  rng : Rng.t;
  mutable payload_written : int;
}

module Make (F : FS) = struct
  let new_file st =
    let mo = st.mo in
    let uid = mo.next_uid in
    mo.next_uid <- uid + 1;
    (* sizes spread evenly over 1-16 KB by uid, so every seed writes
       the same size mix *)
    let size = min_size + (uid * 7919 mod (max_size - min_size + 1)) in
    let path = Printf.sprintf "%s/f%d" (dir_name (Rng.int st.rng dirs)) uid in
    (path, { uid; version = 0; size })

  let setup ?(geom = geom) ?(backend = Backend.mem) ~seed () =
    let clock = Clock.create () in
    let disk =
      Disk.create ~clock ~backend:(backend ~size:(Geometry.total_bytes geom)) geom
    in
    let lld = Lld.create ~config:Pinned.config ~obs:Lld_obs.Obs.null disk in
    let fs = F.mkfs lld in
    let mo =
      {
        files = Hashtbl.create 1024;
        names = Array.make (4 * population) "";
        n = 0;
        pos = Hashtbl.create 1024;
        next_uid = 1;
      }
    in
    let st = { geom; disk; lld; clock; mo; rng = Rng.create ~seed; payload_written = 0 } in
    for d = 0 to dirs - 1 do
      F.mkdir fs (dir_name d)
    done;
    for _ = 1 to population do
      let path, f = new_file st in
      F.create fs path;
      F.write_file fs path ~off:0 (contents f);
      model_add mo path f
    done;
    F.flush fs;
    Clock.reset clock;
    Disk.reset_counters disk;
    (st, fs)

  let pick st = st.mo.names.(Rng.int st.rng st.mo.n)

  (* One operation of the mix: inputs are made and reads checked
     outside the timed call; returns the op's wall time. *)
  let step st fs kind =
    let mo = st.mo in
    match kind with
    | Read -> begin
      let path = pick st in
      let f = Hashtbl.find mo.files path in
      let d, ns = F.timed (fun () -> F.read_file fs path ~off:0 ~len:max_size) in
      check (Bytes.equal d (contents f)) "read %s: wrong contents" path;
      ns
    end
    | Readdir -> begin
      let d = Rng.int st.rng dirs in
      let got, ns = F.timed (fun () -> F.readdir fs (dir_name d)) in
      check (got = model_dir mo d) "readdir %s: wrong listing" (dir_name d);
      ns
    end
    | Overwrite -> begin
      let path = pick st in
      let f = Hashtbl.find mo.files path in
      let f = { f with version = f.version + 1 } in
      let data = contents f in
      let (), ns = F.timed (fun () -> F.write_file fs path ~off:0 data) in
      st.payload_written <- st.payload_written + f.size;
      model_add mo path f;
      ns
    end
    | Churn -> begin
      (* alternate create and unlink around the target population *)
      let grow = mo.n <= population in
      if grow then begin
        let path, f = new_file st in
        let data = contents f in
        let (), ns =
          F.timed (fun () ->
              F.create fs path;
              F.write_file fs path ~off:0 data)
        in
        st.payload_written <- st.payload_written + f.size;
        model_add mo path f;
        ns
      end
      else begin
        let path = pick st in
        let (), ns = F.timed (fun () -> F.unlink fs path) in
        model_remove mo path;
        ns
      end
    end

  (* One round: the fixed mix in a seeded order. *)
  let round st fs f =
    let plan = Array.copy round_mix in
    Rng.shuffle st.rng plan;
    Array.iter (fun k -> f (step st fs k)) plan

  let live_payload st = Hashtbl.fold (fun _ f acc -> acc + f.size) st.mo.files 0

  let sealed_bytes st = Lld.sealed_segments st.lld * st.geom.Geometry.segment_bytes
end

(* ---------------------------------------------------------------- *)
(* Checks that need the real [Fs] type                                 *)

let check_tree fs mo ~what =
  Hashtbl.iter
    (fun path f ->
      let d = Fs.read_file fs path ~off:0 ~len:max_size in
      check (Bytes.equal d (contents f)) "%s: %s has wrong contents" what path)
    mo.files;
  for d = 0 to dirs - 1 do
    let got = Fs.readdir fs (dir_name d) in
    check (got = model_dir mo d) "%s: %s lists wrong entries" what (dir_name d)
  done

(* Fsck reports the live file system clean; then, after [Fs.flush], the
   image is crashed in place (the running instance is dropped, nothing
   else is written) and recovers and mounts holding exactly the
   model. *)
let final_checks st fs =
  let r = Lld_minixfs.Fsck.run fs in
  check (Lld_minixfs.Fsck.ok r) "fsck: %s"
    (Format.asprintf "%a" Lld_minixfs.Fsck.pp_report r);
  Fs.flush fs;
  let lld2, _ = Lld.recover ~config:Pinned.config ~obs:Lld_obs.Obs.null st.disk in
  let fs2 = Fs.mount ~config:Fs.config_new lld2 in
  check_tree fs2 st.mo ~what:"after crash"
(* ---------------------------------------------------------------- *)
(* The untraced run                                                    *)

module P = Make (Plain_fs)

(* With [--clean-in-ops] (fault reproduction only) the disk is small
   enough that the cleaner runs inside client operations.

   The churn fills the disk in about 60 000 ops, well inside a run, and
   may not clean (see README.md), so a run is a chain of epochs: when
   the disk is down to [free_floor] free segments the epoch's final
   checks run, its state is dropped and a fresh one is built from a
   seed derived from [--seed].  Only the rounds are measured; the checks
   and the rebuilds are not. *)
let untraced a =
  let seed = a.seed and seconds = a.seconds in
  let geom = if a.clean_in_ops then Geometry.v ~num_segments:64 () else geom in
  let cur = ref None in
  let setup_s =
    let sf, setup_s, _ = timed_setups ~k:3 (fun () -> P.setup ~geom ~seed ()) in
    cur := Some sf;
    setup_s
  in
  let lat = Samples.create () in
  let at_ref_vals = ref [] in
  let round (st, fs) r =
    let c0 = (Lld.counters st.lld).Lld_core.Counters.segments_cleaned in
    P.round st fs (Samples.add lat);
    check
      (a.clean_in_ops
      || (Lld.counters st.lld).Lld_core.Counters.segments_cleaned = c0)
      "round %d: the cleaner ran inside a round" r
  in
  let at_ref st =
    let ops = ref_rounds * ops_per_round in
    let virt_s = s_of_ns (Clock.now_ns st.clock) in
    let dev = (Disk.counters st.disk).Disk.bytes_written in
    at_ref_vals :=
      [
        m "virt_op_per_s" "1/s" (float_of_int ops /. virt_s);
        m "write_amp" "B/B" (float_of_int dev /. float_of_int st.payload_written);
        m "space_amp" "B/B"
          (float_of_int (P.sealed_bytes st) /. float_of_int (P.live_payload st));
      ]
  in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let rounds = ref 0 and measured_ns = ref 0 and epochs = ref 0 in
  let rss = ref 0. in
  while Option.is_some !cur do
    let ((st, fs) as sf) = Option.get !cur in
    let more () = a.clean_in_ops || Lld.free_segments st.lld > free_floor in
    let t0 = now_ns () in
    while !rounds < ref_rounds || (now_ns () < deadline && more ()) do
      round sf !rounds;
      incr rounds;
      if !rounds = ref_rounds then at_ref st
    done;
    measured_ns := !measured_ns + (now_ns () - t0);
    (* the peak of the first measured phase: the checks' own peak would
       hide the later epochs', which repeat the first *)
    if !epochs = 0 then rss := max_rss_mb ();
    incr epochs;
    final_checks st fs;
    cur := None;
    if now_ns () < deadline then begin
      (* drop the old state before the new disk is allocated *)
      Gc.full_major ();
      cur := Some (P.setup ~geom ~seed:(seed + (!epochs * 1_000_003)) ());
      Gc.full_major ()
    end
  done;
  let ops = !rounds * ops_per_round in
  let lm, note = latency_metrics lat in
  ( ops,
    [
      m "setup_s" "s" setup_s;
      m "op_per_s" "1/s" (float_of_int ops /. s_of_ns !measured_ns);
    ]
    @ lm @ !at_ref_vals
    @ [ m "max_rss_mb" "MB" !rss ],
    [ note; Printf.sprintf "%d epochs" !epochs ] )
