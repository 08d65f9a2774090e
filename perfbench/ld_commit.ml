(* ld-commit: 8 logical clients multiplexed by the group-commit engine
   over a 2-shard facade.  Each ARU reads 2 and writes 4 existing 4 KB
   blocks of the client's own lists; one ARU in four writes on both
   shards and commits by two-phase commit.  The key space is four times
   a shard's LRU, so most reads miss, and the shards are small enough
   that the cleaner (run between rounds) makes many passes. *)

open Common
module Op = Lld_core.Op
module Shard = Lld_core.Shard
module Engine = Lld_core.Engine
module Counters = Lld_core.Counters
module Types = Lld_core.Types
module Summary = Lld_core.Summary
module Disk = Lld_disk.Disk
module Geometry = Lld_disk.Geometry
module Backend = Lld_disk.Backend

let clients = 8
let shards = 2
let blocks_per_client_shard = 1024 (* 8192 per shard = 4 x 2048-block LRU *)
let arus_per_client_round = 4
let cross_every = 4
let ref_rounds = 60
let clean_below = 48
let clean_target = 64

let config = Pinned.config

(* 256 segments (128 MB) per shard: the between-round cleaner runs many
   passes; see README.md for smaller shards *)
let geom = Geometry.v ~num_segments:256 ()

type state = {
  t : Shard.t;
  disks : Disk.t array;
  clock : Clock.t;
  own : int array array array;  (* client -> shard -> global block ids *)
  version : (int, int) Hashtbl.t;  (* block -> committed version *)
}

let block_bytes = 4096

let setup ?(config = config) ?(backend = Backend.mem) ~seed () =
  let clock = Clock.create () in
  let disks =
    Array.init shards (fun _ ->
        Disk.create ~clock
          ~backend:(backend ~size:(Geometry.total_bytes geom))
          geom)
  in
  let t = Shard.create ~config ~obs:Lld_obs.Obs.null disks in
  let rng = Rng.create ~seed in
  let version = Hashtbl.create 16384 in
  (* two lists per client; the facade places new lists on the emptiest
     shard, so they alternate *)
  let lists =
    Array.init clients (fun _ ->
        let a = Shard.new_list t () in
        let b = Shard.new_list t () in
        let sa = Shard.list_shard ~shards (Types.List_id.to_int a) in
        if sa = 0 then [| a; b |] else [| b; a |])
  in
  let own =
    Array.map
      (fun ls ->
        Array.map
          (fun l ->
            let pred = ref Summary.Head in
            Array.init blocks_per_client_shard (fun _ ->
                let b = Shard.new_block t ~list:l ~pred:!pred () in
                pred := Summary.After b;
                let g = Types.Block_id.to_int b in
                let v = Rng.int rng 1000 in
                Shard.write t b (payload ~len:block_bytes ~tag:g ~version:v);
                Hashtbl.replace version g v;
                g))
          ls)
      lists
  in
  Shard.flush t;
  Clock.reset clock;
  Array.iter Disk.reset_counters disks;
  { t; disks; clock; own; version }

(* ---------------------------------------------------------------- *)
(* The client generator                                               *)

type probe = {
  on_begin : int -> unit;  (* client *)
  on_ack : int -> cross:bool -> submit_ns:int -> unit;
}

let no_probe = { on_begin = (fun _ -> ()); on_ack = (fun _ ~cross:_ ~submit_ns:_ -> ()) }

type run_stats = {
  lat : Samples.t;
  mutable arus : int;
  mutable errors : string list;
  clean_ns : Samples.t;  (* wall time of each between-round cleaning *)
  mutable flushes : int;  (* engine drains that committed something *)
  mutable forced : int;  (* of which forced (every client parked) *)
}

(* One client: [n] ARUs drawn from [rng].  Step sequence per ARU:
   Begin, Read r (committed), Write w1..w4, Read w1 (own shadow), End. *)
let client st stats probe rng ~next_version ~c ~first ~n =
  let left = ref n in
  let phase = ref 0 in
  let aru = ref None in
  let cross = ref false in
  let reads = [| 0 |] and writes = Array.make 4 (0, 0) in
  let t_begin = ref 0 and t_submit = ref 0 in
  let fail s = stats.errors <- s :: stats.errors in
  let expect_data r ~block ~version =
    match r with
    | Some (Op.R_data d) ->
      if not (Bytes.equal d (payload ~len:block_bytes ~tag:block ~version))
      then fail (Printf.sprintf "client %d: block %d read wrong data" c block)
    | Some r ->
      fail (Format.asprintf "client %d: read -> %a" c Op.pp_result r)
    | None -> fail "missing read result"
  in
  let pick sh =
    let a = st.own.(c).(sh) in
    a.(Rng.int rng (Array.length a))
  in
  let k = ref first in
  (* the client's ARU number [k] fixes the kind: every [cross_every]-th
     crosses shards, local ones alternate shards; the seed picks the
     blocks *)
  let draw () =
    cross := (!k + c) mod cross_every = cross_every - 1;
    let sh = (!k + c) mod shards in
    incr k;
    reads.(0) <- pick sh;
    let chosen = ref [] in
    for i = 0 to 3 do
      let shi = if !cross then i mod shards else sh in
      let rec fresh () =
        let b = pick shi in
        if List.mem b !chosen then fresh () else b
      in
      let b = fresh () in
      chosen := b :: !chosen;
      writes.(i) <- (b, next_version ())
    done
  in
  let aru_of () = !aru in
  fun (r : Op.result option) ->
    let ok_unit what =
      match r with
      | Some Op.R_unit -> ()
      | Some r -> fail (Format.asprintf "client %d: %s -> %a" c what Op.pp_result r)
      | None -> fail (Printf.sprintf "client %d: %s without result" c what)
    in
    match !phase with
    | 0 ->
      if !left = 0 then None
      else begin
        draw ();
        probe.on_begin c;
        t_begin := now_ns ();
        phase := 1;
        Some Op.Begin_aru
      end
    | 1 ->
      (match r with
      | Some (Op.R_aru a) -> aru := Some a
      | _ -> fail (Printf.sprintf "client %d: begin_aru failed" c));
      phase := 2;
      Some (Op.Read { aru = aru_of (); block = Types.Block_id.of_int reads.(0) })
    | 2 ->
      let b = reads.(0) in
      expect_data r ~block:b ~version:(Hashtbl.find st.version b);
      phase := 3;
      let b, v = writes.(0) in
      Some
        (Op.Write
           {
             aru = aru_of ();
             block = Types.Block_id.of_int b;
             data = payload ~len:block_bytes ~tag:b ~version:v;
           })
    | (3 | 4 | 5) as p ->
      ok_unit "write";
      phase := p + 1;
      let b, v = writes.(p - 2) in
      Some
        (Op.Write
           {
             aru = aru_of ();
             block = Types.Block_id.of_int b;
             data = payload ~len:block_bytes ~tag:b ~version:v;
           })
    | 6 ->
      ok_unit "write";
      phase := 7;
      Some
        (Op.Read { aru = aru_of (); block = Types.Block_id.of_int (fst writes.(0)) })
    | 7 ->
      let b, v = writes.(0) in
      expect_data r ~block:b ~version:v;
      phase := 8;
      t_submit := now_ns ();
      Some (Op.End_aru (Option.get !aru))
    | _ ->
      ok_unit "end_aru";
      let now = now_ns () in
      Samples.add stats.lat (now - !t_begin);
      probe.on_ack c ~cross:!cross ~submit_ns:!t_submit;
      Array.iter (fun (b, v) -> Hashtbl.replace st.version b v) writes;
      stats.arus <- stats.arus + 1;
      decr left;
      phase := 0;
      if !left = 0 then None
      else begin
        draw ();
        probe.on_begin c;
        t_begin := now_ns ();
        phase := 1;
        Some Op.Begin_aru
      end

(* ---------------------------------------------------------------- *)
(* Checks                                                              *)

let check_all_blocks t version ~what =
  Hashtbl.iter
    (fun b v ->
      let d = Shard.read t (Types.Block_id.of_int b) in
      check
        (Bytes.equal d (payload ~len:block_bytes ~tag:b ~version:v))
        "%s: block %d holds version %Ld (tag %Ld), not its last acknowledged \
         version %d"
        what b (Bytes.get_int64_le d 8) (Bytes.get_int64_le d 0) v)
    version

let device_bytes st =
  Array.fold_left
    (fun acc d -> acc + (Disk.counters d).Disk.bytes_written)
    0 st.disks

let sealed_bytes st =
  Array.fold_left
    (fun acc h -> acc + (Lld_core.Lld.sealed_segments h * geom.Geometry.segment_bytes))
    0 (Shard.handles st.t)

let live_payload st = Hashtbl.length st.version * block_bytes

(* ---------------------------------------------------------------- *)
(* One run                                                             *)

type engine_run = Shard.t -> Engine.client list -> Engine.stats

let cleaned st =
  Array.fold_left
    (fun a h -> a + (Lld_core.Lld.counters h).Counters.segments_cleaned)
    0 (Shard.handles st.t)

(* Between rounds, with every ARU acknowledged: flush (so every
   committed record is persistent, including the participants' lazy
   decisions) and clean each shard that runs low.  The cleaner runs
   here and never inside a round: run from inside a commit it
   relocates a block's persistent copy over a newer committed version
   (see README.md).  Returns the wall time spent cleaning, 0 if none. *)
let maintain st =
  Shard.flush st.t;
  Array.fold_left
    (fun acc h ->
      if Lld_core.Lld.free_segments h < clean_below then begin
        let (), ns = time_ns (fun () -> Lld_core.Lld.clean h ~target_free:clean_target) in
        acc + ns
      end
      else acc)
    0 (Shard.handles st.t)

let rounds ?(clean_in_ops = false) ?(probe = no_probe)
    ~(engine : engine_run) st ~seed ~seconds ~ref_rounds ~at_ref =
  let stats =
    {
      lat = Samples.create ();
      arus = 0;
      errors = [];
      clean_ns = Samples.create ();
      flushes = 0;
      forced = 0;
    }
  in
  let ver = ref 0 in
  let next_version () =
    incr ver;
    1000 + !ver
  in
  let round r =
    let gens =
      List.init clients (fun c ->
          let rng = Rng.create ~seed:((seed * 7919) + (r * 131) + c) in
          client st stats probe rng ~next_version ~c
            ~first:(r * arus_per_client_round)
            ~n:arus_per_client_round)
    in
    let c0 = cleaned st in
    let es = engine st.t gens in
    stats.flushes <- stats.flushes + es.Engine.flushes;
    stats.forced <- stats.forced + es.Engine.forced_flushes;
    if not clean_in_ops then begin
      check (cleaned st = c0) "round %d: the cleaner ran inside a round" r;
      let ns = maintain st in
      if ns > 0 then Samples.add stats.clean_ns ns
    end
  in
  let n, ns = run_rounds ~seconds ~ref_rounds ~round ~at_ref () in
  (stats, n, ns)

(* ---------------------------------------------------------------- *)
(* The untraced run                                                    *)

let user_bytes_per_aru = 4 * block_bytes

(* The final checks: every block matches the model on the live
   facade, then a crash (no flush) recovers every acknowledged ARU on
   both shards or on neither, which with every ARU acknowledged means
   the model again. *)
let final_checks ~config st stats =
  (match stats.errors with
  | [] -> ()
  | e :: _ -> check false "%d failed checks, first: %s" (List.length stats.errors) e);
  check_all_blocks st.t st.version ~what:"live";
  let t2, _ = Shard.recover ~config ~obs:Lld_obs.Obs.null st.disks in
  (match Shard.recovery_invariant_errors t2 with
  | [] -> ()
  | e :: _ -> check false "recovery invariant: %s" e);
  check_all_blocks t2 st.version ~what:"after crash"

let config_of a =
  if a.greedy then { config with Lld_core.Config.clean_policy = Lld_core.Config.Greedy }
  else config

let untraced a =
  let seed = a.seed and seconds = a.seconds in
  let config = config_of a in
  let st, setup_s, _ =
    timed_setups ~k:3 (fun () ->
        setup ~config ~seed ())
  in
  let at_ref_vals = ref [] in
  let at_ref_arus = ref_rounds * clients * arus_per_client_round in
  let at_ref () =
    let virt_s = s_of_ns (Clock.now_ns st.clock) in
    at_ref_vals :=
      [
        m "virt_op_per_s" "1/s" (float_of_int at_ref_arus /. virt_s);
        m "write_amp" "B/B"
          (float_of_int (device_bytes st)
          /. float_of_int (at_ref_arus * user_bytes_per_aru));
        m "space_amp" "B/B"
          (float_of_int (sealed_bytes st) /. float_of_int (live_payload st));
      ]
  in
  let stats, _, ns =
    rounds ~clean_in_ops:a.clean_in_ops ~engine:Lld_core.Shard_engine.run st
      ~seed ~seconds ~ref_rounds ~at_ref
  in
  let rss = max_rss_mb () in
  let c = Shard.total_counters st.t in
  check
    (c.Counters.prepare_barriers = c.Counters.cross_shard_commits)
    "2PC: %d prepare barriers for %d cross-shard commits (P = 2 wants 1 each)"
    c.Counters.prepare_barriers c.Counters.cross_shard_commits;
  final_checks ~config st stats;
  let lm, note = latency_metrics stats.lat in
  ( stats.arus,
    [
      m "setup_s" "s" setup_s;
      m "op_per_s" "1/s" (float_of_int stats.arus /. s_of_ns ns);
    ]
    @ lm @ !at_ref_vals
    @ [ m "max_rss_mb" "MB" rss ],
    [ note ] )
