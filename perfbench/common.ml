(* Shared pieces of the benchmark: wall clock, sample statistics, the
   metric record every workload fills, environment pinning, the drift
   probe and the JSON result line. *)

module Blk = Lld_util.Blk
module Rng = Lld_sim.Rng
module Clock = Lld_sim.Clock

(* ---------------------------------------------------------------- *)
(* Wall clock                                                        *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let s_of_ns ns = float_of_int ns /. 1e9
let us_of_ns ns = float_of_int ns /. 1e3

let time_ns f =
  let t0 = now_ns () in
  let v = f () in
  (v, now_ns () - t0)

(* ---------------------------------------------------------------- *)
(* Growable int sample buffer                                        *)

module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let length t = t.n
  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    s
end

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (k - 1)))

let median_int sorted = percentile sorted 50.

(* Median of a sample buffer of ns, in us; 0 when empty. *)
let median_us s =
  if Samples.length s = 0 then 0. else us_of_ns (median_int (Samples.sorted s))

let median_float l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The tail percentile: the highest of 90, 99, 99.9, ... that still has
   at least ten samples above it.  [None] with fewer than forty samples
   (the median is then the only meaningful figure). *)
let tail_percentile n =
  if n < 40 then None
  else
    let rec go p best =
      let beyond = float_of_int n *. (1. -. (p /. 100.)) in
      if beyond >= 10. then go (100. -. ((100. -. p) /. 10.)) (Some p)
      else best
    in
    go 90. None

(* ---------------------------------------------------------------- *)
(* Results                                                            *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the result *)
}

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_line o =
  let ms =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (json_float x.value) x.unit_)
      o.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.correct o.attempted o.failed (String.concat ", " ms)

(* ---------------------------------------------------------------- *)
(* Correctness bookkeeping                                            *)

exception Check_failed of string

let check cond fmt =
  if cond then Printf.ikfprintf (fun () -> ()) () fmt
  else Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

(* ---------------------------------------------------------------- *)
(* Environment pinning                                                *)

(* Variables the program reads silently ([Config.default],
   [Backend.of_env], [Obs.env_default]) or that retune the runtime.  The
   benchmark builds every configuration itself, but a stray variable
   would still change what is measured, so it refuses to start. *)
let pinned_env =
  [
    "LLD_BACKEND";
    "LLD_GROUP_COMMIT_WINDOW";
    "LLD_GROUP_COMMIT_BATCH";
    "LLD_FLIGHT";
    "LLD_SCRUB_ON_MOUNT";
    "OCAMLRUNPARAM";
  ]

let env_violations () =
  List.filter (fun v -> Sys.getenv_opt v <> None) pinned_env

(* ---------------------------------------------------------------- *)
(* Process facts                                                      *)

(* Peak resident set (VmHWM) in MB: OCaml heap plus Bigarray memory. *)
let max_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* The machine-drift probe: a fixed, program-independent CPU loop
   (integer mixing over a small array), timed in five slices; the
   median ns per iteration is printed beside the metrics so a shift of
   the machine shows apart from a shift of the program. *)
let drift_probe () =
  let a = Array.init 1024 (fun i -> i * 2654435761) in
  let slice () =
    let t0 = now_ns () in
    let acc = ref 0 in
    for r = 1 to 2000 do
      for i = 0 to 1023 do
        let x = a.(i) lxor (!acc + r) in
        acc := (x * 0x9E3779B1) lxor (x lsr 17)
      done
    done;
    ignore (Sys.opaque_identity !acc);
    float_of_int (now_ns () - t0) /. 2_048_000.
  in
  median_float (List.init 5 (fun _ -> slice ()))

(* ---------------------------------------------------------------- *)
(* Seeded payloads                                                    *)

(* A block or file payload determined by (tag, version): the first 16
   bytes carry both, the rest is a cheap keyed fill, so a read that
   returns another version or another block's data is caught. *)
let payload ~len ~tag ~version =
  let b = Bytes.create len in
  let x = ref ((tag * 0x9E3779B1) lxor (version * 0x85EBCA77) lor 1) in
  let i = ref 0 in
  while !i + 8 <= len do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    Bytes.set_int64_le b !i (Int64.of_int !x);
    i := !i + 8
  done;
  while !i < len do
    Bytes.set b !i (Char.chr (!x land 0xff));
    incr i
  done;
  if len >= 16 then begin
    Bytes.set_int64_le b 0 (Int64.of_int tag);
    Bytes.set_int64_le b 8 (Int64.of_int version)
  end;
  b

(* ---------------------------------------------------------------- *)
(* Run shape                                                          *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  (* for reproducing the cleaner faults only (README.md): let the
     cleaner run inside client operations (fs-churn then uses a
     64-segment disk); ld-commit's cleaning policy *)
  clean_in_ops : bool;
  greedy : bool;
}

(* Rounds are the unit of work: a run attempts whole rounds until its
   measured time is spent (or [more] says the workload's capacity is),
   and at least [ref_rounds]; the
   deterministic metrics are read after exactly [ref_rounds] rounds so
   they depend on the seed alone, never on machine speed. *)
let run_rounds ?(more = fun () -> true) ~seconds ~ref_rounds ~round ~at_ref () =
  let t0 = now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let rounds = ref 0 in
  while !rounds < ref_rounds || (now_ns () < deadline && more ()) do
    round !rounds;
    incr rounds;
    if !rounds = ref_rounds then at_ref ()
  done;
  (!rounds, now_ns () - t0)

(* The shared end-to-end latency figures from per-op wall samples: the
   median, and the tail.  The run is cut into consecutive windows of
   [tail_window] to [2 * tail_window - 1] ops (one window when it has
   fewer), the tail percentile is taken in each, and the median of the
   windows is reported, so one burst of machine noise moves one window,
   not the figure.  The window size is a count of ops, not a share of
   the run, so the percentile (p90 for every window size in that range)
   does not change when the program gets faster.  A higher percentile
   is not steady here: ld-commit's slow ARUs come in whole group-commit
   batches of 8, so its p99 rests on one or two stalls per window, and
   on a shared machine those are mostly other tenants' time slices. *)
let tail_window = 500

let latency_metrics samples =
  let s = Samples.sorted samples in
  let n = Array.length s in
  let p50 = us_of_ns (median_int s) in
  let w = max 1 (n / tail_window) in
  let per = n / w in
  let tail, note =
    match tail_percentile per with
    | Some p ->
      let tails =
        List.init w (fun i ->
            let win = Array.sub samples.Samples.a (i * per) per in
            Array.sort compare win;
            us_of_ns (percentile win p))
      in
      ( median_float tails,
        Printf.sprintf
          "op_tail_us is p%g, median of %d windows of %d samples (%d in all)" p
          w per n )
    | None -> (p50, Printf.sprintf "op_tail_us is the median (%d samples)" n)
  in
  ([ m "op_p50_us" "us" p50; m "op_tail_us" "us" tail ], note)

(* Median of [k] timed set-ups; returns the last built state. *)
let timed_setups ~k build =
  let times = ref [] in
  let last = ref None in
  for _ = 1 to k do
    last := None;
    Gc.full_major ();
    let v, ns = time_ns build in
    times := s_of_ns ns :: !times;
    last := Some v
  done;
  (* start the measured phase from the same heap state every run *)
  Gc.full_major ();
  (Option.get !last, median_float !times, List.rev !times)
