(* Wall-clock spans for the traced run.  Spans are recorded from the
   benchmark's own files, around the calls into each layer; they nest
   on a stack, so a span's self time is its duration minus the time its
   child spans cover.  Aggregates are kept per key; the first [cap]
   spans are also kept raw, in memory, and written out as one file when
   the run ends.  Every span carries the id of the client operation it
   belongs to. *)

open Common

type key = {
  layer : string;
  name : string;
  id : int;
  mutable calls : int;
  mutable total_ns : int;
  mutable self_ns : int;
  durs : Samples.t;
  selfs : Samples.t;
}

let keys : key list ref = ref []
let nkeys = ref 0

let key layer name =
  let k =
    {
      layer;
      name;
      id = !nkeys;
      calls = 0;
      total_ns = 0;
      self_ns = 0;
      durs = Samples.create ();
      selfs = Samples.create ();
    }
  in
  incr nkeys;
  keys := k :: !keys;
  k

let enabled = ref false

(* the client operation spans are attributed to *)
let current_op = ref 0

(* per-depth child-time accumulators and span ids *)
let child = Array.make 64 0
let ids = Array.make 64 0
let depth = ref 0
let next_id = ref 0

(* raw span log: id, parent, key, op, start, duration *)
let cap = 200_000
let raw = ref [||]
let nraw = ref 0

let reset () =
  List.iter
    (fun k ->
      k.calls <- 0;
      k.total_ns <- 0;
      k.self_ns <- 0;
      k.durs.Samples.n <- 0;
      k.selfs.Samples.n <- 0)
    !keys;
  depth := 0;
  next_id := 0;
  nraw := 0

let enable () =
  if Array.length !raw = 0 then raw := Array.make (cap * 6) 0;
  reset ();
  enabled := true

let disable () = enabled := false

let span k f =
  if not !enabled then f ()
  else begin
    let d = !depth in
    let id = !next_id in
    incr next_id;
    child.(d) <- 0;
    ids.(d) <- id;
    depth := d + 1;
    let t0 = now_ns () in
    let finish () =
      let dur = now_ns () - t0 in
      depth := d;
      k.calls <- k.calls + 1;
      k.total_ns <- k.total_ns + dur;
      let self = dur - child.(d) in
      k.self_ns <- k.self_ns + self;
      Samples.add k.durs dur;
      Samples.add k.selfs self;
      if d > 0 then child.(d - 1) <- child.(d - 1) + dur;
      if !nraw < cap then begin
        let r = !raw and o = !nraw * 6 in
        r.(o) <- id;
        r.(o + 1) <- (if d > 0 then ids.(d - 1) else -1);
        r.(o + 2) <- k.id;
        r.(o + 3) <- !current_op;
        r.(o + 4) <- t0;
        r.(o + 5) <- dur;
        incr nraw
      end
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let median_us k = Common.median_us k.durs
let median_self_us k = Common.median_us k.selfs

(* Self time per layer, largest first. *)
let layer_table () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun k ->
      if k.calls > 0 then begin
        let c, tot, self =
          Option.value (Hashtbl.find_opt tbl k.layer) ~default:(0, 0, 0)
        in
        Hashtbl.replace tbl k.layer
          (c + k.calls, tot + k.total_ns, self + k.self_ns)
      end)
    !keys;
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) tbl []
  |> List.sort (fun (_, (_, _, a)) (_, (_, _, b)) -> compare b a)

let layer_lines () =
  Printf.sprintf "%-10s %10s %14s %14s" "layer" "calls" "total_ms" "self_ms"
  :: List.map
       (fun (l, (c, tot, self)) ->
         Printf.sprintf "%-10s %10d %14.3f %14.3f" l c
           (float_of_int tot /. 1e6)
           (float_of_int self /. 1e6))
       (layer_table ())

(* One JSON document: the key table and the raw spans as arrays of
   [id, parent, key, op, start_ns, dur_ns]. *)
let write_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"keys\": [";
      List.iteri
        (fun i k ->
          Printf.fprintf oc "%s{\"id\": %d, \"layer\": %S, \"name\": %S}"
            (if i = 0 then "" else ", ")
            k.id k.layer k.name)
        (List.rev !keys);
      Printf.fprintf oc "], \"truncated\": %b, \"spans\": [" (!next_id > cap);
      for i = 0 to !nraw - 1 do
        let r = !raw and o = i * 6 in
        Printf.fprintf oc "%s[%d,%d,%d,%d,%d,%d]"
          (if i = 0 then "" else ",\n")
          r.(o) r.(o + 1) r.(o + 2) r.(o + 3) r.(o + 4) r.(o + 5)
      done;
      output_string oc "]}\n")
