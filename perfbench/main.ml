(* The benchmark's command line:

     main.exe --workload fs-churn|ld-commit|restart --seed N --seconds S
              --trace 0|1

   With --trace 0 the run prints every end-to-end metric; with --trace 1
   it makes an untraced and a traced pass (half the seconds each) and
   prints the per-layer metrics, the tracing overhead and self time per
   layer, and writes the spans to .perfbench/.  The last line of stdout
   is one JSON object: correct, attempted, failed, metrics. *)

open Common

let usage () =
  prerr_endline
    "usage: main.exe --workload fs-churn|ld-commit|restart --seed N \
     --seconds S --trace 0|1\n\
     fault reproduction only (see README.md): --clean-in-ops, and for \
     ld-commit --clean-policy greedy|cost-benefit";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let greedy = ref false and clean_in_ops = ref false in
  let rec go = function
    | "--clean-in-ops" :: rest ->
      clean_in_ops := true;
      go rest
    | "--clean-policy" :: v :: rest ->
      greedy := (match v with "greedy" -> true | "cost-benefit" -> false | _ -> usage ());
      go rest
    | "--workload" :: v :: rest ->
      workload := Some v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      go rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace
    when seconds > 0. && List.mem workload [ "fs-churn"; "ld-commit"; "restart" ]
    ->
    {
      workload;
      seed;
      seconds;
      trace;
      greedy = !greedy;
      clean_in_ops = !clean_in_ops;
    }
  | _ -> usage ()

let untraced a =
  match a.workload with
  | "fs-churn" -> Fs_churn.untraced a
  | "ld-commit" -> Ld_commit.untraced a
  | _ -> Restart.untraced ~seed:a.seed ~seconds:a.seconds

let traced a ~base_op_per_s =
  match a.workload with
  | "fs-churn" -> Layers.fs_churn ~seed:a.seed ~seconds:a.seconds ~base_op_per_s
  | "ld-commit" -> Layers.ld_commit ~seed:a.seed ~seconds:a.seconds ~base_op_per_s
  | _ -> Layers.restart ~seed:a.seed ~seconds:a.seconds ~base_op_per_s

let () =
  let a = parse_args () in
  (match env_violations () with
  | [] -> ()
  | vs ->
    Printf.eprintf "refusing to run: %s set; the benchmark pins its own \
                    configuration\n"
      (String.concat ", " vs);
    exit 2);
  Printf.printf "workload %s, seed %d, %g s, trace %b\n%!" a.workload a.seed
    a.seconds a.trace;
  let outcome =
    try
      if not a.trace then begin
        let ops, metrics, notes = untraced a in
        { correct = true; attempted = ops; failed = 0; metrics; notes }
      end
      else begin
        let half = { a with seconds = a.seconds /. 2. } in
        let ops, base, _ = untraced half in
        let base_op_per_s =
          (List.find (fun x -> x.name = "op_per_s") base).value
        in
        let tops, metrics, notes = traced half ~base_op_per_s in
        { correct = true; attempted = ops + tops; failed = 0; metrics; notes }
      end
    with
    | Check_failed s ->
      Printf.printf "CHECK FAILED: %s\n" s;
      { correct = false; attempted = 1; failed = 1; metrics = []; notes = [] }
    | e ->
      Printf.printf "FAILED: %s\n" (Printexc.to_string e);
      { correct = false; attempted = 1; failed = 1; metrics = []; notes = [] }
  in
  List.iter print_endline outcome.notes;
  List.iter
    (fun x -> Printf.printf "  %-34s %18.6g %s\n" x.name x.value x.unit_)
    outcome.metrics;
  Printf.printf "drift probe: %.4f ns/iter (machine speed, not a metric)\n"
    (drift_probe ());
  print_endline (json_line outcome);
  exit (if outcome.correct then 0 else 1)
