(* Helper for perfbench/run.py.

   wm_perfbench trace INPUT OUT
     Replays the recorded op stream in INPUT in-process, timing each
     layer's public functions (see Trace_replay); writes the spans to OUT
     as Perfetto-loadable JSON and prints the per-layer metrics as one
     JSON object.

   wm_perfbench optimum FILE
     FILE holds graphs in Graph_io text form, each starting at its own
     "p wm" header; prints one exact optimum weight per graph
     (Wm_exact.Mwm_general). *)

let read_all path = In_channel.with_open_bin path In_channel.input_all

let split_graphs text =
  let buf = Buffer.create 4096 and out = ref [] in
  let emit () =
    if Buffer.length buf > 0 then out := Buffer.contents buf :: !out;
    Buffer.clear buf
  in
  List.iter
    (fun line ->
      if String.length line >= 4 && String.sub line 0 4 = "p wm" then emit ();
      if line <> "" then begin
        Buffer.add_string buf line;
        Buffer.add_char buf '\n'
      end)
    (String.split_on_char '\n' text);
  emit ();
  List.rev !out

let optimum path =
  List.iter
    (fun text ->
      let g = Wm_graph.Graph_io.of_string text in
      match Wm_exact.Mwm_general.optimum_weight_opt g with
      | Some w -> Printf.printf "%d\n" w
      | None -> failwith "no exact solver applies")
    (split_graphs (read_all path))

let () =
  match Array.to_list Sys.argv with
  | [ _; "optimum"; path ] -> optimum path
  | [ _; "trace"; input; out ] -> Trace_replay.run ~input ~out
  | _ ->
      prerr_endline "usage: wm_perfbench (optimum FILE | trace INPUT OUT)";
      exit 2
