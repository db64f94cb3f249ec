(* Entry point of the benchmark's helper executable.

     olpbench load --conn ADDR,SCRIPT,ROLE [--conn ...] --seconds S
                   --out FILE [--base-seq N] [--hwm PID:AT] [--trace FILE]
     olpbench replay ...            (see Replay)

   [load] is the load generator (Loadgen) and [replay] is the traced
   run's in-process pass through the library layers (Replay). *)

let load args =
  let conns = ref [] and seconds = ref 10. and out = ref "" in
  let base_seq = ref 0 and hwm = ref None in
  let trace = ref None in
  Arg.parse_argv ~current:(ref 0) args
    [ ("--conn", Arg.String (fun s -> conns := s :: !conns), "");
      ("--seconds", Arg.Set_float seconds, "");
      ("--out", Arg.Set_string out, "");
      ("--base-seq", Arg.Set_int base_seq, "");
      ( "--hwm",
        Arg.String
          (fun s -> hwm := Some (Scanf.sscanf s "%d:%d" (fun p a -> (p, a)))),
        "" );
      ("--trace", Arg.String (fun s -> trace := Some s), "")
    ]
    (fun a -> failwith ("unexpected argument " ^ a))
    "olpbench load";
  let conns = List.rev_map Loadgen.parse_conn !conns in
  Loadgen.run ~conns ~seconds:!seconds ~base_seq:!base_seq ~hwm:!hwm
    ~trace:!trace ~out:!out

let () =
  let args = Sys.argv in
  if Array.length args < 2 then (
    prerr_endline "usage: olpbench (load|replay) ...";
    exit 2);
  let rest = Array.sub args 1 (Array.length args - 1) in
  match args.(1) with
  | "load" -> load rest
  | "replay" -> Replay.main rest
  | c ->
    prerr_endline ("olpbench: unknown command " ^ c);
    exit 2
