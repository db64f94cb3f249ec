(* The load generator: one process, one thread, at most two connections
   multiplexed with select.  Every connection is a closed loop — it sends
   its next request only after the reply to the previous one arrived —
   and every reply is checked against the answer the generator knows.

   Connection roles:
   - [cycle]: repeat the script until the deadline;
   - [once:N]: run the script once, stopping at the deadline only after
     at least N requests;
   - [poll]: replica watcher.  While a write sent on the first connection
     is not yet visible, ask the replica for [stats] (at most once a
     millisecond) and time when [replication.last_applied] covers the
     write's log sequence number. *)

open Common

type role = Cycle | Once of int | Poll

type conn = {
  fd : Unix.file_descr;
  role : role;
  script : line array;
  inbuf : Buffer.t;
  mutable next : int;  (** script position of the next request *)
  mutable sent : int;  (** requests sent on this connection *)
  mutable inflight : (line * int * float) option;
      (** request, its script position, send time *)
  mutable first : float;
  mutable last : float;  (** time of the latest reply *)
}

type verb_stats = {
  lat : Vec.t;  (** microseconds *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let connect addr =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX addr);
  fd

let send_line fd s =
  let b = Bytes.of_string (s ^ "\n") in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write fd b off (n - off))
  in
  go 0

let chunk = Bytes.create 65536

(* Read what is available; return the complete lines received. *)
let read_lines c =
  let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then failwith "server closed the connection";
  Buffer.add_subbytes c.inbuf chunk 0 n;
  let s = Buffer.contents c.inbuf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some i ->
    Buffer.clear c.inbuf;
    Buffer.add_string c.inbuf (String.sub s (i + 1) (String.length s - i - 1));
    String.split_on_char '\n' (String.sub s 0 i)

let run ~conns ~seconds ~base_seq ~hwm ~trace ~out =
  let verbs = Hashtbl.create 8 in
  let stats v =
    match Hashtbl.find_opt verbs v with
    | Some s -> s
    | None ->
      let s = { lat = Vec.create (); attempted = 0; failed = 0; errors = [] } in
      Hashtbl.replace verbs v s;
      s
  in
  let fail v msg =
    let s = stats v in
    s.failed <- s.failed + 1;
    if List.length s.errors < 5 then s.errors <- msg :: s.errors
  in
  let spans = Buffer.create (if trace <> None then 1 lsl 20 else 16) in
  let ids = ref 0 in
  (* writes not yet seen on the replica: (log sequence number, send time) *)
  let pending = Queue.create () in
  let writes = ref 0 in
  let visible = Vec.create () in
  let hwm_kb = ref 0 in
  let completed0 = ref 0 in
  let sample_hwm () =
    match hwm with
    | Some (pid, _) when !hwm_kb = 0 -> hwm_kb := vm_hwm_kb pid
    | _ -> ()
  in
  let t0 = now () in
  let cpu0 = Unix.times () in
  let deadline = t0 +. seconds in
  let drain_limit = deadline +. 10. in
  let last_poll = ref 0. in
  let poll_line = { verb = "poll"; expect = W.Obj []; req = {|{"op":"stats"}|} } in
  let send c =
    let l =
      match c.role with
      | Poll -> poll_line
      | Cycle | Once _ ->
        c.next <- c.next + 1;
        c.script.((c.next - 1) mod Array.length c.script)
    in
    let pos = c.next - 1 in
    let t = now () in
    if c.sent = 0 then c.first <- t;
    c.sent <- c.sent + 1;
    if l.verb = "write" then begin
      incr writes;
      Queue.push (base_seq + !writes, t) pending
    end;
    c.inflight <- Some (l, pos, t);
    send_line c.fd l.req
  in
  let on_reply c resp_line t =
    match c.inflight with
    | None -> failwith "unexpected reply"
    | Some (l, pos, t_sent) ->
      c.inflight <- None;
      c.last <- t;
      (match trace with
      | Some _ ->
        Printf.bprintf spans
          "{\"id\":%d,\"name\":\"client.%s\",\"start\":%.9f,\"end\":%.9f,\"parent\":null,\"req\":%d}\n"
          !ids l.verb t_sent t pos;
        incr ids
      | None -> ());
      let resp = W.parse resp_line in
      if c.role = Poll then begin
        match resp with
        | Ok j -> (
          match
            Option.bind (field "replication" j) (field "last_applied")
          with
          | Some (W.Int applied) ->
            let rec pop () =
              match Queue.peek_opt pending with
              | Some (seq, ts) when seq <= applied ->
                ignore (Queue.pop pending);
                Vec.push visible ((t -. ts) *. 1000.);
                pop ()
              | _ -> ()
            in
            pop ();
            last_poll := t
          | _ -> fail "replica" ("no replication.last_applied: " ^ resp_line))
        | Error e -> fail "replica" (W.error_to_string e)
      end
      else begin
        let s = stats l.verb in
        s.attempted <- s.attempted + 1;
        Vec.push s.lat ((t -. t_sent) *. 1e6);
        (match resp with
        | Error e -> fail l.verb (W.error_to_string e)
        | Ok j -> (
          match check l.expect j with
          | None -> ()
          | Some why -> fail l.verb (Printf.sprintf "%s -> %s" l.req why)));
        if c == List.hd conns then begin
          incr completed0;
          match hwm with
          | Some (_, at) when at > 0 && !completed0 = at -> sample_hwm ()
          | _ -> ()
        end
      end
  in
  let want_send c t =
    c.inflight = None
    &&
    match c.role with
    | Cycle -> t < deadline
    | Once min ->
      c.next < Array.length c.script && (t < deadline || c.sent < min)
    | Poll -> (not (Queue.is_empty pending)) && t -. !last_poll >= 0.001
  in
  let rec loop () =
    let t = now () in
    List.iter (fun c -> if want_send c t then send c) conns;
    let busy = List.filter (fun c -> c.inflight <> None) conns in
    let workers_idle =
      List.for_all
        (fun c -> c.role = Poll || (c.inflight = None && not (want_send c t)))
        conns
    in
    let polling =
      List.exists (fun c -> c.role = Poll) conns
      && not (Queue.is_empty pending)
    in
    let finished = workers_idle && ((not polling) || t > drain_limit) in
    if not finished then begin
      let timeout = if polling then 0.001 else 0.05 in
      let ready, _, _ =
        try Unix.select (List.map (fun c -> c.fd) busy) [] [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun c ->
          if List.mem c.fd ready then
            List.iter
              (fun l -> on_reply c l (now ()))
              (read_lines c))
        busy;
      loop ()
    end
  in
  loop ();
  let t1 = now () in
  let cpu1 = Unix.times () in
  Queue.iter (fun _ -> fail "replica" "write never visible on the replica")
    pending;
  sample_hwm ();
  let cpu =
    cpu1.Unix.tms_utime -. cpu0.Unix.tms_utime
    +. (cpu1.Unix.tms_stime -. cpu0.Unix.tms_stime)
  in
  (match trace with
  | Some path ->
    let oc = open_out path in
    Buffer.output_buffer oc spans;
    close_out oc
  | None -> ());
  let verb_json =
    Hashtbl.fold
      (fun v s acc ->
        ( v,
          W.Obj
            [ ("lat_us", floats s.lat);
              ("attempted", W.Int s.attempted);
              ("failed", W.Int s.failed);
              ("errors", W.List (List.map (fun e -> W.String e) s.errors))
            ] )
        :: acc)
      verbs []
  in
  write_json out
    (W.Obj
       [ ("verbs", W.Obj verb_json);
         ( "conns",
           W.List
             (List.filter_map
                (fun c ->
                  if c.role = Poll then None
                  else
                    Some
                      (W.Obj
                         [ ("ops", W.Int c.sent);
                           ("elapsed_s", W.Float (c.last -. c.first))
                         ]))
                conns) );
         ("visible_ms", floats visible);
         ("writes", W.Int !writes);
         ("cpu_s", W.Float cpu);
         ("wall_s", W.Float (t1 -. t0));
         ("hwm_kb", W.Int !hwm_kb)
       ])

(* "ADDR,SCRIPT,ROLE" with ROLE one of cycle, once:N, poll (no script). *)
let parse_conn spec =
  match String.split_on_char ',' spec with
  | [ addr; script; role ] ->
    let role =
      match String.split_on_char ':' role with
      | [ "cycle" ] -> Cycle
      | [ "once"; n ] -> Once (int_of_string n)
      | [ "poll" ] -> Poll
      | _ -> failwith ("bad role: " ^ role)
    in
    let script = if role = Poll then [||] else read_script script in
    { fd = connect addr; role; script; inbuf = Buffer.create 65536;
      next = 0; sent = 0; inflight = None; first = 0.; last = 0. }
  | _ -> failwith ("bad --conn: " ^ spec)
