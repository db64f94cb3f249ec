(* The traced run's in-process replay: the requests the traced load run
   sent are fed, in order, through an in-process engine over the same
   KB, with spans recorded around the public functions of each library
   layer — from this file, not from inside the program.

   For every replayed request:
   - a [request] span holds [server.wire.decode] ([Wire.decode_request]),
     [server.engine.<verb>] ([Engine.handle]) and [server.wire.encode]
     ([Wire.to_string]); a write's [Engine.handle] span holds the
     [persist.append] / [persist.wait_durable] spans of the session
     observer and persistence hooks this file installs;
   - a [layers] span holds [kb.session.lookup] (the read again on the
     engine's session, now a hit) and the layer calls the request stands
     for, computed once per viewpoint and KB version like a cache would:
     [kb.store.to_program], [ground.gop], [core.vfix.lfp] (query),
     [core.stable.search], [solve.flat.compile], [solve.kernel.search]
     (models), [prefer.compile], [prefer.search] (preferred query),
     [kb.session.write] (on an in-memory mirror session),
     [kb.store.copy], [inc.reground], [inc.repair] (write).  The
     residual of Engine.handle subtracts the lookup for a hit and the
     cold layers for a miss;
   - a [crosscheck] span recomputes each read's answer on a scratch
     [Kb.Store] (no session cache, no incremental repair) and compares.

   Every 50 ms of replay time (the replica link's default poll
   interval) a [replica.pull] span serves a [pull] through the engine
   and a [replica.apply] span applies the shipped batch to a replica
   session.  Probe lines (writes and preferred queries on the same KB)
   run after the replay for the verbs the workload itself never sent, so
   every layer is measured on every workload.

   Output: the span file (one JSON object per span: name, start, end,
   parent, req) and a summary of counts, per-request attribution and
   failures. *)

open Common
module Store = Kb.Store
module Session = Kb.Session

type span = {
  sid : int;
  name : string;
  start : float;
  stop : float;
  parent : int;
  req : int;
}

let spans = ref []
let next_sid = ref 0
let stack = ref []
let cur_req = ref (-1)

let span name f =
  let sid = !next_sid in
  incr next_sid;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := sid :: !stack;
  let start = now () in
  let finish () =
    let stop = now () in
    stack := List.tl !stack;
    spans := { sid; name; start; stop; parent; req = !cur_req } :: !spans;
    stop -. start
  in
  match f () with
  | v -> (v, finish ())
  | exception e ->
    ignore (finish () : float);
    raise e

let timed name f = fst (span name f)

(* named samples: counts and per-request figures *)
let samples : (string, Vec.t) Hashtbl.t = Hashtbl.create 32

let sample name x =
  let v =
    match Hashtbl.find_opt samples name with
    | Some v -> v
    | None ->
      let v = Vec.create () in
      Hashtbl.replace samples name v;
      v
  in
  Vec.push v x

let failures = ref []
let failed = ref 0
let attempted = ref 0

let fail why =
  incr failed;
  if List.length !failures < 10 then failures := why :: !failures

(* per-viewpoint layer state, reset for a viewpoint a write can see *)
type view = {
  mutable st : Inc.Reground.state option;
  mutable lm : Logic.Interp.t option;
  mutable models_done : bool;
  mutable prefer_done : bool;
}

let wal_bytes dir =
  Array.fold_left
    (fun acc f ->
      if Filename.check_suffix f ".log" then
        acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
      else acc)
    0 (Sys.readdir dir)

let value_string = function
  | Logic.Interp.True -> "true"
  | Logic.Interp.False -> "false"
  | Logic.Interp.Undefined -> "undefined"

let skeptical ms l =
  match List.map (fun m -> Logic.Interp.value_lit m l) ms with
  | [] -> Logic.Interp.Undefined
  | v0 :: rest ->
    if List.for_all (( = ) v0) rest then v0 else Logic.Interp.Undefined

let complete = function
  | Ordered.Budget.Complete ms -> ms
  | Ordered.Budget.Partial _ -> failwith "budget tripped in the replay"

let run ~kb ~script ~count ~seconds ~probe ~warm ~dir ~spans_out ~out =
  let p, store, _ =
    timed "persist.recover" (fun () ->
        Persist.open_dir
          { Persist.dir; fsync = true; snapshot_every = 0; group_commit_ms = 0 })
  in
  let session = Session.of_store store in
  (* time spent in the persistence hooks, which run inside Engine.handle *)
  let persist_s = ref 0. in
  let hook name f =
    let v, d = span name f in
    persist_s := !persist_s +. d;
    v
  in
  Session.on_mutation session (fun m ->
      hook "persist.append" (fun () -> Persist.append p m));
  let persistence =
    { Server.Engine.snapshot = (fun () -> Persist.snapshot p);
      seq = (fun () -> Persist.seq p);
      epoch = (fun () -> Persist.epoch p);
      wait_durable =
        (fun () -> hook "persist.wait_durable" (fun () -> Persist.wait_durable p));
      tail =
        (fun ~from ~max ->
          match Persist.tail p ~from ~max with
          | Ok _ as ok -> ok
          | Error (`Too_old base) -> Error base);
      snapshot_image = (fun () -> Persist.snapshot_image p)
    }
  in
  let engine = Server.Engine.create ~session ~persistence () in
  let handle_line s =
    match Server.Engine.handle_line engine s with
    | W.Obj _ as r when field "status" r = Some (W.String "ok") -> r
    | r -> failwith ("replay set-up: " ^ W.to_string r)
  in
  if Session.objects session = [] then
    ignore
      (handle_line
         (W.to_string (W.Obj [ ("op", W.String "load"); ("src", W.String kb) ]))
        : W.json);
  (* the mirror session takes the in-memory writes; the replica session
     the shipped batches; the scratch store answers the cross-checks *)
  let base = Store.copy (Session.store session) in
  let mirror = Session.of_store (Store.copy base) in
  let replica = Session.of_store (Store.copy base) in
  let scratch = Store.copy base in
  let replica_seq = ref (Persist.seq p) in
  List.iter
    (fun obj ->
      let q lit = W.Obj [ ("op", W.String "query"); ("obj", W.String obj);
                          ("lit", W.String lit) ] in
      ignore (handle_line (W.to_string (q "flag(a)")) : W.json);
      ignore
        (handle_line
           (W.to_string
              (W.Obj [ ("op", W.String "models"); ("obj", W.String obj);
                       ("kind", W.String "stable") ]))
          : W.json);
      ignore (Session.query_src mirror ~obj "flag(a)" : Logic.Interp.value))
    warm;
  let views = Hashtbl.create 64 in
  let view obj =
    match Hashtbl.find_opt views obj with
    | Some v -> v
    | None ->
      let v = { st = None; lm = None; models_done = false; prefer_done = false } in
      Hashtbl.replace views obj v;
      v
  in
  let grounded obj =
    let v = view obj in
    match v.st with
    | Some st -> st
    | None ->
      let prog = timed "kb.store.to_program" (fun () -> Store.to_program scratch) in
      let st =
        timed "ground.gop" (fun () ->
            Inc.Reground.ground prog
              (Ordered.Program.component_id_exn prog obj))
      in
      let gs = Ordered.Gop.stats st.Inc.Reground.gop in
      sample "ground.atoms" (float gs.Ordered.Gop.atoms);
      sample "ground.rules" (float gs.Ordered.Gop.rules);
      v.st <- Some st;
      st
  in
  let least obj =
    let v = view obj in
    match v.lm with
    | Some lm -> lm
    | None ->
      let st = grounded obj in
      let lm =
        timed "core.vfix.lfp" (fun () ->
            Ordered.Vfix.least_model st.Inc.Reground.gop)
      in
      v.lm <- Some lm;
      lm
  in
  let c0 = Session.counters session in
  let hits = ref 0 and lookups = ref 0 in
  let inc_attempts = ref 0 and inc_fallbacks = ref 0 in
  let last_pull = ref (now ()) in
  let pull () =
    if Persist.seq p > !replica_seq then begin
      let req =
        Replica.Protocol.pull ~from:!replica_seq ~max:512 ~epoch:(Persist.epoch p)
          ~rid:"perfbench" ~durable:!replica_seq ()
      in
      let req =
        match W.decode_request (W.to_string req) with
        | Ok r -> r
        | Error e -> failwith (W.error_to_string e)
      in
      let resp = timed "replica.pull" (fun () -> Server.Engine.handle engine req) in
      match Replica.Protocol.decode_pull resp with
      | Ok (_, _, muts) ->
        sample "replica.records_per_pull" (float (List.length muts));
        timed "replica.apply" (fun () -> Session.apply_batch replica muts);
        replica_seq := !replica_seq + List.length muts
      | Error _ -> fail ("pull: " ^ W.to_string resp)
    end;
    last_pull := now ()
  in
  let seen = Hashtbl.create 4 in
  (* allocation and major collections inside Engine.handle *)
  let minor_words = ref 0. and majors = ref 0 in
  let crosses = Hashtbl.create 64 in
  let replay_line (l : line) =
    incr attempted;
    Hashtbl.replace seen l.verb ();
    let handle_self = ref 0. in
    (* the log's growth is measured around the whole request, outside
       every span *)
    let b0 = if l.verb = "write" then wal_bytes dir else 0 in
    let (req, resp, was_hit), _ =
      span "request" (fun () ->
          let req =
            timed "server.wire.decode" (fun () -> W.decode_request l.req)
          in
          match req with
          | Error e -> failwith ("decode: " ^ W.error_to_string e)
          | Ok req ->
            let c0 = Session.counters session in
            let p0 = !persist_s in
            let w0 = Gc.minor_words () in
            let g0 = (Gc.quick_stat ()).Gc.major_collections in
            let resp, handle_s =
              span ("server.engine." ^ l.verb) (fun () ->
                  Server.Engine.handle engine req)
            in
            minor_words := !minor_words +. (Gc.minor_words () -. w0);
            majors := !majors + (Gc.quick_stat ()).Gc.major_collections - g0;
            let c = Session.counters session in
            let hit =
              c.Session.hits > c0.Session.hits
              && c.Session.misses = c0.Session.misses
            in
            if l.verb <> "write" then begin
              incr lookups;
              if hit then incr hits
            end;
            let s = timed "server.wire.encode" (fun () -> W.to_string resp) in
            sample "server.wire.response_bytes" (float (String.length s));
            handle_self := handle_s -. (!persist_s -. p0);
            (req, resp, hit))
    in
    if l.verb = "write" then
      sample "persist.bytes_per_write" (float (wal_bytes dir - b0));
    (match check l.expect resp with
    | None -> ()
    | Some why -> fail (l.req ^ " -> " ^ why));
    (* layer calls this request stands for; [attr] sums the ones the
       engine itself had to run, for the residual of Engine.handle *)
    let attr = ref 0. in
    let add name f =
      let v, d = span name f in
      attr := !attr +. d;
      v
    in
    (* a hit's work is the lookup; a miss's work is the cold layers *)
    let lookup name f = if was_hit then add name f else timed name f in
    let miss name f = if was_hit then timed name f else add name f in
    (* scratch-store answers per viewpoint, dropped on every write *)
    let cross key f =
      let answer =
        match Hashtbl.find_opt crosses key with
        | Some a -> a
        | None ->
          let a = fst (span "crosscheck" f) in
          Hashtbl.replace crosses key a;
          a
      in
      let got =
        match field "value" resp, field "count" resp with
        | Some (W.String v), _ -> v
        | _, Some (W.Int n) -> string_of_int n
        | _ -> W.to_string resp
      in
      if got <> answer then
        fail (Printf.sprintf "crosscheck %s: scratch store says %s" l.req answer)
    in
    (match req.W.verb with
    | W.Query { obj; lit; prefer = None; _ } ->
      let lit = Lang.Parser.parse_literal lit in
      ignore
        (span "layers" (fun () ->
             ignore
               (lookup "kb.session.lookup" (fun () ->
                    Session.query session ~obj lit)
                 : Logic.Interp.value);
             let v = view obj in
             if v.lm = None then begin
               let t0 = now () in
               ignore (least obj : Logic.Interp.t);
               if not was_hit then attr := !attr +. (now () -. t0)
             end)
          : unit * float);
      cross ("q " ^ obj ^ " " ^ Logic.Literal.to_string lit) (fun () ->
          value_string (Store.query scratch ~obj lit))
    | W.Models { obj; _ } ->
      ignore
        (span "layers" (fun () ->
             ignore
               (lookup "kb.session.lookup" (fun () ->
                    Session.stable_models session ~obj)
                 : Logic.Interp.t list Ordered.Budget.anytime);
             let v = view obj in
             if not v.models_done then begin
               let g = (grounded obj).Inc.Reground.gop in
               let stats = Ordered.Counters.create () in
               ignore
                 (miss "core.stable.search" (fun () ->
                      Ordered.Stable.stable_models ~stats g)
                   : Logic.Interp.t list Ordered.Budget.anytime);
               sample "core.stable.nodes" (float stats.Ordered.Counters.nodes);
               (* the engine's default search is the pruned one: the
                  kernel figures are measured on the same grounding but
                  not attributed to Engine.handle *)
               let flat =
                 timed "solve.flat.compile" (fun () -> Solve.Flat.compile g)
               in
               let ks = Ordered.Counters.create () in
               ignore
                 (timed "solve.kernel.search" (fun () ->
                      Solve.Kernel.stable_models ~stats:ks ~flat g)
                   : Logic.Interp.t list Ordered.Budget.anytime);
               sample "solve.kernel.nodes" (float ks.Ordered.Counters.nodes);
               sample "solve.kernel.conflicts"
                 (float ks.Ordered.Counters.conflicts);
               v.models_done <- true
             end)
          : unit * float);
      cross ("m " ^ obj) (fun () ->
          string_of_int (List.length (complete (Store.stable_models scratch ~obj))))
    | W.Query { obj; lit; prefer = Some _; _ } ->
      let lit = Lang.Parser.parse_literal lit in
      ignore
        (span "layers" (fun () ->
             ignore
               (lookup "kb.session.lookup" (fun () ->
                    Session.preferred_models session ~obj)
                 : Logic.Interp.t list Ordered.Budget.anytime);
             let v = view obj in
             if not v.prefer_done then begin
               let g =
                 miss "prefer.compile" (fun () ->
                     Prefer.Compile.gop
                       (Prefer.Compile.compile (Store.prefer_spec scratch ~obj)))
               in
               ignore
                 (miss "prefer.search" (fun () -> Ordered.Stable.stable_models g)
                   : Logic.Interp.t list Ordered.Budget.anytime);
               v.prefer_done <- true
             end)
          : unit * float);
      cross ("p " ^ obj ^ " " ^ Logic.Literal.to_string lit) (fun () ->
          value_string
            (skeptical (complete (Store.preferred_models scratch ~obj)) lit))
    | W.Add_rule { obj; rule } | W.Remove_rule { obj; rule } ->
      let r = Lang.Parser.parse_rule rule in
      let add_it = match req.W.verb with W.Add_rule _ -> true | _ -> false in
      ignore
        (span "layers" (fun () ->
             add "kb.session.write" (fun () ->
                 if add_it then Session.add_rule mirror ~obj r
                 else ignore (Session.remove_rule mirror ~obj r : bool));
             let m =
               if add_it then Store.Add_rule { obj; rule = r }
               else Store.Remove_rule { obj; rule = r }
             in
             Store.apply scratch m;
             Hashtbl.reset crosses;
             ignore (timed "kb.store.copy" (fun () -> Store.copy scratch) : Store.t);
             (* objects o<i> are leaves below [base]: a write on [obj] is
                seen by the viewpoint [obj] only *)
             match Hashtbl.find_opt views obj with
             | None -> ()
             | Some v -> (
               v.models_done <- false;
               v.prefer_done <- false;
               match v.st with
               | None -> ()
               | Some st -> (
               incr inc_attempts;
               let prog =
                 timed "kb.store.to_program" (fun () -> Store.to_program scratch)
               in
               match
                 timed "inc.reground" (fun () ->
                     Inc.Reground.reground st ~program:prog)
               with
               | Ok (st', d) -> (
                 v.st <- Some st';
                 match v.lm with
                 | None -> ()
                 | Some previous -> (
                   match
                     timed "inc.repair" (fun () ->
                         Inc.Repair.least_model ~previous st'.Inc.Reground.gop d)
                   with
                   | Inc.Repair.Unchanged -> ()
                   | Inc.Repair.Repaired lm -> v.lm <- Some lm
                   | Inc.Repair.Recomputed lm ->
                     incr inc_fallbacks;
                     v.lm <- Some lm))
               | Error _ ->
                 incr inc_fallbacks;
                 v.st <- None;
                 v.lm <- None)))
          : unit * float);
      if now () -. !last_pull >= 0.05 then pull ()
    | _ -> failwith ("replay: unexpected request " ^ l.req));
    sample ("trace.residual_" ^ l.verb ^ "_us") ((!handle_self -. !attr) *. 1e6)
  in
  let lines = read_script script in
  let t0 = now () in
  let n = ref 0 in
  while !n < count && now () -. t0 < seconds do
    cur_req := !n;
    replay_line lines.(!n mod Array.length lines);
    incr n
  done;
  let probes = read_script probe in
  let unseen = List.filter (fun v -> not (Hashtbl.mem seen v)) [ "write"; "prefer" ] in
  Array.iteri
    (fun i (l : line) ->
      (* probe reads belong to their write pairs *)
      let group = if l.verb = "prefer" then "prefer" else "write" in
      if List.mem group unseen then begin
        cur_req := -2 - i;
        replay_line l
      end)
    probes;
  pull ();
  let c1 = Session.counters session in
  Persist.close p;
  let oc = open_out spans_out in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"parent\":%s,\"req\":%d}\n"
        s.sid s.name s.start s.stop
        (if s.parent < 0 then "null" else string_of_int s.parent)
        s.req)
    (List.rev !spans);
  close_out oc;
  let kept = c1.Session.kept - c0.Session.kept in
  let evicted = c1.Session.evictions - c0.Session.evictions in
  write_json out
    (W.Obj
       ([ ("attempted", W.Int !attempted);
          ("failed", W.Int !failed);
          ("errors", W.List (List.map (fun e -> W.String e) !failures));
          ("kb.session.hit_ratio",
           W.Float (float !hits /. float (max 1 !lookups)));
          ("kb.session.kept_ratio",
           W.Float (float kept /. float (max 1 (kept + evicted))));
          ("inc.fallback_ratio",
           W.Float (float !inc_fallbacks /. float (max 1 !inc_attempts)));
          ("gc.minor_words_per_op", W.Float (!minor_words /. float (max 1 !attempted)));
          ("gc.major_collections", W.Int !majors)
        ]
       @ Hashtbl.fold (fun k v acc -> (k, floats v) :: acc) samples []))

let main args =
  let kb = ref "" and script = ref "" and count = ref max_int in
  let seconds = ref 5. and probe = ref "" and warm = ref "" and dir = ref "" in
  let spans_out = ref "" and out = ref "" in
  Arg.parse_argv ~current:(ref 0) args
    [ ("--kb", Arg.Set_string kb, "");
      ("--script", Arg.Set_string script, "");
      ("--count", Arg.Set_int count, "");
      ("--seconds", Arg.Set_float seconds, "");
      ("--probe", Arg.Set_string probe, "");
      ("--warm", Arg.Set_string warm, "");
      ("--data-dir", Arg.Set_string dir, "");
      ("--spans", Arg.Set_string spans_out, "");
      ("--out", Arg.Set_string out, "")
    ]
    (fun a -> failwith ("unexpected argument " ^ a))
    "olpbench replay";
  let warm =
    In_channel.with_open_text !warm In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  run
    ~kb:(In_channel.with_open_bin !kb In_channel.input_all)
    ~script:!script ~count:!count ~seconds:!seconds ~probe:!probe
    ~warm ~dir:!dir ~spans_out:!spans_out ~out:!out
