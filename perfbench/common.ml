(* Shared by the load generator and the traced replay: request scripts,
   answer checking, growable sample vectors and JSON output helpers. *)

module W = Server.Wire

(* Monotonic seconds, nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* One scripted request: its verb class (query, models, prefer, write),
   the answer the generator knows by construction, and the request line
   exactly as sent. *)
type line = { verb : string; expect : W.json; req : string }

let read_script path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
      close_in ic;
      Array.of_list (List.rev acc)
    | s -> (
      match String.split_on_char '\t' s with
      | [ verb; expect; req ] -> (
        match W.parse expect with
        | Ok expect -> go ({ verb; expect; req } :: acc)
        | Error e -> failwith ("bad expectation: " ^ W.error_to_string e))
      | _ -> failwith ("bad script line: " ^ s))
  in
  go []

let field k j = W.member k j

(* [None] when the response matches the expectation, otherwise a short
   reason.  Expectation keys: "value" (query answer), "count" (number of
   models), "every" (a literal each model must contain), "removed"
   (remove_rule outcome); an empty object asks only for status ok. *)
let check (expect : W.json) (resp : W.json) =
  match field "status" resp with
  | Some (W.String "ok") -> (
    let want k = field k expect in
    let mismatch k =
      Some
        (Printf.sprintf "%s: want %s, got %s" k
           (match want k with Some j -> W.to_string j | None -> "-")
           (match field k resp with Some j -> W.to_string j | None -> "-"))
    in
    let same k =
      match want k with
      | None -> true
      | Some j -> field k resp = Some j
    in
    if not (same "value") then mismatch "value"
    else if not (same "count") then mismatch "count"
    else if not (same "removed") then mismatch "removed"
    else
      match want "every", field "models" resp with
      | None, _ -> None
      | Some lit, Some (W.List ms) ->
        if
          List.for_all
            (function W.List m -> List.mem lit m | _ -> false)
            ms
        then None
        else mismatch "every"
      | Some _, _ -> mismatch "every")
  | _ -> Some ("not ok: " ^ W.to_string resp)

(* Growable float vector: samples stay in memory until the run ends. *)
module Vec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0. in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_list v = List.init v.n (fun i -> v.a.(i))
end

let floats v = W.List (List.map (fun x -> W.Float x) (Vec.to_list v))

let write_json path j =
  let oc = open_out path in
  output_string oc (W.to_string j);
  output_char oc '\n';
  close_out oc

(* Peak resident set of a process, in kB, from /proc. *)
let vm_hwm_kb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> 0
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf l "VmHWM: %d" Fun.id
    | _ -> go ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) go
