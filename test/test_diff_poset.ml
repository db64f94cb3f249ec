(* Differential testing of [Ordered.Poset] (sorted ancestor arrays built
   by a memoised DFS) against a reference dense closure: an n × n boolean
   matrix closed by Warshall, with every query answered by scanning all
   ids.  On random declared pair lists — acyclic ones, arbitrary ones
   (mostly cyclic) and ones with out-of-range ids — both must return the
   same [Error] string, or agree on [lt], [leq], [incomparable], [above],
   [below], [rank], [minimal], [maximal] and [covers].  Iteration counts
   scale with FUZZ_ITERS, like the other fuzz suites. *)

open Helpers
module Gen = QCheck2.Gen
module Poset = Ordered.Poset

let iters base =
  match Sys.getenv_opt "FUZZ_ITERS" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > base -> n
    | _ -> base)
  | None -> base

(* The reference: the closure as a matrix, queries by exhaustive scan. *)
module Matrix = struct
  type t = { n : int; lt : bool array array }

  let make ~n ~pairs =
    let lt = Array.make_matrix n n false in
    let bad =
      List.find_opt (fun (a, b) -> a < 0 || a >= n || b < 0 || b >= n) pairs
    in
    match bad with
    | Some (a, b) ->
      Error (Printf.sprintf "order pair (%d, %d) out of range" a b)
    | None -> (
      List.iter (fun (a, b) -> lt.(a).(b) <- true) pairs;
      for k = 0 to n - 1 do
        for i = 0 to n - 1 do
          if lt.(i).(k) then
            for j = 0 to n - 1 do
              if lt.(k).(j) then lt.(i).(j) <- true
            done
        done
      done;
      let cyclic = ref None in
      for i = 0 to n - 1 do
        if lt.(i).(i) && !cyclic = None then cyclic := Some i
      done;
      match !cyclic with
      | Some i ->
        Error
          (Printf.sprintf "the component order has a cycle through id %d" i)
      | None -> Ok { n; lt })

  let ids t = List.init t.n Fun.id
  let lt t a b = t.lt.(a).(b)
  let leq t a b = a = b || lt t a b
  let incomparable t a b = a <> b && (not (lt t a b)) && not (lt t b a)
  let above t a = List.filter (fun b -> leq t a b) (ids t)
  let below t a = List.filter (fun b -> leq t b a) (ids t)

  let minimal t =
    List.filter (fun a -> not (List.exists (fun b -> lt t b a) (ids t))) (ids t)

  let maximal t =
    List.filter (fun a -> not (List.exists (fun b -> lt t a b) (ids t))) (ids t)

  (* rank by fixpoint: one more than the highest rank strictly below *)
  let rank t =
    let r = Array.make t.n 0 in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if lt t a b && r.(b) < r.(a) + 1 then begin
                r.(b) <- r.(a) + 1;
                changed := true
              end)
            (ids t))
        (ids t)
    done;
    r

  let covers t =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if
              lt t a b
              && not (List.exists (fun c -> lt t a c && lt t c b) (ids t))
            then Some (a, b)
            else None)
          (ids t))
      (ids t)
end

(* Pair lists over [0 .. n-1]: acyclic (oriented by random keys, so not
   always low id below high id), arbitrary (cycles and self-loops likely),
   or arbitrary with ids one outside the range on either side. *)
let gen_case =
  let open Gen in
  let* n = frequency [ (4, int_range 0 8); (1, int_range 9 30) ] in
  let pair lo hi = pair (int_range lo hi) (int_range lo hi) in
  let count = int_range 0 (2 * n + 2) in
  let* pairs =
    frequency
      [ ( 5,
          let* keys = list_size (return n) (int_bound 1000) in
          let key = Array.of_list keys in
          let+ ps = list_size count (pair 0 (max 0 (n - 1))) in
          List.filter_map
            (fun (a, b) ->
              if n = 0 || a = b then None
              else if (key.(a), a) < (key.(b), b) then Some (a, b)
              else Some (b, a))
            ps );
        (3, if n = 0 then return [] else list_size count (pair 0 (n - 1)));
        (1, list_size count (pair (-1) n))
      ]
  in
  return (n, pairs)

let print_case (n, pairs) =
  Printf.sprintf "n=%d pairs=[%s]" n
    (String.concat "; "
       (List.map (fun (a, b) -> Printf.sprintf "(%d, %d)" a b) pairs))

let agree (n, pairs) =
  match Poset.make ~n ~pairs, Matrix.make ~n ~pairs with
  | Error e, Error e' -> String.equal e e'
  | Ok _, Error _ | Error _, Ok _ -> false
  | Ok t, Ok m ->
    let ids = Matrix.ids m in
    let rank = Matrix.rank m in
    Poset.size t = n
    && List.for_all
         (fun a ->
           List.for_all
             (fun b ->
               Poset.lt t a b = Matrix.lt m a b
               && Poset.leq t a b = Matrix.leq m a b
               && Poset.incomparable t a b = Matrix.incomparable m a b)
             ids
           && Poset.above t a = Matrix.above m a
           && Poset.below t a = Matrix.below m a
           && Poset.rank t a = rank.(a))
         ids
    && Poset.minimal t = Matrix.minimal m
    && Poset.maximal t = Matrix.maximal m
    && Poset.covers t = Matrix.covers m

let prop_agree =
  qcheck ~count:(iters 1000) ~print:print_case
    "ancestor arrays = Warshall matrix: queries and errors" gen_case agree

(* The generator must reach every branch it claims to. *)
let test_reaches_all_outcomes () =
  let rand = Random.State.make [| 7 |] in
  let cases = List.init 500 (fun _ -> Gen.generate1 ~rand gen_case) in
  let outcome c =
    match Matrix.make ~n:(fst c) ~pairs:(snd c) with
    | Ok _ -> "ok"
    | Error e when String.ends_with ~suffix:"out of range" e -> "range"
    | Error _ -> "cycle"
  in
  List.iter
    (fun o ->
      Alcotest.(check bool)
        ("generator reaches " ^ o) true
        (List.exists (fun c -> outcome c = o) cases))
    [ "ok"; "range"; "cycle" ]

let suite =
  [ prop_agree;
    Alcotest.test_case "generator reaches ok, cycle and range" `Quick
      test_reaches_all_outcomes
  ]
