(* Stable models of ordered programs (Definition 9, Example 5). *)

open Logic
open Helpers

let p5_src =
  {| component c2 { a. b. c. }
     component c1 extends c2 {
       -a :- b, c.
       -b :- a.
       -b :- -b.
     } |}

let test_example5_stable_models () =
  let p = program p5_src in
  let g = ground_at p "c1" in
  Alcotest.check testable_interp_set
    "{a, -b, c} and {-a, b, c} are the stable models"
    [ interp [ "a"; "-b"; "c" ]; interp [ "-a"; "b"; "c" ] ]
    (Ordered.Budget.value (Ordered.Stable.stable_models g))

let test_example5_assumption_free_non_stable () =
  let p = program p5_src in
  let g = ground_at p "c1" in
  let c_only = interp [ "c" ] in
  Alcotest.(check bool) "{c} assumption-free" true
    (Ordered.Model.is_assumption_free g c_only);
  Alcotest.(check bool) "{c} not stable" false (Ordered.Stable.is_stable g c_only);
  Alcotest.(check bool) "{a, -b, c} stable" true
    (Ordered.Stable.is_stable g (interp [ "a"; "-b"; "c" ]));
  (* {c} is the least model *)
  Alcotest.check testable_interp "{c} is the least model" c_only
    (Ordered.Vfix.least_model g)

let test_least_model_in_every_assumption_free () =
  (* Theorem 1(b): the least fixpoint is contained in every model, in
     particular in every assumption-free model. *)
  List.iter
    (fun src ->
      let p = program src in
      let g = ground_at p (Ordered.Program.component_name p 0) in
      let least = Ordered.Vfix.least_model g in
      List.iter
        (fun m ->
          Alcotest.(check bool)
            (Format.asprintf "%a <= %a" Interp.pp least Interp.pp m)
            true (Interp.subset least m))
        (Ordered.Budget.value (Ordered.Stable.assumption_free_models g)))
    [ p5_src;
      "component main { a :- b. -a :- b. }";
      "component x { p. -q :- p. } component y extends x { q. }"
    ]

let test_stable_limit () =
  let p = program p5_src in
  let g = ground_at p "c1" in
  Alcotest.(check bool) "limit caps enumeration" true
    (List.length (Ordered.Budget.value (Ordered.Stable.assumption_free_models ~limit:1 g)) = 1)

let test_stable_of_contradictory_facts () =
  (* Two contradictory facts in one component defeat each other: no stable
     model decides p. *)
  let p = program "component main { p. -p. q. }" in
  let g = ground_at p "main" in
  Alcotest.check testable_interp_set "only q is stable"
    [ interp [ "q" ] ]
    (Ordered.Budget.value (Ordered.Stable.stable_models g));
  (* In split components the lower one wins. *)
  let p2 = program "component hi { p. q. } component lo extends hi { -p. }" in
  let g2 = ground_at p2 "lo" in
  Alcotest.check testable_interp_set "overruling decides"
    [ interp [ "-p"; "q" ] ]
    (Ordered.Budget.value (Ordered.Stable.stable_models g2))

let test_stable_models_are_assumption_free_models () =
  let p = program p5_src in
  let g = ground_at p "c1" in
  List.iter
    (fun m ->
      Alcotest.(check bool) "stable => assumption-free" true
        (Ordered.Model.is_assumption_free g m);
      Alcotest.(check bool) "stable => model" true (Ordered.Model.is_model g m))
    (Ordered.Budget.value (Ordered.Stable.stable_models g))

let test_cautious_brave () =
  let p = program p5_src in
  let g = ground_at p "c1" in
  Alcotest.(check bool) "c cautious" true (Ordered.Stable.cautious g (lit "c"));
  Alcotest.(check bool) "a not cautious" false
    (Ordered.Stable.cautious g (lit "a"));
  Alcotest.(check bool) "a brave" true (Ordered.Stable.brave g (lit "a"));
  Alcotest.(check bool) "-a brave" true (Ordered.Stable.brave g (lit "-a"));
  Alcotest.(check bool) "-c not brave" false (Ordered.Stable.brave g (lit "-c"));
  let cc = Ordered.Stable.cautious_consequences g in
  Alcotest.check testable_interp "cautious consequences" (interp [ "c" ]) cc;
  Alcotest.(check bool) "least model below cautious consequences" true
    (Interp.subset (Ordered.Vfix.least_model g) cc)

let loops4_src =
  {| component cwa { -p0. -q0. -p1. -q1. -p2. -q2. -p3. -q3. }
     component main extends cwa {
       p0 :- -q0. q0 :- -p0.  p1 :- -q1. q1 :- -p1.
       p2 :- -q2. q2 :- -p2.  p3 :- -q3. q3 :- -p3.
     } |}

(* Four even loops over closed-world defaults: each loop stays open or
   closes either way, so 3^4 = 81 assumption-free models, and the
   2^4 = 16 with every loop closed are the stable ones.  Both production
   engines filter maximality on their encoded leaves; the result must be
   the interpretation-level oracle filter of the same enumeration, in
   order, and the search must be the same one the assumption-free
   enumeration runs (counters pinned, as in the CLI tests). *)
let test_even_loops () =
  let g = ground_at (program loops4_src) "main" in
  let run name af st ~nodes =
    let c_af = Ordered.Counters.create () in
    let c_st = Ordered.Counters.create () in
    let af = Ordered.Budget.value (af ~stats:c_af g) in
    let st = Ordered.Budget.value (st ~stats:c_st g) in
    Alcotest.(check int) (name ^ ": assumption-free") 81 (List.length af);
    Alcotest.(check int) (name ^ ": stable") 16 (List.length st);
    Alcotest.(check (list testable_interp))
      (name ^ ": stable = oracle maximal, in order")
      (Ordered.Stable.Naive.maximal af) st;
    Alcotest.(check bool) (name ^ ": every loop closed") true
      (List.for_all (fun m -> Interp.cardinal m = 8) st);
    Alcotest.(check int) (name ^ ": nodes") nodes c_st.Ordered.Counters.nodes;
    Alcotest.(check bool) (name ^ ": same search as assumption-free") true
      (c_af = c_st);
    (af, st)
  in
  let pruned =
    run "pruned" ~nodes:241
      (fun ~stats g -> Ordered.Stable.assumption_free_models ~stats g)
      (fun ~stats g -> Ordered.Stable.stable_models ~stats g)
  in
  let compiled =
    run "compiled" ~nodes:169
      (fun ~stats g -> Solve.Kernel.assumption_free_models ~stats g)
      (fun ~stats g -> Solve.Kernel.stable_models ~stats g)
  in
  Alcotest.(check (pair (list testable_interp) (list testable_interp)))
    "pruned = compiled, in order" pruned compiled

let suite =
  [ Alcotest.test_case "Example 5: two stable models" `Quick
      test_example5_stable_models;
    Alcotest.test_case "Example 5: {c} assumption-free, not stable" `Quick
      test_example5_assumption_free_non_stable;
    Alcotest.test_case "Theorem 1(b): least model below all" `Quick
      test_least_model_in_every_assumption_free;
    Alcotest.test_case "enumeration limit" `Quick test_stable_limit;
    Alcotest.test_case "contradictory facts" `Quick test_stable_of_contradictory_facts;
    Alcotest.test_case "stable models are assumption-free models" `Quick
      test_stable_models_are_assumption_free_models;
    Alcotest.test_case "cautious and brave entailment" `Quick
      test_cautious_brave;
    Alcotest.test_case "four even loops: 81 assumption-free, 16 stable"
      `Quick test_even_loops
  ]
